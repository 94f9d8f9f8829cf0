"""The Arrow grouped top-k (``arrowutil.grouped_topk``) and its Dataset
completion (``arrowutil.topk_complete``): equality with a pandas
``sort_values`` + ``groupby(dropna=True).head(k)`` + ``cumcount``
reference, and block-split invariance of both completion paths.

The generated inputs draw scores from small pools so ties at the k-th
row are the common case, and include null keys, NaN, ``-0.0``/``0.0``
and INT64_MIN/INT64_MAX scores (an INT64_MIN score must sort as the
smallest value under a descending order: a negated copy would wrap to
itself), string and non-ASCII keys, k larger than a group, and empty
input."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinicaltransformerner_ray.arrowutil import grouped_topk, topk_complete

SF = "/root/testdata/sf0.001"

I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

FLOAT_SCORES = [float("nan"), -0.0, 0.0, 1.0, -1.0, 2.5]
INT_SCORES = [I64_MIN, I64_MAX, -1, 0, 1]
STR_KEYS = ["", "a", "ab", "B", "é", "日本", "ß"]
INT_KEYS = [0, 1, 2, -3]


@st.composite
def topk_cases(draw, null_keys: bool = True, min_rows: int = 0):
    n = draw(st.integers(min_rows, 40))
    key_pool = draw(st.sampled_from([STR_KEYS, INT_KEYS]))
    key_type = pa.string() if key_pool is STR_KEYS else pa.int64()
    null = [None] if null_keys else []
    key_vals = st.sampled_from(key_pool + null)
    score_pool = draw(st.sampled_from([FLOAT_SCORES, INT_SCORES]))
    score_type = pa.float64() if score_pool is FLOAT_SCORES else pa.int64()
    ids = draw(st.permutations(list(range(n))))
    table = pa.table({
        "g1": pa.array(draw(st.lists(key_vals, min_size=n, max_size=n)),
                       key_type),
        "g2": pa.array(draw(st.lists(st.sampled_from(["x", "y"] + null),
                                     min_size=n, max_size=n)),
                       pa.string()),
        "score": pa.array(draw(st.lists(st.sampled_from(score_pool),
                                        min_size=n, max_size=n)),
                          score_type),
        "id": pa.array(ids, pa.int64()),
    })
    keys = draw(st.sampled_from([[], ["g1"], ["g1", "g2"]]))
    direction = draw(st.sampled_from(["descending", "ascending"]))
    k = draw(st.integers(1, 6))
    rank = draw(st.sampled_from([None, "rk"]))
    return table, keys, [("score", direction), ("id", "ascending")], k, rank


def _reference(table: pa.Table, keys, order, k, rank) -> pd.DataFrame:
    """pandas: stable multi-column sort (NaN last), then the first k
    rows per key group; null-key groups dropped."""
    df = table.to_pandas()
    df = df.sort_values(
        list(keys) + [c for c, _ in order],
        ascending=[True] * len(keys) + [d == "ascending" for _, d in order],
        kind="stable", na_position="last")
    if keys:
        g = df.groupby(keys, dropna=True, sort=False)
        out = g.head(k)
        rk = g.cumcount().loc[out.index] + 1
    else:
        out = df.head(k)
        rk = pd.Series(np.arange(1, len(out) + 1), index=out.index)
    out = out.reset_index(drop=True)
    if rank is not None:
        out[rank] = rk.to_numpy(dtype=np.int64)
    return out


def _bits(t: pa.Table) -> tuple:
    """Schema plus every column's values, floats as their int64 bit
    patterns, so NaN equals NaN and -0.0 differs from 0.0."""
    cols = []
    for col in t.combine_chunks().columns:
        if pa.types.is_floating(col.type):
            cols.append(np.asarray(col.to_numpy(zero_copy_only=False),
                                   np.float64).view(np.int64).tolist())
        else:
            cols.append(col.to_pylist())
    return t.schema, cols


@settings(max_examples=300, deadline=None)
@given(topk_cases())
def test_grouped_topk_matches_pandas_reference(case):
    table, keys, order, k, rank = case
    got = grouped_topk(table, keys, order, k, rank=rank)
    exp = _reference(table, keys, order, k, rank)

    names = table.schema.names + ([rank] if rank else [])
    assert got.schema.names == names
    for c in table.schema.names:
        assert got.schema.field(c).type == table.schema.field(c).type
    if rank:
        assert got.schema.field(rank).type == pa.int64()
    # ids are unique, so the id sequence pins the rows and their order
    assert got.column("id").to_pylist() == exp["id"].tolist()
    if rank:
        assert got.column(rank).to_pylist() == exp[rank].tolist()
    # the selected rows carry their own score bits (-0.0 stays -0.0)
    by_id = dict(zip(table.column("id").to_pylist(),
                     _bits(table.select(["score"]))[1][0]))
    assert (_bits(got.select(["score"]))[1][0]
            == [by_id[i] for i in got.column("id").to_pylist()])


def test_grouped_topk_descending_int64_min_is_last():
    """The negate-and-ascend trap: -INT64_MIN wraps to INT64_MIN, so a
    negated sort ranks the minimum FIRST.  A descending sort ranks it
    last, as SQL's ORDER BY score DESC does."""
    t = pa.table({"score": pa.array([I64_MIN, 5, -7], pa.int64()),
                  "id": pa.array([0, 1, 2], pa.int64())})
    got = grouped_topk(t, [], [("score", "descending"),
                               ("id", "ascending")], 2, rank="rk")
    assert got.column("id").to_pylist() == [1, 2]
    assert got.column("rk").to_pylist() == [1, 2]


def test_grouped_topk_empty_keeps_schema():
    t = pa.table({"g": pa.array([], pa.string()),
                  "score": pa.array([], pa.float64()),
                  "id": pa.array([], pa.int64())})
    got = grouped_topk(t, ["g"], [("score", "descending"),
                                  ("id", "ascending")], 3, rank="rank")
    assert got.num_rows == 0
    assert got.schema == t.schema.append(pa.field("rank", pa.int64()))


@settings(max_examples=12, deadline=None)
@given(topk_cases(null_keys=False, min_rows=1))
def test_topk_complete_is_block_split_invariant(ray_session, case):
    """Cutting each block, then completing over several block splits,
    gives the same bytes as one ``grouped_topk`` over the whole table:
    keyed (one sort, per-block completion) and keyless (driver fold)."""
    import ray
    import ray.data as rd

    table, keys, order, k, rank = case
    exp = _bits(grouped_topk(table, keys, order, k, rank=rank))
    for n_blocks in (1, 3, 7):
        ds = rd.from_arrow(table).repartition(n_blocks).map_batches(
            grouped_topk, fn_args=(keys, order, k),
            batch_format="pyarrow", batch_size=None)
        out = topk_complete(ds, keys, order, k, rank=rank)
        if keys:  # a Sort's empty blocks carry no schema: skip them
            out = pa.concat_tables([b for b in (
                ray.get(r) for r in out.to_arrow_refs()) if b.num_rows])
        assert _bits(out) == exp, n_blocks


def test_topk_complete_keyless_empty_input(ray_session):
    """No rows: the keyless fold returns the UDF's empty schema when a
    UDF ran, and raises when none did (Ray then has no schema)."""
    import ray.data as rd

    t = pa.table({"score": pa.array([1.0], pa.float64()),
                  "id": pa.array([0], pa.int64())})
    order = [("score", "descending"), ("id", "ascending")]
    none = rd.from_arrow(t).map_batches(
        lambda b: b.filter(pa.array([False] * b.num_rows)),
        batch_format="pyarrow")
    got = topk_complete(none, [], order, 3, rank="rank")
    assert got.num_rows == 0
    assert got.schema == t.schema.append(pa.field("rank", pa.int64()))
    with pytest.raises(ValueError, match="no rows"):
        topk_complete(rd.from_arrow(t.slice(0, 0)).map_batches(
            grouped_topk, fn_args=([], order, 3), batch_format="pyarrow"),
            [], order, 3)


def test_topk_complete_keyless_empty_fallback(ray_session):
    """With no rows and no schema, ``empty=`` types the result."""
    import ray.data as rd

    t = pa.table({"score": pa.array([1.0], pa.float64()),
                  "id": pa.array([0], pa.int64())})
    order = [("score", "descending"), ("id", "ascending")]
    got = topk_complete(rd.from_arrow(t.slice(0, 0)).map_batches(
        grouped_topk, fn_args=([], order, 3), batch_format="pyarrow"),
        [], order, 3, rank="rank", empty=t.slice(0, 0))
    assert got.num_rows == 0
    assert got.schema == t.schema.append(pa.field("rank", pa.int64()))


def _keyless_topk_ops():
    """The five ops that end in a keyless ``topk_complete``, each as
    ``op(read)`` where ``read(name, cols)`` gives one input table."""
    from clinicaltransformerner_ray.pipelines import relational as rel
    from clinicaltransformerner_ray.pipelines import textstats as ts

    li = ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate",
          "l_returnflag"]
    docs = ["doc_id", "text", "source"]
    return {
        "weighted_sample": lambda r: ts.weighted_sample(
            r("documents", docs), k=5),
        "dsir_select": lambda r: ts.dsir_select(
            r("documents", docs), target_source="src0", n_buckets=64,
            m=5),
        "bpe_train": lambda r: ts.bpe_train(r("documents", docs)),
        "top_unshipped_orders": lambda r: rel.top_unshipped_orders(
            r("lineitem", li),
            r("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_orderpriority"]),
            r("customer", ["c_custkey", "c_mktsegment"])),
        "returned_top": lambda r: rel.returned_top(
            r("lineitem", li),
            r("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
            r("customer", ["c_custkey", "c_name", "c_nationkey"]), {}),
    }


@pytest.mark.parametrize("op", sorted(_keyless_topk_ops()))
def test_keyless_topk_ops_type_an_empty_input(ray_session, op):
    """An input with no rows reaches the keyless fold with no schema
    (its map never ran); the op still returns a typed empty table with
    the schema of its result on real rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    import ray

    run = _keyless_topk_ops()[op]

    def result(n_rows):
        def read(name, cols):
            t = pq.read_table(f"{SF}/{name}.parquet", columns=cols)
            return rd.from_arrow(t.slice(0, n_rows))

        out = run(read)
        if isinstance(out, pa.Table):
            return out
        return pa.concat_tables(ray.get(out.to_arrow_refs()))

    full, empty = result(None), result(0)
    assert full.num_rows > 0
    assert empty.num_rows == 0
    assert empty.schema == full.schema


def test_winnow_pairs_raises_on_a_bucket_past_the_cap(ray_session):
    """A fingerprint shared by more docs than ``max_bucket`` raises and
    names the hash and its doc count, instead of pairing a subset."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import winnow_pairs

    text = "the same boilerplate line repeated in every doc here"
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([text] * 6, pa.string()),
    }))
    # Ray re-raises a task's error as RayTaskError(UserCodeException);
    # the ValueError and its message travel in the text
    with pytest.raises(Exception, match=r"ValueError: winnow_pairs: "
                       r"hash \d+ is shared by 6 docs"):
        winnow_pairs(docs, n=3, w=4, min_shared=1,
                     max_bucket=4).materialize()
    # at the cap the same docs pair normally
    got = winnow_pairs(docs, n=3, w=4, min_shared=1,
                       max_bucket=6).to_pandas()
    assert len(got) == 15
