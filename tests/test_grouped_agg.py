"""The Arrow grouped aggregate (``arrowutil.grouped_agg``), its driver
fold (``arrowutil.agg_fold``) and the KG operators built on them —
``emit_triples``, ``canonical_entities``, ``mention_counts`` and the
linked-table analytics: block-split invariance, equality with a pandas
groupby reference, the fold's cap and empty input, and the edge cases
the aggregate has to get right (minima from different rows, count ties,
two types, null keys)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

TRIPLE_KEYS = ["subj", "pred", "obj"]


def _rows(ds) -> pa.Table:
    import ray

    t = pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])
    return t.sort_by([(c, "ascending") for c in t.schema.names])


def _frame(t: pa.Table) -> pd.DataFrame:
    return (t.to_pandas().sort_values(list(t.schema.names))
            .reset_index(drop=True))


def _pandas_triples(linked: pd.DataFrame) -> pd.DataFrame:
    """co_occurs / follows evidence by pandas merges over the distinct
    (conv_id, turn_idx, entity_id) rows, then one pandas groupby."""
    te = linked[["conv_id", "turn_idx", "entity_id"]].drop_duplicates()
    te = te.assign(turn_idx=te["turn_idx"].astype(np.int64))
    co = te.merge(te, on=["conv_id", "turn_idx"])
    co = co[co["entity_id_x"] < co["entity_id_y"]].assign(pred="co_occurs")
    nxt = te.assign(turn_idx=te["turn_idx"] - 1)
    fo = te.merge(nxt, on=["conv_id", "turn_idx"])
    fo = fo[fo["entity_id_x"] != fo["entity_id_y"]].assign(pred="follows")
    ev = pd.concat([co, fo]).rename(
        columns={"entity_id_x": "subj", "entity_id_y": "obj"})
    g = ev.groupby(TRIPLE_KEYS).agg(
        n_evidence=("conv_id", "size"),
        first_conv_id=("conv_id", "min"),
        first_turn_idx=("turn_idx", "min")).reset_index()
    g["n_evidence"] = g["n_evidence"].astype(np.int64)
    return g.sort_values(list(g.columns)).reset_index(drop=True)


def _pandas_entities(linked: pd.DataFrame) -> pd.DataFrame:
    """The canonicalization as a pandas groupby over the whole table."""
    g = (linked.assign(pn=1)
         .groupby(["entity_id", "type", "surface_norm"])["pn"].sum()
         .reset_index())
    tot = g.groupby(["entity_id", "type"]).agg(
        n_mentions=("pn", "sum"),
        n_surfaces=("surface_norm", "nunique")).reset_index()
    top = (g.sort_values(["pn", "surface_norm"], ascending=[False, True])
           .drop_duplicates("entity_id")[["entity_id", "surface_norm"]]
           .rename(columns={"surface_norm": "canonical_surface"}))
    out = tot.merge(top, on="entity_id")[
        ["entity_id", "type", "canonical_surface", "n_mentions",
         "n_surfaces"]]
    out = out.astype({"n_mentions": np.int64, "n_surfaces": np.int64})
    return out.sort_values(list(out.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def linked(ray_session):
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    return kg_pipeline(SF)["linked"]


# -- grouped_agg ----------------------------------------------------------

def test_grouped_agg_plain_names_keys_first():
    from clinicaltransformerner_ray.arrowutil import grouped_agg

    t = pa.table({"v": pa.array([3, 1, 2], pa.int64()),
                  "k": pa.array(["b", "a", "b"]),
                  "s": pa.array(["z", "y", "x"])})
    out = grouped_agg(t, ["k"], [("v", "sum"), ("s", "min")])
    assert out.schema.names == ["k", "v", "s"]
    assert out.schema.metadata is None
    assert sorted(out.to_pylist(), key=lambda r: r["k"]) == [
        {"k": "a", "v": 1, "s": "y"}, {"k": "b", "v": 5, "s": "x"}]
    # a partial-row input keeps its schema, so the call can run again
    assert grouped_agg(out, ["k"], [("v", "sum"), ("s", "min")]).equals(out)


def test_grouped_agg_drops_null_keys_like_pandas():
    from clinicaltransformerner_ray.arrowutil import grouped_agg

    t = pa.table({"a": pa.array(["x", None, "x", "y"]),
                  "b": pa.array([1, 1, None, 2], pa.int64()),
                  "n": pa.array([1, 10, 100, 1000], pa.int64())})
    out = grouped_agg(t, ["a", "b"], [("n", "sum")])
    assert sorted(out.to_pylist(), key=lambda r: r["a"]) == [
        {"a": "x", "b": 1, "n": 1}, {"a": "y", "b": 2, "n": 1000}]
    ref = t.to_pandas().groupby(["a", "b"])["n"].sum()
    assert ref.to_dict() == {("x", 1.0): 1, ("y", 2.0): 1000}
    # an all-null key column leaves an empty, typed result
    empty = grouped_agg(t.filter(pa.array([False, True, False, False])),
                        ["a", "b"], [("n", "sum")])
    assert empty.num_rows == 0
    assert empty.schema == out.schema


def test_grouped_agg_block_split_invariant():
    """Aggregating random chunks, then aggregating the concatenated
    partials, equals one pandas groupby of the whole table."""
    from clinicaltransformerner_ray.arrowutil import grouped_agg

    rng = np.random.RandomState(7)
    n = 5000
    words = np.array(["", "a", "ab", "b", "é", "z", "Z", "aa"], dtype=object)
    k1 = words[rng.randint(0, len(words), n)]
    k1[rng.rand(n) < 0.05] = None
    t = pa.table({"k1": pa.array(k1, pa.string()),
                  "k2": pa.array(rng.randint(0, 20, n), pa.int64()),
                  "n": pa.array(np.ones(n, np.int64)),
                  "s": pa.array(words[rng.randint(0, len(words), n)],
                                pa.string()),
                  "lo": pa.array(rng.randint(-50, 50, n), pa.int64()),
                  "hi": pa.array(rng.randint(-50, 50, n), pa.int64())})
    aggs = [("n", "sum"), ("s", "min"), ("lo", "min"), ("hi", "max")]
    cuts = np.sort(rng.choice(np.arange(1, n), 40, replace=False))
    parts = [grouped_agg(t.slice(a, b - a), ["k1", "k2"], aggs)
             for a, b in zip([0, *cuts], [*cuts, n])]
    got = grouped_agg(pa.concat_tables(parts), ["k1", "k2"], aggs)
    ref = t.to_pandas().groupby(["k1", "k2"]).agg(
        n=("n", "sum"), s=("s", "min"), lo=("lo", "min"),
        hi=("hi", "max")).reset_index()
    pd.testing.assert_frame_equal(
        _frame(got), ref.sort_values(list(ref.columns)).reset_index(drop=True))


# -- the KG operators on the sf0.001 linked table -------------------------

def test_triples_block_split_and_pandas_reference(linked):
    from clinicaltransformerner_ray.pipelines.kg import emit_triples

    one = _rows(emit_triples(linked.repartition(1)))
    many = _rows(emit_triples(linked.repartition(40)))
    assert one.equals(many)
    assert one.schema.metadata is None
    assert [str(t) for t in one.schema.types] == [
        "string", "string", "string", "int64", "string", "int64"]
    ref = _pandas_triples(_frame(_rows(linked)))
    pd.testing.assert_frame_equal(_frame(one), ref)


def test_entities_block_split_and_pandas_reference(linked):
    from clinicaltransformerner_ray.pipelines.kg import canonical_entities

    one = _rows(canonical_entities(linked.repartition(1)))
    many = _rows(canonical_entities(linked.repartition(40)))
    assert one.equals(many)
    assert one.schema.metadata is None
    ref = _pandas_entities(_frame(_rows(linked)))
    pd.testing.assert_frame_equal(_frame(one), ref)


def _turns(*cols: str):
    from clinicaltransformerner_ray.sources.turns import read_turns

    return read_turns(SF, columns=list(cols))


#: op -> (the input it re-partitions, the op over that input).  The
#: timestamp joins re-partition only the linked table; the turns table
#: they join is read as is.
BLOCK_SPLIT_OPS = {
    "mention_counts": ("linked", lambda kg, d: kg.mention_counts(d)),
    "association_stats": ("linked", lambda kg, d: kg.association_stats(
        d, kg.emit_triples(d))),
    "near_cooccurrence": ("linked", lambda kg, d: kg.near_cooccurrence(d)),
    "mention_timeline": ("linked", lambda kg, d: kg.mention_timeline(
        d, _turns("conv_id", "turn_idx", "ts"))),
    "entity_daily": ("linked", lambda kg, d: kg.entity_daily(
        d, _turns("conv_id", "turn_idx", "ts"))),
    "conversation_stats": ("turns", lambda kg, d: kg.conversation_stats(d)),
}


@pytest.mark.parametrize("op", list(BLOCK_SPLIT_OPS))
def test_mention_counts_block_split(linked, op):
    from clinicaltransformerner_ray.pipelines import kg

    src, fn = BLOCK_SPLIT_OPS[op]
    data = linked if src == "linked" else _turns(
        "conv_id", "role", "text", "ts").materialize()
    one = _rows(fn(kg, data.repartition(1)))
    many = _rows(fn(kg, data.repartition(40)))
    assert one.num_rows > 0
    assert one.equals(many)
    if op != "mention_counts":
        return
    keys = ["conv_id", "turn_idx", "surface_norm", "type"]
    ref = (_frame(_rows(linked))[keys].value_counts()
           .rename("n_mentions").reset_index())
    pd.testing.assert_frame_equal(
        _frame(one), ref.sort_values(keys + ["n_mentions"])
        .reset_index(drop=True), check_dtype=False)


# -- agg_fold, the bounded keyed driver fold ------------------------------

def _fold_input(linked):
    """One partial row per linked mention: (entity_id, type, n=1,
    surface_norm, turn_idx)."""
    def ones(batch: pa.Table) -> pa.Table:
        return batch.select(["entity_id", "type", "surface_norm",
                             "turn_idx"]).append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64)))

    return linked.map_batches(ones, batch_format="pyarrow")


FOLD_AGGS = [("n", "sum"), ("surface_norm", "min"), ("turn_idx", "max")]


def test_agg_fold_block_split_sorted(linked):
    from clinicaltransformerner_ray.arrowutil import agg_fold, grouped_agg

    keys = ["entity_id", "type"]
    one = agg_fold(_fold_input(linked.repartition(1)), keys, FOLD_AGGS,
                   op="t")
    many = agg_fold(_fold_input(linked.repartition(40)), keys, FOLD_AGGS,
                    op="t")
    assert one.num_rows > 1
    assert one.equals(many)
    assert one.equals(one.sort_by([(k, "ascending") for k in keys]))
    whole = pa.concat_tables(
        _fold_input(linked).iter_batches(batch_format="pyarrow"))
    assert one.equals(grouped_agg(whole, keys, FOLD_AGGS).sort_by(
        [(k, "ascending") for k in keys]))
    total = agg_fold(_fold_input(linked.repartition(40)), [],
                     [("n", "sum")], op="t")
    assert total.to_pylist() == [{"n": whole.num_rows}]


def test_agg_fold_empty_input_is_typed(ray_session):
    import ray.data as rd

    from clinicaltransformerner_ray.arrowutil import agg_fold

    empty = pa.table({"k": pa.array([], pa.string()),
                      "n": pa.array([], pa.int32())})
    out = agg_fold(rd.from_arrow(empty), ["k"], [("n", "sum")], op="t")
    assert out.num_rows == 0
    assert out.schema == pa.schema([("k", pa.string()), ("n", pa.int64())])
    assert agg_fold(rd.from_arrow(empty), [], [("n", "sum")],
                    op="t").num_rows == 0
    # a map over no rows has no schema: ``empty`` types the result
    unmapped = rd.from_arrow(empty).map_batches(lambda b: b,
                                                batch_format="pyarrow")
    out = agg_fold(unmapped, ["k"], [("n", "sum")], op="t", empty=empty)
    assert out.num_rows == 0 and out.schema.names == ["k", "n"]
    with pytest.raises(ValueError, match="^t: the input has no rows"):
        agg_fold(unmapped, ["k"], [("n", "sum")], op="t")


def test_agg_fold_raises_above_cap(linked, monkeypatch):
    from clinicaltransformerner_ray import arrowutil

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 100)
    with pytest.raises(ValueError) as err:
        arrowutil.agg_fold(_fold_input(linked), ["entity_id", "type"],
                           FOLD_AGGS, op="my_op")
    msg = str(err.value)
    assert msg.startswith("my_op: the driver fold holds ")
    assert int(msg.split(" holds ")[1].split()[0]) > 100
    assert "FOLD_MAX_BYTES=100" in msg


# -- null keys through the ported ops ------------------------------------

def _null_key_inputs(with_nulls: bool):
    """A linked table and its turns table.  ``with_nulls`` adds a row
    with a null conv_id, one with a null entity_id (alone in its turn,
    so that turn holds no entity), and a turn with a null conv_id."""
    import ray.data as rd

    rows = [("c1", 0, "E1"), ("c1", 0, "E2"), ("c1", 1, "E2"),
            ("c1", 1, "E3"), ("c1", 2, "E1"), ("c2", 0, "E1"),
            ("c2", 0, "E3"), ("c2", 1, "E2")]
    turns = [("c1", 0), ("c1", 1), ("c1", 2), ("c2", 0), ("c2", 1),
             ("c2", 2)]
    if with_nulls:
        rows += [(None, 0, "E1"), (None, 1, "E2"), ("c2", 2, None)]
        turns += [(None, 0)]
    c, t, e = zip(*rows)
    linked = pa.table({
        "conv_id": pa.array(c, pa.string()),
        "turn_idx": pa.array(t, pa.int32()),
        "entity_id": pa.array(e, pa.string()),
        "type": pa.array(["drug"] * len(rows)),
        "surface_norm": pa.array(["x"] * len(rows)),
    })
    tc, tt = zip(*turns)
    us = [86_400_000_000 * i + 1000 * j for i, j in enumerate(tt)]
    turns_t = pa.table({
        "conv_id": pa.array(tc, pa.string()),
        "turn_idx": pa.array(tt, pa.int32()),
        "role": pa.array(["user", "assistant"] * (len(turns) // 2)
                         + ["tool"] * (len(turns) % 2)),
        "text": pa.array(["a b"] * len(turns)),
        "ts": pa.array(us, pa.timestamp("us")),
    })
    return rd.from_arrow(linked), rd.from_arrow(turns_t)


NULL_KEY_OPS = {
    "association_stats": lambda kg, l, t: kg.association_stats(
        l, kg.emit_triples(l)),
    "near_cooccurrence": lambda kg, l, t: kg.near_cooccurrence(l),
    "mention_timeline": lambda kg, l, t: kg.mention_timeline(l, t),
    "entity_daily": lambda kg, l, t: kg.entity_daily(l, t),
    "kg_report": lambda kg, l, t: kg.kg_report(l, t),
    "entity_salience": lambda kg, l, t: kg.entity_salience(l, t),
    "entity_trend": lambda kg, l, t: kg.entity_trend(l, t),
    "conversation_stats": lambda kg, l, t: kg.conversation_stats(t),
}


@pytest.mark.parametrize("op", list(NULL_KEY_OPS))
def test_null_keys_count_toward_nothing(ray_session, op):
    """A row with a null conv_id or a null entity_id changes no answer
    of a ported op: each drops it (the grouped_agg null-key rule)."""
    from clinicaltransformerner_ray.pipelines import kg

    def run(with_nulls: bool) -> pa.Table:
        out = NULL_KEY_OPS[op](kg, *_null_key_inputs(with_nulls))
        return out if isinstance(out, pa.Table) else _rows(out)

    clean = run(False)
    assert clean.num_rows > 0
    got = run(True)
    assert got.sort_by([(c, "ascending") for c in got.schema.names]
                       ).equals(clean.sort_by(
                           [(c, "ascending") for c in clean.schema.names]))


# -- hand-built edge cases ------------------------------------------------

def test_triple_minima_from_different_rows_across_buckets(ray_session):
    """co_occurs(E1, E2) has evidence in conv c1 at turn 5 and in conv c2
    at turn 0, two different buckets: first_conv_id comes from the first
    row (c1), first_turn_idx from the second (0)."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import (
        _bucketed_turn_entities, emit_triples)

    rows = [{"conv_id": c, "turn_idx": t, "entity_id": e}
            for c, t in (("c1", 5), ("c2", 0)) for e in ("E2", "E1")]
    buckets = {r["conv_id"]: r["bucket"] for r in _bucketed_turn_entities(
        rd.from_items(rows), 512, 65536).take_all()}
    assert buckets["c1"] != buckets["c2"]
    out = _rows(emit_triples(rd.from_items(rows).repartition(4)))
    assert out.to_pylist() == [{
        "subj": "E1", "pred": "co_occurs", "obj": "E2", "n_evidence": 2,
        "first_conv_id": "c1", "first_turn_idx": 0}]


def _mentions(rows):
    return [{"conv_id": f"c{i}", "turn_idx": i, "entity_id": e,
             "type": ty, "surface_norm": s}
            for i, (e, ty, s) in enumerate(rows)]


def test_entity_count_tie_breaks_lexicographically(ray_session):
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import canonical_entities

    rows = _mentions([("E1", "drug", "beta")] * 2 + [("E1", "drug", "gamma")]
                     + [("E1", "drug", "alpha")] * 2)
    out = _rows(canonical_entities(rd.from_items(rows).repartition(5)))
    assert out.to_pylist() == [{
        "entity_id": "E1", "type": "drug", "canonical_surface": "alpha",
        "n_mentions": 5, "n_surfaces": 3}]
    pd.testing.assert_frame_equal(
        _frame(out), _pandas_entities(pd.DataFrame(rows)))


def test_entity_with_two_types_keeps_one_canonical_surface(ray_session):
    """One row per (entity, type); the canonical surface is the entity's
    top (type, surface) count, carried onto both rows."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import canonical_entities

    rows = _mentions([("E2", "dose", "y")] + [("E2", "drug", "x")] * 3
                     + [("E2", "dose", "w")])
    out = _rows(canonical_entities(rd.from_items(rows).repartition(3)))
    assert out.to_pylist() == [
        {"entity_id": "E2", "type": "dose", "canonical_surface": "x",
         "n_mentions": 2, "n_surfaces": 2},
        {"entity_id": "E2", "type": "drug", "canonical_surface": "x",
         "n_mentions": 3, "n_surfaces": 1},
    ]
    pd.testing.assert_frame_equal(
        _frame(out), _pandas_entities(pd.DataFrame(rows)))


def test_null_key_rows_are_dropped(ray_session):
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import (
        canonical_entities, mention_counts)

    t = pa.table({
        "conv_id": pa.array(["c0", "c0", "c1"]),
        "turn_idx": pa.array([0, 0, 1], pa.int64()),
        "entity_id": pa.array(["E1", None, "E1"]),
        "type": pa.array(["drug", "drug", "drug"]),
        "surface_norm": pa.array(["x", "x", None]),
    })
    ents = _rows(canonical_entities(rd.from_arrow(t)))
    assert ents.to_pylist() == [{
        "entity_id": "E1", "type": "drug", "canonical_surface": "x",
        "n_mentions": 1, "n_surfaces": 1}]
    counts = _rows(mention_counts(rd.from_arrow(t)))
    assert counts.to_pylist() == [{
        "conv_id": "c0", "turn_idx": 0, "surface_norm": "x",
        "type": "drug", "n_mentions": 2}]
