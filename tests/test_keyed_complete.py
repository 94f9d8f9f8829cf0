"""``arrowutil.keyed_complete``, the one sort-then-complete entry point:
each case runs at cap 0 (the coalesced combine -> Sort -> per-block
completion exchange) and at a huge cap (one driver fold), and the two
results must be bit-equal.  Each leg must log the path it was forced
onto through the ``ray_kg`` logger.  ``arrowutil.keyed_exchange``, its
exchange, which pair and wedge enumerations run directly, never folds.
The dedup family, whose other keyed steps all run through
``keyed_complete``, is checked the same way on sf0.001, and the
query-set top-k searches are checked to fold by default.

``arrowutil.cogroup``, the one keyed join, is checked the same way on
one, two and three sides, and its fold leg is checked to run no
exchange at all: no padding map, no union, no Sort."""

from __future__ import annotations

import collections
import functools
import logging
import sys

import numpy as np
import pyarrow as pa
import pytest
from ray import cloudpickle

from clinicaltransformerner_ray import arrowutil
from clinicaltransformerner_ray.arrowutil import (
    cogroup, grouped_agg, grouped_topk, keyed_complete, keyed_exchange)

SF = "/root/testdata/sf0.001"
HUGE = 1 << 40

# the cogroup completions below run in Ray workers, which cannot import
# this module: ship its functions by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _table(out) -> tuple[pa.Schema | None, pa.Table | None]:
    """(schema, rows sorted on every column) of a Dataset's blocks that
    have columns, or of a table; (None, None) when no block has any."""
    import ray

    tables = [out] if isinstance(out, pa.Table) else [
        t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
    if not tables:
        return None, None
    t = pa.concat_tables(tables)
    return t.schema, t.sort_by([(c, "ascending") for c in t.column_names])


def _logged(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "ray_kg"]


def _both(monkeypatch, caplog, run, fold_only=False):
    """``run()`` at a huge cap, then at cap 0.  The first leg must log
    only ``fold`` lines; the second an ``exchange`` line (only ``fold``
    lines when ``fold_only``: an input with no rows folds on any
    cap)."""
    caplog.set_level(logging.INFO, logger="ray_kg")
    out = []
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        out.append(_table(run()))
        msgs = _logged(caplog)
        assert msgs, cap
        if cap == HUGE or fold_only:
            assert all(": fold (" in m for m in msgs), msgs
        else:
            assert any(": exchange (" in m for m in msgs), msgs
    return out


def _assert_bit_equal(fold, exch):
    (fs, ft), (es, et) = fold, exch
    assert fs is not None and es is not None
    assert fs.equals(es, check_metadata=True), (fs, es)
    assert ft.equals(et)


def _rows(n: int = 300) -> pa.Table:
    """Rows over a two-column key (g1 with 4 values, g2 with 3), an
    int64 key with nulls (g3: 4 values and a null) and an int64 value,
    in an order that is not key order."""
    g1, g3 = ["b", "a", "d", "c"], [3, 1, None, 4, 2]
    return pa.table({
        "g1": pa.array([g1[(i * 7) % 4] for i in range(n)], pa.string()),
        "g2": pa.array([(i * 11) % 3 for i in range(n)], pa.int64()),
        "g3": pa.array([g3[(i * 7) % 5] for i in range(n)], pa.int64()),
        "v": pa.array([(i * 37) % 101 for i in range(n)], pa.int64()),
    })


def _ds(t: pa.Table, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(t).repartition(blocks)


def test_two_column_key(ray_session, monkeypatch, caplog):
    agg = functools.partial(grouped_agg, keys=["g1", "g2"],
                            aggs=[("v", "sum")])
    fold, exch = _both(monkeypatch, caplog, lambda: keyed_complete(
        _ds(_rows()), ["g1", "g2"], agg, combine=agg, op="two_keys"))
    _assert_bit_equal(fold, exch)
    assert fold[1].num_rows == 12  # 4 g1 values x 3 g2 values


def test_four_distinct_keys_topk(ray_session, monkeypatch, caplog):
    """The bm25_topk shape: a per-key top-k over a key with 4 values,
    each block cut before the completion."""
    order = [("v", "descending"), ("g2", "ascending")]

    def run():
        cut = _ds(_rows()).map_batches(grouped_topk, fn_args=(["g1"], order, 3),
                                 batch_format="pyarrow", batch_size=None)
        return keyed_complete(cut, ["g1"], functools.partial(
            grouped_topk, keys=["g1"], order=order, k=3, rank="rk"),
            op="four_keys")

    fold, exch = _both(monkeypatch, caplog, run)
    _assert_bit_equal(fold, exch)
    assert fold[1].num_rows == 12


def test_null_key(ray_session, monkeypatch, caplog):
    """A null key lands last in the fold's ``sort_by`` and wherever the
    Ray Sort puts it on the exchange; the completion decides what it
    counts toward.  ``grouped_agg`` drops it on both paths; a completion
    that keeps every row keeps it on both."""
    agg = functools.partial(grouped_agg, keys=["g3"], aggs=[("v", "sum")])
    fold, exch = _both(monkeypatch, caplog, lambda: keyed_complete(
        _ds(_rows()), ["g3"], agg, combine=agg, op="null_key_agg"))
    _assert_bit_equal(fold, exch)
    assert fold[1].column("g3").to_pylist() == [1, 2, 3, 4]

    def tag(t: pa.Table) -> pa.Table:  # row-wise: keeps null-key rows
        return t.append_column("w", pa.compute.multiply(t.column("v"), 2))

    fold, exch = _both(monkeypatch, caplog, lambda: keyed_complete(
        _ds(_rows()), ["g3"], tag, op="null_key_rows"))
    _assert_bit_equal(fold, exch)
    assert fold[1].column("g3").null_count == 60


def test_combine_not_idempotent_with_completion(ray_session, monkeypatch,
                                                caplog):
    """The combine reads raw rows and writes partial rows that it could
    not read again; the completion reads only partial rows.  Each row
    must pass through the combine exactly once on either path."""
    def combine(t: pa.Table) -> pa.Table:
        return grouped_agg(t.append_column("n", pa.array(
            [1] * t.num_rows, pa.int64())), ["g2"], [("n", "sum"),
                                                     ("v", "max")])

    def complete(t: pa.Table) -> pa.Table:
        g = grouped_agg(t, ["g2"], [("n", "sum"), ("v", "max")])
        return g.append_column("n_v", pa.compute.multiply(
            g.column("n"), g.column("v")))

    fold, exch = _both(monkeypatch, caplog, lambda: keyed_complete(
        _ds(_rows()), ["g2"], complete, combine=combine, op="partials"))
    _assert_bit_equal(fold, exch)
    assert fold[1].column("n").to_pylist() == [100, 100, 100]


def test_empty_input_with_schema(ray_session, monkeypatch, caplog):
    """No rows but a schema: folds on either cap (the choice needs no
    size), so the combine and the completion see a typed empty table
    and the result is typed."""
    import ray.data as rd

    agg = functools.partial(grouped_agg, keys=["g1", "g2"],
                            aggs=[("v", "sum")])
    fold, exch = _both(monkeypatch, caplog, lambda: keyed_complete(
        rd.from_arrow(_rows().slice(0, 0)), ["g1", "g2"], agg,
        combine=agg, op="empty"), fold_only=True)
    _assert_bit_equal(fold, exch)
    assert fold[1].num_rows == 0
    assert fold[0].equals(_rows().select(["g1", "g2", "v"]).schema)


def test_map_over_no_rows_has_no_schema(ray_session, monkeypatch, caplog):
    """A map over no rows never ran, so Ray has no schema and the input
    takes the exchange on either cap: both legs give the same result."""
    import ray.data as rd

    agg = functools.partial(grouped_agg, keys=["g1"], aggs=[("v", "sum")])

    def run():
        ds = rd.from_arrow(_rows().slice(0, 0)).map_batches(
            lambda t: t, batch_format="pyarrow")
        assert ds.materialize().schema() is None
        return keyed_complete(ds, ["g1"], agg, combine=agg, op="no_schema")

    caplog.set_level(logging.INFO, logger="ray_kg")
    got = []
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        try:
            got.append(("ok", _table(run())))
        except Exception as err:  # the same error on both legs
            got.append(("error", type(err)))
        assert [m.split(" (")[0] for m in _logged(caplog)] == [
            "no_schema: exchange"]
    assert got[0] == got[1]


def test_lazy_input_sizes_its_combined_rows(ray_session, monkeypatch,
                                            caplog):
    """A lazy input runs its combine before it is materialized, so the
    choice sizes the combined partials: at a cap under the raw rows'
    size, the lazy input folds, the same rows already materialized take
    the exchange, and both give the same table."""
    raw = _rows(3000)
    agg = functools.partial(grouped_agg, keys=["g1"], aggs=[("v", "sum")])
    caplog.set_level(logging.INFO, logger="ray_kg")
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", raw.nbytes // 2)
    got = {}
    for name, ds in (("lazy", _ds(raw)),
                     ("materialized", _ds(raw).materialize())):
        caplog.clear()
        got[name] = _table(keyed_complete(ds, ["g1"], agg, combine=agg,
                                          op=name))
        assert [m.split(" (")[0] for m in _logged(caplog)] == [
            f"{name}: {'fold' if name == 'lazy' else 'exchange'}"]
    _assert_bit_equal(got["lazy"], got["materialized"])


def test_keyed_exchange_never_folds(ray_session, monkeypatch, caplog):
    """``keyed_exchange`` takes the Sort on any cap: at a huge cap it
    logs no choice, gives more than the fold's one block, and the same
    rows as ``keyed_complete``'s fold."""
    agg = functools.partial(grouped_agg, keys=["g1", "g2"],
                            aggs=[("v", "sum")])
    caplog.set_level(logging.INFO, logger="ray_kg")
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
    out = keyed_exchange(_ds(_rows()), ["g1", "g2"], agg).materialize()
    assert _logged(caplog) == []
    assert out.num_blocks() > 1
    _assert_bit_equal(_table(keyed_complete(
        _ds(_rows()), ["g1", "g2"], agg, op="fold")), _table(out))


# -- cogroup ----------------------------------------------------------------

def _cogroup_legs(monkeypatch, caplog, run):
    """``run()`` at a huge cap, then at cap 0, with a ``keyed_exchange``
    spy.  The fold leg must log ``fold`` and call no exchange (so no
    padding map, union or Sort runs); the exchange leg must log
    ``exchange`` and call one.  Returns each leg's ``_table``."""
    calls = []
    real = arrowutil.keyed_exchange
    monkeypatch.setattr(arrowutil, "keyed_exchange",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    caplog.set_level(logging.INFO, logger="ray_kg")
    out = []
    for cap, path in ((HUGE, "fold"), (0, "exchange")):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        calls.clear()
        out.append(_table(run()))
        assert [m.split(" (")[0] for m in _logged(caplog)] == [f"cg: {path}"]
        assert len(calls) == (path == "exchange")
    return out


def _side(name: str, n: int, mod: int, shift: int, t=pa.int64()) -> pa.Table:
    """n rows over the int64 key k = (i * 7 + shift) % mod, with one
    payload column ``name`` of type ``t``."""
    return pa.table({"k": pa.array([(i * 7 + shift) % mod for i in range(n)],
                                   pa.int64()),
                     name: pa.array(range(n), pa.int64()).cast(t)})


def _counts(*sides: pa.Table) -> pa.Table:
    """Per key of any side, each side's row count (0 for none).  A key
    whose rows of one side reached two calls would give two rows."""
    out = None
    for i, t in enumerate(sides):
        g = grouped_agg(t.select(["k"]).append_column(
            f"n{i}", pa.array(np.ones(t.num_rows, np.int64))),
            ["k"], [(f"n{i}", "sum")])
        out = g if out is None else out.join(g, "k", join_type="full outer")
    names = [f"n{i}" for i in range(len(sides))]
    return pa.table([out.column("k")] + [out.column(c).fill_null(0)
                                         for c in names],
                    names=["k"] + names)


@pytest.mark.parametrize("n_sides", [1, 2, 3])
def test_cogroup_sides(ray_session, monkeypatch, caplog, n_sides):
    """Every row of every side with equal keys meets in one completion
    call, with its side's own columns and types, on both legs."""
    tables = [_side("v", 60, 7, 0), _side("w", 40, 5, 3, pa.string()),
              _side("x", 30, 4, 1, pa.float64())][:n_sides]

    def complete(*ts):
        assert [t.schema for t in ts] == [t.schema for t in tables]
        return _counts(*ts)

    fold, exch = _cogroup_legs(monkeypatch, caplog, lambda: cogroup(
        [_ds(t, 3) for t in tables], ["k"], complete, op="cg"))
    _assert_bit_equal(fold, exch)
    want = [collections.Counter(t.column("k").to_pylist()) for t in tables]
    keys = sorted(set().union(*want))
    assert fold[1].to_pydict() == {"k": keys, **{
        f"n{i}": [w[k] for k in keys] for i, w in enumerate(want)}}


def test_cogroup_typed_empty_side(ray_session, monkeypatch, caplog):
    """A side with no rows but a schema reaches the completion as a
    typed empty table on both legs."""
    import ray.data as rd

    a, b = _side("v", 60, 7, 0), _side("w", 40, 5, 3, pa.string())
    fold, exch = _cogroup_legs(monkeypatch, caplog, lambda: cogroup(
        [_ds(a, 3), rd.from_arrow(b.slice(0, 0))], ["k"],
        lambda x, y: x.join(y, "k", join_type="left outer"), op="cg"))
    _assert_bit_equal(fold, exch)
    assert fold[0].names == ["k", "v", "w"]
    assert fold[0].field("w").type == pa.string()
    assert fold[1].num_rows == 60 and fold[1].column("w").null_count == 60


def test_cogroup_side_without_schema_raises(ray_session, monkeypatch):
    """A map over no blocks has no schema to type the side with: a clear
    error on either cap, before any path is chosen."""
    import ray.data as rd

    a = _side("v", 60, 7, 0)
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        none = rd.from_arrow(a.slice(0, 0)).map_batches(
            lambda t: t, batch_format="pyarrow")
        with pytest.raises(ValueError, match="side 1 has no schema"):
            cogroup([_ds(a), none], ["k"], _counts, op="cg")


def test_cogroup_type_conflict_raises(ray_session, monkeypatch):
    """A column two sides share must have one type on both: a clear
    error on either cap."""
    a = _side("v", 60, 7, 0)
    b = _side("v", 40, 5, 3, pa.string())
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        with pytest.raises(ValueError, match="column 'v' is int64"):
            cogroup([_ds(a), _ds(b)], ["k"], _counts, op="cg")


def test_cogroup_null_key(ray_session, monkeypatch, caplog):
    """Null-key rule: the fold sorts a null key last and the exchange
    puts it where the Ray Sort does; ``complete`` decides what it counts
    toward.  ``_counts`` (``grouped_agg``) drops it on both legs; a
    completion that keeps every row keeps it on both.  The key is int64:
    Ray's Sort raises on a null in a string key."""
    a = _rows().select(["g3", "v"]).rename_columns(["k", "v"])
    b = _side("w", 40, 5, 1)

    fold, exch = _cogroup_legs(monkeypatch, caplog, lambda: cogroup(
        [_ds(a), _ds(b, 3)], ["k"], _counts, op="cg"))
    _assert_bit_equal(fold, exch)
    assert fold[1].column("k").to_pylist() == [0, 1, 2, 3, 4]

    fold, exch = _cogroup_legs(monkeypatch, caplog, lambda: cogroup(
        [_ds(a), _ds(b, 3)], ["k"], lambda x, y: x, op="cg"))
    _assert_bit_equal(fold, exch)
    assert fold[1].column("k").null_count == 60


def test_typed_map_types_an_input_with_no_rows(ray_session):
    """Ray runs no UDF on a block with no rows, so a map over an input
    with none has no schema and ``cogroup`` rejects it; ``typed_map``
    runs the UDF once on the input's typed empty table instead, and
    maps an input with rows as ``map_batches`` does."""
    import ray.data as rd

    def f(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column("k"), "w": t.column("v").cast(
            pa.string())})

    a = _side("v", 60, 7, 0)
    empty = rd.from_arrow(a.slice(0, 0))
    assert empty.map_batches(f, batch_format="pyarrow").materialize(
        ).schema() is None
    out = arrowutil.typed_map(empty, f)
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        [("k", pa.int64()), ("w", pa.string())])
    assert _table(arrowutil.typed_map(_ds(a), f))[1].equals(
        _table(f(a))[1])


# -- the families routed through it ----------------------------------------

# dedup_embedding, dedup_minhash, dedup_simhash and dedup_winnow_pairs
# are left out: their keyed steps are pair emissions and pair distincts,
# keyed_exchange on any cap, so there is no path to force
DEDUP_QUERIES = ["dedup_exact", "dedup_clusters", "dedup_substring",
                 "dedup_span_rewrite", "dedup_source_losses",
                 "dedup_calibration", "dedup_report"]


@pytest.mark.parametrize("name", DEDUP_QUERIES)
def test_dedup_fold_equals_exchange(ray_session, monkeypatch, caplog, name):
    """Every keyed step of the dedup family is one ``keyed_complete``,
    or a ``keyed_exchange`` for a pair emission or distinct, which takes
    the Sort on both legs: the query gives the same rows at cap 0 as at
    a huge cap."""
    import __ray_entry__ as E

    fold, exch = _both(monkeypatch, caplog,
                       lambda: E.queries()[name](SF))
    _assert_bit_equal(fold, exch)
    assert fold[1].num_rows > 0


@pytest.mark.parametrize("name", ["ann_topk", "bm25_topk"])
def test_query_set_topk_folds(ray_session, caplog, name):
    """The per-query top-k searches (a key of 8 query ids, or of 4
    terms) fold under the default cap: no Sort over a handful of keys,
    so none of its empty, schema-less partitions."""
    import __ray_entry__ as E

    caplog.set_level(logging.INFO, logger="ray_kg")
    out = E.queries()[name](SF)
    assert _table(out)[1].num_rows > 0
    assert [m.split(" (")[0] for m in _logged(caplog)] == [
        "topk_complete: fold"]


def test_one_cap_name():
    """The cap has one name, ``arrowutil.FOLD_MAX_BYTES``, read when a
    fold choice is made: no module keeps an alias a test could patch to
    no effect."""
    from clinicaltransformerner_ray.pipelines import graph, kg

    assert not hasattr(kg, "FOLD_MAX_BYTES")
    assert not hasattr(graph, "FOLD_MAX_BYTES")
