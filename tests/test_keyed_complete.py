"""``arrowutil.keyed_complete``, the one sort-then-complete entry point:
each case runs at cap 0 (the coalesced combine -> Sort -> per-block
completion exchange) and at a huge cap (one driver fold), and the two
results must be bit-equal.  Each leg must log the path it was forced
onto through the ``ray_kg`` logger.  ``arrowutil.keyed_exchange``, its
exchange, which pair and wedge enumerations run directly, never folds.
The dedup family, whose other keyed steps all run through
``keyed_complete``, is checked the same way on sf0.001, and the
query-set top-k searches are checked to fold by default."""

from __future__ import annotations

import functools
import logging

import pyarrow as pa
import pytest

from clinicaltransformerner_ray import arrowutil
from clinicaltransformerner_ray.arrowutil import (
    grouped_agg, grouped_topk, keyed_complete, keyed_exchange)

SF = "/root/testdata/sf0.001"
HUGE = 1 << 40


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
