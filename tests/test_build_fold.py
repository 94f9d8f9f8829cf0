"""The KG build's fold-or-exchange choice (``arrowutil.driver_table``,
through ``arrowutil.keyed_complete`` for the entity and mention
counts): ``emit_triples``, ``canonical_entities`` and ``mention_counts``
give the same rows and the same Arrow schema whether a materialized
input folds on the driver or takes the combine -> Sort -> complete
exchange, and each leg logs the path it took through the ``ray_kg``
logger."""

from __future__ import annotations

import logging

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

OPS = ["emit_triples", "canonical_entities", "mention_counts"]


def _rows(ds):
    """(schema or None, row-sorted table or None) of a Dataset's blocks."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    if not tables:
        return None, None
    t = pa.concat_tables(tables)
    return t.schema, t.sort_by([(c, "ascending") for c in t.schema.names])


def _both_paths(monkeypatch, caplog, op: str, ds, exchange="exchange"):
    """``op`` at a huge cap and at cap 0.  Each leg must log the path it
    was forced onto, ``fold`` and ``exchange``, on every ``ray_kg`` line
    it writes (``exchange="fold"`` for an input with no rows, which
    folds on any cap)."""
    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines import kg

    caplog.set_level(logging.INFO, logger="ray_kg")
    out = {}
    for path, cap, logged in (("fold", 1 << 40, "fold"),
                              ("exchange", 0, exchange)):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        out[path] = _rows(getattr(kg, op)(ds))
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "ray_kg"]
        assert msgs and msgs[0].startswith(f"{op}: {logged} ("), msgs
        assert all(f": {logged} (" in m for m in msgs), msgs
    return out["fold"], out["exchange"]


def _assert_parity(monkeypatch, caplog, op: str, ds, exchange="exchange"):
    (fs, ft), (es, et) = _both_paths(monkeypatch, caplog, op, ds, exchange)
    assert (fs is None) == (es is None)
    assert fs is None or fs.equals(es, check_metadata=True), (fs, es)
    assert ft is None or ft.equals(et)
    return ft


@pytest.fixture(scope="module")
def linked(ray_session):
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    return kg_pipeline(SF)["linked"]


def _mega_rows() -> list[dict]:
    """The rows of ``test_ghost_buckets_mega_conversation``: one
    conversation over ten salt spans of 8 turns, plus a small one."""
    rows = []
    for t in range(80):
        rows.append({"conv_id": "mega", "turn_idx": t,
                     "entity_id": f"E{t % 7}"})
        rows.append({"conv_id": "mega", "turn_idx": t,
                     "entity_id": f"E{(t + 3) % 7}"})
    for t in range(5):
        rows.append({"conv_id": "tiny", "turn_idx": t, "entity_id": "E9"})
        rows.append({"conv_id": "tiny", "turn_idx": t,
                     "entity_id": f"E{t % 3}"})
    return [dict(r, surface_norm=r["entity_id"].lower(), type="T")
            for r in rows]


@pytest.mark.parametrize("op", OPS)
def test_fold_equals_exchange_sf0001(monkeypatch, caplog, linked, op):
    out = _assert_parity(monkeypatch, caplog, op, linked)
    assert out.num_rows > 0


@pytest.mark.parametrize("op", OPS)
def test_fold_equals_exchange_mega_conversation(monkeypatch, caplog,
                                                ray_session, op):
    import ray.data as rd

    out = _assert_parity(monkeypatch, caplog, op,
                         rd.from_items(_mega_rows()))
    assert out.num_rows > 0


@pytest.mark.parametrize("op", OPS)
def test_fold_equals_exchange_empty(monkeypatch, caplog, linked, op):
    """A materialized input with no rows folds on either cap: the
    selector hands back its schema's empty table (``concat_tables([])``
    never runs), so the op gives a typed empty result, with the schema
    of its output on real rows."""
    import ray
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil

    empty = ray.get(linked.to_arrow_refs()[0]).slice(0, 0)
    for cap in (1 << 40, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        got = arrowutil.driver_table(rd.from_arrow(empty))
        assert got is not None and got.equals(empty)
    out = _assert_parity(monkeypatch, caplog, op, rd.from_arrow(empty),
                         exchange="fold")
    assert out is not None and out.num_rows == 0
    ref, _ = _both_paths(monkeypatch, caplog, op, linked)
    assert out.schema.equals(ref[0], check_metadata=True)


@pytest.mark.parametrize("op", OPS)
def test_fold_equals_exchange_null_conv_id(monkeypatch, caplog, linked, op):
    import ray
    import ray.data as rd

    t = pa.concat_tables(ray.get(linked.to_arrow_refs()))
    conv = t.column("conv_id").to_pylist()
    conv[len(conv) // 2] = None
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     pa.array(conv, t.schema.field("conv_id").type))
    _assert_parity(monkeypatch, caplog, op, rd.from_arrow(t))


@pytest.mark.parametrize("cap", [1 << 40, 0])
def test_null_conv_id_gives_no_pair(monkeypatch, ray_session, cap):
    """A mention with a null conv_id pairs with nothing, on either path:
    pandas factorizes a null to -1, which aliased it to another
    conversation of the same block and made up a co_occurs triple."""
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines import kg

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    rows = [{"conv_id": "a", "turn_idx": 0, "entity_id": "E1"},
            {"conv_id": None, "turn_idx": 0, "entity_id": "E2"},
            {"conv_id": "a", "turn_idx": 1, "entity_id": "E3"}]
    got = kg.emit_triples(rd.from_items(rows)).take_all()
    assert [(r["subj"], r["pred"], r["obj"]) for r in got] == [
        ("E1", "follows", "E3")]


def test_driver_table_logs_choice(ray_session, caplog):
    """A ``kg_pipeline`` run at sf0.001 folds both branches.
    ``driver_table`` takes a lazy input's exchange without executing it
    to choose; ``emit_triples`` materializes its input first, so its one
    coded fold covers a lazy input under the cap and no keyed step of
    its exchange runs."""
    import ray.data as rd

    from clinicaltransformerner_ray.arrowutil import (
        FOLD_MAX_BYTES, driver_table)
    from clinicaltransformerner_ray.pipelines.kg import (
        emit_triples, kg_pipeline)

    caplog.set_level(logging.INFO, logger="ray_kg")
    kg_pipeline(SF)
    folds = [r.getMessage() for r in caplog.records
             if r.name == "ray_kg" and ": fold " in r.getMessage()]
    assert any(m.startswith("emit_triples: fold") for m in folds), folds
    assert any(m.startswith("canonical_entities: fold") for m in folds)
    assert all(f"cap={FOLD_MAX_BYTES}" in m for m in folds)

    caplog.clear()
    lazy = rd.from_items(_mega_rows()).map_batches(
        lambda b: b, batch_format="pyarrow")
    assert driver_table(lazy) is None
    emit_triples(lazy)
    msgs = [r.getMessage() for r in caplog.records if r.name == "ray_kg"]
    assert msgs[0] == (
        f"driver_table: exchange (size_bytes=lazy, cap={FOLD_MAX_BYTES})")
    assert [m.split(" (")[0] for m in msgs[1:]] == [
        "emit_triples: fold"], msgs
