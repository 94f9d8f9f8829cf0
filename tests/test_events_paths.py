"""The events family on the shared keyed operators: every per-user op is
an ``arrowutil.keyed_complete`` (plus an ``agg_fold`` where its result is
lexicon-bounded), so each one is run at a huge cap (one driver fold) and
at cap 0 (the Sort exchange), and the two results must be bit-equal.
On the exchange leg the op's ``agg_fold`` still runs at the huge cap: a
keyed fold raises at cap 0, and a cap between the two (below the keyed
input, above the accumulator) does not exist for every op and input (a
one-user input's combine shrinks below its own accumulator).  The fold
bound itself is checked on the pure folds.  Each leg must log the
path it was forced onto through the ``ray_kg`` logger.  Inputs: the
sf0.001 events table, an empty one, and one whose rows all belong to
one user (the exchange then hands the completion empty blocks).  The
pure folds (no exchange path) are checked against their cap, and every
user-keyed op against rows with a null user_id."""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clinicaltransformerner_ray import arrowutil
from clinicaltransformerner_ray.pipelines import events as E

SF_E = "/root/testdata/sf0.001/events.parquet"
HUGE = 1 << 40

#: the ops with a keyed exchange, each as a function of an events Dataset
KEYED = {
    "windowed_counts": E.windowed_counts,
    "sliding_window_counts": E.sliding_window_counts,
    "sessionize": E.sessionize,
    "sessionize_salted": lambda ev: E.sessionize_salted(
        ev, bucket_us=2 * 3600 * 1_000_000),
    "asof_join_events": E.asof_join_events,
    "asof_join_events_salted": lambda ev: E.asof_join_events_salted(
        ev, bucket_us=3600 * 1_000_000),
    "range_join_events": E.range_join_events,
    "range_join_events_salted": lambda ev: E.range_join_events_salted(
        ev, bucket_us=3600 * 1_000_000),
    "latest_event_per_user": E.latest_event_per_user,
    "funnel_conversions": E.funnel_conversions,
    "cohort_retention": E.cohort_retention,
    "attributed_revenue": E.attributed_revenue,
    "running_totals": E.running_totals,
    "merge_intervals": E.merge_intervals,
    "user_gap_stats": E.user_gap_stats,
    "user_type_pivot": E.user_type_pivot,
    "type_transition_counts": E.type_transition_counts,
    "sliding_distinct_users": E.sliding_distinct_users,
    "activity_streaks": E.activity_streaks,
    "peak_hour_per_user": E.peak_hour_per_user,
    "signup_to_purchase": E.signup_to_purchase,
    "burst_hours": E.burst_hours,
    "session_quantiles": E.session_quantiles,
    "out_of_order_stats": E.out_of_order_stats,
    "session_paths": E.session_paths,
    "ab_test": E.ab_test,
    "session_concurrency": E.session_concurrency,
    "velocity_stats": E.velocity_stats,
    "cohort_ltv": E.cohort_ltv,
    "funnel3": E.funnel3,
    "revenue_concentration": E.revenue_concentration,
}

#: the ops with no exchange path: lexicon-bounded driver folds
FOLDS = {
    "value_quantiles_by_type": E.value_quantiles_by_type,
    "robust_outliers": E.robust_outliers,
    "k_anonymity": E.k_anonymity,
    "l_diversity": E.l_diversity,
    "seasonal_backtest": E.seasonal_backtest,
    "table_profile": lambda ev: E.table_profile(ev, [
        ("event_id", "int"), ("ts", "ts"), ("user_id", "int"),
        ("event_type", "str"), ("value", "cents")]),
}


def _events() -> pa.Table:
    return pq.read_table(SF_E).replace_schema_metadata()


def _inputs(kind: str):
    import ray.data as rd

    t = _events()
    if kind == "empty":
        return rd.from_arrow(t.slice(0, 0))
    if kind == "one_user":
        t = t.set_column(t.schema.get_field_index("user_id"), "user_id",
                         pa.array([7] * t.num_rows, pa.int64()))
    return rd.from_arrow(t).repartition(4)


def _table(out) -> tuple[pa.Schema | None, pa.Table | None]:
    """(schema, rows sorted on every column) of an op's output."""
    import ray

    tables = [out] if isinstance(out, pa.Table) else [
        t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
    if not tables:
        return None, None
    t = pa.concat_tables(tables)
    return t.schema, t.sort_by([(c, "ascending") for c in t.column_names])


def _logged(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "ray_kg"]


def _force(monkeypatch, cap: int):
    """Every keyed_complete at ``cap``, every agg_fold at ``HUGE``."""
    def huge_cap_fold(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
            return arrowutil.agg_fold(*args, **kwargs)

    monkeypatch.setattr(E, "agg_fold", huge_cap_fold)
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)


@pytest.mark.parametrize("kind", ["sf0.001", "empty", "one_user"])
@pytest.mark.parametrize("op", sorted(KEYED))
def test_fold_equals_exchange(ray_session, monkeypatch, caplog, op, kind):
    caplog.set_level(logging.INFO, logger="ray_kg")
    out = []
    for cap in (HUGE, 0):
        _force(monkeypatch, cap)
        caplog.clear()
        out.append(_table(KEYED[op](_inputs(kind))))
        msgs = _logged(caplog)
        assert msgs, cap
        if cap == HUGE or kind == "empty":  # no rows fold on any cap
            assert all(": fold (" in m for m in msgs), msgs
        else:
            assert any(": exchange (" in m for m in msgs), msgs
    (fs, ft), (es, et) = out
    if kind == "sf0.001":
        assert ft is not None and ft.num_rows
    if fs is None or es is None:  # a Dataset whose blocks have no columns
        assert (ft is None or not ft.num_rows) and (
            et is None or not et.num_rows)
        return
    assert fs.equals(es), (fs, es)
    assert ft.equals(et)


@pytest.mark.parametrize("op", sorted(FOLDS))
def test_pure_folds_check_their_bound(ray_session, monkeypatch, op):
    """An op with no exchange path folds at any size below the cap and
    raises ValueError naming itself above it (perf rule 10)."""
    import ray.data as rd

    got = _table(FOLDS[op](rd.read_parquet(SF_E)))[1]
    assert got.num_rows
    empty = _table(FOLDS[op](rd.from_arrow(_events().slice(0, 0))))
    assert empty[1] is None or not empty[1].num_rows
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 16)
    with pytest.raises(ValueError, match=f"{op}: the driver fold holds"):
        FOLDS[op](rd.read_parquet(SF_E))


@pytest.mark.parametrize("cap", [HUGE, 0])
@pytest.mark.parametrize("op", sorted(KEYED))
def test_null_user_ids_count_toward_nothing(ray_session, monkeypatch, op,
                                            cap):
    """Rows with a null user_id change no answer of a user-keyed op, on
    either path: ``sorted_runs``, ``grouped_agg`` and ``grouped_topk``
    drop them, as the pandas ``groupby`` they replaced did."""
    import ray.data as rd

    t = _events()
    extra = t.slice(0, 200)
    extra = extra.set_column(
        t.schema.get_field_index("event_id"), "event_id",
        pc.add(extra.column("event_id"), 1 << 40))
    extra = extra.set_column(t.schema.get_field_index("user_id"), "user_id",
                             pa.nulls(extra.num_rows, pa.int64()))
    _force(monkeypatch, cap)
    clean = _table(KEYED[op](rd.from_arrow(t).repartition(2)))[1]
    got = _table(KEYED[op](rd.from_arrow(
        pa.concat_tables([t, extra])).repartition(2)))[1]
    assert clean.num_rows
    assert got.equals(clean)


@pytest.mark.parametrize("op", sorted(set(FOLDS) - {"table_profile"}))
def test_null_event_types_count_toward_nothing(ray_session, op):
    """Rows with a null event_type change no answer of a per-type fold."""
    import ray.data as rd

    t = _events()
    extra = t.slice(0, 200).set_column(
        t.schema.get_field_index("event_type"), "event_type",
        pa.nulls(200, pa.string()))
    clean = _table(FOLDS[op](rd.from_arrow(t)))[1]
    got = _table(FOLDS[op](rd.from_arrow(pa.concat_tables([t, extra]))))[1]
    assert got.equals(clean)
