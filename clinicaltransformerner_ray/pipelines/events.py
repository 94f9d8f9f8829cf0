"""Windowed / sessionized aggregates over the `events` stream table —
the "streaming window" custom-operator family (beyond the reference's
batch-only surface; SURVEY.md §2.7 notes the reference has none).

  windowed_counts   tumbling time-window aggregate per (user, window):
                    event counts + exact value sums (integer cents, so
                    the result is hash-comparable across engines)
  sliding_window_counts  the sliding variant (1h windows every 15min):
                    x(window/slide) pre-exchange replication, then the
                    identical combine/complete aggregation
  sessionize        gap-based sessionization: a >30-min silence starts a
                    new session — the canonical stateful scan
  asof_join_events  as-of join (attribution): each purchase gets the
                    most recent strictly-prior click of the same user;
                    `asof_join_events_salted` is its skew-safe twin
                    (salted local resolve + per-bucket carry rows +
                    a stitch, byte-identical output)
  range_join_events bounded range join: errors within a horizon after
                    each purchase, via two searchsorted calls per block
                    (output linear in the left side, no pair expansion);
                    `range_join_events_salted` is its skew-safe twin
                    (time-bucket salt + previous-bucket ghosts,
                    byte-identical output, no stitch pass needed)
  value_quantiles_by_type  exact per-group percentiles of the event
                    value (integer cents) via a grouped value-histogram
                    folded on the driver and one CDF walk
  latest_event_per_user  dedup-to-latest (CDC-style snapshot): a
                    per-user top-1 before and after the exchange
  funnel_conversions, cohort_retention, out_of_order_stats, ...  the
                    per-user scans below, one line of shape each

Shape.  Every per-user operator is one ``arrowutil.keyed_complete`` on
``user_id`` (or on its group key): a batch-local combine (a type filter,
a projection or a ``grouped_agg`` partial) runs before it, and the
completion scans each user's rows in time order.  Under
``arrowutil.FOLD_MAX_BYTES`` the whole input folds on the driver with no
Sort; above it the exchange keeps each user's rows whole in one block.
The scans run on ``arrowutil.sorted_runs`` (one ``sort_by`` and a
run-start mask) and its run ops (``run_pos``, ``run_cumsum``,
``run_cummax``, ``run_lag``, ``run_first``); three scans recur and each
has one helper here: session numbering (:func:`_sessions`), the as-of
forward carry (:func:`_asof_carry`) and the per-run CDF walk behind every
quantile and lower median (:func:`_quantile_rows`).  Aggregates finish
with ``grouped_agg``, per-user picks with ``grouped_topk``, and results
bounded by a lexicon (types, weeks, hours, paths) fold with
``arrowutil.agg_fold``.

Null-key rule: every per-user operator drops rows whose ``user_id`` is
null (``sorted_runs``, ``grouped_agg`` and ``grouped_topk`` drop them),
as the pandas ``groupby`` these kernels replaced did; a per-type fold
drops rows whose ``event_type`` is null the same way.

Skew note: `sessionize` keys on user_id alone, so on the exchange one
hyperactive user lands in one block.  `sessionize_salted` is the 100 TB
path: its key is salted with a coarse TIME bucket (same construction as
the KG triple emitter's salted buckets, pipelines/kg.py), events within
``gap_us`` of a bucket boundary ghost into the next bucket so each
block can tell whether its first session continues, and a second
keyed pass over per-bucket session rows stitches boundary-crossing
sessions and assigns global session indices.  Output is byte-identical
to `sessionize` (asserted in tests); the oracle entry keeps the
unsalted version for directness.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.arrowutil import (
    agg_fold, grouped_agg, grouped_topk, keyed_complete, run_cummax,
    run_cumsum, run_first, run_id, run_lag, run_pos, sorted_runs,
    topk_complete)

import ray.data as rd

SESSION_GAP_US = 30 * 60 * 1_000_000
HOUR_US = 3_600_000_000
TS = pa.timestamp("us")


def _round_half_away(v: np.ndarray) -> np.ndarray:
    """Round half away from zero (DuckDB round() semantics), int64."""
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def _np(t: pa.Table, c: str) -> np.ndarray:
    """Column ``c`` as numpy; a timestamp as int64 epoch-us."""
    col = t.column(c)
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    return col.to_numpy(zero_copy_only=False)


def _cents(t: pa.Table) -> np.ndarray:
    """Exact integer cents of ``value``: float accumulation order would
    differ between engines and break value-hash comparison.  Half away
    from zero, matching DuckDB round() (np.round is half-to-even)."""
    return _round_half_away(_np(t, "value") * 100)


def _ones(t: pa.Table) -> np.ndarray:
    return np.ones(t.num_rows, np.int64)


def _is(t: pa.Table, value: str, col: str = "event_type") -> np.ndarray:
    return pc.equal(t.column(col), value).to_numpy(zero_copy_only=False)


def _empty(**types) -> pa.Table:
    return pa.schema(list(types.items())).empty_table()


def _sum_by(keys: list[str], cols: list[str]):
    """``grouped_agg`` summing ``cols`` per ``keys``: the partial step and
    the completion of every counting operator."""
    return functools.partial(grouped_agg, keys=list(keys),
                             aggs=[(c, "sum") for c in cols])


def _types(*types: str, cols=("event_id", "user_id", "ts", "event_type")):
    """The pre-exchange type filter: rows of ``types``, ``cols`` only,
    with no schema metadata (a parquet read's pandas blob)."""
    def project(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(list(types)))
        return batch.filter(keep).select(list(cols)).replace_schema_metadata()
    return project


def _by_user(t: pa.Table, *order: str) -> tuple[pa.Table, np.ndarray]:
    """``sorted_runs`` on user_id, then ``order`` ascending."""
    return sorted_runs(t, ["user_id"], [(c, "ascending") for c in order])


def _spans(opens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row and row count of each span opening where ``opens``."""
    first = np.flatnonzero(opens)
    return first, np.diff(np.append(first, len(opens)))


def _gap_breaks(us: np.ndarray, gap_us: int) -> np.ndarray:
    """Rows more than ``gap_us`` after the previous row."""
    return np.diff(us, prepend=us[:1]) > gap_us


def _sessions(start: np.ndarray, brk: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Session numbering, the one copy: for rows in run order, where
    each session opens (at each run start and at each row where ``brk``
    holds) and each row's 0-based session number within its run."""
    opens = start | brk
    return opens, run_cumsum(start, opens.astype(np.int64)) - 1


def _session_rows(t: pa.Table, start: np.ndarray, brk: np.ndarray,
                  n: np.ndarray, first_ts: str, last_ts: str) -> pa.Table:
    """One (user_id, session_idx, n_events, start_ts, end_ts) row per
    session of ``t``, rows in run and time order: ``n`` summed, the
    session's first ``first_ts`` and last ``last_ts``."""
    opens, idx = _sessions(start, brk)
    first, _ = _spans(opens)
    return pa.table({
        "user_id": t.column("user_id").take(first),
        "session_idx": idx[first],
        "n_events": np.add.reduceat(n, first),
        "start_ts": t.column(first_ts).take(first),
        "end_ts": t.column(last_ts).take(np.append(first, len(n))[1:] - 1),
    })


def _asof_carry(start: np.ndarray, is_left: np.ndarray) -> np.ndarray:
    """The as-of forward carry, the one copy: for rows in run order,
    the position of the latest ``is_left`` row at or before each row in
    its run, or -1.  A row that is not a left row never carries itself,
    so its carry is strictly prior."""
    return run_cummax(start, np.where(is_left, np.arange(len(start)), -1))


def _asof_rows(t: pa.Table, right: np.ndarray, src: np.ndarray,
               id_col: str = "event_id", ts_col: str = "ts") -> pa.Table:
    """(event_id, user_id, ts, asof_event_id, asof_ts) of the ``right``
    rows, attached to row ``src`` (null where ``src`` is -1)."""
    idx = pa.array(np.maximum(src, 0), mask=src < 0)
    out = t.filter(pa.array(right)).select(["event_id", "user_id", "ts"])
    return (out.append_column("asof_event_id", t.column(id_col).take(idx))
            .append_column("asof_ts", t.column(ts_col).take(idx)))


def _quantile_rows(start: np.ndarray, n: np.ndarray, q_pct) -> np.ndarray:
    """The per-run CDF walk, the one copy: for rows sorted by (run,
    value) weighing ``n`` each, the row holding each run's ``q``-th
    percentile for each ``q`` in ``q_pct``, shape (runs, len(q_pct)).
    Rule (both engines): the value at 1-based position ``(q*N + 99) //
    100`` of the run, N its total weight; at q=50 with unit weights that
    is the lower median, sorted[(N-1)//2]."""
    cum = np.cumsum(n)
    first = np.flatnonzero(start)
    before = cum[first] - n[first]
    total = np.append(before[1:], cum[-1:]) - before
    pos = np.maximum((np.asarray(q_pct, np.int64)[None, :]
                      * total[:, None] + 99) // 100, 1)
    return np.searchsorted(cum, before[:, None] + pos, side="left")


def _run_median(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The lower median of each run of rows sorted by (run, value)."""
    return values[_quantile_rows(start, np.ones(len(values), np.int64),
                                 [50])[:, 0]]


def _run_keys(start: np.ndarray, us: np.ndarray, pad: int) -> np.ndarray:
    """One sortable int64 per row of rows sorted by (run, us):
    ``run_id * span + (us - min us)``.  ``span`` is a power of two above
    the time extent plus ``pad``, so a search within ``pad`` of a key
    never leaves its run.  Run ids are dense per block, so sparse,
    snowflake or negative user ids all work; a block would need more
    than 2^62/span runs (~10^6 at a month's extent) to overflow."""
    rebased = us - (us.min() if len(us) else 0)
    span = np.int64(1) << int(rebased.max(initial=0) + pad + 1).bit_length()
    rid = run_id(start)
    assert rid.max(initial=0) < (np.int64(1) << 62) // span, \
        "too many runs in one block for the key span"
    return rid * span + rebased


def _salted(t: pa.Table, bucket: np.ndarray, n_buckets: int) -> pa.Table:
    """``t`` plus its time ``bucket`` and the salted exchange key
    ``skey = (hash(user) + bucket) % n_buckets`` (uint64 arithmetic, the
    kg.py construction)."""
    h = pd.util.hash_pandas_object(pd.Series(_np(t, "user_id")),
                                   index=False).to_numpy()
    skey = (h + bucket.astype(np.uint64)) % np.uint64(n_buckets)
    return (t.append_column("bucket", pa.array(bucket, pa.int64()))
            .append_column("skey", pa.array(skey.astype(np.int64))))


def windowed_counts(events: rd.Dataset, *, window: str = "hour") -> rd.Dataset:
    """(user_id, window_start, n_events, sum_value_cents): a batch-local
    ``grouped_agg`` partial, then one ``keyed_complete`` summing it.
    Rows with a null user_id drop."""
    assert window == "hour"
    total = _sum_by(["user_id", "window_start"],
                    ["n_events", "sum_value_cents"])

    def combine(batch: pa.Table) -> pa.Table:
        return total(pa.table({
            "user_id": batch.column("user_id"),
            "window_start": pa.array(
                _np(batch, "ts") // HOUR_US * HOUR_US, TS),
            "n_events": _ones(batch),
            "sum_value_cents": _cents(batch),
        }))

    return keyed_complete(events, ["user_id", "window_start"], total,
                          combine=combine, op="windowed_counts")


def sliding_window_counts(
    events: rd.Dataset,
    *,
    window_us: int = 3600 * 1_000_000,
    slide_us: int = 900 * 1_000_000,
) -> rd.Dataset:
    """Sliding-window aggregate: (user_id, window_start, n_events,
    sum_value_cents) over windows of ``window_us`` starting at every
    multiple of ``slide_us`` (default 1 h sliding by 15 min).

    Each event replicates into ``window_us / slide_us`` covering
    windows BEFORE the exchange (vectorized np.repeat), then the same
    combine/complete shape as :func:`windowed_counts` — the exchange
    moves pre-aggregated (user, window) partials whose count is bounded
    by distinct keys per batch, not by the x4 replication.
    ``window_start`` is a timestamp[ns], as it has always been.  Rows
    with a null user_id drop."""
    assert window_us % slide_us == 0
    n_covers = window_us // slide_us
    total = _sum_by(["user_id", "window_start"],
                    ["n_events", "sum_value_cents"])

    def combine(batch: pa.Table) -> pa.Table:
        # the newest covering window starts at floor(ts/slide)*slide;
        # the rest step back by slide (start > ts - window holds)
        base = _np(batch, "ts") // slide_us * slide_us
        starts = (base[:, None]
                  - np.arange(n_covers)[None, :] * slide_us).ravel()
        return total(pa.table({
            "user_id": batch.column("user_id").take(
                np.repeat(np.arange(batch.num_rows), n_covers)),
            "window_start": pa.array(starts * 1000, pa.timestamp("ns")),
            "n_events": np.ones(len(starts), np.int64),
            "sum_value_cents": np.repeat(_cents(batch), n_covers),
        }))

    return keyed_complete(events, ["user_id", "window_start"], total,
                          combine=combine, op="sliding_window_counts")


def sessionize(events: rd.Dataset, *, gap_us: int = SESSION_GAP_US) -> rd.Dataset:
    """(user_id, session_idx, n_events, start_ts, end_ts) — sessions are
    maximal event runs per user with inter-event gaps <= ``gap_us``.
    Ties order by (ts, event_id), matching the SQL oracle's window.
    One ``keyed_complete`` on user_id; rows with a null user_id drop."""

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        return _session_rows(t, start, _gap_breaks(_np(t, "ts"), gap_us),
                             _ones(t), "ts", "ts")

    return keyed_complete(events, ["user_id"], complete, combine=lambda b:
                          b.select(["user_id", "ts", "event_id"]),
                          op="sessionize")


def sessionize_salted(
    events: rd.Dataset,
    *,
    gap_us: int = SESSION_GAP_US,
    bucket_us: int = 24 * 3600 * 1_000_000,
    n_buckets: int = 65536,
) -> rd.Dataset:
    """Skew-safe sessionize: identical output to :func:`sessionize`,
    but no single user ever serializes into one block.

    1. COMBINE: tag each event with ``skey = (hash(user) + ts//bucket_us)
       % n_buckets`` (uint64 arithmetic, kg.py construction); events in
       the last ``gap_us`` of their bucket also ghost into the next
       bucket (requires ``bucket_us > gap_us``, which also guarantees a
       session can never skip an empty bucket).
    2. ``keyed_complete`` on the high-cardinality salted key: each
       (user, bucket) group sessionizes locally and emits one row per
       LOCAL session, plus whether the group's first session continues
       the previous bucket (gap to the youngest ghost <= gap_us).
    3. STITCH: one more ``keyed_complete``, on user_id alone, over the
       per-session rows (one row per session, so even a hyperactive
       user is a short run) chain-merges boundary-crossing sessions and
       numbers sessions globally per user.  On user_id ALONE: Ray's
       range partitioner keeps only EQUAL full keys together, so a
       composite (user_id, bucket, local_idx) key may split one user's
       session chain across blocks (reproduced: 79 duplicated
       (user_id, session_idx) rows at 8.5k events); the stitch sorts
       the block on the composite itself.
    Rows with a null user_id drop, as in :func:`sessionize`.
    """
    assert bucket_us > gap_us, "bucket must exceed the session gap"
    keys = ["user_id", "bucket"]
    order = [("ts", "ascending"), ("event_id", "ascending")]

    def bucket_and_ghost(batch: pa.Table) -> pa.Table:
        us = _np(batch, "ts")
        bucket = us // bucket_us
        ghost = (bucket + 1) * bucket_us - us <= gap_us
        idx = np.concatenate([np.arange(len(us)), np.flatnonzero(ghost)])
        t = batch.select(["user_id", "ts", "event_id"]).take(idx)
        return _salted(t, np.concatenate([bucket, bucket[ghost] + 1]),
                       n_buckets).append_column(
            "ghost", pa.array(np.arange(len(idx)) >= len(us)))

    def local_sessions(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(t, keys, order)
        ghost = _np(t, "ghost")
        # the youngest ghost precedes the group's first real event (ghost
        # ts < bucket start <= real ts); that event continues the
        # previous bucket iff it sits within gap_us of the ghost
        cont = (~ghost & run_lag(start, ghost, False)
                & ~_gap_breaks(_np(t, "ts"), gap_us))
        r, rstart = sorted_runs(t.append_column("cont", pa.array(cont))
                                .filter(pa.array(~ghost)), keys, order)
        brk = _gap_breaks(_np(r, "ts"), gap_us)
        first, _ = _spans(rstart | brk)
        out = _session_rows(r, rstart, brk, _ones(r), "ts", "ts")
        # only a group's FIRST local session can continue
        return (out.append_column("bucket", r.column("bucket").take(first))
                .append_column("continues_prev", pa.array(
                    _np(r, "cont")[first] & (_np(out, "session_idx") == 0))))

    def stitch(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(t, ["user_id"], [
            ("bucket", "ascending"), ("session_idx", "ascending")])
        return _session_rows(t, start, ~_np(t, "continues_prev"),
                             _np(t, "n_events"), "start_ts", "end_ts")

    local = keyed_complete(events, ["skey"], local_sessions,
                           combine=bucket_and_ghost, op="sessionize_salted")
    return keyed_complete(local, ["user_id"], stitch,
                          op="sessionize_salted_stitch")


def asof_join_events(
    events: rd.Dataset,
    *,
    left_type: str = "click",
    right_type: str = "purchase",
) -> rd.Dataset:
    """As-of join within the event stream (attribution): for every
    ``right_type`` event, attach the most recent ``left_type`` event of
    the same user STRICTLY EARLIER in ``(ts, event_id)`` order (an
    equal-ts left event with a smaller event_id counts; NULLs when no
    prior left event exists).

    Output: (event_id, user_id, ts, asof_event_id, asof_ts).

    Shape: a column-pruning type filter runs before the exchange (only
    the two joined types move), then one ``keyed_complete`` on user_id
    alone, so the forward carry (:func:`_asof_carry`) sees each user's
    full history.  Rows with a null user_id drop.  For pathologically
    hot users, :func:`asof_join_events_salted` is the skew-safe twin.
    """

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        right = _is(t, right_type)
        return _asof_rows(t, right,
                          _asof_carry(start, _is(t, left_type))[right])

    return keyed_complete(events, ["user_id"], complete,
                          combine=_types(left_type, right_type),
                          op="asof_join_events")


def _range_rows(t: pa.Table, start: np.ndarray, right_type: str,
                horizon_us: int) -> pa.Table:
    """The range-join completion both twins share: for every row of
    ``t`` (sorted by (group, ts, event_id), ``start`` marking groups)
    that is not ``right_type``, the count of ``right_type`` rows of its
    group in ``(ts, ts + horizon_us]`` and the first one's ts — two
    ``searchsorted`` calls over the group-composed timeline."""
    key = _run_keys(start, _np(t, "ts"), horizon_us)
    is_r = _is(t, right_type)
    rkey, lkey = key[is_r], key[~is_r]
    lo = np.searchsorted(rkey, lkey, side="right")
    n = np.searchsorted(rkey, lkey + horizon_us, side="right") - lo
    first = t.column("ts").filter(pa.array(is_r)).take(
        pa.array(np.where(n > 0, lo, 0), mask=n == 0))
    return (t.filter(pa.array(~is_r)).select(["event_id", "user_id", "ts"])
            .append_column("n_range", pa.array(n, pa.int64()))
            .append_column("first_range_ts", first))


def range_join_events(
    events: rd.Dataset,
    *,
    left_type: str = "purchase",
    right_type: str = "error",
    horizon_us: int = 300 * 1_000_000,
) -> rd.Dataset:
    """Bounded range join: for every ``left_type`` event, count the
    ``right_type`` events of the same user in ``(ts, ts + horizon_us]``
    (default: errors within 5 minutes after each purchase).

    Output: (event_id, user_id, ts, n_range, first_range_ts — NULL when
    n_range = 0).

    Shape: as :func:`asof_join_events` — a pre-exchange type filter,
    one ``keyed_complete`` on user_id, and per user two vectorized
    ``np.searchsorted`` calls over the user-offset-composed timeline
    (:func:`_range_rows`; no pairwise expansion: the bounded horizon
    makes the output linear in the left side).  Rows with a null
    user_id drop.  :func:`range_join_events_salted` is the hot-user
    twin.
    """

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        return _range_rows(t, start, right_type, horizon_us)

    return keyed_complete(events, ["user_id"], complete,
                          combine=_types(left_type, right_type),
                          op="range_join_events")


def range_join_events_salted(
    events: rd.Dataset,
    *,
    left_type: str = "purchase",
    right_type: str = "error",
    horizon_us: int = 300 * 1_000_000,
    bucket_us: int = 24 * 3600 * 1_000_000,
    n_buckets: int = 65536,
) -> rd.Dataset:
    """Skew-safe :func:`range_join_events`: identical output, but no
    single user ever serializes into one block.

    The range predicate's BOUNDED lookahead makes the sessionize_salted
    ghost trick sufficient (unlike as-of, whose unbounded lookback
    needs a stitch): salt the key with a coarse time bucket, and ghost
    each ``right_type`` event into the PREVIOUS bucket when it sits
    within ``horizon_us`` of its bucket start — every right event a
    left event can see is then in the left's own (user, bucket) group,
    because the left's window ``(ts, ts + horizon]`` spans at most one
    bucket boundary (``bucket_us > horizon_us`` enforced).  Each left
    event belongs to exactly one group, so output rows are unique with
    no stitch pass.  The completion is the unsalted one,
    :func:`_range_rows`, over (user, bucket) groups.  Rows with a null
    user_id drop, as in :func:`range_join_events`."""
    assert bucket_us > horizon_us, "bucket must exceed the horizon"

    def bucket_and_ghost(batch: pa.Table) -> pa.Table:
        t = _types(left_type, right_type)(batch)
        us = _np(t, "ts")
        bucket = us // bucket_us
        ghost = (us - bucket * bucket_us <= horizon_us) & _is(t, right_type)
        idx = np.concatenate([np.arange(len(us)), np.flatnonzero(ghost)])
        return _salted(t.take(idx),
                       np.concatenate([bucket, bucket[ghost] - 1]), n_buckets)

    def complete(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(t, ["user_id", "bucket"], [
            ("ts", "ascending"), ("event_id", "ascending")])
        return _range_rows(t, start, right_type, horizon_us)

    return keyed_complete(events, ["skey"], complete,
                          combine=bucket_and_ghost,
                          op="range_join_events_salted")


def value_quantiles_by_type(
    events: rd.Dataset,
    *,
    q_pct: tuple[int, ...] = (1, 25, 50, 75, 99),
) -> pa.Table:
    """Exact per-event_type percentiles of the value column (integer
    cents — same rounding as :func:`windowed_counts`).

    A batch-local (event_type, cents) histogram, folded on the driver by
    ``agg_fold`` (O(distinct (type, cents)) — bounded by types x price
    points, not by event count), then one CDF walk per type
    (:func:`_quantile_rows`).  Quantile rule: value at 1-based sorted
    position ``(q*N + 99) // 100`` — integer arithmetic, bit-exact vs
    SQL.  Rows with a null event_type drop.

    Output: small pa.Table (event_type, q_pct BIGINT, cents BIGINT)."""
    keys = ["event_type", "cents"]

    def hist(batch: pa.Table) -> pa.Table:
        return grouped_agg(pa.table({
            "event_type": batch.column("event_type"),
            "cents": _cents(batch), "n": _ones(batch)}), keys, [("n", "sum")])

    h, start = sorted_runs(agg_fold(
        events.map_batches(hist, batch_format="pyarrow", batch_size=1 << 19),
        keys, [("n", "sum")], op="value_quantiles_by_type",
        empty=_empty(event_type=pa.string(), cents=pa.int64(),
                     n=pa.int64())), ["event_type"], [("cents", "ascending")])
    idx = _quantile_rows(start, _np(h, "n"), q_pct).ravel()
    return pa.table({
        "event_type": h.column("event_type").take(idx),
        "q_pct": pa.array(np.tile(np.asarray(q_pct, np.int64),
                                  start.sum()), pa.int64()),
        "cents": h.column("cents").take(idx),
    })


def latest_event_per_user(events: rd.Dataset) -> rd.Dataset:
    """Dedup-to-latest (CDC-style snapshot): each user's most recent
    event by (ts, event_id).

    A per-user ``grouped_topk`` top-1 before the exchange (it moves one
    row per user per batch) and the same cut as the completion of one
    ``keyed_complete``.  Rows with a null user_id drop.  Output:
    (user_id, event_id, ts, event_type)."""
    latest = functools.partial(
        grouped_topk, keys=["user_id"], k=1,
        order=[("ts", "descending"), ("event_id", "descending")])
    return keyed_complete(events, ["user_id"], latest, combine=lambda b:
                          latest(b.select(["user_id", "event_id", "ts",
                                           "event_type"])
                                 .replace_schema_metadata()),
                          op="latest_event_per_user")


def asof_join_events_salted(
    events: rd.Dataset,
    *,
    left_type: str = "click",
    right_type: str = "purchase",
    bucket_us: int = 24 * 3600 * 1_000_000,
    n_buckets: int = 65536,
) -> rd.Dataset:
    """Skew-safe :func:`asof_join_events`: identical output, hot users
    spread across salt buckets.

    As-of lookback is UNBOUNDED, so the range join's local ghost trick
    does not work; instead the sessionize_salted two-phase shape does:

    1. SALTED LOCAL PASS (``keyed_complete`` on skey): within each
       (user, bucket) group, resolve every ``right_type`` event against
       the group's own prior ``left_type`` events (a local prior left,
       being later than anything in an earlier bucket, is always the
       true answer).  Each group also emits ONE carry row — its latest
       left event (``grouped_topk``) — and the unresolved rights pass
       through tagged ``open``.
    2. STITCH (``keyed_complete`` on stkey): ``res`` rows — the resolved
       BULK — take spread per-event odd keys and pass straight through
       (they never re-concentrate per user); ``open``/``carry`` rows
       take the even key 2*user_id, so per user an ``open`` in bucket b
       finds the carry with the largest bucket < b: the same forward
       carry, over (user) runs sorted by (bucket, opens before carries).

    Residual skew: the stitch concentrates one carry per (user, bucket)
    plus the OPEN rights (rights before any same-bucket left).  Opens
    are typically a small fraction; the adversarial case — a left-less
    hyperactive user, all of whose rights are open — re-serializes that
    user's rights only.  Rows with a null user_id drop."""
    # odd-key mix for res rows (Knuth multiplicative); only a
    # partitioning key, never an output value
    _MIX = np.uint64(0x9E3779B97F4A7C15)
    keys = ["user_id", "bucket"]

    def tag(batch: pa.Table) -> pa.Table:
        t = _types(left_type, right_type)(batch)
        return _salted(t, _np(t, "ts") // bucket_us, n_buckets)

    def rows(kind, t: pa.Table, aeid, ats, stkey) -> pa.Table:
        return pa.table({
            "kind": pa.array(kind, pa.string()),
            "event_id": t.column("event_id"), "user_id": t.column("user_id"),
            "bucket": t.column("bucket"), "ts": t.column("ts"),
            "asof_event_id": aeid, "asof_ts": ats,
            "stkey": pa.array(stkey, pa.int64())})

    def even(t: pa.Table) -> np.ndarray:
        # wraparound keeps parity and equality, all a partitioner needs
        return (_np(t, "user_id").astype(np.uint64)
                << np.uint64(1)).astype(np.int64)

    def local_pass(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(t, keys, [("ts", "ascending"),
                                         ("event_id", "ascending")])
        is_left = _is(t, left_type)
        src = _asof_carry(start, is_left)[~is_left]
        r = t.filter(pa.array(~is_left))
        res = _asof_rows(t, ~is_left, src)
        odd = ((_np(r, "event_id").astype(np.uint64) * _MIX)
               | np.uint64(1)).astype(np.int64)
        rights = rows(np.where(src >= 0, "res", "open"), r,
                      res.column("asof_event_id"), res.column("asof_ts"),
                      np.where(src >= 0, odd, even(r)))
        c = grouped_topk(t.filter(pa.array(is_left)), keys,
                         [("ts", "descending"), ("event_id", "descending")], 1)
        carries = rows(np.full(c.num_rows, "carry"), c, c.column("event_id"),
                       c.column("ts"), even(c))
        return pa.concat_tables([rights, carries])

    def stitch(t: pa.Table) -> pa.Table:
        res = _is(t, "res", "kind")
        oc, start = sorted_runs(t.filter(pa.array(~res)), ["user_id"], [
            ("bucket", "ascending"), ("kind", "descending")])
        is_c = _is(oc, "carry", "kind")
        return pa.concat_tables([
            t.filter(pa.array(res)).select(
                ["event_id", "user_id", "ts", "asof_event_id", "asof_ts"]),
            _asof_rows(oc, ~is_c, _asof_carry(start, is_c)[~is_c],
                       "asof_event_id", "asof_ts")])

    local = keyed_complete(events, ["skey"], local_pass, combine=tag,
                           op="asof_join_events_salted")
    return keyed_complete(local, ["stkey"], stitch,
                          op="asof_join_events_salted_stitch")


def funnel_conversions(
    events: rd.Dataset,
    *,
    first_type: str = "click",
    then_type: str = "purchase",
    horizon_us: int = 24 * 3600 * 1_000_000,
) -> rd.Dataset:
    """Conversion funnel: users whose FIRST ``first_type`` event is
    followed by a ``then_type`` event strictly later but within
    ``horizon_us`` — with the exact first-step and conversion
    timestamps (product-analytics' two-step funnel; the reference has
    no events surface at all).

    Definition (total order, so both engines agree): fc = min ts of
    the user's first_type events; conversion = min then_type ts in
    (fc, fc + horizon]; only converted users emit a row.

    Shape: a type filter before the exchange, one ``keyed_complete`` on
    user_id; each user run sorts first-type rows first, so ``run_first``
    is fc, and a ``grouped_agg`` min picks the conversion.  Rows with a
    null user_id drop.  Output: (user_id, first_ts, conv_ts).
    """

    def project(batch: pa.Table) -> pa.Table:
        t = _types(first_type, then_type, cols=("user_id", "ts",
                                                "event_type"))(batch)
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "ts_us": t.column("ts").cast(pa.int64()),
            "is_first": pc.cast(pc.equal(t.column("event_type"),
                                         first_type), pa.int64()),
        })

    def complete(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(t, ["user_id"], [("is_first", "descending"),
                                               ("ts_us", "ascending")])
        us, is_first = _np(t, "ts_us"), _np(t, "is_first")
        fc = run_first(start, us)
        conv = ((run_first(start, is_first) == 1) & (is_first == 0)
                & (us > fc) & (us <= fc + horizon_us))
        g = grouped_agg(pa.table({
            "user_id": t.column("user_id"), "first_ts": fc, "conv_ts": us,
        }).filter(pa.array(conv)), ["user_id"],
            [("first_ts", "min"), ("conv_ts", "min")])
        return pa.table({"user_id": g.column("user_id"),
                         "first_ts": g.column("first_ts").cast(TS),
                         "conv_ts": g.column("conv_ts").cast(TS)})

    return keyed_complete(events, ["user_id"], complete, combine=project,
                          op="funnel_conversions")


WEEK_US = 7 * 24 * 3600 * 1_000_000


def _weeks(batch: pa.Table) -> np.ndarray:
    return _np(batch, "ts") // WEEK_US


def _cohorts(t: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Distinct (user, week) rows in user runs, with each row's cohort
    week (the user's first) and week offset."""
    t, start = _by_user(t, "week")
    week = _np(t, "week")
    cohort = run_first(start, week)
    return t, cohort, week - cohort


def cohort_retention(events: rd.Dataset) -> pa.Table:
    """Cohort retention (the classic weekly-retention triangle): users
    are cohorted by the week of their FIRST event; for every later
    week in which a cohort member is active, the (cohort, offset) cell
    counts them once.

    Weeks are pure integer buckets ``ts_us // WEEK_US`` (no calendar
    semantics — the same fixed-width windowing as windowed_counts), so
    the SQL oracle is bit-exact FOR NON-NEGATIVE timestamps (DuckDB's
    integer ``//`` truncates toward zero while numpy floors; they
    agree everywhere >= epoch, and event time before 1970 is out of
    domain for this table).

    Shape: batch-local distinct (user, week) pairs, ONE
    ``keyed_complete`` on user_id (the cohort is :func:`_cohorts`' run
    first), emitting (cohort, offset) partial counts that ``agg_fold``
    folds: the result is bounded by weeks^2.  Rows with a null user_id
    drop.

    Output: (cohort_week, week_offset, n_users); offset 0 rows give
    each cohort's size."""
    keys = ["cohort_week", "week_offset"]

    def pairs(batch: pa.Table) -> pa.Table:
        return grouped_agg(pa.table({"user_id": batch.column("user_id"),
                                     "week": _weeks(batch)}),
                           ["user_id", "week"], [])

    def complete(t: pa.Table) -> pa.Table:
        t, cohort, offset = _cohorts(grouped_agg(t, ["user_id", "week"], []))
        return grouped_agg(pa.table({
            "cohort_week": cohort, "week_offset": offset, "n": _ones(t)}),
            keys, [("n", "sum")])

    return agg_fold(
        keyed_complete(events, ["user_id"], complete, combine=pairs,
                       op="cohort_retention"), keys, [("n", "sum")],
        op="cohort_retention",
        empty=_empty(cohort_week=pa.int64(), week_offset=pa.int64(),
                     n=pa.int64())).rename_columns(keys + ["n_users"])


def attributed_revenue(events: rd.Dataset) -> rd.Dataset:
    """Last-touch attribution report: every purchase is attributed to
    the user's most recent strictly-prior click (the
    :func:`asof_join_events` carry, (ts, event_id) tie order) and
    revenue rolls up per attributing click.

    Output: (click_event_id, n_purchases, sum_value_cents) — integer
    cents (the repo invariant), one row per click with >= 1 attributed
    purchase.

    Shape: type filter + projection before the exchange, ONE
    ``keyed_complete`` on user_id (a click's attribution group is
    whole in one user run, so no second exchange is needed), the
    forward carry and a ``grouped_agg`` sum.  Rows with a null user_id
    drop."""

    def project(batch: pa.Table) -> pa.Table:
        t = _types("click", "purchase", cols=batch.column_names)(batch)
        is_click = pc.equal(t.column("event_type"), "click")
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "ts_us": t.column("ts").cast(pa.int64()),
            "event_id": t.column("event_id").cast(pa.int64()),
            "is_click": pc.cast(is_click, pa.int64()),
            "cents": pa.array(
                _round_half_away(np.asarray(
                    pc.if_else(is_click, 0.0,
                               pc.fill_null(t.column("value"), 0.0))
                ) * 100), pa.int64()),
        })

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts_us", "event_id")
        is_click = _np(t, "is_click") == 1
        src = _asof_carry(start, is_click)
        pur = ~is_click & (src >= 0)
        return _sum_by(["click_event_id"], ["n_purchases", "sum_value_cents"])(
            pa.table({"click_event_id": _np(t, "event_id")[src[pur]],
                      "n_purchases": np.ones(pur.sum(), np.int64),
                      "sum_value_cents": _np(t, "cents")[pur]}))

    return keyed_complete(events, ["user_id"], complete, combine=project,
                          op="attributed_revenue")


def running_totals(events: rd.Dataset) -> rd.Dataset:
    """Per-user RUNNING total (the window-function shape: SUM() OVER
    (PARTITION BY user ORDER BY ts ROWS UNBOUNDED PRECEDING)): every
    event annotated with the cumulative integer-cents spend of its
    user up to and including it, ordered (ts, event_id).

    A running sum needs every row, so there is no partial step: one
    ``keyed_complete`` on user_id and a ``run_cumsum``.  Output size ==
    input size.  Rows with a null user_id drop.

    Output: (event_id, user_id, running_cents)."""

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "running_cents": run_cumsum(start, _cents(t))})

    return keyed_complete(events, ["user_id"], complete, combine=lambda b:
                          b.select(["event_id", "user_id", "ts", "value"]),
                          op="running_totals")


def merge_intervals(
    events: rd.Dataset,
    *,
    base_us: int = 600 * 1_000_000,
) -> rd.Dataset:
    """Overlapping-interval union per user (the classic islands-and-
    gaps shape the gap-based :func:`sessionize` cannot express): each
    event opens an interval [ts, ts + dur] with a VARIABLE duration
    ``dur = (value_cents % 7 + 1) * base_us`` (deterministic from the
    data; value > 0 so ``%`` agrees between numpy and SQL), and
    intervals that overlap merge transitively — an early long interval
    can swallow several later short ones, which is exactly the case
    plain gap sessionization gets wrong.

    Shape mirrors :func:`sessionize`: one ``keyed_complete`` on user_id,
    then a running per-user ``run_cummax`` of interval ends; an island
    breaks where the next start exceeds every previous end, and islands
    are numbered by :func:`_sessions`.  Rows with a null user_id drop.

    Output: (user_id, island_idx, start_ts, end_ts, n_events)."""

    def project(batch: pa.Table) -> pa.Table:
        s = _np(batch, "ts")
        return pa.table({"user_id": batch.column("user_id"),
                         "event_id": batch.column("event_id"), "s": s,
                         "e": s + (_cents(batch) % 7 + 1) * base_us})

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "s", "e", "event_id")
        s, e = _np(t, "s"), _np(t, "e")
        opens, idx = _sessions(start, s > run_lag(start, run_cummax(
            start, e), 0))
        first, n = _spans(opens)
        return pa.table({
            "user_id": t.column("user_id").take(first),
            "island_idx": idx[first],
            "start_ts": pa.array(s[first], TS),
            "end_ts": pa.array(np.maximum.reduceat(e, first), TS),
            "n_events": n,
        })

    return keyed_complete(events, ["user_id"], complete, combine=project,
                          op="merge_intervals")


def robust_outliers(
    events: rd.Dataset,
    *,
    k: int = 8,
) -> pa.Table:
    """Per-type robust outlier statistics: median / MAD (median
    absolute deviation) of value_cents, and the count of events whose
    deviation exceeds ``k * MAD`` — the z-score-free data-curation
    gate (a MAD rule needs no float mean/stddev, so it stays
    bit-exact vs the SQL oracle).

    Three streaming passes, all integer arithmetic, each folded by
    ``agg_fold`` (O(distinct cents) / O(types) — never O(rows)):
      1. per-type value histogram -> median (the engine's 1-based
         CDF-position rule, :func:`_quantile_rows`; non-negative
         domain so // == truncation on both engines);
      2. per-type |v - med| histogram (median broadcast in the
         closure) -> MAD by the same rule;
      3. per-type outlier counts (both broadcast).
    Rows with a null event_type drop.

    Output: small pa.Table (event_type, n_events, med_cents,
    mad_cents, n_outliers)."""
    keys = ["event_type", "c"]

    def median(dev) -> tuple[pa.Array, np.ndarray]:
        def hist(batch: pa.Table) -> pa.Table:
            return grouped_agg(pa.table({
                "event_type": batch.column("event_type"), "c": dev(batch),
                "n": _ones(batch)}), keys, [("n", "sum")])

        h, start = sorted_runs(agg_fold(
            events.map_batches(hist, batch_format="pyarrow",
                               batch_size=1 << 19), keys, [("n", "sum")],
            op="robust_outliers", empty=_empty(
                event_type=pa.string(), c=pa.int64(), n=pa.int64())),
            ["event_type"], [("c", "ascending")])
        idx = _quantile_rows(start, _np(h, "n"), [50])[:, 0]
        return h.column("event_type").take(idx).combine_chunks(), \
            _np(h, "c")[idx]

    def per_type(batch: pa.Table, vals: np.ndarray) -> np.ndarray:
        # a null type's row is dropped by every grouped_agg it reaches
        return vals[pc.index_in(batch.column("event_type"), value_set=types)
                    .fill_null(0).to_numpy(zero_copy_only=False)]

    types, med = median(_cents)
    _, mad = median(lambda b: np.abs(_cents(b) - per_type(b, med)))

    def count_out(batch: pa.Table) -> pa.Table:
        dev = np.abs(_cents(batch) - per_type(batch, med))
        return _sum_by(["event_type"], ["n_events", "n_outliers"])(pa.table({
            "event_type": batch.column("event_type"),
            "n_events": _ones(batch),
            "n_outliers": (dev > k * per_type(batch, mad)).astype(np.int64)}))

    g = agg_fold(events.map_batches(count_out, batch_format="pyarrow",
                                    batch_size=1 << 19), ["event_type"],
                 [("n_events", "sum"), ("n_outliers", "sum")],
                 op="robust_outliers", empty=_empty(
                     event_type=pa.string(), n_events=pa.int64(),
                     n_outliers=pa.int64()))
    # every fold is sorted on event_type over the same non-null types
    return pa.table({"event_type": g.column("event_type"),
                     "n_events": g.column("n_events"), "med_cents": med,
                     "mad_cents": mad, "n_outliers": g.column("n_outliers")})


def user_gap_stats(events: rd.Dataset) -> rd.Dataset:
    """Per-user inter-event gap statistics (the LAG window shape): for
    every user with >= 2 events, the count, min/max/sum of successive
    timestamp gaps and the LOWER-median gap, all in exact epoch-us
    integers.

    Ordering rule on BOTH engines: events sort by (us, event_id) —
    the synth can produce equal timestamps, so the id tiebreak keeps
    the lag sequence deterministic.  Lower median = sorted_gaps[(n-1)//2]
    (0-based) == DuckDB ``(list_sort(list(gap)))[(n+1)//2]`` (1-based);
    no averaging, so even-count users stay integer-exact.

    One ``keyed_complete`` on user_id; per user a ``run_lag`` gives the
    gaps, which sort into runs by value: first, last, sum and
    :func:`_run_median` are then run-boundary reads.  Rows with a null
    user_id drop."""

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "us", "event_id")
        us = _np(t, "us")
        g, gstart = sorted_runs(pa.table({
            "user_id": t.column("user_id"), "gap": us - run_lag(start, us, 0),
        }).filter(pa.array(~start)), ["user_id"], [("gap", "ascending")])
        gap = _np(g, "gap")
        first, n = _spans(gstart)
        return pa.table({
            "user_id": g.column("user_id").take(first),
            "n_events": n + 1, "n_gaps": n, "min_gap_us": gap[first],
            "max_gap_us": gap[first + n - 1],
            "sum_gap_us": np.add.reduceat(gap, first),
            "med_gap_us": _run_median(gstart, gap),
        })

    return keyed_complete(events, ["user_id"], complete, combine=lambda b:
                          pa.table({"user_id": b.column("user_id"),
                                    "us": _np(b, "ts"),
                                    "event_id": b.column("event_id")}),
                          op="user_gap_stats")


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_type_pivot(events: rd.Dataset) -> rd.Dataset:
    """Per-user PIVOT: one count column and one integer-cents sum
    column per event type (the wide/pivot aggregate shape — long
    (user, type) partials into fixed columns).

    Scale shape: the pivot happens INSIDE the batch-local combine, so
    the exchange moves one already-wide row per (user, batch) — 2x5
    int64 cells — instead of long (user, type) rows; the completion of
    the one ``keyed_complete`` sums the fixed columns.  Unknown event
    types are counted into the ``n_other``/``cents_other`` catchall;
    a null event_type counts nowhere (SQL ``NOT IN`` is null), and a
    null user_id drops.

    Output: (user_id, n_<type>..., cents_<type>..., n_other,
    cents_other) — all exact int64."""
    cols = ([f"n_{t}" for t in PIVOT_TYPES]
            + [f"cents_{t}" for t in PIVOT_TYPES]
            + ["n_other", "cents_other"])
    types = list(PIVOT_TYPES) + ["other"]
    total = _sum_by(["user_id"], cols)

    def combine(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column("event_type")))
        code = pc.index_in(batch.column("event_type"),
                           value_set=pa.array(PIVOT_TYPES)).fill_null(
            len(PIVOT_TYPES)).to_numpy(zero_copy_only=False)
        cents = _cents(batch)
        out = {"user_id": batch.column("user_id")}
        for c in cols:
            kind, t = c.split("_", 1)
            hit = code == types.index(t)
            out[c] = (hit.astype(np.int64) if kind == "n"
                      else np.where(hit, cents, 0))
        return total(pa.table(out))

    return keyed_complete(events, ["user_id"], total, combine=combine,
                          op="user_type_pivot")


def type_transition_counts(events: rd.Dataset) -> pa.Table:
    """Event-type TRANSITION matrix (first-order Markov estimation):
    counts of consecutive (from_type, to_type) pairs within each
    user's (ts, event_id)-ordered stream.

    Shape: one ``keyed_complete`` on user_id, whose completion counts
    each user run's consecutive pairs with ``grouped_agg``, and an
    ``agg_fold`` of those (from, to, n) partials (O(types^2)).  Rows
    with a null user_id drop.

    Output: pa.Table (from_type, to_type, n) sorted by key."""
    keys = ["from_type", "to_type"]

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        to = np.flatnonzero(~start)  # each row after its run's first
        et = t.column("event_type")
        return _sum_by(keys, ["n"])(pa.table({
            "from_type": et.take(to - 1), "to_type": et.take(to),
            "n": np.ones(len(to), np.int64)}))

    return agg_fold(keyed_complete(
        events, ["user_id"], complete, combine=lambda b: b.select(
            ["user_id", "ts", "event_id", "event_type"]),
        op="type_transition_counts"), keys, [("n", "sum")],
        op="type_transition_counts", empty=_empty(
            from_type=pa.string(), to_type=pa.string(), n=pa.int64()))


def sliding_distinct_users(
    events: rd.Dataset,
    *,
    window_us: int = 3600 * 1_000_000,
    slide_us: int = 900 * 1_000_000,
) -> rd.Dataset:
    """GLOBAL distinct users (and event totals) per sliding window —
    the overlapping-window DISTINCT that per-(user, window) partials
    can't answer: every event replicates into its ``window_us /
    slide_us`` covering windows (vectorized np.repeat) and pre-reduces
    to (window, user, cnt) partials; ONE ``keyed_complete`` on the
    window key alone puts each window's full user set in one block
    (keying on the composite would split a window at user boundaries
    and undercount the distinct), and the completion counts users and
    sums events with two ``grouped_agg`` calls.  Rows with a null
    user_id drop.

    Output: (win_us, n_users, n_events) — exact int64."""
    assert window_us % slide_us == 0
    n_covers = window_us // slide_us
    per_user = _sum_by(["win_us", "user_id"], ["cnt"])

    def expand(batch: pa.Table) -> pa.Table:
        base = _np(batch, "ts") // slide_us * slide_us
        k = np.tile(np.arange(n_covers, dtype=np.int64), batch.num_rows)
        return per_user(pa.table({
            "win_us": np.repeat(base, n_covers) - k * slide_us,
            "user_id": batch.column("user_id").take(
                np.repeat(np.arange(batch.num_rows), n_covers)),
            "cnt": np.ones(len(k), np.int64)}))

    def complete(t: pa.Table) -> pa.Table:
        return grouped_agg(per_user(t), ["win_us"], [
            ("user_id", "count"), ("cnt", "sum")]).rename_columns(
            ["win_us", "n_users", "n_events"])

    return keyed_complete(events, ["win_us"], complete, combine=expand,
                          op="sliding_distinct_users")


def activity_streaks(events: rd.Dataset) -> rd.Dataset:
    """Gaps-and-islands: per user, the longest run of CONSECUTIVE
    active days plus active-day and streak counts.  Island id is the
    classic ``day - rank(day)`` trick (``run_pos`` over distinct days;
    epoch-us days are non-negative, so // == floor on both engines).

    One ``keyed_complete`` on user_id; the batch-local day distinct
    shrinks the exchange and the completion re-distincts (cross-batch
    duplicates of a (user, day) meet there) before the island scan.
    Rows with a null user_id drop.

    Output: (user_id, max_streak_days, n_active_days, n_streaks)."""
    DAY_US = 86_400_000_000

    def days(batch: pa.Table) -> pa.Table:
        return grouped_agg(pa.table({"user_id": batch.column("user_id"),
                                     "day": _np(batch, "ts") // DAY_US}),
                           ["user_id", "day"], [])

    def islands(t: pa.Table) -> pa.Table:
        t, start = _by_user(grouped_agg(t, ["user_id", "day"], []), "day")
        isl = _np(t, "day") - run_pos(start)
        first, n = _spans(start | (isl != run_lag(start, isl, 0)))
        return grouped_agg(pa.table({
            "user_id": t.column("user_id").take(first),
            "max_streak_days": n, "n_active_days": n, "n_streaks": n,
        }), ["user_id"], [("max_streak_days", "max"),
                          ("n_active_days", "sum"), ("n_streaks", "count")])

    return keyed_complete(events, ["user_id"], islands, combine=days,
                          op="activity_streaks")


def peak_hour_per_user(events: rd.Dataset) -> rd.Dataset:
    """Groupwise ARGMAX: each user's busiest hour-of-day (0-23), ties
    broken by the SMALLER hour — the behavioral-profile projection.

    Batch-local (user, hour) count partials, one ``keyed_complete`` on
    user_id whose completion sums them and cuts a (count DESC, hour
    ASC) ``grouped_topk`` top-1.  hour = (us // 3600e6) % 24 on
    non-negative epoch micros (floor == truncation).  Rows with a null
    user_id drop.

    Output: (user_id, peak_hour, n_events_at_peak)."""
    count = _sum_by(["user_id", "hour"], ["n"])

    def argmax(t: pa.Table) -> pa.Table:
        best = grouped_topk(count(t), ["user_id"],
                            [("n", "descending"), ("hour", "ascending")], 1)
        return best.rename_columns(["user_id", "peak_hour",
                                    "n_events_at_peak"])

    return keyed_complete(events, ["user_id"], argmax, combine=lambda b:
                          count(pa.table({
                              "user_id": b.column("user_id"),
                              "hour": _np(b, "ts") // HOUR_US % 24,
                              "n": _ones(b)})), op="peak_hour_per_user")


def signup_to_purchase(events: rd.Dataset) -> rd.Dataset:
    """Conversion latency: for every user with BOTH a signup and a
    purchase, the epoch-us gap between the FIRST signup and the FIRST
    purchase (negative when the purchase came first — kept raw, no
    silent clamping).

    The two firsts are two nullable columns of one wide partial row
    per user, min-aggregated by ``grouped_agg`` (min skips nulls, so
    each batch ships one row per user); the completion of one
    ``keyed_complete`` on user_id keeps users with both and subtracts.
    Rows with a null user_id drop.

    Output: (user_id, first_signup_us, first_purchase_us, gap_us)."""
    firsts = functools.partial(grouped_agg, keys=["user_id"], aggs=[
        ("first_signup_us", "min"), ("first_purchase_us", "min")])

    def combine(batch: pa.Table) -> pa.Table:
        t = _types("signup", "purchase", cols=("user_id", "ts",
                                               "event_type"))(batch)
        us, none = t.column("ts").cast(pa.int64()), pa.scalar(None, pa.int64())
        return firsts(pa.table({
            "user_id": t.column("user_id"),
            "first_signup_us": pc.if_else(_is(t, "signup"), us, none),
            "first_purchase_us": pc.if_else(_is(t, "purchase"), us, none)}))

    def finish(t: pa.Table) -> pa.Table:
        g = firsts(t)
        g = g.filter(pc.and_(pc.is_valid(g.column("first_signup_us")),
                             pc.is_valid(g.column("first_purchase_us"))))
        return g.append_column("gap_us", pc.subtract(
            g.column("first_purchase_us"), g.column("first_signup_us")))

    return keyed_complete(events, ["user_id"], finish, combine=combine,
                          op="signup_to_purchase")


def burst_hours(events: rd.Dataset, *, factor: int = 1) -> rd.Dataset:
    """Integer burst detection: a user's hours whose event count
    exceeds ``factor`` TIMES their lower-median hourly count — anomaly
    gating with no float (the events_outliers MAD-gate's cheaper
    cousin, robust to the user's own baseline).  The default factor 1
    ("above the user's median hour") keeps the synth fixture
    non-degenerate at every SF; production bursts would use 2-3.

    Batch-local (user, hour) count partials; one ``keyed_complete`` on
    user_id whose completion sums them, sorts each user's hours by
    count and takes :func:`_run_median`.  Rows with a null user_id
    drop.

    Output: (user_id, hour_us, n_events, med_hourly)."""
    count = _sum_by(["user_id", "hour_us"], ["n"])

    def finish(t: pa.Table) -> pa.Table:
        g, start = _by_user(count(t), "n")
        n = _np(g, "n")
        med = _run_median(start, n)[run_id(start)]
        return pa.table({"user_id": g.column("user_id"),
                         "hour_us": g.column("hour_us"), "n_events": n,
                         "med_hourly": med}).filter(pa.array(n > factor * med))

    return keyed_complete(events, ["user_id"], finish, combine=lambda b:
                          count(pa.table({
                              "user_id": b.column("user_id"),
                              "hour_us": _np(b, "ts") // HOUR_US * HOUR_US,
                              "n": _ones(b)})), op="burst_hours")


def session_quantiles(
    events: rd.Dataset,
    *,
    q_pct: tuple[int, ...] = (25, 50, 75, 99),
    gap_us: int = SESSION_GAP_US,
) -> pa.Table:
    """Exact percentiles of SESSION-level metrics (events per session,
    session duration in whole seconds) — quantiles over the output of
    another distributed operator, the composition a pipeline health
    report needs.

    Quantile rule (both engines): value at 1-based sorted position
    ``(q*N + 99) // 100`` (:func:`_quantile_rows`).  Durations quantize
    to seconds so the ``agg_fold`` of (metric, value, count) partials
    stays bounded by the session-length DOMAIN (~10^4 values), not the
    session count; event counts are already small-domain.  Rows with a
    null user_id drop (:func:`sessionize`).

    Output: pa.Table (q_pct, n_events_q, dur_s_q)."""
    keys = ["m", "v"]

    def hist(batch: pa.Table) -> pa.Table:
        dur = (_np(batch, "end_ts") - _np(batch, "start_ts")) // 1_000_000
        n = batch.num_rows
        return grouped_agg(pa.table({
            "m": pa.array(["n"] * n + ["d"] * n, pa.string()),
            "v": np.concatenate([_np(batch, "n_events"), dur]),
            "c": np.ones(2 * n, np.int64)}), keys, [("c", "sum")])

    h, start = sorted_runs(agg_fold(
        sessionize(events, gap_us=gap_us).map_batches(
            hist, batch_format="pyarrow", batch_size=1 << 19),
        keys, [("c", "sum")], op="session_quantiles",
        empty=_empty(m=pa.string(), v=pa.int64(), c=pa.int64())),
        ["m"], [("v", "ascending")])
    if not h.num_rows:
        return _empty(q_pct=pa.int64(), n_events_q=pa.int64(),
                      dur_s_q=pa.int64())
    # runs sort "d" (durations) before "n" (event counts)
    v = _np(h, "v")[_quantile_rows(start, _np(h, "c"), q_pct)]
    return pa.table({"q_pct": pa.array(list(q_pct), pa.int64()),
                     "n_events_q": v[1], "dur_s_q": v[0]})


def table_profile(ds: rd.Dataset, specs: list[tuple[str, str]]) -> rd.Dataset:
    """DESCRIBE-style column profiler — the first pass every ingestion
    pipeline runs over an unfamiliar table: per column, exact row
    count, null count, and min/max, in ONE streaming pass whose
    per-block partials (one row per column) ``agg_fold`` folds on the
    driver.  Zero wide ops.

    ``specs`` is ``[(column, kind)]`` with kind in:
      'int'    — int64 min/max
      'ts'     — timestamp normalized to epoch microseconds (int64)
      'str'    — binary-codepoint string min/max (both engines agree
                 on ASCII; the dup_clusters sorted-coding precedent)
      'cents'  — float64 via ``floor(v * 100)`` to int64: the same
                 IEEE multiply on the same stored bits gives the same
                 product bits in numpy and DuckDB, so even the float
                 column profiles bit-exactly

    min/max are emitted as VARCHAR (ints via their decimal text;
    strings as-is) so one schema covers every column; NULL-only columns
    emit NULL min/max (inner semantics mirrored by the oracle's
    aggregate over zero non-null rows).  A partial row keeps int and
    string extremes in separate typed columns, so ints compare as ints.

    Output: (col, n_rows, n_null, min_v, max_v), one row per spec,
    sorted by col."""
    schema = pa.schema([
        ("col", pa.string()), ("n_rows", pa.int64()), ("n_null", pa.int64()),
        ("imin", pa.int64()), ("imax", pa.int64()), ("smin", pa.string()),
        ("smax", pa.string())])

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for name, kind in specs:
            arr = batch.column(name)
            v = arr.drop_null()
            if kind == "cents":
                v = pa.array(np.floor(v.to_numpy(zero_copy_only=False)
                                      * 100.0).astype(np.int64))
            v = v.cast(pa.string() if kind == "str" else pa.int64())
            ext = [pc.min(v).as_py(), pc.max(v).as_py()]
            none = [None, None]
            rows.append([name, len(arr), arr.null_count]
                        + (none + ext if kind == "str" else ext + none))
        return pa.Table.from_pylist(
            [dict(zip(schema.names, r)) for r in rows], schema)

    g = agg_fold(ds.map_batches(partial, batch_format="pyarrow",
                                batch_size=1 << 17), ["col"],
                 [(c, f) for c, f in zip(schema.names[1:], [
                     "sum", "sum", "min", "max", "min", "max"])],
                 op="table_profile", empty=schema.empty_table())
    kinds = dict(specs)
    ints = pa.array([kinds[c] != "str" for c in g.column("col").to_pylist()],
                    pa.bool_())
    return rd.from_arrow(pa.table({
        "col": g.column("col"), "n_rows": g.column("n_rows"),
        "n_null": g.column("n_null"),
        "min_v": pc.if_else(ints, g.column("imin").cast(pa.string()),
                            g.column("smin")),
        "max_v": pc.if_else(ints, g.column("imax").cast(pa.string()),
                            g.column("smax")),
    }))


def _hour(batch: pa.Table) -> pa.ChunkedArray:
    """Calendar hour-of-day of ``ts``, int64 (== DuckDB ``hour(ts)``)."""
    return pc.hour(batch.column("ts")).cast(pa.int64())


def _band(batch: pa.Table, band_cents: int) -> np.ndarray:
    return np.floor(_cents(batch).astype(np.float64)
                    / band_cents).astype(np.int64)


def k_anonymity(
    events: rd.Dataset,
    *,
    k: int = 5,
    band_cents: int = 500,
) -> pa.Table:
    """k-anonymity risk report over the quasi-identifier combination
    (event_type, hour-of-day, value band) — the privacy audit a
    training-data release runs before shipping event-derived features:
    any combination observed fewer than ``k`` times re-identifies its
    members (Sweeney 2002), so the release must suppress or coarsen
    those cells.

    Quasi-identifiers (all exact integers): hour-of-day = calendar
    ``pc.hour`` (== DuckDB ``hour(ts)``; both calendar-based, so no
    epoch-unit pitfalls), value band =
    ``floor(round_half_away(value * 100) / band_cents)`` (the
    integer-cents precedent; the float divide of small ints is exact
    in both engines).

    Scale shape: the QI space is BOUNDED (types x 24 x bands), so an
    exchange would degenerate the range partitioner (perf rule 2);
    each block contributes a ``grouped_agg`` partial count and
    ``agg_fold`` folds them — zero wide ops at any corpus size.  Rows
    with a null event_type drop.

    Output pa.Table sorted (event_type, hour, band):
    (event_type, hour, band, n, at_risk) with at_risk = 1 iff n < k.
    """
    keys = ["event_type", "hour", "band"]
    g = agg_fold(events.map_batches(lambda b: grouped_agg(pa.table({
        "event_type": b.column("event_type"), "hour": _hour(b),
        "band": _band(b, band_cents), "n": _ones(b)}), keys, [("n", "sum")]),
        batch_format="pyarrow"), keys, [("n", "sum")], op="k_anonymity",
        empty=_empty(event_type=pa.string(), hour=pa.int64(),
                     band=pa.int64(), n=pa.int64()))
    return g.append_column("at_risk", pc.cast(pc.less(g.column("n"), k),
                                              pa.int64()))


def out_of_order_stats(events: rd.Dataset, *,
                       salt: str = "arr") -> rd.Dataset:
    """Watermark / out-of-order accounting: under a simulated shuffled
    ingest whose ARRIVAL order is the deterministic md5 permutation
    ``md5_64(f"{salt}:{event_id}")`` (the engine's shared draw
    convention — reproducible across runs, engines and resumes), an
    event is LATE when some earlier-arriving event of the same user
    already carried a larger timestamp (the running high-watermark).
    This is the lateness audit a streaming ingest (Beam/Flink-style
    watermarking) runs before picking an allowed-lateness bound; the
    synth events table is ts-ordered by event_id, so the audit uses
    the md5 permutation as the arrival proxy instead of trusting
    storage order (which a resumable distributed read cannot anyway).

    Distributed shape: project to three int64/uint64 columns, ONE
    ``keyed_complete`` on user_id, then per user run, in arrival order,
    ``run_cummax`` of ts lagged by one arrival (``run_lag``) and a
    ``grouped_agg``.  Lateness quantities are exact int64 microseconds
    on both engines (the arrival key stays uint64 end to end).  Rows
    with a null user_id drop.

    Output: (user_id, n_events, n_late, max_late_us, sum_late_us)."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "arr": pa.array(_hash64([f"{salt}:{e}" for e in
                                     _np(batch, "event_id")]), pa.uint64()),
            "us": _np(batch, "ts"),
        })

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "arr")
        us = _np(t, "us")
        late = np.where(start, 0, np.maximum(
            run_lag(start, run_cummax(start, us), 0) - us, 0))
        return grouped_agg(pa.table({
            "user_id": t.column("user_id"), "n_events": _ones(t),
            "n_late": (late > 0).astype(np.int64), "max_late_us": late,
            "sum_late_us": late}), ["user_id"], [
            ("n_events", "sum"), ("n_late", "sum"), ("max_late_us", "max"),
            ("sum_late_us", "sum")])

    return keyed_complete(events, ["user_id"], complete, combine=project,
                          op="out_of_order_stats")


def session_paths(events: rd.Dataset, *,
                  gap_us: int = SESSION_GAP_US,
                  max_steps: int = 8) -> rd.Dataset:
    """Top user journeys: the event-type PATH of each session (the
    first ``max_steps`` event types joined with ``>``), counted across
    all sessions — the "what do users actually do" table of product
    analytics, and a classic sequence-mining primitive.

    Shape: the sessionize ``keyed_complete`` on user_id (sessions open
    by :func:`_sessions`); the completion joins each session's first
    ``max_steps`` types (``run_pos`` within the session) with one
    ``binary_join`` over list offsets into (path, 1, n) partials, then
    ONE ``keyed_complete`` on the path string (high-cardinality) sums
    them.  Session boundaries and step order tie-break on (ts,
    event_id), matching the sessionize oracle's window exactly.  Rows
    with a null user_id drop.

    Output: (path, n_sessions, n_events) — n_events counts ALL events
    of the counted sessions, not just the truncated steps."""
    count = _sum_by(["path"], ["n_sessions", "n_events"])

    def paths(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "ts", "event_id")
        opens, _ = _sessions(start, _gap_breaks(_np(t, "ts"), gap_us))
        first, n = _spans(opens)
        head = np.flatnonzero(run_pos(opens) < max_steps)
        steps = pa.ListArray.from_arrays(
            pa.array(np.append(np.searchsorted(head, first), len(head)),
                     pa.int32()),
            t.column("event_type").take(head).combine_chunks())
        return count(pa.table({"path": pc.binary_join(steps, ">"),
                               "n_sessions": np.ones(len(first), np.int64),
                               "n_events": n}))

    return keyed_complete(
        keyed_complete(events, ["user_id"], paths, combine=lambda b: b.select(
            ["user_id", "ts", "event_id", "event_type"]),
            op="session_paths"), ["path"], count, op="session_paths_count")


def ab_test(events: rd.Dataset, *,
            salt: str = "exp1",
            first_type: str = "click",
            then_type: str = "purchase",
            horizon_us: int = 24 * 3600 * 1_000_000) -> pa.Table:
    """Deterministic A/B experiment readout: every user is assigned a
    variant by ``md5_64(f"{salt}:{user_id}") % 2`` (the engine's
    shared hash-draw convention — stable across runs, engines and
    resumes, the production way to randomize without storing an
    assignment table), and the metric is the verified two-step funnel
    conversion (first ``first_type`` -> ``then_type`` within the
    horizon).

    Shape: the funnel kernel is reused verbatim; the exposure side
    needs only DISTINCT users per variant — per-block distinct
    partials and one ``keyed_complete`` on user_id give each user once,
    then ``agg_fold`` counts users per variant, as for the converted
    users.  Conversion rate is reported as an exact
    integer per-mille floor.  Rows with a null user_id drop.

    Output pa.Table (variant, n_users, n_converted, conv_per_mille),
    sorted by variant."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def by_variant(t: pa.Table) -> pa.Table:
        u = _np(t, "user_id")
        return _sum_by(["variant"], ["n"])(pa.table({
            "variant": (_hash64([f"{salt}:{x}" for x in u])
                        % np.uint64(2)).astype(np.int64),
            "n": np.ones(len(u), np.int64)}))

    def per_variant(ds) -> np.ndarray:
        g = agg_fold(ds.map_batches(by_variant, batch_format="pyarrow",
                                    batch_size=None), ["variant"],
                     [("n", "sum")], op="ab_test",
                     empty=_empty(variant=pa.int64(), n=pa.int64()))
        n = dict(zip(g.column("variant").to_pylist(),
                     g.column("n").to_pylist()))
        return np.array([n.get(0, 0), n.get(1, 0)], np.int64)

    distinct = functools.partial(grouped_agg, keys=["user_id"], aggs=[])
    n_users = per_variant(keyed_complete(events, ["user_id"], distinct,
                                         combine=distinct, op="ab_test"))
    conv = per_variant(funnel_conversions(
        events, first_type=first_type, then_type=then_type,
        horizon_us=horizon_us))
    return pa.table({
        "variant": pa.array([0, 1], pa.int64()), "n_users": n_users,
        "n_converted": conv,
        "conv_per_mille": conv * 1000 // np.maximum(n_users, 1)})


def session_concurrency(events: rd.Dataset, *,
                        gap_us: int = SESSION_GAP_US) -> pa.Table:
    """Active-sessions-over-time curve: for every hour between the
    first session start and the last session end, how many sessions
    are ACTIVE (start_hour <= h <= end_hour) — the load curve a
    capacity plan reads, computed without interval self-joins.

    Shape: the verified sessionize pipeline emits per-session rows;
    a per-block pass reduces each session to two bounded-key deltas
    (+1 at its start hour, -1 just after its end hour); ``agg_fold``
    folds O(hours) delta rows and one prefix sum yields the whole curve
    — the standard sweep-line, with the wide work all inside
    sessionize's one keyed exchange.  Rows with a null user_id drop
    (:func:`sessionize`).

    Output pa.Table (hour_us, n_active), one row per hour in range."""

    def deltas(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return _sum_by(["h"], ["d"])(pa.table({
            "h": np.concatenate([_np(batch, "start_ts") // HOUR_US,
                                 _np(batch, "end_ts") // HOUR_US + 1]),
            "d": np.repeat(np.array([1, -1], np.int64), n)}))

    g = agg_fold(sessionize(events, gap_us=gap_us).map_batches(
        deltas, batch_format="pyarrow", batch_size=None), ["h"],
        [("d", "sum")], op="session_concurrency",
        empty=_empty(h=pa.int64(), d=pa.int64()))
    if not g.num_rows:
        return _empty(hour_us=pa.int64(), n_active=pa.int64())
    h, d = _np(g, "h"), _np(g, "d")
    # the hours run to the last delta's, one past the last end hour
    dd = np.zeros(h[-1] - h[0], np.int64)
    dd[h[:-1] - h[0]] = d[:-1]
    return pa.table({"hour_us": (h[0] + np.arange(len(dd))) * HOUR_US,
                     "n_active": np.cumsum(dd)})


def velocity_stats(events: rd.Dataset, *,
                   window_us: int = 5 * 60 * 1_000_000) -> rd.Dataset:
    """Fraud-velocity screen: each user's MAXIMUM event count inside
    any trailing ``window_us`` window — the "too many actions too
    fast" rule every abuse system runs first.  Window semantics match
    SQL ``RANGE BETWEEN INTERVAL .. PRECEDING AND CURRENT ROW``
    exactly (inclusive lower bound, equal-timestamp peers counted
    together).

    Shape: ONE ``keyed_complete`` on user_id; per block, two
    ``searchsorted`` calls over the user-composed timeline
    (:func:`_run_keys`, the range join's) and a per-run max — no
    per-user Python.  Rows with a null user_id drop.

    Output: (user_id, n_events, max_window)."""

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "us")
        key = _run_keys(start, _np(t, "us"), window_us)
        # RANGE frame: peers with equal ts count together
        c = (np.searchsorted(key, key, side="right")
             - np.searchsorted(key, key - window_us, side="left"))
        first, n = _spans(start)
        return pa.table({"user_id": t.column("user_id").take(first),
                         "n_events": n,
                         "max_window": np.maximum.reduceat(c, first)})

    return keyed_complete(events, ["user_id"], complete, combine=lambda b:
                          pa.table({"user_id": b.column("user_id"),
                                    "us": _np(b, "ts")}),
                          op="velocity_stats")


def cohort_ltv(events: rd.Dataset) -> pa.Table:
    """Cohort LTV triangle: revenue (exact integer cents) each weekly
    cohort generates at each week offset from its first activity —
    the lifetime-value matrix a growth model is fit to, next to the
    user-count retention triangle (:func:`cohort_retention`).

    Same shape and week conventions as retention: batch-local
    (user, week, cents) partial sums, ONE ``keyed_complete`` on user_id
    (:func:`_cohorts`: the per-user min week is block-local exact), and
    a weeks^2-bounded ``agg_fold``.  Rows with a null user_id drop.

    Output pa.Table (cohort_week, week_offset, revenue_cents,
    n_active_users), sorted."""
    keys = ["cohort_week", "week_offset"]
    weekly = _sum_by(["user_id", "week"], ["cents"])

    def complete(t: pa.Table) -> pa.Table:
        t, cohort, offset = _cohorts(weekly(t))
        return _sum_by(keys, ["cents", "n"])(pa.table({
            "cohort_week": cohort, "week_offset": offset,
            "cents": t.column("cents"), "n": _ones(t)}))

    return agg_fold(
        keyed_complete(events, ["user_id"], complete, combine=lambda b:
                       weekly(pa.table({"user_id": b.column("user_id"),
                                        "week": _weeks(b),
                                        "cents": _cents(b)})),
                       op="cohort_ltv"), keys,
        [("cents", "sum"), ("n", "sum")], op="cohort_ltv",
        empty=_empty(cohort_week=pa.int64(), week_offset=pa.int64(),
                     cents=pa.int64(), n=pa.int64())).rename_columns(
        keys + ["revenue_cents", "n_active_users"])


def l_diversity(events: rd.Dataset, *,
                l: int = 3,  # noqa: E741 - the metric's own name
                band_cents: int = 500) -> pa.Table:
    """l-diversity audit (Machanavajjhala et al. 2007), the
    k-anonymity companion: within each quasi-identifier group
    (hour-of-day, value band), how many DISTINCT sensitive values
    (``event_type``) appear — a group that is k-anonymous but
    l-homogeneous still leaks the sensitive attribute, so cells with
    fewer than ``l`` distinct types are flagged.

    Same bounded shape as :func:`k_anonymity`: ``agg_fold`` of
    per-block (hour, band, type) counts (the QI x sensitive space is
    bounded), then one ``grouped_agg`` per cell.  Rows with a null
    event_type drop.

    Output pa.Table (hour, band, n, n_types, at_risk), sorted."""
    keys = ["hour", "band", "event_type"]
    g = agg_fold(events.map_batches(lambda b: grouped_agg(pa.table({
        "hour": _hour(b), "band": _band(b, band_cents),
        "event_type": b.column("event_type"), "n": _ones(b)}), keys,
        [("n", "sum")]), batch_format="pyarrow", batch_size=1 << 19),
        keys, [("n", "sum")], op="l_diversity",
        empty=_empty(hour=pa.int64(), band=pa.int64(),
                     event_type=pa.string(), n=pa.int64()))
    cells = grouped_agg(g, ["hour", "band"], [
        ("n", "sum"), ("event_type", "count")]).rename_columns(
        ["hour", "band", "n", "n_types"])
    return cells.append_column("at_risk", pc.cast(
        pc.less(cells.column("n_types"), l), pa.int64()))


def seasonal_backtest(events: rd.Dataset, *,
                      season_hours: int = 168) -> pa.Table:
    """Seasonal-naive forecast BACKTEST: predict each hour's event
    count per type with the same hour one season earlier (the
    week-ago-naive baseline every real forecast must beat), and
    report the exact integer error sums — the baseline row of a
    forecasting evaluation, with no model and no floats.

    The hour grid is DENSE per type (zero-count hours included —
    lag over existing rows only would skip gaps and misalign the
    season), bounded by hours x types, so ``agg_fold`` folds per-block
    partial counts and the backtest is one numpy pass over the grid.
    Rows with a null event_type drop.

    Output pa.Table (event_type, n_hours, sum_actual, sum_abs_err),
    sorted — n_hours counts scored hours (those with a season-earlier
    reference inside the observed range)."""
    keys = ["event_type", "h"]
    g, start = sorted_runs(agg_fold(events.map_batches(
        lambda b: grouped_agg(pa.table({
            "event_type": b.column("event_type"),
            "h": _np(b, "ts") // HOUR_US, "n": _ones(b)}), keys,
            [("n", "sum")]), batch_format="pyarrow", batch_size=1 << 19),
        keys, [("n", "sum")], op="seasonal_backtest",
        empty=_empty(event_type=pa.string(), h=pa.int64(), n=pa.int64())),
        ["event_type"])
    h = _np(g, "h")
    hmin = h.min() if len(h) else 0
    grid = np.zeros((int(start.sum()), int(h.max(initial=hmin) - hmin) + 1),
                    np.int64)
    grid[run_id(start), h - hmin] = _np(g, "n")
    actual, pred = grid[:, season_hours:], grid[:, :max(
        grid.shape[1] - season_hours, 0)]
    return pa.table({
        "event_type": g.column("event_type").filter(pa.array(start)),
        "n_hours": pa.array(np.full(len(grid), actual.shape[1]), pa.int64()),
        "sum_actual": actual.sum(axis=1),
        "sum_abs_err": np.abs(actual - pred).sum(axis=1)})


def funnel3(events: rd.Dataset, *,
            steps: tuple[str, str, str] = ("view", "click",
                                           "purchase")) -> rd.Dataset:
    """Three-step strict-sequence funnel: per user, the earliest
    ``steps[0]``, then the earliest ``steps[1]`` STRICTLY after it,
    then the earliest ``steps[2]`` strictly after that — the N-step
    generalization of :func:`funnel_conversions` (no horizon; the
    reached-stage column is what a funnel chart plots).

    Total order (ts, event_id) on every min, so both engines agree on
    ties.  Shape: type filter before the exchange, ONE
    ``keyed_complete`` on user_id, three per-run ``minimum.reduceat``
    passes (each step's candidates lie after the previous step's time,
    broadcast by run id) — no per-user Python.  Rows with a null
    user_id drop.

    Output: (user_id, stage, t1_us, t2_us, t3_us) — stage in 1..3 for
    users who reached at least step 1; absent-step timestamps are 0."""

    def project(batch: pa.Table) -> pa.Table:
        t = _types(*steps, cols=batch.column_names)(batch)
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "us": t.column("ts").cast(pa.int64()),
            "eid": t.column("event_id").cast(pa.int64()),
            "kind": pc.index_in(t.column("event_type"), value_set=pa.array(
                list(steps))).cast(pa.int64()),
        })

    def complete(t: pa.Table) -> pa.Table:
        t, start = _by_user(t, "us", "eid")
        us, kind, rid = _np(t, "us"), _np(t, "kind"), run_id(start)
        first, _ = _spans(start)
        after = np.full(len(first), -1, np.int64)
        out = {"user_id": t.column("user_id").take(first),
               "stage": np.zeros(len(first), np.int64)}
        for step in range(3):
            cand = (kind == step) & (us > after[rid])
            found = np.logical_or.reduceat(cand, first)
            tt = np.minimum.reduceat(np.where(cand, us, np.iinfo(np.int64).max),
                                     first)
            out["stage"] += found
            out[f"t{step + 1}_us"] = np.where(found, tt, 0)
            # a step not found leaves nothing after it to find
            after = np.where(found, tt, np.iinfo(np.int64).max)
        return pa.table(out).filter(pa.array(out["stage"] > 0))

    return keyed_complete(events, ["user_id"], complete, combine=project,
                          op="funnel3")


def revenue_concentration(events: rd.Dataset) -> pa.Table:
    """Revenue concentration (the 80/20 check): the exact share of
    total revenue carried by the top decile of users — ranked by
    (total cents DESC, user_id ASC), top ``floor(n/10)`` users (>= 1)
    — the whale-dependence number a monetization review reads.

    Shape: per-user exact-cents totals via batch partials + ONE
    ``keyed_complete`` on user_id (the established per-user aggregate),
    a count/total pass, then a RUNNING TOP-M selection over the
    streaming user-total rows (``topk_complete`` with no keys: O(m)
    driver state — no global value sort).  Rows with a null user_id
    drop.

    Output pa.Table, one row: (n_users, total_cents, top_users,
    top_cents, share_per_mille)."""
    total_of = _sum_by(["user_id"], ["cents"])
    totals = keyed_complete(events, ["user_id"], total_of, combine=lambda b:
                            total_of(pa.table({"user_id": b.column("user_id"),
                                               "cents": _cents(b)})),
                            op="revenue_concentration"
                            ).materialize()  # consumed twice (count + top-m)

    n_users = 0
    total = 0
    for blk in totals.iter_batches(batch_format="pyarrow",
                                   batch_size=None):
        n_users += blk.num_rows
        total += int(np.sum(blk.column("cents").to_numpy(
            zero_copy_only=False)))
    if n_users == 0:
        z = pa.array([0], pa.int64())
        return pa.table({"n_users": z, "total_cents": z,
                         "top_users": z, "top_cents": z,
                         "share_per_mille": z})
    m = max(n_users // 10, 1)
    best_c = topk_complete(
        totals, [], [("cents", "descending"), ("user_id", "ascending")],
        m).column("cents").to_numpy()
    top_cents = int(best_c.sum())
    return pa.table({
        "n_users": pa.array([n_users], pa.int64()),
        "total_cents": pa.array([total], pa.int64()),
        "top_users": pa.array([len(best_c)], pa.int64()),
        "top_cents": pa.array([top_cents], pa.int64()),
        "share_per_mille": pa.array(
            [top_cents * 1000 // max(total, 1)], pa.int64()),
    })
