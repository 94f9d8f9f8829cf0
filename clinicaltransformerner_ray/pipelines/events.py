"""Windowed / sessionized aggregates over the `events` stream table —
the "streaming window" custom-operator family (beyond the reference's
batch-only surface; SURVEY.md §2.7 notes the reference has none).

  windowed_counts   tumbling time-window aggregate per (user, window):
                    event counts + exact value sums (integer cents, so
                    the result is hash-comparable across engines)
  sliding_window_counts  the sliding variant (1h windows every 15min):
                    x(window/slide) pre-shuffle replication, then the
                    identical combine/sort/combine aggregation
  sessionize        gap-based sessionization: a >30-min silence starts a
                    new session — the canonical stateful scan, expressed
                    as one sort on user_id (equal keys arrive whole per
                    block) + a vectorized per-block pass
  asof_join_events  as-of join (attribution): each purchase gets the
                    most recent strictly-prior click of the same user —
                    type filter before the shuffle, the same
                    sort-on-user + vectorized forward-carry shape;
                    `asof_join_events_salted` is its skew-safe twin
                    (salted local resolve + per-bucket carry rows +
                    a sessionize-style stitch, byte-identical output)
  range_join_events bounded range join: errors within a horizon after
                    each purchase, via two searchsorted calls per block
                    (output linear in the left side, no pair expansion);
                    `range_join_events_salted` is its skew-safe twin
                    (time-bucket salt + previous-bucket ghosts,
                    byte-identical output, no stitch pass needed)
  value_quantiles_by_type  exact per-group percentiles of the event
                    value (integer cents) via a grouped value-histogram
                    — the shuffle moves distinct (type, cents) rows,
                    the driver walks each group's tiny CDF
  latest_event_per_user  dedup-to-latest (CDC-style snapshot): local
                    per-batch last per user, one sort, per-block final
  funnel_conversions  two-step conversion funnel: first click ->
                    first purchase within a horizon, per user — type
                    filter pre-shuffle, one user sort, grouped mins
  cohort_retention  weekly retention triangle: cohort by first-event
                    week, count distinct active users per (cohort,
                    offset) — distinct pairs pre-shuffle, one user
                    sort, driver-folded weeks^2 cells
  out_of_order_stats  watermark lateness audit: per-user running
                    high-watermark over a deterministic md5 arrival
                    permutation — one sort, grouped cummax per block

Skew note: `sessionize` sorts on user_id alone, so one hyperactive user
lands in one block.  `sessionize_salted` is the 100 TB path: the sort
key is salted with a coarse TIME bucket (same construction as the KG
triple emitter's salted buckets, pipelines/kg.py), events within
``gap_us`` of a bucket boundary ghost into the next bucket so each
block can tell whether its first session continues, and a second tiny
pass over per-bucket session aggregates stitches boundary-crossing
sessions and assigns global session indices.  Output is byte-identical
to `sessionize` (asserted in tests); the oracle entry keeps the
unsalted version for directness.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from clinicaltransformerner_ray.arrowutil import (
    from_pandas_clean, topk_complete)

import ray.data as rd

SESSION_GAP_US = 30 * 60 * 1_000_000


def _round_half_away(v: np.ndarray) -> np.ndarray:
    """Round half away from zero (DuckDB round() semantics), int64."""
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def windowed_counts(events: rd.Dataset, *, window: str = "hour") -> rd.Dataset:
    """(user_id, window_start, n_events, sum_value_cents) via the
    combine/sort/combine aggregation shape (no Aggregate operator)."""
    assert window == "hour"

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "window_start" not in df.columns:
            ts = pd.to_datetime(df["ts"])
            df = pd.DataFrame({
                "user_id": df["user_id"],
                "window_start": ts.dt.floor("h"),
                "n_events": 1,
                # exact integer-cents sum: float accumulation order would
                # differ between engines and break value-hash comparison.
                # Half-away-from-zero, matching DuckDB round() — np.round
                # is half-to-even and diverges on exact .5 cents
                "sum_value_cents": _round_half_away(
                    df["value"].to_numpy() * 100),
            })
        g = df.groupby(["user_id", "window_start"], sort=False).agg(
            n_events=("n_events", "sum"),
            sum_value_cents=("sum_value_cents", "sum")).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    return (
        events.map_batches(combine, batch_format="pyarrow",
                           batch_size=1 << 19)
        .sort(["user_id", "window_start"])
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


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
    windows BEFORE the shuffle (vectorized np.repeat), then the same
    combine/sort/combine shape as :func:`windowed_counts` — the
    all-to-all moves pre-aggregated (user, window) partials whose count
    is bounded by distinct keys per batch, not by the x4 replication."""
    assert window_us % slide_us == 0
    n_covers = window_us // slide_us

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "window_start" not in df.columns:
            tus = df["ts"].astype("int64").to_numpy()
            cents = _round_half_away(df["value"].to_numpy() * 100)
            # the newest covering window starts at floor(ts/slide)*slide;
            # the rest step back by slide (start > ts - window holds)
            base = (tus // slide_us) * slide_us
            starts = (base[:, None]
                      - np.arange(n_covers)[None, :] * slide_us).ravel()
            df = pd.DataFrame({
                "user_id": np.repeat(df["user_id"].to_numpy(), n_covers),
                "window_start": pd.to_datetime(starts, unit="us"),
                "n_events": 1,
                "sum_value_cents": np.repeat(cents, n_covers),
            })
        g = df.groupby(["user_id", "window_start"], sort=False).agg(
            n_events=("n_events", "sum"),
            sum_value_cents=("sum_value_cents", "sum")).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    return (
        events.map_batches(combine, batch_format="pyarrow",
                           batch_size=1 << 19)
        .sort(["user_id", "window_start"])
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def sessionize(events: rd.Dataset, *, gap_us: int = SESSION_GAP_US) -> rd.Dataset:
    """(user_id, session_idx, n_events, start_ts, end_ts) — sessions are
    maximal event runs per user with inter-event gaps <= ``gap_us``.
    Ties order by (ts, event_id), matching the SQL oracle's window."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "start_ts": pa.array([], pa.timestamp("us")),
                "end_ts": pa.array([], pa.timestamp("us")),
            })
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts = df["ts"].astype("int64")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = ts.diff() > gap_us
        df["session_idx"] = (new_user | gap).groupby(
            df["user_id"]).cumsum().astype("int64") - 1
        g = df.groupby(["user_id", "session_idx"], sort=False).agg(
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max")).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    return events.sort("user_id").map_batches(
        per_block, batch_format="pyarrow", batch_size=None)


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
    2. SORT on the high-cardinality salted key; a vectorized per-block
       pass sessionizes each (user, bucket) group locally and emits one
       aggregate row per LOCAL session, plus whether the group's first
       session continues the previous bucket (gap to the youngest ghost
       <= gap_us).
    3. STITCH: one more sort over the per-session aggregates (tiny —
       one row per session, so even a hyperactive user is a short run)
       chain-merges boundary-crossing sessions and numbers sessions
       globally per user.
    """
    assert bucket_us > gap_us, "bucket must exceed the session gap"

    def bucket_and_ghost(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()[["user_id", "ts", "event_id"]]
        ts = df["ts"].astype("int64").to_numpy()
        bucket = (ts // bucket_us).astype(np.int64)
        h = pd.util.hash_pandas_object(df["user_id"], index=False).to_numpy()
        nb = np.uint64(n_buckets)
        df["bucket"] = bucket
        df["ghost"] = False
        df["skey"] = ((h + bucket.astype(np.uint64)) % nb).astype(np.int64)
        near_end = (bucket + 1) * bucket_us - ts <= gap_us
        g = df[near_end].copy()
        g["bucket"] = g["bucket"] + 1
        g["ghost"] = True
        g["skey"] = ((h[near_end] + (bucket[near_end] + 1).astype(np.uint64))
                     % nb).astype(np.int64)
        out = pd.concat([df, g], ignore_index=True)
        return from_pandas_clean(out, preserve_index=False)

    tagged = events.map_batches(bucket_and_ghost, batch_format="pyarrow",
                                batch_size=1 << 19)

    def local_sessions(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = pd.DataFrame({
            "user_id": pd.Series(dtype="int64"),
            "bucket": pd.Series(dtype="int64"),
            "local_idx": pd.Series(dtype="int64"),
            "n_events": pd.Series(dtype="int64"),
            "start_ts": pd.Series(dtype="int64"),
            "end_ts": pd.Series(dtype="int64"),
            "continues_prev": pd.Series(dtype="bool"),
        })
        if df.empty:
            return from_pandas_clean(empty, preserve_index=False)
        df = df.sort_values(["user_id", "bucket", "ts", "event_id"])
        ts = df["ts"].astype("int64")
        real = ~df["ghost"].to_numpy()
        grp = df["user_id"].astype(str) + ":" + df["bucket"].astype(str)
        new_grp = grp.ne(grp.shift()).to_numpy()
        gap = (ts.diff() > gap_us).to_numpy()
        # youngest ghost precedes the first real event after sorting
        # (ghost ts < bucket start <= real ts); a first real event
        # continues iff its gap to the previous (ghost) row is small
        prev_is_ghost = np.roll(~real, 1)
        prev_is_ghost[0] = False
        # local session break among real events only
        rdf = df[real].copy()
        rts = rdf["ts"].astype("int64")
        rgrp = rdf["user_id"].astype(str) + ":" + rdf["bucket"].astype(str)
        rnew = rgrp.ne(rgrp.shift())
        rgap = rts.diff() > gap_us
        rdf["local_idx"] = (rnew | rgap).groupby(
            [rdf["user_id"], rdf["bucket"]]).cumsum().astype("int64") - 1
        # continues flag: for each (user,bucket) group, does the first
        # REAL event sit within gap of the youngest ghost of the group?
        cont = (~new_grp) & gap.__invert__() & prev_is_ghost & real
        rdf["continues_prev"] = cont[real]
        agg = rdf.groupby(["user_id", "bucket", "local_idx"],
                          sort=False).agg(
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max"),
            continues_prev=("continues_prev", "any")).reset_index()
        # only a group's FIRST local session can continue
        agg.loc[agg["local_idx"] != 0, "continues_prev"] = False
        agg["start_ts"] = agg["start_ts"].astype("int64")
        agg["end_ts"] = agg["end_ts"].astype("int64")
        return from_pandas_clean(agg[empty.columns.tolist()],
                                    preserve_index=False)

    local = tagged.sort("skey").map_batches(
        local_sessions, batch_format="pyarrow", batch_size=None)

    def stitch(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "start_ts": pa.array([], pa.timestamp("us")),
                "end_ts": pa.array([], pa.timestamp("us")),
            })
        df = df.sort_values(["user_id", "bucket", "local_idx"])
        new_user = df["user_id"].ne(df["user_id"].shift())
        merge = df["continues_prev"].to_numpy() & ~new_user.to_numpy()
        chain = (~merge).cumsum()
        g = df.groupby(chain, sort=False).agg(
            user_id=("user_id", "first"),
            n_events=("n_events", "sum"),
            start_ts=("start_ts", "min"),
            end_ts=("end_ts", "max")).reset_index(drop=True)
        g["session_idx"] = g.groupby("user_id").cumcount().astype("int64")
        g["start_ts"] = g["start_ts"].astype("datetime64[us]")
        g["end_ts"] = g["end_ts"].astype("datetime64[us]")
        cols = ["user_id", "session_idx", "n_events", "start_ts", "end_ts"]
        return from_pandas_clean(g[cols], preserve_index=False)

    # the stitch input is one tiny row per session — sorting it on
    # user_id is safe even for hyperactive users.  Sort on user_id ALONE:
    # Ray's range partitioner only keeps EQUAL full keys together, so a
    # composite (user_id, bucket, local_idx) sort may split one user's
    # session chain across blocks and the boundary merge is then missed
    # (reproduced: 79 duplicated (user_id, session_idx) rows at 8.5k
    # events once the stitch input spans multiple blocks).  Equal
    # user_id keys never split; stitch() re-sorts the block on the full
    # composite key before chaining.
    return local.sort("user_id").map_batches(
        stitch, batch_format="pyarrow", batch_size=None)


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

    Shape: a column-pruning type filter runs BEFORE the shuffle (only
    the two joined types move), then one sort on user_id alone — equal
    keys never split across blocks (the repo's range-partitioner rule),
    so the per-block forward-carry sees each user's full history.  The
    carry itself is vectorized: left rows mark their positional index,
    a grouped cummax propagates the latest one, and right rows gather
    through it.  Partitioning assumption: one user's click+purchase
    rows fit a block; for pathologically hot users, bucket-salt with
    boundary ghosts exactly as `sessionize_salted` does (the ghost
    would carry the youngest pre-boundary left event instead of a
    session aggregate).
    """

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array([left_type, right_type]))
        return batch.filter(keep).select(
            ["event_id", "user_id", "ts", "event_type"])

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "ts", "event_id"])
        empty = pd.DataFrame({
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "ts": pd.Series(dtype="datetime64[us]"),
            "asof_event_id": pd.Series(dtype="Int64"),
            "asof_ts": pd.Series(dtype="datetime64[us]"),
        })
        if df.empty:
            return from_pandas_clean(empty, preserve_index=False)
        ids = df["event_id"].to_numpy()
        is_left = (df["event_type"] == left_type).to_numpy()
        # latest left position carried forward per user; a right row's
        # cummax can never include itself (it is not a left row), so
        # the carry is strictly prior in sort order
        marker = np.where(is_left, np.arange(len(df)), -1)
        carried = (pd.Series(marker)
                   .groupby(df["user_id"].to_numpy()).cummax()
                   .to_numpy())
        right = (df["event_type"] == right_type).to_numpy()
        src = carried[right]
        valid = src >= 0
        gather = np.maximum(src, 0)
        out = df.loc[right, ["event_id", "user_id", "ts"]].copy()
        out["asof_event_id"] = pd.array(
            np.where(valid, ids[gather], 0), dtype="Int64")
        out.loc[~valid, "asof_event_id"] = pd.NA
        asof_ts = pd.Series(df["ts"].to_numpy()[gather], index=out.index)
        asof_ts[~valid] = pd.NaT
        out["asof_ts"] = asof_ts
        return from_pandas_clean(out[empty.columns.tolist()],
                                    preserve_index=False)

    return (events.map_batches(project, batch_format="pyarrow")
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


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

    Shape: same as :func:`asof_join_events` — a pre-shuffle type filter
    prunes to the two joined streams, one sort on user_id keeps each
    user whole per block, and the per-block kernel is two vectorized
    ``np.searchsorted`` calls over the user-offset-composed timeline (no
    pairwise expansion: the bounded horizon makes the join output
    linear in the left side regardless of right-side density).  The
    same hot-user salting recipe as ``sessionize_salted`` applies when
    one user exceeds a block.
    """

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array([left_type, right_type]))
        return batch.filter(keep).select(
            ["event_id", "user_id", "ts", "event_type"])

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "ts", "event_id"])
        empty = pd.DataFrame({
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "ts": pd.Series(dtype="datetime64[us]"),
            "n_range": pd.Series(dtype="int64"),
            "first_range_ts": pd.Series(dtype="datetime64[us]"),
        })
        if df.empty:
            return from_pandas_clean(empty, preserve_index=False)
        tus = df["ts"].astype("int64").to_numpy()
        # DENSE per-block user codes (df is user-sorted, so factorize
        # preserves order): the key composition depends on the number
        # of distinct users IN THIS BLOCK, never on the global id
        # magnitude — sparse/snowflake/negative 64-bit ids all work.
        codes = pd.factorize(df["user_id"].to_numpy())[0].astype(np.int64)
        is_r = (df["event_type"] == right_type).to_numpy()
        # compose (user, ts) into one sortable int stream per side by
        # offsetting each user's REBASED timeline far apart:
        # code * span + (ts - min_ts).  Rebasing keeps span at the
        # data's time EXTENT (~2^42 for a month of us ticks); a block
        # would need > 2^62/span distinct users (~10^6 at month extent,
        # far above any real block's row count) to overflow int64.
        rebased = tus - tus.min()
        span = np.int64(1) << int(rebased.max() + horizon_us + 1
                                  ).bit_length()
        assert codes.max() < (np.int64(1) << 62) // span, \
            "too many distinct users in one block for the key span"
        key = codes * span + rebased
        rkey = key[is_r]                       # sorted (df is sorted)
        rtus = tus[is_r]
        left = ~is_r
        lo = np.searchsorted(rkey, key[left], side="right")
        hi = np.searchsorted(rkey, key[left] + horizon_us, side="right")
        n = (hi - lo).astype(np.int64)
        out = df.loc[left, ["event_id", "user_id", "ts"]].copy()
        out["n_range"] = n
        first = pd.Series(
            pd.to_datetime(rtus[np.minimum(lo, max(len(rkey) - 1, 0))]
                           if len(rkey) else np.zeros(len(n), np.int64),
                           unit="us"),
            index=out.index).astype("datetime64[us]")
        first[n == 0] = pd.NaT
        out["first_range_ts"] = first
        return from_pandas_clean(out[empty.columns.tolist()],
                                    preserve_index=False)

    return (events.map_batches(project, batch_format="pyarrow")
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


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
    would need a cross-bucket prefix pass): salt the sort key with a
    coarse time bucket, and ghost each ``right_type`` event into the
    PREVIOUS bucket when it sits within ``horizon_us`` of its bucket
    start — every right event a left event can see is then in the
    left's own (user, bucket) group, because the left's window
    ``(ts, ts + horizon]`` spans at most one bucket boundary
    (``bucket_us > horizon_us`` enforced).  Each left event belongs to
    exactly one group, so output rows are unique with no stitch pass.

    The per-block kernel is the same two-searchsorted composition as
    the unsalted version, with (user, bucket) group codes from one
    vectorized changed-flag cumsum — no per-group Python loop even
    though a block holds thousands of groups."""
    assert bucket_us > horizon_us, "bucket must exceed the horizon"

    def bucket_and_ghost(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array([left_type, right_type]))
        df = (batch.filter(keep)
              .select(["event_id", "user_id", "ts", "event_type"])
              .to_pandas())
        tus = df["ts"].astype("int64").to_numpy()
        bucket = tus // bucket_us
        h = pd.util.hash_pandas_object(df["user_id"],
                                       index=False).to_numpy()
        nb = np.uint64(n_buckets)
        df["bucket"] = bucket
        df["skey"] = ((h + bucket.astype(np.uint64)) % nb).astype(np.int64)
        near_start = ((tus - bucket * bucket_us <= horizon_us)
                      & (df["event_type"] == right_type).to_numpy())
        g = df[near_start].copy()
        g["bucket"] = g["bucket"] - 1
        g["skey"] = ((h[near_start]
                      + (bucket[near_start] - 1).astype(np.uint64))
                     % nb).astype(np.int64)
        out = pd.concat([df, g], ignore_index=True)
        return from_pandas_clean(out, preserve_index=False)

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["user_id", "bucket", "ts", "event_id"])
        empty = pd.DataFrame({
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "ts": pd.Series(dtype="datetime64[us]"),
            "n_range": pd.Series(dtype="int64"),
            "first_range_ts": pd.Series(dtype="datetime64[us]"),
        })
        if df.empty:
            return from_pandas_clean(empty, preserve_index=False)
        tus = df["ts"].astype("int64").to_numpy()
        # (user, bucket) group codes: changed-flag cumsum on the sorted
        # frame (the composite analog of the unsalted factorize)
        uid = df["user_id"].to_numpy()
        bkt = df["bucket"].to_numpy()
        changed = np.ones(len(df), dtype=bool)
        changed[1:] = (uid[1:] != uid[:-1]) | (bkt[1:] != bkt[:-1])
        codes = np.cumsum(changed) - 1
        is_r = (df["event_type"] == right_type).to_numpy()
        rebased = tus - tus.min()
        span = np.int64(1) << int(rebased.max() + horizon_us + 1
                                  ).bit_length()
        assert codes.max() < (np.int64(1) << 62) // span, \
            "too many (user, bucket) groups in one block for the key span"
        key = codes * span + rebased
        rkey = key[is_r]
        rtus = tus[is_r]
        # lefts: only ORIGINAL rows (ghosts are always right-type)
        left = ~is_r
        lo = np.searchsorted(rkey, key[left], side="right")
        hi = np.searchsorted(rkey, key[left] + horizon_us, side="right")
        n = (hi - lo).astype(np.int64)
        out = df.loc[left, ["event_id", "user_id", "ts"]].copy()
        out["n_range"] = n
        first = pd.Series(
            pd.to_datetime(rtus[np.minimum(lo, max(len(rkey) - 1, 0))]
                           if len(rkey) else np.zeros(len(n), np.int64),
                           unit="us"),
            index=out.index).astype("datetime64[us]")
        first[n == 0] = pd.NaT
        out["first_range_ts"] = first
        return from_pandas_clean(out[empty.columns.tolist()],
                                    preserve_index=False)

    return (events.map_batches(bucket_and_ghost, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("skey")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


def value_quantiles_by_type(
    events: rd.Dataset,
    *,
    q_pct: tuple[int, ...] = (1, 25, 50, 75, 99),
) -> pa.Table:
    """Exact per-event_type percentiles of the value column (integer
    cents — same rounding as :func:`windowed_counts`).

    Grouped variant of `textstats.token_count_quantiles`: batch-local
    (event_type, cents) histogram combine, one composite sort, per-block
    re-combine, then a per-group CDF walk on the driver (`take_all` is
    O(distinct (type, cents)) — bounded by types x price points, not by
    event count).  Quantile rule: value at 1-based sorted position
    ``(q*N + 99) // 100`` — integer arithmetic, bit-exact vs SQL.

    Output: small pa.Table (event_type, q_pct BIGINT, cents BIGINT)."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "cents" not in df.columns:
            df = pd.DataFrame({
                "event_type": df["event_type"].to_numpy(),
                "cents": _round_half_away(df["value"].to_numpy() * 100),
                "n": np.ones(len(df), np.int64),
            })
        g = (df.groupby(["event_type", "cents"], sort=False)["n"]
             .sum().reset_index())
        return pa.table({
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "cents": pa.array(np.asarray(g["cents"], np.int64),
                              pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    hist = (
        events.map_batches(combine, batch_format="pyarrow",
                           batch_size=1 << 19)
        .sort(["event_type", "cents"])
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    ).take_all()  # O(distinct (type, cents)) — tiny by design
    if not hist:
        return pa.table({
            "event_type": pa.array([], pa.string()),
            "q_pct": pa.array([], pa.int64()),
            "cents": pa.array([], pa.int64()),
        })
    df = pd.DataFrame(hist).sort_values(["event_type", "cents"])
    out_t, out_q, out_v = [], [], []
    for et, grp in df.groupby("event_type", sort=True):
        vals = grp["cents"].to_numpy()
        cum = np.cumsum(grp["n"].to_numpy())
        n_total = int(cum[-1])
        for q in q_pct:
            pos = (int(q) * n_total + 99) // 100
            idx = int(np.searchsorted(cum, pos, side="left"))
            out_t.append(et)
            out_q.append(int(q))
            out_v.append(int(vals[idx]))
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "q_pct": pa.array(out_q, pa.int64()),
        "cents": pa.array(out_v, pa.int64()),
    })


def latest_event_per_user(events: rd.Dataset) -> rd.Dataset:
    """Dedup-to-latest (CDC-style snapshot): each user's most recent
    event by (ts, event_id).

    Local per-batch last-per-user BEFORE the shuffle (the all-to-all
    moves one row per user per batch), one sort on user_id, per-block
    completion — a grouped argmax in the engine's combine/sort/combine
    shape.  Output: (user_id, event_id, ts, event_type)."""

    def local_last(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["user_id", "ts", "event_id"])
              .groupby("user_id", sort=False).tail(1))
        return pa.table({
            "user_id": pa.array(np.asarray(df["user_id"], np.int64),
                                pa.int64()),
            "event_id": pa.array(np.asarray(df["event_id"], np.int64),
                                 pa.int64()),
            "ts": pa.array(df["ts"].to_numpy(), pa.timestamp("us")),
            "event_type": pa.array(df["event_type"].tolist(),
                                   pa.string()),
        })

    return (
        events.map_batches(local_last, batch_format="pyarrow",
                           batch_size=1 << 19)
        .sort("user_id")
        .map_batches(local_last, batch_format="pyarrow",
                     batch_size=None)
    )


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

    1. SALTED LOCAL PASS (sort on skey): within each (user, bucket)
       group, resolve every ``right_type`` event against the group's
       own prior ``left_type`` events (a local prior left, being later
       than anything in an earlier bucket, is always the true answer).
       Each group also emits ONE carry row — its latest left event —
       and the unresolved rights pass through tagged ``open``.
    2. STITCH (sort on stkey): ``res`` rows — the resolved BULK — take
       spread per-event odd keys and pass straight through (they never
       re-concentrate per user); ``open``/``carry`` rows take the even
       key 2*user_id, so per user an ``open`` in bucket b finds the
       carry with the largest bucket < b (buckets partition time, so
       the prefix-maximum carry IS the predecessor) via one
       searchsorted over (user, bucket) composed keys.

    Residual skew: the stitch concentrates one carry per (user, bucket)
    plus the OPEN rights (rights before any same-bucket left).  Opens
    are typically a small fraction; the adversarial case — a left-less
    hyperactive user, all of whose rights are open — re-serializes that
    user's rights only.  The escalation (resolve per-(user, bucket)
    open GROUPS, then join back on the high-cardinality composed key)
    costs every row a third shuffle and is not worth it before that
    case is real."""
    import pyarrow.compute as pc

    ts_t = pa.timestamp("us")
    # odd-key mix for res rows (Knuth multiplicative); only a
    # partitioning key, never an output value
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def tag(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array([left_type, right_type]))
        t = batch.filter(keep)
        tus = t.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        bucket = tus // bucket_us
        h = pd.util.hash_pandas_object(
            pd.Series(t.column("user_id").to_numpy(
                zero_copy_only=False)), index=False).to_numpy()
        skey = ((h + bucket.astype(np.uint64))
                % np.uint64(n_buckets)).astype(np.int64)
        # Arrow-native passthrough keeps concrete types on empty blocks
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "event_type": t.column("event_type"),
            "bucket": pa.array(bucket, pa.int64()),
            "skey": pa.array(skey, pa.int64()),
        })

    def _stitch_rows(kind, event_id, user_id, bucket, ts, aeid,
                     aeid_mask, ats, stkey) -> pa.Table:
        """Explicit-typed superset block (empty-safe)."""
        return pa.table({
            "kind": pa.array(kind, pa.string()),
            "event_id": pa.array(np.asarray(event_id, np.int64),
                                 pa.int64()),
            "user_id": pa.array(np.asarray(user_id, np.int64),
                                pa.int64()),
            "bucket": pa.array(np.asarray(bucket, np.int64),
                               pa.int64()),
            "ts": pa.array(np.asarray(ts, "datetime64[us]"), ts_t),
            "asof_event_id": pa.array(
                np.asarray(aeid, np.int64), pa.int64(),
                mask=np.asarray(aeid_mask, bool)),
            "asof_ts": pa.array(np.asarray(ats, "datetime64[us]"),
                                ts_t, mask=np.asarray(aeid_mask, bool)),
            "stkey": pa.array(np.asarray(stkey, np.int64), pa.int64()),
        })

    def local_pass(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = np.empty(0, np.int64)
            return _stitch_rows([], z, z, z, z, z, np.empty(0, bool),
                                z, z)
        df = df.sort_values(["user_id", "bucket", "ts", "event_id"])
        uid = df["user_id"].to_numpy()
        bkt = df["bucket"].to_numpy()
        changed = np.ones(len(df), dtype=bool)
        changed[1:] = (uid[1:] != uid[:-1]) | (bkt[1:] != bkt[:-1])
        codes = np.cumsum(changed) - 1
        is_left = (df["event_type"] == left_type).to_numpy()
        marker = np.where(is_left, np.arange(len(df)), -1)
        carried = (pd.Series(marker).groupby(codes).cummax().to_numpy())
        ids = df["event_id"].to_numpy()
        tsv = df["ts"].to_numpy()
        right = ~is_left
        src = carried[right]
        resolved = src >= 0
        gather = np.maximum(src, 0)
        r_ids = ids[right]
        r_uid = uid[right]
        # res: spread odd keys; open: even 2*user_id (wraparound keeps
        # parity and equality, which is all a range partitioner needs)
        odd = ((r_ids.astype(np.uint64) * _MIX) | np.uint64(1)
               ).astype(np.int64)
        even = (r_uid.astype(np.uint64) << np.uint64(1)).astype(np.int64)
        rights = _stitch_rows(
            np.where(resolved, "res", "open").tolist(),
            r_ids, r_uid, bkt[right], tsv[right],
            np.where(resolved, ids[gather], 0), ~resolved,
            np.where(resolved, tsv[gather],
                     np.datetime64(0, "us")),
            np.where(resolved, odd, even))
        # one carry row per (user, bucket) that HAS a left event: its
        # latest (the group's last left row in sort order)
        dl = df[is_left]
        cl = dl.groupby([dl["user_id"].to_numpy(),
                         dl["bucket"].to_numpy()],
                        sort=False).tail(1)
        c_uid = cl["user_id"].to_numpy()
        carries = _stitch_rows(
            ["carry"] * len(cl), cl["event_id"].to_numpy(), c_uid,
            cl["bucket"].to_numpy(), cl["ts"].to_numpy(),
            cl["event_id"].to_numpy(), np.zeros(len(cl), bool),
            cl["ts"].to_numpy(),
            (c_uid.astype(np.uint64) << np.uint64(1)).astype(np.int64))
        return pa.concat_tables([rights, carries])

    out_cols = ["event_id", "user_id", "ts", "asof_event_id", "asof_ts"]

    def stitch(batch: pa.Table) -> pa.Table:
        kind = batch.column("kind").to_numpy(zero_copy_only=False)
        # res rows pass through IN ARROW: asof_event_id keeps its
        # int64-with-nulls type (a pandas roundtrip would degrade it to
        # float64, corrupting ids above 2^53 and splitting the block
        # schema into int64-vs-double)
        res = batch.filter(pa.array(kind == "res")).select(out_cols)
        oc = batch.filter(pa.array((kind == "open") | (kind == "carry")))
        if not oc.num_rows:
            return res
        uid = oc.column("user_id").to_numpy(zero_copy_only=False)
        bkt = oc.column("bucket").to_numpy(zero_copy_only=False)
        eid = oc.column("event_id").to_numpy(zero_copy_only=False)
        tsv = oc.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        knd = oc.column("kind").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, bkt, uid))
        uid, bkt, eid = uid[order], bkt[order], eid[order]
        tsv, knd = tsv[order], knd[order]
        changed = np.ones(len(uid), dtype=bool)
        changed[1:] = uid[1:] != uid[:-1]
        ucode = np.cumsum(changed) - 1
        span = np.int64(1) << int(max(bkt.max(), 1) + 1).bit_length()
        assert ucode.max() < (np.int64(1) << 62) // span
        key = ucode * span + bkt
        is_c = knd == "carry"
        ckey = key[is_c]        # ascending (lexsorted by user, bucket)
        c_ids = eid[is_c]
        c_ts = tsv[is_c]
        is_o = knd == "open"
        # predecessor carry: largest carry key strictly below the
        # open's (user, bucket) — same-user guaranteed by the composed
        # key unless pos walks into the previous user, checked below
        if len(ckey):
            pos = np.searchsorted(ckey, key[is_o], side="left") - 1
            valid = pos >= 0
            gp = np.maximum(pos, 0)
            valid &= (ckey[gp] // span) == (key[is_o] // span)
        else:
            # a block of only left-less users emits no carry rows
            valid = np.zeros(int(is_o.sum()), dtype=bool)
            gp = np.zeros(int(is_o.sum()), dtype=np.int64)
        aeid = np.where(valid, c_ids[gp] if len(ckey) else 0, 0)
        ats = np.where(valid, c_ts[gp] if len(ckey) else 0, 0)
        opens = pa.table({
            "event_id": pa.array(eid[is_o], pa.int64()),
            "user_id": pa.array(uid[is_o], pa.int64()),
            "ts": pa.array(tsv[is_o].astype("datetime64[us]"), ts_t),
            "asof_event_id": pa.array(aeid, pa.int64(), mask=~valid),
            "asof_ts": pa.array(ats.astype("datetime64[us]"), ts_t,
                                mask=~valid),
        })
        return pa.concat_tables([res, opens])

    return (events.map_batches(tag, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("skey")
            .map_batches(local_pass, batch_format="pyarrow",
                         batch_size=None)
            .sort("stkey")
            .map_batches(stitch, batch_format="pyarrow",
                         batch_size=None))


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

    Shape (the asof precedent): a column-pruning TYPE FILTER runs
    before the shuffle, one sort on user_id alone (a user's rows land
    whole per block), then a vectorized per-block pass — two grouped
    mins, no per-user Python.  Output: (user_id, first_ts, conv_ts).
    """

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array([first_type, then_type]))
        t = batch.filter(keep)
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "ts_us": t.column("ts").cast(pa.int64()),
            "is_first": pc.cast(
                pc.equal(t.column("event_type"), first_type),
                pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "first_ts": pa.array([], pa.timestamp("us")),
                "conv_ts": pa.array([], pa.timestamp("us")),
            })
        f = df[df["is_first"] == 1]
        fc = (f.groupby("user_id", sort=False)["ts_us"].min()
              .rename("fc").reset_index())
        p = df[df["is_first"] == 0].merge(fc, on="user_id")
        p = p[(p["ts_us"] > p["fc"])
              & (p["ts_us"] <= p["fc"] + horizon_us)]
        conv = (p.groupby("user_id", sort=False)
                .agg(fc=("fc", "first"), conv=("ts_us", "min"))
                .reset_index())
        return pa.table({
            "user_id": pa.array(conv["user_id"].to_numpy(), pa.int64()),
            "first_ts": pa.array(conv["fc"].to_numpy(),
                                 pa.timestamp("us")),
            "conv_ts": pa.array(conv["conv"].to_numpy(),
                                pa.timestamp("us")),
        })

    return (events.map_batches(project, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


WEEK_US = 7 * 24 * 3600 * 1_000_000


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

    Shape: batch-local distinct (user, week) pairs pre-shuffle, ONE
    sort on user_id alone (a user's rows land whole per block), then a
    vectorized per-block pass: per-user min week (the cohort) and one
    row per distinct active week -> (cohort, offset) partial counts.
    The result table is bounded by weeks^2 (a few thousand cells for
    years of data), so partials fold on the driver — order-free
    integer sums, the kg_degrees precedent.

    Output: (cohort_week, week_offset, n_users); offset 0 rows give
    each cohort's size."""

    def pairs(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False),
            "week": batch.column("ts").cast(pa.int64()).to_numpy()
            // WEEK_US,
        }).drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
            "week": pa.array(df["week"].to_numpy(), pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        if df.empty:
            return pa.table({
                "cohort_week": pa.array([], pa.int64()),
                "week_offset": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            })
        df["cohort_week"] = df.groupby("user_id")["week"].transform("min")
        df["week_offset"] = df["week"] - df["cohort_week"]
        g = (df.groupby(["cohort_week", "week_offset"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "cohort_week": pa.array(g["cohort_week"].to_numpy(),
                                    pa.int64()),
            "week_offset": pa.array(g["week_offset"].to_numpy(),
                                    pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    acc: dict[tuple[int, int], int] = {}
    for r in (events.map_batches(pairs, batch_format="pyarrow",
                                 batch_size=1 << 19)
              .sort("user_id")
              .map_batches(per_block, batch_format="pyarrow",
                           batch_size=None)
              .take_all()):
        k = (r["cohort_week"], r["week_offset"])
        acc[k] = acc.get(k, 0) + r["n"]
    keys = sorted(acc)
    return pa.table({
        "cohort_week": pa.array([c for c, _ in keys], pa.int64()),
        "week_offset": pa.array([o for _, o in keys], pa.int64()),
        "n_users": pa.array([acc[k] for k in keys], pa.int64()),
    })


def attributed_revenue(events: rd.Dataset) -> rd.Dataset:
    """Last-touch attribution report: every purchase is attributed to
    the user's most recent strictly-prior click (the
    :func:`asof_join_events` carry rule, (ts, event_id) tie order) and
    revenue rolls up per attributing click.

    Output: (click_event_id, n_purchases, sum_value_cents) — integer
    cents (the repo invariant), one row per click with >= 1 attributed
    purchase.

    Shape: type filter + projection pre-shuffle, ONE sort on user_id
    (a user's clicks and purchases land whole per block — so each
    click's attribution group is complete per block and no second
    shuffle is needed), vectorized forward-carry + grouped sum."""

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(["click", "purchase"]))
        t = batch.filter(keep)
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

    def per_block(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["user_id", "ts_us", "event_id"])
              .reset_index(drop=True))
        if df.empty:
            return pa.table({
                "click_event_id": pa.array([], pa.int64()),
                "n_purchases": pa.array([], pa.int64()),
                "sum_value_cents": pa.array([], pa.int64()),
            })
        idx = np.where(df["is_click"].to_numpy() == 1,
                       np.arange(len(df)), -1)
        carried = (pd.Series(idx).groupby(df["user_id"].to_numpy())
                   .cummax().to_numpy())
        pur = (df["is_click"].to_numpy() == 0) & (carried >= 0)
        g = (pd.DataFrame({
                "click_event_id":
                    df["event_id"].to_numpy()[carried[pur]],
                "n_purchases": np.int64(1),
                "sum_value_cents": df["cents"].to_numpy()[pur],
             })
             .groupby("click_event_id", sort=False)
             .agg(n_purchases=("n_purchases", "sum"),
                  sum_value_cents=("sum_value_cents", "sum"))
             .reset_index())
        return pa.table({
            "click_event_id": pa.array(
                g["click_event_id"].to_numpy(), pa.int64()),
            "n_purchases": pa.array(
                np.asarray(g["n_purchases"], np.int64), pa.int64()),
            "sum_value_cents": pa.array(
                np.asarray(g["sum_value_cents"], np.int64), pa.int64()),
        })

    return (events.map_batches(project, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


def running_totals(events: rd.Dataset) -> rd.Dataset:
    """Per-user RUNNING total (the window-function shape: SUM() OVER
    (PARTITION BY user ORDER BY ts ROWS UNBOUNDED PRECEDING)): every
    event annotated with the cumulative integer-cents spend of its
    user up to and including it, ordered (ts, event_id).

    Unlike the aggregate family there is no combine step — a running
    sum needs every row — so the ONE sort on user_id IS the shuffle
    (equal keys land whole per block; the repo's range-partitioner
    rule), and the per-block completion is a vectorized grouped
    cumsum.  Output size == input size; consumers stream it on.

    Output: (event_id, user_id, running_cents)."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["user_id", "ts", "event_id"]))
        cents = _round_half_away(df["value"].to_numpy() * 100)
        run = (pd.Series(cents)
               .groupby(df["user_id"].to_numpy()).cumsum()
               .to_numpy())
        return pa.table({
            "event_id": pa.array(np.asarray(df["event_id"], np.int64),
                                 pa.int64()),
            "user_id": pa.array(np.asarray(df["user_id"], np.int64),
                                pa.int64()),
            "running_cents": pa.array(np.asarray(run, np.int64),
                                      pa.int64()),
        })

    return (events.sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


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

    Shape mirrors :func:`sessionize`: one sort on user_id (equal keys
    land whole per block per the range partitioner), then a vectorized
    per-block pass — running per-user cummax of interval ends, island
    break where the next start exceeds every previous end.  For skewed
    mega-users the salted two-phase variant of ``sessionize_salted``
    applies unchanged (bucket ghosting carries the running max).

    Output: (user_id, island_idx, start_ts, end_ts, n_events)."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "island_idx": pa.array([], pa.int64()),
                "start_ts": pa.array([], pa.timestamp("us")),
                "end_ts": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
            })
        s = df["ts"].astype("int64").to_numpy()
        cents = _round_half_away(df["value"].to_numpy() * 100)
        e = s + (cents % 7 + 1) * base_us
        df = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "event_id": df["event_id"].to_numpy(),
            "s": s, "e": e,
        }).sort_values(["user_id", "s", "e", "event_id"])
        cm = df.groupby("user_id", sort=False)["e"].cummax()
        prev = cm.groupby(df["user_id"], sort=False).shift()
        new_island = prev.isna() | (df["s"] > prev)
        df["island_idx"] = (
            new_island.groupby(df["user_id"], sort=False).cumsum()
            .astype("int64") - 1)
        g = (df.groupby(["user_id", "island_idx"], sort=False)
             .agg(start_us=("s", "min"), end_us=("e", "max"),
                  n_events=("event_id", "size"))
             .reset_index())
        return pa.table({
            "user_id": pa.array(np.asarray(g["user_id"], np.int64),
                                pa.int64()),
            "island_idx": pa.array(
                np.asarray(g["island_idx"], np.int64), pa.int64()),
            "start_ts": pa.array(
                np.asarray(g["start_us"], np.int64),
                pa.timestamp("us")),
            "end_ts": pa.array(
                np.asarray(g["end_us"], np.int64), pa.timestamp("us")),
            "n_events": pa.array(np.asarray(g["n_events"], np.int64),
                                 pa.int64()),
        })

    return events.sort("user_id").map_batches(
        per_block, batch_format="pyarrow", batch_size=None)


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

    Three streaming passes, all integer arithmetic:
      1. per-type value histogram -> median (the engine's 1-based
         CDF-position rule ``(50*N + 99) // 100``, non-negative
         domain so // == truncation on both engines);
      2. per-type |v - med| histogram (median broadcast in the
         closure) -> MAD by the same rule;
      3. per-batch outlier counts (both scalars broadcast) -> fold.
    Driver collects are O(distinct cents) / O(types) — never O(rows).

    Output: small pa.Table (event_type, n_events, med_cents,
    mad_cents, n_outliers)."""

    def hist(project):
        def combine(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            if "n" not in df.columns:
                df = project(df)
                df["n"] = np.ones(len(df), np.int64)
            g = (df.groupby(["event_type", "c"], sort=False)["n"]
                 .sum().reset_index())
            return pa.table({
                "event_type": pa.array(g["event_type"].tolist(),
                                       pa.string()),
                "c": pa.array(np.asarray(g["c"], np.int64), pa.int64()),
                "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            })

        rows = (events.map_batches(combine, batch_format="pyarrow",
                                   batch_size=1 << 19)
                .sort(["event_type", "c"])
                .map_batches(combine, batch_format="pyarrow",
                             batch_size=None)
                ).take_all()  # O(distinct (type, cents)) by design
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"event_type": [], "c": [], "n": []})

    def median_of(h: pd.DataFrame) -> dict[str, int]:
        out = {}
        for et, grp in h.sort_values(["event_type", "c"]).groupby(
                "event_type", sort=False):
            cum = np.cumsum(grp["n"].to_numpy())
            pos = (50 * int(cum[-1]) + 99) // 100
            out[et] = int(grp["c"].to_numpy()[
                np.searchsorted(cum, pos, side="left")])
        return out

    def p_value(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "c": _round_half_away(df["value"].to_numpy() * 100),
        })

    med = median_of(hist(p_value))

    def p_dev(df: pd.DataFrame) -> pd.DataFrame:
        cents = _round_half_away(df["value"].to_numpy() * 100)
        m = df["event_type"].map(med).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "c": np.abs(cents - m),
        })

    mad = median_of(hist(p_dev))

    def count_out(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = _round_half_away(df["value"].to_numpy() * 100)
        m = df["event_type"].map(med).to_numpy(dtype=np.int64)
        d = df["event_type"].map(mad).to_numpy(dtype=np.int64)
        out = np.abs(cents - m) > k * d
        g = (pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                           "n": np.ones(len(df), np.int64),
                           "n_out": out.astype(np.int64)})
             .groupby("event_type", sort=False).sum().reset_index())
        return pa.table({
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "n_out": pa.array(np.asarray(g["n_out"], np.int64),
                              pa.int64()),
        })

    parts = events.map_batches(
        count_out, batch_format="pyarrow", batch_size=1 << 19
    ).to_pandas()  # O(types x blocks) rows
    g = (parts.groupby("event_type", sort=True)[["n", "n_out"]]
         .sum().reset_index())
    types = g["event_type"].tolist()
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "n_events": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        "med_cents": pa.array([med[t] for t in types], pa.int64()),
        "mad_cents": pa.array([mad[t] for t in types], pa.int64()),
        "n_outliers": pa.array(np.asarray(g["n_out"], np.int64),
                               pa.int64()),
    })


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

    One sort on user_id (the sessionize precedent: equal keys land
    whole per block), then a fully vectorized per-block completion —
    diff + first-row mask for gaps, sorted-run indexing for the
    median, no per-group Python."""

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "us": batch.column("ts").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "us", "event_id"])
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "n_gaps": pa.array([], pa.int64()),
            "min_gap_us": pa.array([], pa.int64()),
            "max_gap_us": pa.array([], pa.int64()),
            "sum_gap_us": pa.array([], pa.int64()),
            "med_gap_us": pa.array([], pa.int64()),
        })
        if df.empty:
            return empty
        uid = df["user_id"].to_numpy()
        us = df["us"].to_numpy()
        first = np.empty(len(df), bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        gap = np.empty(len(df), np.int64)
        gap[0] = 0
        gap[1:] = us[1:] - us[:-1]
        gdf = pd.DataFrame({"user_id": uid[~first], "gap": gap[~first]})
        if gdf.empty:
            return empty
        agg = (gdf.groupby("user_id", sort=False)["gap"]
               .agg(n_gaps="count", min_gap_us="min", max_gap_us="max",
                    sum_gap_us="sum")
               .reset_index())
        # lower median: sort gap runs, index start + (n-1)//2 per user
        s = gdf.sort_values(["user_id", "gap"]).reset_index(drop=True)
        su = s["user_id"].to_numpy()
        starts = np.flatnonzero(
            np.concatenate(([True], su[1:] != su[:-1])))
        counts = np.diff(np.concatenate((starts, [len(su)])))
        med = s["gap"].to_numpy()[starts + (counts - 1) // 2]
        med_map = dict(zip(su[starts].tolist(), med.tolist()))
        agg["med_gap_us"] = agg["user_id"].map(med_map)
        agg["n_events"] = agg["n_gaps"] + 1
        return pa.table({
            "user_id": pa.array(agg["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "n_events": pa.array(
                agg["n_events"].to_numpy(dtype=np.int64), pa.int64()),
            "n_gaps": pa.array(
                agg["n_gaps"].to_numpy(dtype=np.int64), pa.int64()),
            "min_gap_us": pa.array(
                agg["min_gap_us"].to_numpy(dtype=np.int64), pa.int64()),
            "max_gap_us": pa.array(
                agg["max_gap_us"].to_numpy(dtype=np.int64), pa.int64()),
            "sum_gap_us": pa.array(
                agg["sum_gap_us"].to_numpy(dtype=np.int64), pa.int64()),
            "med_gap_us": pa.array(
                agg["med_gap_us"].to_numpy(dtype=np.int64), pa.int64()),
        })

    return (events.map_batches(proj, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(complete, batch_format="pyarrow",
                         batch_size=None))


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_type_pivot(events: rd.Dataset) -> rd.Dataset:
    """Per-user PIVOT: one count column and one integer-cents sum
    column per event type (the wide/pivot aggregate shape — long
    (user, type) partials into fixed columns).

    Scale shape: the pivot happens INSIDE the batch-local combiner, so
    the shuffle moves one already-wide row per (user, batch) — 2x5
    int64 cells — instead of long (user, type) rows; the sorted
    per-block completion just sums the fixed columns.  Unknown event
    types are counted into the ``n_other``/``cents_other`` catchall
    (no silent drops).

    Output: (user_id, n_<type>..., cents_<type>..., n_other,
    cents_other) — all exact int64."""
    cols = ([f"n_{t}" for t in PIVOT_TYPES]
            + [f"cents_{t}" for t in PIVOT_TYPES]
            + ["n_other", "cents_other"])

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if set(cols) <= set(df.columns):  # completion pass
            g = df.groupby("user_id", sort=False)[cols].sum().reset_index()
        else:
            cents = _round_half_away(df["value"].to_numpy() * 100)
            base = pd.DataFrame({
                "user_id": df["user_id"].to_numpy(dtype=np.int64),
                "et": df["event_type"].to_numpy(),
                "n": np.int64(1),
                "cents": cents,
            })
            long = (base.groupby(["user_id", "et"], sort=False)
                    .agg(n=("n", "sum"), cents=("cents", "sum"))
                    .reset_index())
            known = long["et"].isin(PIVOT_TYPES)
            long.loc[~known, "et"] = "other"
            long = (long.groupby(["user_id", "et"], sort=False)
                    .sum().reset_index())
            g = pd.DataFrame({"user_id": pd.unique(long["user_id"])})
            for t in list(PIVOT_TYPES) + ["other"]:
                sub = long[long["et"] == t][["user_id", "n", "cents"]]
                sub = sub.rename(columns={"n": f"n_{t}",
                                          "cents": f"cents_{t}"})
                g = g.merge(sub, on="user_id", how="left")
            g[cols] = g[cols].fillna(0)
        out = {"user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                   pa.int64())}
        for c in cols:
            out[c] = pa.array(g[c].to_numpy(dtype=np.int64), pa.int64())
        return pa.table(out)

    return (events.map_batches(combine, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(combine, batch_format="pyarrow",
                         batch_size=None))


def type_transition_counts(events: rd.Dataset) -> pa.Table:
    """Event-type TRANSITION matrix (first-order Markov estimation):
    counts of consecutive (from_type, to_type) pairs within each
    user's (ts, event_id)-ordered stream.

    Shape: the `user_gap_stats` lag pattern — one sort on user_id,
    vectorized per-block lag with a first-row-per-user mask — followed
    by a driver fold of the per-block (from, to, n) partials
    (O(types^2 x blocks), the promo precedent).

    Output: pa.Table (from_type, to_type, n) sorted by key."""

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "us": batch.column("ts").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
            "event_type": batch.column("event_type").cast(pa.string()),
        })

    def lag_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "us", "event_id"])
        if df.empty:
            return pa.table({
                "from_type": pa.array([], pa.string()),
                "to_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = np.empty(len(df), bool)
        same[0] = False
        same[1:] = uid[1:] == uid[:-1]
        g = (pd.DataFrame({
                "from_type": np.concatenate(([""], et[:-1]))[same],
                "to_type": et[same],
             })
             .groupby(["from_type", "to_type"], sort=False)
             .size().reset_index(name="n"))
        return from_pandas_clean(g, preserve_index=False)

    parts = (events.map_batches(proj, batch_format="pyarrow",
                                batch_size=1 << 19)
             .sort("user_id")
             .map_batches(lag_counts, batch_format="pyarrow",
                          batch_size=None))
    acc: dict[tuple[str, str], int] = {}
    for r in parts.take_all():  # O(types^2 x blocks) — tiny
        k = (r["from_type"], r["to_type"])
        acc[k] = acc.get(k, 0) + r["n"]
    keys = sorted(acc)
    return pa.table({
        "from_type": pa.array([k[0] for k in keys], pa.string()),
        "to_type": pa.array([k[1] for k in keys], pa.string()),
        "n": pa.array([acc[k] for k in keys], pa.int64()),
    })


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
    to (window, user, cnt) partials, ONE sort on the window key alone
    puts each window's full user set in one block (sorting on the
    composite would split a window at user boundaries and undercount
    the distinct), and the per-block completion sums counts + nuniques
    users.

    Output: (win_us, n_users, n_events) — exact int64."""
    assert window_us % slide_us == 0
    n_covers = window_us // slide_us

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(
            np.int64)
        uid = df["user_id"].to_numpy(dtype=np.int64)
        base = (us // slide_us) * slide_us
        k = np.tile(np.arange(n_covers, dtype=np.int64), len(df))
        g = (pd.DataFrame({
                "win_us": np.repeat(base, n_covers) - k * slide_us,
                "user_id": np.repeat(uid, n_covers),
                "cnt": np.int64(1),
             })
             .groupby(["win_us", "user_id"], sort=False)["cnt"]
             .sum().reset_index())
        return pa.table({
            "win_us": pa.array(g["win_us"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "cnt": pa.array(g["cnt"].to_numpy(dtype=np.int64),
                            pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "win_us": pa.array([], pa.int64()),
                "n_users": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
            })
        g = (df.groupby("win_us", sort=False)
             .agg(n_users=("user_id", "nunique"),
                  n_events=("cnt", "sum"))
             .reset_index())
        return pa.table({
            "win_us": pa.array(g["win_us"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "n_users": pa.array(g["n_users"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "n_events": pa.array(g["n_events"].to_numpy(dtype=np.int64),
                                 pa.int64()),
        })

    return (events.map_batches(expand, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("win_us")
            .map_batches(complete, batch_format="pyarrow",
                         batch_size=None))


def activity_streaks(events: rd.Dataset) -> rd.Dataset:
    """Gaps-and-islands: per user, the longest run of CONSECUTIVE
    active days plus active-day and streak counts.  Island id is the
    classic ``day - rank(day)`` trick, fully vectorized per block
    (epoch-us days are non-negative, so // == floor on both engines).

    One sort on user_id (each user's distinct days land whole per
    block); the batch-local day-dedup shrinks the shuffle and the
    post-sort block pass re-dedups (cross-batch duplicates of a
    (user, day) merge in the sorted block) before the island scan.

    Output: (user_id, max_streak_days, n_active_days, n_streaks)."""
    DAY_US = 86_400_000_000

    def days(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "day": (batch.column("ts").cast(pa.int64()).to_numpy(
                zero_copy_only=False) // DAY_US),
        }).drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
            "day": pa.array(df["day"].to_numpy(), pa.int64()),
        })

    def islands(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas().drop_duplicates()
              .sort_values(["user_id", "day"]))
        if df.empty:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "max_streak_days": pa.array([], pa.int64()),
                "n_active_days": pa.array([], pa.int64()),
                "n_streaks": pa.array([], pa.int64()),
            })
        df["isl"] = df["day"] - df.groupby(
            "user_id", sort=False).cumcount()
        runs = (df.groupby(["user_id", "isl"], sort=False)
                .size().reset_index(name="len"))
        g = (runs.groupby("user_id", sort=False)
             .agg(max_streak_days=("len", "max"),
                  n_active_days=("len", "sum"),
                  n_streaks=("len", "size"))
             .reset_index())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "max_streak_days": pa.array(
                g["max_streak_days"].to_numpy(dtype=np.int64),
                pa.int64()),
            "n_active_days": pa.array(
                g["n_active_days"].to_numpy(dtype=np.int64),
                pa.int64()),
            "n_streaks": pa.array(
                g["n_streaks"].to_numpy(dtype=np.int64), pa.int64()),
        })

    return (events.map_batches(days, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(islands, batch_format="pyarrow",
                         batch_size=None))


def peak_hour_per_user(events: rd.Dataset) -> rd.Dataset:
    """Groupwise ARGMAX: each user's busiest hour-of-day (0-23), ties
    broken by the SMALLER hour — the behavioral-profile projection.

    Batch-local (user, hour) count partials, one sort on user_id,
    block completion: sum counts then a vectorized (count DESC, hour
    ASC) first-row-per-user pick.  hour = (us // 3600e6) % 24 on
    non-negative epoch micros (floor == truncation).

    Output: (user_id, peak_hour, n_events_at_peak)."""
    HOUR_US = 3_600_000_000

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "n" in df.columns:
            g = (df.groupby(["user_id", "hour"], sort=False)["n"]
                 .sum().reset_index())
        else:
            us = df["ts"].to_numpy().astype("datetime64[us]").astype(
                np.int64)
            g = (pd.DataFrame({
                    "user_id": df["user_id"].to_numpy(dtype=np.int64),
                    "hour": (us // HOUR_US) % 24,
                    "n": np.int64(1),
                 })
                 .groupby(["user_id", "hour"], sort=False)["n"]
                 .sum().reset_index())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "hour": pa.array(g["hour"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def argmax(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["user_id", "hour"], sort=False)["n"].sum()
             .reset_index()
             .sort_values(["user_id", "n", "hour"],
                          ascending=[True, False, True])
             .drop_duplicates("user_id"))
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "peak_hour": pa.array(g["hour"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "n_events_at_peak": pa.array(
                g["n"].to_numpy(dtype=np.int64), pa.int64()),
        })

    return (events.map_batches(combine, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(argmax, batch_format="pyarrow",
                         batch_size=None))


def signup_to_purchase(events: rd.Dataset) -> rd.Dataset:
    """Conversion latency: for every user with BOTH a signup and a
    purchase, the epoch-us gap between the FIRST signup and the FIRST
    purchase (negative when the purchase came first — kept raw, no
    silent clamping).

    Batch-local partials keep one min-ts per (user, type) — min is
    algebraic, so each batch ships <= 2 rows per user; one sort on
    user_id, block completion pivots the two mins and subtracts.

    Output: (user_id, first_signup_us, first_purchase_us, gap_us)."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "us" not in df.columns:
            df = pd.DataFrame({
                "user_id": df["user_id"].to_numpy(dtype=np.int64),
                "event_type": df["event_type"].to_numpy(),
                "us": df["ts"].to_numpy().astype("datetime64[us]")
                .astype(np.int64),
            })
            df = df[df["event_type"].isin(("signup", "purchase"))]
        g = (df.groupby(["user_id", "event_type"], sort=False)["us"]
             .min().reset_index())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "us": pa.array(g["us"].to_numpy(dtype=np.int64),
                           pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "first_signup_us": pa.array([], pa.int64()),
            "first_purchase_us": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        })
        if df.empty:
            return empty
        g = (df.groupby(["user_id", "event_type"], sort=False)["us"]
             .min().reset_index())
        s = g[g["event_type"] == "signup"][["user_id", "us"]].rename(
            columns={"us": "first_signup_us"})
        p = g[g["event_type"] == "purchase"][["user_id", "us"]].rename(
            columns={"us": "first_purchase_us"})
        j = s.merge(p, on="user_id", how="inner")
        if j.empty:
            return empty
        return pa.table({
            "user_id": pa.array(j["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "first_signup_us": pa.array(
                j["first_signup_us"].to_numpy(dtype=np.int64),
                pa.int64()),
            "first_purchase_us": pa.array(
                j["first_purchase_us"].to_numpy(dtype=np.int64),
                pa.int64()),
            "gap_us": pa.array(
                (j["first_purchase_us"]
                 - j["first_signup_us"]).to_numpy(dtype=np.int64),
                pa.int64()),
        })

    return (events.map_batches(combine, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


def burst_hours(events: rd.Dataset, *, factor: int = 1) -> rd.Dataset:
    """Integer burst detection: a user's hours whose event count
    exceeds ``factor`` TIMES their lower-median hourly count — anomaly
    gating with no float (the events_outliers MAD-gate's cheaper
    cousin, robust to the user's own baseline).  The default factor 1
    ("above the user's median hour") keeps the synth fixture
    non-degenerate at every SF; production bursts would use 2-3.

    Batch-local (user, hour) count partials; one sort on user_id;
    per-block completion sums the partials, takes the per-user lower
    median of hourly counts via sorted-run indexing (the
    user_gap_stats trick), and emits rows with n > 2 * med.

    Output: (user_id, hour_us, n_events, med_hourly)."""
    HOUR_US = 3_600_000_000

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "n" in df.columns:
            g = (df.groupby(["user_id", "hour_us"], sort=False)["n"]
                 .sum().reset_index())
        else:
            us = df["ts"].to_numpy().astype("datetime64[us]").astype(
                np.int64)
            g = (pd.DataFrame({
                    "user_id": df["user_id"].to_numpy(dtype=np.int64),
                    "hour_us": (us // HOUR_US) * HOUR_US,
                    "n": np.int64(1),
                 })
                 .groupby(["user_id", "hour_us"], sort=False)["n"]
                 .sum().reset_index())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "hour_us": pa.array(g["hour_us"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "hour_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "med_hourly": pa.array([], pa.int64()),
        })
        if df.empty:
            return empty
        g = (df.groupby(["user_id", "hour_us"], sort=False)["n"].sum()
             .reset_index())
        s = g.sort_values(["user_id", "n"]).reset_index(drop=True)
        su = s["user_id"].to_numpy()
        starts = np.flatnonzero(
            np.concatenate(([True], su[1:] != su[:-1])))
        counts = np.diff(np.concatenate((starts, [len(su)])))
        med = s["n"].to_numpy()[starts + (counts - 1) // 2]
        med_map = dict(zip(su[starts].tolist(), med.tolist()))
        g["med"] = g["user_id"].map(med_map)
        g = g[g["n"] > factor * g["med"]]
        if g.empty:
            return empty
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "hour_us": pa.array(g["hour_us"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "n_events": pa.array(g["n"].to_numpy(dtype=np.int64),
                                 pa.int64()),
            "med_hourly": pa.array(g["med"].to_numpy(dtype=np.int64),
                                   pa.int64()),
        })

    return (events.map_batches(combine, batch_format="pyarrow",
                               batch_size=1 << 19)
            .sort("user_id")
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


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
    ``(q*N + 99) // 100``.  Durations quantize to seconds so the
    driver-side CDF fold stays bounded by the session-length DOMAIN
    (~10^4 values), not the session count; event counts are already
    small-domain.  The histogram partials fold like value_quantiles.

    Output: pa.Table (q_pct, n_events_q, dur_s_q)."""
    sess = sessionize(events, gap_us=gap_us)

    def hist(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dur = ((df["end_ts"].to_numpy().astype("datetime64[us]")
                .astype(np.int64)
                - df["start_ts"].to_numpy().astype("datetime64[us]")
                .astype(np.int64)) // 1_000_000)
        out = []
        for m, v in (("n", df["n_events"].to_numpy(dtype=np.int64)),
                     ("d", dur)):
            g = (pd.DataFrame({"v": v, "c": np.int64(1)})
                 .groupby("v", sort=False)["c"].sum().reset_index())
            g["m"] = m
            out.append(g)
        g = pd.concat(out)
        return pa.table({
            "m": pa.array(g["m"].tolist(), pa.string()),
            "v": pa.array(g["v"].to_numpy(dtype=np.int64), pa.int64()),
            "c": pa.array(g["c"].to_numpy(dtype=np.int64), pa.int64()),
        })

    acc: dict[tuple[str, int], int] = {}
    for r in sess.map_batches(hist, batch_format="pyarrow",
                              batch_size=1 << 19).take_all():
        k = (r["m"], r["v"])
        acc[k] = acc.get(k, 0) + r["c"]

    if not acc:
        # zero sessions: empty result with the output schema (the
        # quantile-position gather below would index an empty array)
        return pa.table({
            "q_pct": pa.array([], pa.int64()),
            "n_events_q": pa.array([], pa.int64()),
            "dur_s_q": pa.array([], pa.int64()),
        })

    def q_of(metric: str) -> dict[int, int]:
        vals = sorted(v for (m, v) in acc if m == metric)
        cdf = np.cumsum([acc[(metric, v)] for v in vals])
        nt = int(cdf[-1]) if len(cdf) else 0
        out = {}
        for q in q_pct:
            pos = (q * nt + 99) // 100
            out[q] = int(np.asarray(vals)[np.searchsorted(cdf, pos)])
        return out

    qn, qd = q_of("n"), q_of("d")
    return pa.table({
        "q_pct": pa.array(list(q_pct), pa.int64()),
        "n_events_q": pa.array([qn[q] for q in q_pct], pa.int64()),
        "dur_s_q": pa.array([qd[q] for q in q_pct], pa.int64()),
    })


def table_profile(ds: rd.Dataset, specs: list[tuple[str, str]]) -> rd.Dataset:
    """DESCRIBE-style column profiler — the first pass every ingestion
    pipeline runs over an unfamiliar table: per column, exact row
    count, null count, and min/max, in ONE streaming pass with
    per-block partials folded on the driver (state = one row per
    column per block; never data-sized).  Zero wide ops.

    ``specs`` is ``[(column, kind)]`` with kind in:
      'int'    — int64 min/max
      'ts'     — timestamp normalized to epoch microseconds (int64)
      'str'    — binary-codepoint string min/max (both engines agree
                 on ASCII; the dup_clusters sorted-coding precedent)
      'cents'  — float64 via ``floor(v * 100)`` to int64: the same
                 IEEE multiply on the same stored bits gives the same
                 product bits in numpy and DuckDB, so even the float
                 column profiles bit-exactly

    min/max are emitted as VARCHAR (ints via str(); strings as-is) so
    one schema covers every column; NULL-only columns emit NULL
    min/max (inner semantics mirrored by the oracle's aggregate over
    zero non-null rows).

    Output: (col, n_rows, n_null, min_v, max_v), one row per spec,
    sorted by col."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        cols, ns, nulls, mins, maxs = [], [], [], [], []
        for name, kind in specs:
            arr = batch.column(name)
            n = len(arr)
            n_null = arr.null_count
            valid = arr.drop_null()
            if kind == "ts":
                v = valid.cast(pa.int64())
            elif kind == "cents":
                f = valid.to_numpy(zero_copy_only=False)
                v = pa.array(np.floor(f * 100.0).astype(np.int64),
                             pa.int64())
            elif kind == "int":
                v = valid.cast(pa.int64())
            else:
                v = valid
            if len(v):
                mn, mx = pc.min(v).as_py(), pc.max(v).as_py()
                mins.append(str(mn))
                maxs.append(str(mx))
            else:
                mins.append(None)
                maxs.append(None)
            cols.append(name)
            ns.append(n)
            nulls.append(n_null)
        return pa.table({
            "col": pa.array(cols, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "n_null": pa.array(nulls, pa.int64()),
            "min_v": pa.array(mins, pa.string()),
            "max_v": pa.array(maxs, pa.string()),
        })

    acc: dict[str, list] = {}
    kind_of = dict(specs)

    def _key(kind: str, s: str):
        return int(s) if kind in ("int", "ts", "cents") else s

    for r in ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=1 << 17).take_all():
        c = r["col"]
        cur = acc.setdefault(c, [0, 0, None, None])
        cur[0] += r["n"]
        cur[1] += r["n_null"]
        for i, (v, pick) in enumerate(((r["min_v"], min),
                                       (r["max_v"], max)), start=2):
            if v is None:
                continue
            if cur[i] is None:
                cur[i] = v
            else:
                k = kind_of[c]
                cur[i] = v if pick(_key(k, v), _key(k, cur[i])) \
                    == _key(k, v) else cur[i]
    rows = sorted(acc.items())
    return rd.from_arrow(pa.table({
        "col": pa.array([c for c, _ in rows], pa.string()),
        "n_rows": pa.array([v[0] for _, v in rows], pa.int64()),
        "n_null": pa.array([v[1] for _, v in rows], pa.int64()),
        "min_v": pa.array([v[2] for _, v in rows], pa.string()),
        "max_v": pa.array([v[3] for _, v in rows], pa.string()),
    }))


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
    ``dt.hour`` (== DuckDB ``hour(ts)``; both calendar-based, so no
    epoch-unit pitfalls — pandas ``datetime64[us].astype(int64)``
    yields MICROseconds while a ns-unit series yields ns, a silent
    3-orders scale trap), value band =
    ``floor(round_half_away(value * 100) / band_cents)`` (the
    integer-cents precedent; the float divide of small ints is exact
    in both engines).

    Scale shape: the QI space is BOUNDED (types x 24 x bands), so a
    sort would degenerate the range partitioner (perf rule 2); each
    block contributes a pandas-groupby partial count and the driver
    folds the bounded dictionary — zero wide ops at any corpus size.

    Output pa.Table sorted (event_type, hour, band):
    (event_type, hour, band, n, at_risk) with at_risk = 1 iff n < k.
    """

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "n" not in df.columns:
            cents = _round_half_away(df["value"].to_numpy() * 100)
            df = pd.DataFrame({
                "event_type": df["event_type"],
                "hour": pd.to_datetime(df["ts"]).dt.hour
                          .to_numpy().astype(np.int64),
                "band": np.floor(cents.astype(np.float64)
                                 / band_cents).astype(np.int64),
                "n": np.int64(1),
            })
        g = (df.groupby(["event_type", "hour", "band"], sort=False)
             ["n"].sum().reset_index())
        return from_pandas_clean(g, preserve_index=False)

    acc: dict[tuple, int] = {}
    parts = events.map_batches(partials, batch_format="pyarrow")
    for blk in parts.iter_batches(batch_format="pyarrow",
                                  batch_size=None):
        df = blk.to_pandas()
        for t, h, b, n in zip(df["event_type"], df["hour"],
                              df["band"], df["n"]):
            key = (t, int(h), int(b))
            acc[key] = acc.get(key, 0) + int(n)
    ks = sorted(acc)
    ns = [acc[x] for x in ks]
    return pa.table({
        "event_type": pa.array([t for t, _, _ in ks], pa.string()),
        "hour": pa.array([h for _, h, _ in ks], pa.int64()),
        "band": pa.array([b for _, _, b in ks], pa.int64()),
        "n": pa.array(ns, pa.int64()),
        "at_risk": pa.array([1 if n < k else 0 for n in ns],
                            pa.int64()),
    })


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
    sort on user_id (equal keys land whole per block), then a
    vectorized per-block pass — grouped running max shifted by one
    arrival.  Lateness quantities are exact int64 microseconds on
    both engines (`ts` is cast to epoch-us IN ARROW, no pandas unit
    trap; the arrival key stays uint64 end to end).

    Output: (user_id, n_events, n_late, max_late_us, sum_late_us)."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def project(batch: pa.Table) -> pa.Table:
        eids = batch.column("event_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        arr = _hash64([f"{salt}:{e}" for e in eids])
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "arr": pa.array(arr, pa.uint64()),
            "us": batch.column("ts").cast(pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "arr"])
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"user_id": z, "n_events": z, "n_late": z,
                             "max_late_us": z, "sum_late_us": z})
        g = df.groupby("user_id", sort=False)
        # vectorized grouped running max, shifted one arrival back
        prev_max = g["us"].cummax().groupby(
            df["user_id"], sort=False).shift(1)
        late_us = (prev_max - df["us"]).fillna(0).astype(np.int64)
        late_us = np.maximum(late_us.to_numpy(), 0)
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n_events": np.int64(1),
            "n_late": (late_us > 0).astype(np.int64),
            "late_us": late_us,
        })
        a = (out.groupby("user_id", sort=False)
             .agg(n_events=("n_events", "sum"),
                  n_late=("n_late", "sum"),
                  max_late_us=("late_us", "max"),
                  sum_late_us=("late_us", "sum"))
             .reset_index())
        return pa.table({
            "user_id": pa.array(a["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "n_events": pa.array(a["n_events"].to_numpy(np.int64),
                                 pa.int64()),
            "n_late": pa.array(a["n_late"].to_numpy(np.int64),
                               pa.int64()),
            "max_late_us": pa.array(a["max_late_us"].to_numpy(np.int64),
                                    pa.int64()),
            "sum_late_us": pa.array(a["sum_late_us"].to_numpy(np.int64),
                                    pa.int64()),
        })

    return (events.map_batches(project, batch_format="pyarrow")
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


def session_paths(events: rd.Dataset, *,
                  gap_us: int = SESSION_GAP_US,
                  max_steps: int = 8) -> rd.Dataset:
    """Top user journeys: the event-type PATH of each session (the
    first ``max_steps`` event types joined with ``>``), counted across
    all sessions — the "what do users actually do" table of product
    analytics, and a classic sequence-mining primitive.

    Shape: the sessionize sort (user_id — each user's events land
    whole per block), a vectorized per-block pass that numbers
    sessions and string-joins the first ``max_steps`` types per
    session into path partials, then ONE sort on the path string
    (high-cardinality) with a per-block count completion.  Session
    boundaries and step order tie-break on (ts, event_id), matching
    the sessionize oracle's window exactly.

    Output: (path, n_sessions, n_events) — n_events counts ALL events
    of the counted sessions, not just the truncated steps."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = pa.table({
            "path": pa.array([], pa.string()),
            "n_sessions": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
        })
        if df.empty:
            return empty
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts = df["ts"].astype("int64")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = ts.diff() > gap_us
        df["session_idx"] = (new_user | gap).groupby(
            df["user_id"]).cumsum().astype("int64") - 1
        keys = ["user_id", "session_idx"]
        df["rn"] = df.groupby(keys, sort=False).cumcount()
        head = df[df["rn"] < max_steps]
        paths = (head.groupby(keys, sort=False)["event_type"]
                 .agg(">".join).rename("path"))
        sizes = df.groupby(keys, sort=False).size().rename("n")
        j = pd.concat([paths, sizes], axis=1)
        g = (j.groupby("path", sort=False)
             .agg(n_sessions=("n", "size"), n_events=("n", "sum"))
             .reset_index())
        return pa.table({
            "path": pa.array(g["path"].tolist(), pa.string()),
            "n_sessions": pa.array(g["n_sessions"].to_numpy(np.int64),
                                   pa.int64()),
            "n_events": pa.array(g["n_events"].to_numpy(np.int64),
                                 pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "path": pa.array([], pa.string()),
                "n_sessions": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
            })
        g = (df.groupby("path", sort=False)
             .agg(n_sessions=("n_sessions", "sum"),
                  n_events=("n_events", "sum"))
             .reset_index())
        return pa.table({
            "path": pa.array(g["path"].tolist(), pa.string()),
            "n_sessions": pa.array(g["n_sessions"].to_numpy(np.int64),
                                   pa.int64()),
            "n_events": pa.array(g["n_events"].to_numpy(np.int64),
                                 pa.int64()),
        })

    partials = events.sort("user_id").map_batches(
        per_block, batch_format="pyarrow", batch_size=None)
    return partials.sort("path").map_batches(
        complete, batch_format="pyarrow", batch_size=None)


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

    Shape: the funnel kernel is reused verbatim (one type-filtered
    user sort); the exposure side needs only DISTINCT users per
    variant — per-block distinct partials, one user sort, per-block
    counts, driver fold of 2 integers.  Conversion rate is reported
    as an exact integer per-mille floor.

    Output pa.Table (variant, n_users, n_converted, conv_per_mille),
    sorted by variant."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def u_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("user_id").to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    def u_counts(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("user_id").to_numpy(
            zero_copy_only=False).astype(np.int64))
        if not len(u):
            z = pa.array([], pa.int64())
            return pa.table({"variant": z, "n": z})
        v = (_hash64([f"{salt}:{x}" for x in u])
             % np.uint64(2)).astype(np.int64)
        return pa.table({
            "variant": pa.array([0, 1], pa.int64()),
            "n": pa.array([int((v == 0).sum()), int((v == 1).sum())],
                          pa.int64()),
        })

    exposure: dict[int, int] = {0: 0, 1: 0}
    folded = (events.map_batches(u_partial, batch_format="pyarrow")
              .sort("user_id")
              .map_batches(u_counts, batch_format="pyarrow",
                           batch_size=None))
    for r in folded.take_all():  # O(blocks x 2)
        exposure[int(r["variant"])] += int(r["n"])

    conv = {0: 0, 1: 0}
    f = funnel_conversions(events, first_type=first_type,
                           then_type=then_type, horizon_us=horizon_us)

    def c_counts(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if not len(u):
            z = pa.array([], pa.int64())
            return pa.table({"variant": z, "n": z})
        v = (_hash64([f"{salt}:{x}" for x in u])
             % np.uint64(2)).astype(np.int64)
        return pa.table({
            "variant": pa.array([0, 1], pa.int64()),
            "n": pa.array([int((v == 0).sum()), int((v == 1).sum())],
                          pa.int64()),
        })

    for r in f.map_batches(c_counts, batch_format="pyarrow",
                           batch_size=None).take_all():
        conv[int(r["variant"])] += int(r["n"])

    return pa.table({
        "variant": pa.array([0, 1], pa.int64()),
        "n_users": pa.array([exposure[0], exposure[1]], pa.int64()),
        "n_converted": pa.array([conv[0], conv[1]], pa.int64()),
        "conv_per_mille": pa.array(
            [conv[i] * 1000 // max(exposure[i], 1) for i in (0, 1)],
            pa.int64()),
    })


def session_concurrency(events: rd.Dataset, *,
                        gap_us: int = SESSION_GAP_US) -> pa.Table:
    """Active-sessions-over-time curve: for every hour between the
    first session start and the last session end, how many sessions
    are ACTIVE (start_hour <= h <= end_hour) — the load curve a
    capacity plan reads, computed without interval self-joins.

    Shape: the verified sessionize pipeline emits per-session rows;
    a per-block pass reduces each session to two bounded-key deltas
    (+1 at its start hour, -1 just after its end hour); the driver
    folds O(blocks x hours) delta rows and one prefix sum yields the
    whole curve — the standard sweep-line, with the wide work all
    inside sessionize's one user sort.

    Output pa.Table (hour_us, n_active), one row per hour in range."""
    HOUR_US = 3_600_000_000

    def deltas(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"h": z, "d": z})
        sh = (df["start_ts"].astype("int64") // HOUR_US).to_numpy()
        eh = (df["end_ts"].astype("int64") // HOUR_US).to_numpy()
        d = pd.DataFrame({
            "h": np.concatenate([sh, eh + 1]),
            "d": np.concatenate([np.ones(len(sh), np.int64),
                                 -np.ones(len(eh), np.int64)]),
        })
        g = d.groupby("h", sort=False)["d"].sum().reset_index()
        return pa.table({
            "h": pa.array(g["h"].to_numpy(np.int64), pa.int64()),
            "d": pa.array(g["d"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[int, int] = {}
    sess = sessionize(events, gap_us=gap_us)
    for r in sess.map_batches(deltas, batch_format="pyarrow",
                              batch_size=None).take_all():
        acc[int(r["h"])] = acc.get(int(r["h"]), 0) + int(r["d"])
    if not acc:
        z = pa.array([], pa.int64())
        return pa.table({"hour_us": z, "n_active": z})
    hmin, hmax = min(acc), max(acc)  # hmax is last end hour + 1
    hours = np.arange(hmin, hmax, dtype=np.int64)
    dd = np.asarray([acc.get(int(h), 0) for h in hours], np.int64)
    active = np.cumsum(dd).astype(np.int64)
    return pa.table({
        "hour_us": pa.array(hours * HOUR_US, pa.int64()),
        "n_active": pa.array(active, pa.int64()),
    })


def velocity_stats(events: rd.Dataset, *,
                   window_us: int = 5 * 60 * 1_000_000) -> rd.Dataset:
    """Fraud-velocity screen: each user's MAXIMUM event count inside
    any trailing ``window_us`` window — the "too many actions too
    fast" rule every abuse system runs first.  Window semantics match
    SQL ``RANGE BETWEEN INTERVAL .. PRECEDING AND CURRENT ROW``
    exactly (inclusive lower bound, equal-timestamp peers counted
    together).

    Shape: ONE sort on user_id; per block a per-user searchsorted
    two-pointer (the inner counts are vectorized numpy per user; the
    user loop is the C-speed-inner-op pattern the postings build
    uses).

    Output: (user_id, n_events, max_window)."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "us": batch.column("ts").cast(pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "us"])
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"user_id": z, "n_events": z,
                             "max_window": z})
        u = df["user_id"].to_numpy(np.int64)
        t = df["us"].to_numpy(np.int64)
        starts = np.flatnonzero(np.concatenate(
            ([True], u[1:] != u[:-1])))
        bounds = np.concatenate((starts, [len(u)]))
        out_u, out_n, out_m = [], [], []
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            ts = t[lo:hi]
            # RANGE frame: peers with equal ts count together
            c = (np.searchsorted(ts, ts, side="right")
                 - np.searchsorted(ts, ts - window_us, side="left"))
            out_u.append(int(u[lo]))
            out_n.append(hi - lo)
            out_m.append(int(c.max()))
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "n_events": pa.array(out_n, pa.int64()),
            "max_window": pa.array(out_m, pa.int64()),
        })

    return (events.map_batches(project, batch_format="pyarrow")
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


def cohort_ltv(events: rd.Dataset) -> pa.Table:
    """Cohort LTV triangle: revenue (exact integer cents) each weekly
    cohort generates at each week offset from its first activity —
    the lifetime-value matrix a growth model is fit to, next to the
    user-count retention triangle (:func:`cohort_retention`).

    Same shape and week conventions as retention: batch-local
    (user, week, cents) partial sums pre-shuffle, ONE sort on user_id
    (a user's rows land whole per block; the per-user min week — the
    cohort — is block-local exact), weeks^2-bounded driver fold.

    Output pa.Table (cohort_week, week_offset, revenue_cents,
    n_active_users), sorted."""

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "week": batch.column("ts").cast(pa.int64()).to_numpy()
            // WEEK_US,
            "cents": _round_half_away(v * 100),
        })
        g = (df.groupby(["user_id", "week"], sort=False)["cents"]
             .sum().reset_index())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "week": pa.array(g["week"].to_numpy(np.int64),
                             pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(np.int64),
                              pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"cohort_week": z, "week_offset": z,
                             "cents": z, "n": z})
        df = (df.groupby(["user_id", "week"], sort=False)["cents"]
              .sum().reset_index())
        df["cohort_week"] = df.groupby("user_id")["week"] \
            .transform("min")
        df["week_offset"] = df["week"] - df["cohort_week"]
        g = (df.groupby(["cohort_week", "week_offset"], sort=False)
             .agg(cents=("cents", "sum"), n=("user_id", "nunique"))
             .reset_index())
        return pa.table({
            "cohort_week": pa.array(
                g["cohort_week"].to_numpy(np.int64), pa.int64()),
            "week_offset": pa.array(
                g["week_offset"].to_numpy(np.int64), pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(np.int64),
                              pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[tuple, list] = {}
    for r in (events.map_batches(partials, batch_format="pyarrow",
                                 batch_size=1 << 19)
              .sort("user_id")
              .map_batches(per_block, batch_format="pyarrow",
                           batch_size=None)
              .take_all()):
        a = acc.setdefault((r["cohort_week"], r["week_offset"]),
                           [0, 0])
        a[0] += int(r["cents"])
        a[1] += int(r["n"])
    keys = sorted(acc)
    return pa.table({
        "cohort_week": pa.array([c for c, _ in keys], pa.int64()),
        "week_offset": pa.array([o for _, o in keys], pa.int64()),
        "revenue_cents": pa.array([acc[k][0] for k in keys],
                                  pa.int64()),
        "n_active_users": pa.array([acc[k][1] for k in keys],
                                   pa.int64()),
    })


def l_diversity(events: rd.Dataset, *,
                l: int = 3,  # noqa: E741 - the metric's own name
                band_cents: int = 500) -> pa.Table:
    """l-diversity audit (Machanavajjhala et al. 2007), the
    k-anonymity companion: within each quasi-identifier group
    (hour-of-day, value band), how many DISTINCT sensitive values
    (``event_type``) appear — a group that is k-anonymous but
    l-homogeneous still leaks the sensitive attribute, so cells with
    fewer than ``l`` distinct types are flagged.

    Same bounded shape as :func:`k_anonymity`: per-block partial
    DISTINCT (hour, band, type) triples (the QI x sensitive space is
    bounded), driver fold of the distinct set + counts.

    Output pa.Table (hour, band, n, n_types, at_risk), sorted."""

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({
                "hour": z, "band": z,
                "event_type": pa.array([], pa.string()), "n": z})
        cents = _round_half_away(
            df["value"].to_numpy(np.float64) * 100)
        g = (pd.DataFrame({
            "hour": pd.to_datetime(df["ts"]).dt.hour
            .to_numpy().astype(np.int64),
            "band": np.floor(cents.astype(np.float64)
                             / band_cents).astype(np.int64),
            "event_type": df["event_type"],
            "n": np.int64(1),
        }).groupby(["hour", "band", "event_type"], sort=False)["n"]
            .sum().reset_index())
        return pa.table({
            "hour": pa.array(g["hour"].to_numpy(np.int64),
                             pa.int64()),
            "band": pa.array(g["band"].to_numpy(np.int64),
                             pa.int64()),
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[tuple, int] = {}
    for r in events.map_batches(partials, batch_format="pyarrow",
                                batch_size=1 << 19).take_all():
        k3 = (int(r["hour"]), int(r["band"]), r["event_type"])
        acc[k3] = acc.get(k3, 0) + int(r["n"])
    cells: dict[tuple, list] = {}
    for (h, b, _t), n in acc.items():
        c = cells.setdefault((h, b), [0, 0])
        c[0] += n
        c[1] += 1
    ks = sorted(cells)
    return pa.table({
        "hour": pa.array([h for h, _ in ks], pa.int64()),
        "band": pa.array([b for _, b in ks], pa.int64()),
        "n": pa.array([cells[k][0] for k in ks], pa.int64()),
        "n_types": pa.array([cells[k][1] for k in ks], pa.int64()),
        "at_risk": pa.array(
            [1 if cells[k][1] < l else 0 for k in ks], pa.int64()),
    })


def seasonal_backtest(events: rd.Dataset, *,
                      season_hours: int = 168) -> pa.Table:
    """Seasonal-naive forecast BACKTEST: predict each hour's event
    count per type with the same hour one season earlier (the
    week-ago-naive baseline every real forecast must beat), and
    report the exact integer error sums — the baseline row of a
    forecasting evaluation, with no model and no floats.

    The hour grid is DENSE per type (zero-count hours included —
    lag over existing rows only would skip gaps and misalign the
    season), bounded by hours x types, so per-block partial counts
    fold on the driver and the backtest walks the tiny grid there.

    Output pa.Table (event_type, n_hours, sum_actual, sum_abs_err),
    sorted — n_hours counts scored hours (those with a season-earlier
    reference inside the observed range)."""
    HOUR_US = 3_600_000_000

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "h": batch.column("ts").cast(pa.int64()).to_numpy()
            // HOUR_US,
        })
        g = (df.groupby(["event_type", "h"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "h": pa.array(g["h"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[tuple, int] = {}
    hmin, hmax = None, None
    for r in events.map_batches(partials, batch_format="pyarrow",
                                batch_size=1 << 19).take_all():
        k = (r["event_type"], int(r["h"]))
        acc[k] = acc.get(k, 0) + int(r["n"])
        hmin = k[1] if hmin is None else min(hmin, k[1])
        hmax = k[1] if hmax is None else max(hmax, k[1])
    if hmin is None:
        z = pa.array([], pa.int64())
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n_hours": z, "sum_actual": z,
                         "sum_abs_err": z})
    types = sorted({t for t, _ in acc})
    out_n, out_a, out_e = [], [], []
    for t in types:
        n_h = a_sum = e_sum = 0
        for h in range(hmin + season_hours, hmax + 1):
            actual = acc.get((t, h), 0)
            pred = acc.get((t, h - season_hours), 0)
            n_h += 1
            a_sum += actual
            e_sum += abs(actual - pred)
        out_n.append(n_h)
        out_a.append(a_sum)
        out_e.append(e_sum)
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "n_hours": pa.array(out_n, pa.int64()),
        "sum_actual": pa.array(out_a, pa.int64()),
        "sum_abs_err": pa.array(out_e, pa.int64()),
    })


def funnel3(events: rd.Dataset, *,
            steps: tuple[str, str, str] = ("view", "click",
                                           "purchase")) -> rd.Dataset:
    """Three-step strict-sequence funnel: per user, the earliest
    ``steps[0]``, then the earliest ``steps[1]`` STRICTLY after it,
    then the earliest ``steps[2]`` strictly after that — the N-step
    generalization of :func:`funnel_conversions` (no horizon; the
    reached-stage column is what a funnel chart plots).

    Total order (ts, event_id) on every min, so both engines agree on
    ties.  Shape: type filter pre-shuffle, ONE user sort, vectorized
    per-block pass (three grouped searchsorted-style mins).

    Output: (user_id, stage, t1_us, t2_us, t3_us) — stage in 1..3 for
    users who reached at least step 1; absent-step timestamps are 0."""

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(list(steps)))
        t = batch.filter(keep)
        kind = np.zeros(t.num_rows, np.int64)
        et = np.asarray(t.column("event_type").to_pylist(), object)
        for i, st in enumerate(steps):
            kind[et == st] = i
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "us": t.column("ts").cast(pa.int64()),
            "eid": t.column("event_id").cast(pa.int64()),
            "kind": pa.array(kind, pa.int64()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "us", "eid"])
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "stage": pa.array([], pa.int64()),
            "t1_us": pa.array([], pa.int64()),
            "t2_us": pa.array([], pa.int64()),
            "t3_us": pa.array([], pa.int64()),
        })
        if df.empty:
            return empty
        out_u, out_s, out_t = [], [], []
        u = df["user_id"].to_numpy(np.int64)
        t = df["us"].to_numpy(np.int64)
        k = df["kind"].to_numpy(np.int64)
        starts = np.flatnonzero(np.concatenate(
            ([True], u[1:] != u[:-1])))
        bounds = np.concatenate((starts, [len(u)]))
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            ts, ks = t[lo:hi], k[lo:hi]
            tt = [0, 0, 0]
            stage = 0
            after = -1
            for step in range(3):
                cand = np.flatnonzero((ks == step)
                                      & (ts > (tt[step - 1]
                                               if step else after)))
                if not len(cand):
                    break
                tt[step] = int(ts[cand[0]])
                stage = step + 1
            if stage:
                out_u.append(int(u[lo]))
                out_s.append(stage)
                out_t.append(tuple(tt))
        if not out_u:
            return empty
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "stage": pa.array(out_s, pa.int64()),
            "t1_us": pa.array([x[0] for x in out_t], pa.int64()),
            "t2_us": pa.array([x[1] for x in out_t], pa.int64()),
            "t3_us": pa.array([x[2] for x in out_t], pa.int64()),
        })

    return (events.map_batches(project, batch_format="pyarrow")
            .sort("user_id")
            .map_batches(per_block, batch_format="pyarrow",
                         batch_size=None))


def revenue_concentration(events: rd.Dataset) -> pa.Table:
    """Revenue concentration (the 80/20 check): the exact share of
    total revenue carried by the top decile of users — ranked by
    (total cents DESC, user_id ASC), top ``floor(n/10)`` users (>= 1)
    — the whale-dependence number a monetization review reads.

    Shape: per-user exact-cents totals via batch partials + ONE user
    sort + block completion (the established per-user aggregate), a
    count/total fold, then a RUNNING TOP-M selection over the
    streaming user-total rows (O(m) driver state, the dsir_select
    single-driver tree-fold degenerate — no global value sort).

    Output pa.Table, one row: (n_users, total_cents, top_users,
    top_cents, share_per_mille)."""

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "cents": _round_half_away(v * 100),
        })
        g = df.groupby("user_id", sort=False)["cents"] \
            .sum().reset_index()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(np.int64),
                              pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"user_id": z, "cents": z})
        g = df.groupby("user_id", sort=False)["cents"] \
            .sum().reset_index()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(np.int64),
                              pa.int64()),
        })

    totals = (events.map_batches(partials, batch_format="pyarrow",
                                 batch_size=1 << 19)
              .sort("user_id")
              .map_batches(complete, batch_format="pyarrow",
                           batch_size=None)
              .materialize())  # consumed twice (count + top-m)

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
