"""Arrow interop helpers shared by every pipeline.

The one rule enforced here: **no engine output block may carry pandas
schema metadata**.  ``pa.Table.from_pandas`` attaches a ``b'pandas'``
metadata blob recording the source frame's dtypes; when a column was a
pandas ``Int64`` extension array, a later ``Table.to_pandas()`` honours
that blob and reconstructs ``Int64`` instead of letting nulls degrade to
float64 the way a plain Arrow int64 column (and a DuckDB result frame)
does.  Two kernels computing byte-identical values then hash differently
purely because one was built via ``from_pandas`` and the other via
``pa.table`` — the round-3 `events_asof` red row was exactly this.

Routing every pandas→Arrow conversion through :func:`from_pandas_clean`
makes block representation a function of the VALUES alone, independent of
which construction path a kernel happened to use.

:func:`grouped_agg` is the engine's Arrow grouped aggregate, for the
combine and the per-block completion around a sort.

:func:`sorted_runs` is the one sorted-run scan kernel: a table sorted on
its keys and an order, and a bool mask of each key run's first row.
The run ops scan within those runs: :func:`run_id`, :func:`run_pos`,
:func:`run_first`, :func:`run_lag`, :func:`run_cumsum` and
:func:`run_cummax` (exact on any int64, no sentinel).  A per-key,
time-ordered scan (sessions, islands, as-of carries, lags, running
totals and maxima) is one :func:`sorted_runs` plus run ops, as the
events family's completions are.

:func:`grouped_topk` is the top-k twin of :func:`grouped_agg`: the ``k``
best rows per key under a caller-stated total order, optionally ranked,
cut from :func:`sorted_runs` by :func:`run_pos`.  Every top-k in
the engine is one call to it: a scoring UDF cuts its own block with it
before the exchange, and :func:`topk_complete` finishes the job, through
:func:`keyed_complete` when there are keys and as a running driver fold
when there are none.

:func:`keyed_complete` is the engine's one keyed wide operator: "sort on
the keys, then complete each sorted block", with an optional batch-local
combine before it.  It picks its own path: at most :data:`FOLD_MAX_BYTES`
to sort folds on the driver, with no Sort; more takes
:func:`keyed_exchange`, which a pair or wedge enumeration calls itself.
:func:`driver_table` makes the choice, logs it through the engine's one
logger, ``logging.getLogger("ray_kg")``, and reads the one cap when it
is called, so a test that forces a path patches ``FOLD_MAX_BYTES`` here
and nowhere else.

:func:`attach_state` is the one vertex-round exchange: each edge row
meets its node's state row in one :func:`keyed_complete` on ``node``,
and the caller's ``emit`` turns them into messages that the caller
folds per receiver.  Connected components (``dedup.dup_clusters``),
pagerank and label propagation run their exchange rounds through it.

:func:`agg_fold` is the one keyed driver fold: a running
:func:`grouped_agg` over a Dataset's blocks whose accumulator is checked
against :data:`FOLD_MAX_BYTES`, for results that are bounded by a
lexicon rather than by the corpus (per-entity counts, a type matrix, a
vocabulary).

:func:`sorted_codes` is the one sorted dense string coding: int64 codes
whose order is the strings' binary order.  Triple emission, the graph
family and the KG component/triangle queries share it.

:func:`triu_pairs` is the vectorized all-pairs-within-a-run index
kernel that triple emission and every graph wedge enumeration share.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: the engine's one logger: path choices and their reasons
LOG = logging.getLogger("ray_kg")

#: the one fold-or-exchange cap for :func:`driver_table`, shared by
#: the KG build and the graph family: a materialized input of at most
#: this many bytes folds on the driver, with no Sort.  Fold vs Sort
#: path, emit_triples + canonical_entities, 4 CPUs: 0.03-0.05 vs
#: 0.17-0.18 s at 0.8-1.2 MB linked (kgbench shapes, sf0.01), 0.09 vs
#: 0.27 s at 8 MB (sf0.1), 0.23 vs 0.52 s at 25 MB, 0.75 vs 1.63 s at
#: 82 MB (sf1; driver RSS +415 MB).  No crossover on 4 CPUs; with 8x
#: the CPUs the Sort path's 19 ms/MB would meet the fold's 9 ms/MB near
#: 25-30 MB, hence 32 MiB.
FOLD_MAX_BYTES = 32 << 20

#: :func:`keyed_complete`'s combine width: one combine call sees up to
#: this many rows, merging many upstream blocks, which shrinks what the
#: Sort moves
COMBINE_BATCH = 1 << 19

#: :func:`keyed_complete`'s exchange block target.  Ray's range Sort
#: schedules O(in_blocks x out_blocks) tasks, so an input over-sharded
#: by its read pays seconds of scheduling to sort megabytes (a 9 MB /
#: 260k-row postings sort: 1.55 s at 64 blocks, 0.21 s at 32).  The
#: exchange coalesces to ``ceil(bytes / SORT_BLOCK_BYTES)`` blocks,
#: floored at the cluster's CPU count and never above the input's own.
SORT_BLOCK_BYTES = 64 << 20


def from_pandas_clean(df: "pd.DataFrame", **kwargs) -> pa.Table:
    """``pa.Table.from_pandas`` with pandas schema metadata stripped.

    Defaults ``preserve_index=False`` (the engine never emits frame
    indexes as columns).  The returned table's ``schema.metadata`` is
    ``None`` so ``to_pandas()`` round-trips use plain Arrow dtype rules
    — nullable int64 degrades to float64 exactly like a DuckDB result.
    """
    kwargs.setdefault("preserve_index", False)
    return pa.Table.from_pandas(df, **kwargs).replace_schema_metadata(None)


def grouped_agg(table: pa.Table, keys: list[str],
                aggs: list[tuple[str, str]]) -> pa.Table:
    """One grouped aggregate over an Arrow table: ``keys`` then one
    column per ``(column, func)`` in ``aggs``, named after ``column``
    (no ``_sum``/``_min`` suffix), so the output of a partial-row input
    has the input's own schema and the call can run again on it.

    ``func`` must be order-free (sum, min, max, count): the engine
    calls this batch-locally before a sort and per sorted block after
    it, and any block split must give the same answer.  Strings
    compare in binary (code point) order, as Python and DuckDB do.
    ``use_threads=False`` keeps the output row order a function of the
    input alone.

    Null-key rule: rows with a null in any key column are dropped, as
    pandas ``groupby(dropna=True)`` drops them; Arrow alone would keep
    them as a group."""
    out = (_drop_null_keys(table, keys)
           .group_by(keys, use_threads=False).aggregate(aggs))
    return pa.table([out.column(k) for k in keys]
                    + [out.column(f"{c}_{f}") for c, f in aggs],
                    names=list(keys) + [c for c, _ in aggs])


def _drop_null_keys(table: pa.Table, keys: list[str]) -> pa.Table:
    valid = [pc.is_valid(table.column(k)) for k in keys
             if table.column(k).null_count]
    if valid:
        table = table.filter(functools.reduce(pc.and_, valid))
    return table


def grouped_topk(table: pa.Table, keys: list[str],
                 order: list[tuple[str, str]], k: int, *,
                 rank: str | None = None) -> pa.Table:
    """The first ``k`` rows of each ``keys`` group under ``order``, a
    list of ``(column, "ascending"|"descending")`` that the caller makes
    total (score, then id), so the cut at the k-th row never depends on
    input order and per-block cuts merge: the k best of a union are
    among the k best of each part.  Descending is a sort direction, not
    a negated column, so an INT64_MIN score cannot wrap.  Floats sort
    as Arrow sorts them: ``-0.0 == 0.0`` (the next order column
    decides), NaN after every number in either direction.

    One :func:`sorted_runs`; each key run is then cut at ``k`` by
    :func:`run_pos`.  ``rank``, when given, names a
    1-based int64 rank column appended to the output.  Output rows are
    in sort order, with the input's columns and types.

    Null-key rule: as in :func:`grouped_agg`, rows with a null in any
    key column are dropped (pandas ``groupby(...).head`` and
    ``cumcount`` drop them too)."""
    table, start = sorted_runs(table, keys, order)
    pos = run_pos(start)
    keep = pos < k
    out = table.filter(pa.array(keep)) if not keep.all() else table
    if rank is not None:
        out = out.append_column(rank, pa.array(pos[keep] + 1, pa.int64()))
    return out


def sorted_runs(table: pa.Table, keys: list[str],
                order: list[tuple[str, str]] = ()
                ) -> tuple[pa.Table, np.ndarray]:
    """``table`` sorted on ``keys`` (ascending) then ``order`` (a list of
    ``(column, "ascending"|"descending")``), and a bool array ``start``
    marking the first row of each ``keys`` run: the one sorted-run scan
    kernel.  The ``run_*`` ops below scan within the runs it marks.
    With no ``keys`` the whole table is one run.

    Null-key rule: as in :func:`grouped_agg`, rows with a null in any
    key column are dropped."""
    table = _drop_null_keys(table, keys).sort_by(
        [(c, "ascending") for c in keys] + list(order))
    n = table.num_rows
    start = np.arange(n) == 0
    if n and keys:
        start[1:] = functools.reduce(np.logical_or, [
            pc.not_equal(table.column(c).slice(1),
                         table.column(c).slice(0, n - 1))
            .to_numpy(zero_copy_only=False) for c in keys])
    return table, start


def run_id(start: np.ndarray) -> np.ndarray:
    """The 0-based run number of each row."""
    return np.cumsum(start, dtype=np.int64) - 1


def run_pos(start: np.ndarray) -> np.ndarray:
    """The 0-based position of each row within its run."""
    pos = np.arange(len(start), dtype=np.int64)
    return pos - np.maximum.accumulate(np.where(start, pos, 0))


def run_first(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's run's first value."""
    return values[np.flatnonzero(start)][run_id(start)]


def run_lag(start: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """The previous row's value within the run; ``fill`` at run starts."""
    out = np.roll(values, 1)
    out[start] = fill
    return out


def run_cumsum(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The running sum of ``values`` within each run (int64 wraps as
    numpy's does, and the reset subtracts exactly)."""
    c = np.cumsum(values)
    return c - (c - values)[np.flatnonzero(start)][run_id(start)]


def run_cummax(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The running max of ``values`` within each run, exact on any int64
    (no sentinel, nothing negated): one ``maximum.accumulate`` over
    ``run_id * m + rank(value)``, ``m`` the number of distinct values, so
    a later run always outranks an earlier one and the max resets."""
    u, rank = np.unique(values, return_inverse=True)
    base = run_id(start) * len(u)
    return u[np.maximum.accumulate(base + rank.reshape(-1)) - base]


def topk_complete(ds, keys: list[str], order: list[tuple[str, str]],
                  k: int, *, rank: str | None = None,
                  empty: pa.Table | None = None):
    """Finish a top-k over a Dataset whose blocks each scoring UDF has
    already cut with :func:`grouped_topk`.

    With ``keys``: :func:`keyed_complete` with :func:`grouped_topk` as
    the completion.  Equal keys complete in one block (or in the one
    driver table), so the cut is final.  Returns a Dataset.

    Without keys: a running driver fold over ``iter_batches``
    (:func:`_running_fold`, shared with :func:`agg_fold`),
    ``acc = grouped_topk(concat([acc, block]), [], order, k)``, which
    holds at most ``k`` rows plus one block and runs no exchange (the
    single-driver degenerate of a tree fold).  Returns a ``pa.Table``;
    an input with no rows gives an empty one with the input's schema,
    or with ``empty``'s (the scoring UDF's empty output) when no UDF
    ever ran and Ray has no schema to give; ValueError when there is
    neither, as in :func:`agg_fold`.
    """
    if keys:
        return keyed_complete(ds, keys, functools.partial(
            grouped_topk, keys=list(keys), order=list(order), k=k,
            rank=rank), op="topk_complete")
    acc = _running_fold(
        ds, lambda t: grouped_topk(t, [], order, k), "topk_complete",
        empty)
    return grouped_topk(acc, [], order, k, rank=rank)


def _running_fold(ds, step, op: str,
                  empty: pa.Table | None = None) -> pa.Table:
    """``acc = step(concat([acc, block]))`` over every non-empty block of
    ``ds``, on the driver, with no exchange: the single-driver degenerate
    of a tree fold, shared by :func:`topk_complete` and :func:`agg_fold`.
    ``step`` must be order-free and idempotent, so any block split gives
    the same answer.  An input with no rows gives ``step`` of its
    schema's empty table, or of ``empty`` when it has no schema (a map
    over no rows has none: no UDF ever ran to give one), cut to no rows;
    with neither it raises ValueError."""
    acc = None
    for blk in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if blk.num_rows:  # a Sort's empty blocks carry no schema
            acc = step(blk if acc is None else pa.concat_tables(
                [acc, blk], promote_options="permissive"))
    if acc is None:
        schema = ds.schema()
        if schema is not None:
            empty = schema.base_schema.empty_table()
        elif empty is None:
            raise ValueError(f"{op}: the input has no rows and no schema "
                             "to build an empty result from")
        acc = step(empty).slice(0, 0)
    return acc


def agg_fold(ds, keys: list[str], aggs: list[tuple[str, str]], *,
             op: str, empty: pa.Table | None = None) -> pa.Table:
    """:func:`grouped_agg` of every row of ``ds``, as one driver table
    sorted by ``keys``: a running fold ``acc = grouped_agg(concat([acc,
    block]), keys, aggs)`` over ``iter_batches``, so the driver holds
    the accumulator plus one block and no exchange runs.  Blocks are
    partial rows (``keys`` plus one column per ``aggs`` entry, with
    order-free funcs), as for :func:`grouped_agg`; ``aggs=[]`` gives the
    distinct ``keys`` rows and ``keys=[]`` one global row.

    The fold is for results bounded by a lexicon, not by the corpus.
    That bound is checked: when a keyed accumulator grows past
    :data:`FOLD_MAX_BYTES` the fold raises ValueError naming ``op``, the
    size and the cap, so the driver never holds an unbounded fold.  A
    keyless fold holds one row, so it has nothing to check.  An
    input with no rows gives a typed empty table: from its schema, or
    from ``empty`` (the partial rows' empty table) when a map over no
    rows left it none; ValueError when there is neither.

    Null-key rule: as in :func:`grouped_agg`, rows with a null in any
    key column are dropped."""

    def step(t: pa.Table) -> pa.Table:
        acc = grouped_agg(t, keys, aggs)
        if keys and acc.nbytes > FOLD_MAX_BYTES:
            raise ValueError(
                f"{op}: the driver fold holds {acc.nbytes} bytes, above "
                f"the cap FOLD_MAX_BYTES={FOLD_MAX_BYTES}")
        return acc

    acc = _running_fold(ds, step, op, empty)
    return acc.sort_by([(c, "ascending") for c in keys]) if keys else acc


def driver_table(ds, *, op: str = "",
                 empty: pa.Table | None = None) -> pa.Table | None:
    """Every row of ``ds`` as one driver-side table, or None.

    The rows come back only when ``ds`` is a ``MaterializedDataset`` of
    at most :data:`FOLD_MAX_BYTES` (``size_bytes()``, Ray's
    block-metadata sum, so choosing runs nothing); the caller then folds
    them with its own kernels and skips the exchange.  A lazy input or
    one above the cap gives None and the caller runs its exchange path,
    so nothing is executed just to choose.  A materialized input with no
    rows gives its schema's empty table on any cap, so the fold returns
    a typed empty result; with no schema (a map over no rows has none)
    it gives ``empty``, the caller's typed empty input, or None when
    there is none.  Blocks are fetched with
    ``ray.get(ds.to_arrow_refs())`` and joined with
    ``concat_tables(promote_options="default")``.

    Null-key rule: the table holds every row, null keys included, and
    the fold sees exactly the rows its exchange path would; the kernels
    decide.  ``grouped_agg`` and ``grouped_topk`` drop a row with a null
    key, pandas ``drop_duplicates`` keeps it.

    Logs one line per call through ``LOG``: ``op``, the path (``fold``
    or ``exchange``), the size estimate and the cap."""
    import ray
    from ray.data.dataset import MaterializedDataset

    size = ds.size_bytes() if isinstance(ds, MaterializedDataset) else None
    rows = None if size is None else ds.count()
    schema = ds.schema() if rows == 0 else None
    if schema is not None and isinstance(schema.base_schema, pa.Schema):
        empty = schema.base_schema.empty_table()
    elif rows != 0:
        empty = None
    fold = empty is not None or bool(rows) and size <= FOLD_MAX_BYTES
    LOG.info("%s: %s (size_bytes=%s, cap=%d)", op or "driver_table",
             "fold" if fold else "exchange",
             "lazy" if size is None else size, FOLD_MAX_BYTES)
    if not fold:
        return None
    if empty is not None:
        return empty
    return pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")


def keyed_complete(ds, keys: list[str], complete, *, combine=None,
                   op: str):
    """Sort ``ds`` on ``keys``, then run ``complete`` on each sorted
    block: the engine's one keyed wide operator.  ``complete`` (and
    ``combine``, when given) maps an Arrow table to an Arrow table.
    Returns a Dataset.

    The input is materialized, a lazy one after ``combine`` per batch
    of :data:`COMBINE_BATCH` rows, then :func:`driver_table` picks the
    path and logs it under ``op``:

    - fold, at or below :data:`FOLD_MAX_BYTES`: ``complete(t.sort_by(
      keys))`` once on the driver, where ``t`` is the table, after
      ``combine`` if it has not run.  One block, no Ray Data execution.
    - exchange, above the cap: :func:`keyed_exchange`.

    ``complete`` must give the same rows for the whole sorted table as
    for any split of it into blocks of whole keys, and ``combine`` must
    be a partial step that ``complete`` finishes (batch-local, so it
    may run once or not at all per row group).  An input with no rows
    and a schema folds on any cap, so ``combine`` and ``complete`` see
    a typed empty table; a map over no rows has no schema and takes
    the exchange on any cap.

    The cap bounds what a fold reads, not what it builds: a completion
    whose output can outgrow its input (a pair or wedge enumeration)
    calls :func:`keyed_exchange` and keeps its parallel block tasks.

    Null-key rule: Arrow ``sort_by`` puts a row with a null key last;
    the Ray Sort puts it wherever it does (Ray 2.49's range partitioner
    raises TypeError on a null in a string key).  The completion
    decides what such a row counts toward, as :func:`grouped_agg` and
    :func:`grouped_topk` do (they drop it)."""
    import ray.data as rd

    m, combine = _materialized(ds, combine)
    tbl = driver_table(m, op=op)
    if tbl is None:
        return keyed_exchange(m, keys, complete, combine=combine)
    t = combine(tbl) if combine is not None else tbl
    return rd.from_arrow(complete(
        t.sort_by([(k, "ascending") for k in keys])))


def keyed_exchange(ds, keys: list[str], complete, *, combine=None):
    """:func:`keyed_complete`'s exchange, on any input size: ``combine``
    as there, the materialized input coalesced to :data:`SORT_BLOCK_BYTES`
    blocks (no fewer than the CPUs, no more than it has), one Sort on
    ``keys`` (Ray's range partitioner keeps equal keys in one block),
    then ``complete`` per block.  Fed by a lazy map, a union -> Sort
    stalled about 10 s under a 768 MiB object store against 0.4 s
    materialized (kg_dense, 1.3M wedge-pair rows, 47 MB)."""
    import ray

    m, combine = _materialized(ds, combine)
    nb = m.num_blocks()
    want = min(nb, max(-(-m.size_bytes() // SORT_BLOCK_BYTES),
                       int(ray.cluster_resources().get("CPU", 1))))
    if want < nb:
        m = m.repartition(want)
    if combine is not None:
        m = m.map_batches(combine, batch_format="pyarrow",
                          batch_size=COMBINE_BATCH)
    return m.sort(list(keys)).map_batches(
        complete, batch_format="pyarrow", batch_size=None)


def _materialized(ds, combine):
    """``ds`` materialized (a lazy one after ``combine``), and the
    combine still to run."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        return ds, combine
    if combine is not None:
        ds = ds.map_batches(combine, batch_format="pyarrow",
                            batch_size=COMBINE_BATCH)
    return ds.materialize(), None


def attach_state(state, edges, emit, *, op: str):
    """One vertex round's exchange: every ``edges`` row meets the state
    row of its ``node``, and ``emit`` turns them into messages.  Returns
    the message Dataset, which the caller folds per receiver with its
    own :func:`keyed_complete`.

    ``state`` is a materialized Dataset of one row per ``node`` plus
    value columns; ``edges`` is a Dataset of (``node``, ``dst``) rows
    of the node's type.  Both are padded with typed nulls to one union,
    tagged by an ``_edge`` flag, that goes through one
    :func:`keyed_complete` on ``node``, so a round under the cap folds
    on its own.  Per sorted block, the completion splits the state rows
    from the edge rows, attaches each edge to its node's state row
    (``index_in``: node ids are unique among a block's state rows; an
    edge whose node has no state row is dropped), and returns
    ``emit(state_rows, attached_edges)``: the state rows as given, and
    the (node, dst) edge rows with the state's value columns appended.
    ``emit`` must give the same messages for any split of the nodes
    into blocks."""
    schema = state.schema().base_schema
    vals = [f for f in schema if f.name != "node"]
    node_type = schema.field("node").type

    def pad(batch: pa.Table, edge: bool) -> pa.Table:
        n = batch.num_rows
        cols = {"node": batch.column("node")}
        for f in vals:
            cols[f.name] = pa.nulls(n, f.type) if edge else batch.column(
                f.name)
        cols["dst"] = batch.column("dst") if edge else pa.nulls(n, node_type)
        cols["_edge"] = pa.array(np.full(n, edge))
        return pa.table(cols)

    def complete(t: pa.Table) -> pa.Table:
        edge = t.column("_edge")
        s = t.filter(pc.invert(edge)).select(["node"] + [f.name for f in vals])
        e = t.filter(edge).select(["node", "dst"])
        pos = pc.index_in(e.column("node"), value_set=s.column("node"))
        if pos.null_count:
            e, pos = e.filter(pc.is_valid(pos)), pos.drop_null()
        for f in vals:
            e = e.append_column(f.name, s.column(f.name).take(pos))
        return emit(s, e)

    return keyed_complete(
        state.map_batches(pad, fn_args=(False,), batch_format="pyarrow",
                          batch_size=None)
        .union(edges.map_batches(pad, fn_args=(True,),
                                 batch_format="pyarrow", batch_size=None)),
        ["node"], complete, op=op)


def sorted_codes(*cols) -> tuple[pa.Array, list[np.ndarray]]:
    """The sorted distinct values of ``cols`` (ChunkedArrays of one
    type) and each column's int64 codes into them.  Values sort in
    binary order, which is Python's and DuckDB's string order, so code
    order is value order.  A null value gets no code (``index_in`` gives
    null); callers drop null rows first."""
    values = pc.unique(pa.chunked_array(
        [ch for c in cols for ch in c.chunks], cols[0].type))
    values = values.take(pc.sort_indices(values))
    return values, [pc.index_in(c, value_set=values)
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                    for c in cols]


def triu_pairs(starts: np.ndarray, counts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """All (i<j) index pairs within each [start, start+count) run of a
    sorted array.  Vectorized per distinct run length (lengths are few
    next to the runs)."""
    I, J = [], []
    for c in np.unique(counts):
        c = int(c)
        if c < 2:
            continue
        ii, jj = np.triu_indices(c, k=1)
        s = starts[counts == c]
        I.append((s[:, None] + ii[None, :]).ravel())
        J.append((s[:, None] + jj[None, :]).ravel())
    if not I:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(I), np.concatenate(J)
