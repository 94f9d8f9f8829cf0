"""The flagship KG-construction pipeline (SURVEY.md §7.1).

    turns ──map_batches(MentionTagger task map, emit="linked")──▶ linked mentions
          ──dedup+salt combiner ➜ sort(bucket) ➜ vectorized block pairs──▶ evidence rows
          ──grouped_agg ➜ sort(subj,pred,obj) ➜ grouped_agg──▶ deduped edge table
    linked mentions ──grouped_agg ➜ sort(entity_id) ➜ grouped_agg + finalize──▶ entity table

A materialized linked table of at most ``FOLD_MAX_BYTES`` folds on the
driver (``arrowutil.driver_table``): the same kernels, once, no Sort.
Above the cap, or for a lazy input, the shuffle inventory (SURVEY.md
§7.4) holds — every wide op is the same shape:
batch-local COMBINE (shrinks what moves), one SORT on a high-cardinality
key (Ray's range partitioner keeps equal keys whole in one block), then
a per-block pass that completes the aggregation.  For the triple dedup
and the entity counts both passes are one Arrow hash aggregate,
``arrowutil.grouped_agg`` (:func:`_combine_sort_combine`).  No
map_groups / Aggregate operators anywhere: per-group and per-key
machinery serializes at high group counts, and sorting a
LOW-cardinality key degenerates the range partitioner (empty partitions
plus mega-partitions) — both measured failure modes, see emit_triples.

  #1 triple emission sorts on the *salted* bucket key
     ``(hash(conv_id) + turn_idx // salt_span) % 65536`` —
     mega-conversations split across their turn spans; adjacency needs
     only ±1 turn of context, so a span-boundary turn adds a ghost copy
     to the previous span's bucket (a read-only `follows` target),
     keeping salted output byte-identical to unsalted.
  #2 triple dedup sorts (subj, pred, obj) over pre-combined partials —
     the all-to-all moves candidate triples, not mention rows.
  #3 entity canonicalization sorts entity_id over pre-combined counts.

Mention rows never take part in a wide shuffle, and never leave the
task that found them before they are linked: each tagger task tags a
whole Arrow batch and links its mentions in place (``emit="linked"``),
so there is one mention operator, not a tagger feeding a linker.  The
tagger runs as a stateless task map over a per-process stage cache
(``stages/stage_map.py``), so no stage reserves CPUs and nothing sizes a
pool.

Downstream analytics chained off the flagship tables:
`association_stats` (integer PMI numerators per co-occurring pair),
plus `graph.pagerank` / `graph.triangle_counts` over the edge table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.arrowutil import (
    FOLD_MAX_BYTES, driver_table, from_pandas_clean, grouped_agg,
    triu_pairs)

import ray.data as rd


from clinicaltransformerner_ray.sources.turns import load_alias_rows, read_turns
from clinicaltransformerner_ray.stages.linker import EntityLinker
from clinicaltransformerner_ray.stages.stage_map import map_stage
from clinicaltransformerner_ray.stages.tagger import MentionTagger

CO_OCCURS = "co_occurs"
FOLLOWS = "follows"

#: max turns per triple-emission group; a conversation longer than this is
#: split into salted buckets with 1-turn ghost overlap (skew guard)
DEFAULT_SALT_SPAN = 512


def detect_mentions(
    turns: rd.Dataset,
    alias_rows: list[dict],
    *,
    max_seq_length: int = 64,
    noise_mod: int = 5,
    batch_size: int = 1024,
    decode: str = "argmax",
    quarantine_dir: str | None = None,
    model_dir: str | None = None,
    num_gpus: float = 0.0,
    emit: str = "mentions",
) -> rd.Dataset:
    """turns -> mentions via the MentionTagger task map
    (:func:`~clinicaltransformerner_ray.stages.stage_map.map_stage`): the
    tagger is built once per worker process from alias rows shipped once
    through a ray.put ref.  ``decode="crf"`` selects the Viterbi route
    (reference --use_crf).  ``quarantine_dir`` makes each task write the
    turns it failed on (keys + error) as a parquet side table; failures
    always WARN-log regardless.  ``emit="linked"`` links the mentions in
    the same task (adds ``entity_id``), ``emit="labels"`` gives per-turn
    BIO labels instead.

    ``model_dir`` selects the real-checkpoint scorer (import-guarded
    torch/transformers, loaded once per worker process); pair it with
    ``num_gpus`` (e.g. 1.0, or 0.25 to pack 4 tasks per device) so Ray
    schedules each tagger task onto a GPU."""
    return map_stage(turns, MentionTagger, {
        "alias_rows": alias_rows,
        "max_seq_length": max_seq_length,
        "noise_mod": noise_mod,
        "decode": decode,
        "quarantine_dir": quarantine_dir,
        "model_dir": model_dir,
        "emit": emit,
    }, batch_size=batch_size, num_gpus=num_gpus)


def tag_turn_labels(turns: rd.Dataset, alias_rows: list[dict],
                    **kw) -> rd.Dataset:
    """Training-data assembly surface (T6): per-turn
    ``(conv_id, turn_idx, tokens, labels)`` rows straight off the tagger
    — the same windowed decode as :func:`detect_mentions` with the span
    projection skipped, so corpus labeling is ONE map pass with zero
    wide ops (vs mention detection + a union/sort re-join through
    ``labels_from_mentions``)."""
    return detect_mentions(turns, alias_rows, emit="labels", **kw)


def detect_mentions_biaffine(
    turns: rd.Dataset,
    alias_rows: list[dict],
    *,
    max_sub_len: int = 2048,
    batch_size: int = 512,
) -> rd.Dataset:
    """turns -> mentions via the biaffine span-grid task map (the
    reference's second model family; stages/biaffine.py).  Same output
    schema as detect_mentions, so the whole KG suffix composes
    unchanged.  Smaller batch_size: the O(L^2 x C) grids live per
    sentence inside the task and long turns make them large."""
    from clinicaltransformerner_ray.stages.biaffine import BiaffineTagger

    return map_stage(turns, BiaffineTagger,
                     {"alias_rows": alias_rows, "max_sub_len": max_sub_len},
                     batch_size=batch_size)


def link_mentions(
    mentions: rd.Dataset,
    alias_rows: list[dict],
    *,
    batch_size: int = 8192,
) -> rd.Dataset:
    """mentions -> linked mentions via an EntityLinker task map.  No
    engine route calls this: the flagship links inside the tagger
    (``detect_mentions(..., emit="linked")``).  It is kept as the
    benchmark's separately traced linker layer."""
    return map_stage(mentions, EntityLinker, {"alias_rows": alias_rows},
                     batch_size=batch_size)


#: combiner coalescing width: map_batches with a large batch_size merges
#: many upstream blocks per combine call, shrinking what the sort moves
COMBINE_BATCH = 1 << 19

#: output chunk for the turn-entity combiner: wide COMBINE input (good
#: dedup) but many small output blocks (good sort/pair parallelism)
TE_OUTPUT_CHUNK = 1 << 16


def _combine_sort_combine(
    ds: rd.Dataset, keys: list[str], aggs: list[tuple[str, str]], *,
    sort_keys: list[str] | None = None, finalize=None,
) -> rd.Dataset:
    """The engine's grouped-aggregation shape over partial rows (``keys``
    plus one column per ``aggs`` entry): one Arrow hash aggregate
    (:func:`arrowutil.grouped_agg`) runs (1) batch-locally over
    coalesced batches before the shuffle, then (2) on each sorted block
    after it.  Ray's range partitioner keeps equal ``sort_keys`` (a
    prefix of ``keys``; all of them by default) in one block, so step 2
    completes the aggregation; ``finalize`` then reshapes each
    completed block.  No per-group invocation and no Aggregate operator
    (whose per-key machinery dominates at high key counts)."""

    def combine(batch: pa.Table) -> pa.Table:
        return grouped_agg(batch, keys, aggs)

    def complete(batch: pa.Table) -> pa.Table:
        out = grouped_agg(batch, keys, aggs)
        return finalize(out) if finalize else out

    partials = ds.map_batches(
        combine, batch_format="pyarrow", batch_size=COMBINE_BATCH)
    return partials.sort(sort_keys or keys).map_batches(
        complete, batch_format="pyarrow", batch_size=None)


def _with_ones(batch: pa.Table, cols: list[str], name: str) -> pa.Table:
    """``batch[cols]`` plus an int64 column of ones: one partial row per
    input row, ready for a summing :func:`_combine_sort_combine`."""
    return batch.select(cols).append_column(
        name, pa.array(np.ones(batch.num_rows, np.int64)))


def _entity_finalize(g: pa.Table) -> pa.Table:
    """Entity rows from complete (entity_id, type, surface_norm, pn)
    counts: sum each (entity_id, type), count its surfaces, and pick the
    entity's canonical surface, the first of its rows by count
    descending, then surface ascending."""
    tot = grouped_agg(g, ["entity_id", "type"],
                      [("pn", "sum"), ("surface_norm", "count")])
    top = g.sort_by([("entity_id", "ascending"), ("pn", "descending"),
                     ("surface_norm", "ascending")]
                    ).group_by("entity_id", use_threads=False
                               ).aggregate([("surface_norm", "first")])
    canon = top.column("surface_norm_first").take(pc.index_in(
        tot.column("entity_id"),
        value_set=top.column("entity_id").combine_chunks()))
    return pa.table({
        "entity_id": tot.column("entity_id"),
        "type": tot.column("type"),
        "canonical_surface": canon,
        "n_mentions": tot.column("pn"),
        "n_surfaces": tot.column("surface_norm"),
    })


def canonical_entities(linked: rd.Dataset) -> rd.Dataset:
    """Canonicalization: (entity_id, type, surface_norm) mention counts
    through the grouped-aggregation shape, sorted on entity_id alone so
    an entity's surfaces complete in one block, then
    :func:`_entity_finalize` per block.  An entity seen with two types
    gives one row per type, each carrying that one canonical surface.
    Under ``FOLD_MAX_BYTES`` both kernels run once, on the driver."""
    keys, aggs = ["entity_id", "type", "surface_norm"], [("pn", "sum")]
    tbl = driver_table(linked, FOLD_MAX_BYTES, op="canonical_entities")
    if tbl is not None:
        return rd.from_arrow(_entity_finalize(
            grouped_agg(_with_ones(tbl, keys, "pn"), keys, aggs)))
    return _combine_sort_combine(
        linked.map_batches(_with_ones, fn_args=(keys, "pn"),
                           batch_format="pyarrow"),
        keys, aggs, sort_keys=["entity_id"], finalize=_entity_finalize)


def mention_counts(mentions: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, surface_norm, type) -> n_mentions via the
    combine/sort/combine aggregation shape, or one driver-side
    ``grouped_agg`` for a materialized input under ``FOLD_MAX_BYTES``."""
    keys = ["conv_id", "turn_idx", "surface_norm", "type"]
    aggs = [("n_mentions", "sum")]
    tbl = driver_table(mentions, FOLD_MAX_BYTES, op="mention_counts")
    if tbl is not None:
        return rd.from_arrow(
            grouped_agg(_with_ones(tbl, keys, "n_mentions"), keys, aggs))
    return _combine_sort_combine(
        mentions.map_batches(_with_ones, fn_args=(keys, "n_mentions"),
                             batch_format="pyarrow"),
        keys, aggs)


def _bucketed_turn_entities(
    linked: rd.Dataset, span: int, n_buckets: int
) -> rd.Dataset:
    """Batch-local distinct (combiner — idempotent, so block alignment is
    irrelevant) of (conv_id, turn_idx, entity_id), tagged with a coarse
    bucket key ``(hash(conv_id) + turn_idx // span) % n_buckets``.

    Skew salting: a mega-conversation spreads across its turn spans, so
    no single bucket inherits a whole hot conv_id.  Turns at a span
    boundary also emit a ghost copy into the *previous* span's bucket
    (right-side-only `follows` targets), keeping salted output identical
    to unsalted."""

    def dedup_and_bucket(batch: pa.Table) -> pa.Table:
        df = batch.select(["conv_id", "turn_idx", "entity_id"]).to_pandas()
        df = df.drop_duplicates()
        # ALL bucket arithmetic stays in uint64: h is uint64 and numpy
        # promotes uint64 + int64 to float64, which absorbs the span
        # offset for ~all hashes (salting silently a no-op) and can
        # round a ghost into the wrong bucket.  uint64 wraparound is
        # harmless because n_buckets divides 2**64.
        nb = np.uint64(n_buckets)
        h = pd.util.hash_pandas_object(df["conv_id"], index=False).to_numpy()
        spans = (df["turn_idx"] // span).to_numpy().astype(np.uint64)
        df["ghost"] = False
        df["bucket"] = ((h + spans) % nb).astype(np.int64)
        border_mask = (df["turn_idx"] % span == 0) & (df["turn_idx"] > 0)
        border = df[border_mask].copy()
        border["ghost"] = True
        # same uint64 expression evaluated at span-1, so the ghost lands
        # in exactly the bucket the previous span's turns computed
        border["bucket"] = (
            (h[border_mask.to_numpy()] + spans[border_mask.to_numpy()]
             - np.uint64(1)) % nb
        ).astype(np.int64)
        out = pd.concat([df, border], ignore_index=True)
        tbl = from_pandas_clean(out, preserve_index=False)
        # yield in chunks: the downstream sort emits one output
        # partition per INPUT block, and block_pairs' heavy merges run
        # one task per sorted block — coalescing to 512k-row combiner
        # batches alone would leave the whole cluster waiting on a
        # handful of fat pair tasks (measured: 14 tasks, 15s critical
        # path at 32 CPUs; chunked: 4x faster phase)
        for i in range(0, tbl.num_rows, TE_OUTPUT_CHUNK):
            yield tbl.slice(i, TE_OUTPUT_CHUNK)

    # coalesced batches: fewer, larger te blocks keep the downstream
    # sort's task count (and its fixed scheduling cost) low
    return linked.map_batches(
        dedup_and_bucket, batch_format="pyarrow", batch_size=COMBINE_BATCH)


def _sorted_factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted uniques, codes in sorted-unique order) — code comparisons
    equal lexicographic string comparisons.  pd.factorize hashes (fast);
    only the SMALL unique set is sorted, never the row array (np.unique
    on big string arrays sorts rows with python comparisons — measured
    hot spot)."""
    codes, uniq = pd.factorize(arr)
    uniq = np.asarray(uniq)
    order = np.argsort(uniq)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[codes]


def _cross_pairs(s1: np.ndarray, c1: np.ndarray,
                 s2: np.ndarray, c2: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Full cross-product index pairs between matched group ranges
    [s1, s1+c1) x [s2, s2+c2), vectorized per distinct (c1, c2)."""
    if len(s1) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    combo = c1.astype(np.int64) * (np.int64(1) << 32) + c2.astype(np.int64)
    I, J = [], []
    for cv in np.unique(combo):
        a, b = int(cv >> 32), int(cv & 0xFFFFFFFF)
        m = combo == cv
        ii = np.repeat(np.arange(a), b)
        jj = np.tile(np.arange(b), a)
        I.append((s1[m][:, None] + ii[None, :]).ravel())
        J.append((s2[m][:, None] + jj[None, :]).ravel())
    return np.concatenate(I), np.concatenate(J)


#: schema of the triple table, and of the one-evidence partial rows
#: ``emit_triples`` aggregates into it
_PARTIAL_TRIPLES_EMPTY = pa.table({
    "subj": pa.array([], pa.string()),
    "pred": pa.array([], pa.string()),
    "obj": pa.array([], pa.string()),
    "n_evidence": pa.array([], pa.int64()),
    "first_conv_id": pa.array([], pa.string()),
    "first_turn_idx": pa.array([], pa.int64()),
})


def _block_pairs(batch: pa.Table) -> pa.Table:
    """Pair emission over (conv_id, turn_idx, entity_id, ghost) rows
    holding every turn whole plus its next turn: one bucket-sorted block
    on the exchange path, the whole table on the fold path.  Pure
    integer index arithmetic: conv/entity strings encode ONCE (sorted
    uniques, so code comparisons == lexicographic string comparisons),
    turns key as ``conv_code * 2^33 + turn_idx``, and both joins
    (same-turn co_occurs, turn+1 follows) become searchsorted +
    vectorized cross-product expansion.  Replaced the original
    string-keyed pandas merges (measured 10x CPU of this path at sf10).
    A row with a null key gives no pair (pandas would factorize the null
    to -1, aliasing another conversation)."""
    g = batch.drop_null().to_pandas()
    if g.empty:
        return _PARTIAL_TRIPLES_EMPTY
    conv_uniq, conv_code = _sorted_factorize(g["conv_id"].to_numpy())
    ent_uniq, ent_code = _sorted_factorize(g["entity_id"].to_numpy())
    turn = g["turn_idx"].to_numpy().astype(np.int64)
    ghost = g["ghost"].to_numpy()
    key = conv_code.astype(np.int64) * (np.int64(1) << 33) + turn
    # finish the distinct the combiner started; a ghost copy and
    # its original can share a block, so dedup IGNORES the ghost
    # flag, preferring the original (lexsort puts ghost=False first)
    order = np.lexsort((ghost, ent_code, key))
    key, ent_code, ghost = key[order], ent_code[order], ghost[order]
    turn, conv_code = turn[order], conv_code[order]
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = (key[1:] != key[:-1]) | (ent_code[1:] != ent_code[:-1])
    key, ent_code, ghost = key[keep], ent_code[keep], ghost[keep]
    turn, conv_code = turn[keep], conv_code[keep]

    ng = ~ghost
    k_ng, e_ng = key[ng], ent_code[ng]
    t_ng, c_ng = turn[ng], conv_code[ng]
    uk, starts, counts = np.unique(
        k_ng, return_index=True, return_counts=True)
    # co_occurs: all (i<j) entity pairs within a turn (rows within
    # a key group are ent-code-sorted = string-sorted)
    I_co, J_co = triu_pairs(starts, counts)
    # follows: non-ghost turn t against ALL rows of turn t+1
    ak, astarts, acounts = np.unique(
        key, return_index=True, return_counts=True)
    pos = np.searchsorted(ak, uk + 1)
    safe = np.minimum(pos, len(ak) - 1)
    valid = (pos < len(ak)) & (ak[safe] == uk + 1)
    I_fo, J_fo = _cross_pairs(starts[valid], counts[valid],
                              astarts[pos[valid]], acounts[pos[valid]])
    m = e_ng[I_fo] != ent_code[J_fo]
    I_fo, J_fo = I_fo[m], J_fo[m]
    n_co, n = len(I_co), len(I_co) + len(I_fo)
    if n == 0:
        return _PARTIAL_TRIPLES_EMPTY
    return pa.table({
        "subj": pa.array(np.concatenate(
            [ent_uniq[e_ng[I_co]], ent_uniq[e_ng[I_fo]]]), pa.string()),
        "pred": pa.array([CO_OCCURS] * n_co + [FOLLOWS] * (n - n_co),
                         pa.string()),
        "obj": pa.array(np.concatenate(
            [ent_uniq[e_ng[J_co]], ent_uniq[ent_code[J_fo]]]),
            pa.string()),
        "n_evidence": pa.array(np.ones(n, np.int64)),
        "first_conv_id": pa.array(np.concatenate(
            [conv_uniq[c_ng[I_co]], conv_uniq[c_ng[I_fo]]]),
            pa.string()),
        "first_turn_idx": pa.array(
            np.concatenate([t_ng[I_co], t_ng[I_fo]]).astype(np.int64)),
    })


def emit_triples(
    linked: rd.Dataset,
    *,
    salt_span: int = DEFAULT_SALT_SPAN,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Adjacency triple emission (shuffle #1) + exact dedup (shuffle #2).

    Shuffle #1 is a sort on a HIGH-cardinality salted bucket key
    ``(hash(conv_id) + turn_idx // span) % n_buckets`` — cardinality must
    far exceed the partition count or the range partitioner degenerates
    (empty partitions + mega-partitions that serialize the stage).  Ray's
    range partitioner never splits equal key values across partitions, so
    every bucket arrives whole in exactly one block, and a plain
    ``map_batches(batch_size=None)`` over sorted blocks can process ALL
    the buckets in a block with vectorized index arithmetic — co_occurs
    within a (conv_id, turn_idx), follows as turn t against t+1.  No
    per-group invocation anywhere (the map_groups API costs a pandas
    call per group; at millions of groups that serializes).

    Each emitted pair is already a one-evidence partial row
    (``n_evidence=1``, ``first_conv_id``/``first_turn_idx`` its own
    turn), so shuffle #2 is :func:`_combine_sort_combine` summing
    ``n_evidence`` and taking both ``first_*`` minima per (subj, pred,
    obj); the two minima may come from different rows.

    A materialized input under ``FOLD_MAX_BYTES`` skips both shuffles:
    one :func:`_block_pairs` and one ``grouped_agg`` over every row, on
    the driver.  ``salt_span``/``n_buckets`` shape only the exchange path.

    Output: (subj, pred, obj, n_evidence, first_conv_id, first_turn_idx).
    """
    keys = ["subj", "pred", "obj"]
    aggs = [("n_evidence", "sum"), ("first_conv_id", "min"),
            ("first_turn_idx", "min")]
    tbl = driver_table(linked, FOLD_MAX_BYTES, op="emit_triples")
    if tbl is not None:
        te = tbl.select(["conv_id", "turn_idx", "entity_id"])
        te = te.append_column("ghost", pa.array(np.zeros(len(te), bool)))
        return rd.from_arrow(grouped_agg(_block_pairs(te), keys, aggs))
    if n_buckets is None:
        n_buckets = 65536
    te = _bucketed_turn_entities(linked, salt_span, n_buckets)
    raw = te.sort("bucket").map_batches(
        _block_pairs, batch_format="pyarrow", batch_size=None)
    return _combine_sort_combine(raw, keys, aggs)


#: linked-path auto-select threshold: turns parquet under this size can
#: pin its linked reduction in the object store comfortably (the linked
#: table is the same order of magnitude as the input); above it, the
#: worker-side parquet checkpoint avoids object-store pressure — the
#: effect measured in SCALING_r03.json's 32-CPU leg.
AUTO_MATERIALIZE_MAX_BYTES = 256 << 20


def _turns_bytes(sf_dir: str) -> int:
    """On-disk size of the turns parquet (file or sharded dir) — a free
    os.stat proxy for input scale, no Ray op."""
    import os

    from clinicaltransformerner_ray.synth import ensure_synth

    p = ensure_synth(sf_dir)["turns"]
    if os.path.isdir(p):
        return sum(e.stat().st_size for e in os.scandir(p)
                   if e.is_file())
    return os.path.getsize(p)


def kg_pipeline(
    sf_dir: str,
    *,
    max_seq_length: int = 64,
    noise_mod: int = 5,
    salt_span: int = DEFAULT_SALT_SPAN,
    materialize_linked: bool = False,
    linked_checkpoint_dir: str | None = None,
    quarantine_dir: str | None = None,
) -> dict[str, rd.Dataset]:
    """Compose the full build; returns Datasets keyed by stage, lazy but
    for ``entities``/``triples`` over a materialized linked table under
    ``FOLD_MAX_BYTES``: those folds run here, eagerly (tens of ms).

    The linked-mention table feeds BOTH the entity and triple branches,
    so it must not re-run the tagger twice.  Cache strategies, in
    preference order at scale:

    - ``linked_checkpoint_dir`` (explicit path, or the DEFAULT when
      neither knob is set) writes the linked table as partitioned
      parquet from the workers and re-reads it for both branches — the
      100 TB / restartable path: the object store never pins the full
      reduction, a re-run can start from the checkpoint, and each
      branch streams its own read (the full lineage-tracked version is
      pipelines/resume.py + state/lineage.py);
    - ``materialize_linked=True`` pins it in the object store — the
      explicit small-input fast path for single-job runs where the
      reduction comfortably fits.

    When NEITHER knob is set, the path is auto-selected from the input
    parquet's on-disk size (an os.stat sum — free, no Ray op): inputs
    under ``AUTO_MATERIALIZE_MAX_BYTES`` take the object-store fast
    path, larger inputs the checkpoint path.  The auto checkpoint root
    is ``$GRAFT_CHECKPOINT_ROOT`` when set, else a local temp dir that
    is removed at interpreter exit.  MULTI-NODE NOTE: workers write the
    checkpoint blocks, so an auto (or explicit) path must live on
    storage every node can reach — on a real cluster set
    GRAFT_CHECKPOINT_ROOT (or pass linked_checkpoint_dir) to a shared
    filesystem / object-store URI; a driver-local /tmp path only works
    single-node.  The same applies to ``quarantine_dir`` (forwarded to
    `detect_mentions`' tagger, which writes per-task parquet)."""
    alias_rows = load_alias_rows(sf_dir)
    turns = read_turns(sf_dir, columns=["conv_id", "turn_idx", "text"])
    linked = detect_mentions(
        turns, alias_rows,
        max_seq_length=max_seq_length,
        noise_mod=noise_mod,
        quarantine_dir=quarantine_dir,
        emit="linked",
    )
    if linked_checkpoint_dir is None and not materialize_linked:
        if _turns_bytes(sf_dir) <= AUTO_MATERIALIZE_MAX_BYTES:
            materialize_linked = True
        else:
            import os as _os

            root = _os.environ.get("GRAFT_CHECKPOINT_ROOT")
            if root:
                import uuid

                linked_checkpoint_dir = _os.path.join(
                    root, f"kg_linked_{uuid.uuid4().hex[:12]}")
            else:
                # single-node fallback: run-scoped temp dir, reclaimed
                # at interpreter exit (reads are done by then)
                import atexit
                import shutil
                import tempfile

                linked_checkpoint_dir = tempfile.mkdtemp(
                    prefix="kg_linked_")
                atexit.register(shutil.rmtree, linked_checkpoint_dir,
                                ignore_errors=True)
    if linked_checkpoint_dir is not None:
        linked.write_parquet(linked_checkpoint_dir)
        linked = rd.read_parquet(linked_checkpoint_dir)
    elif materialize_linked:
        linked = linked.materialize()
    # the linked table has every mention column, so it serves as the
    # mention table too
    return {
        "mentions": linked,
        "linked": linked,
        "entities": canonical_entities(linked),
        "triples": emit_triples(linked, salt_span=salt_span),
    }


def association_stats(
    linked: rd.Dataset,
    triples: rd.Dataset,
) -> rd.Dataset:
    """Association statistics per co-occurring entity pair — the
    integer PMI numerators (PMI = log(n_co * n_turns / (n_subj *
    n_obj)) is float and engine-order-dependent, so the engine emits
    the four EXACT counts and leaves the log to the consumer; the
    repo's integer-derivation invariant).

    Counts (all per DISTINCT turn, matching the triple semantics):
      n_co      turns where subj and obj co-occur (the co_occurs
                triple's n_evidence — reuses the flagship output)
      n_subj/n_obj  turns containing the entity at all
      n_turns   turns containing >= 1 linked entity (global)

    Shape: ONE sort of the distinct (conv, turn, entity) partials on
    (conv_id, turn_idx) ALONE — a turn's rows land whole per block
    (equal keys never split; sorting on the 3-key composite would
    split a turn across blocks and double-count it), so per-block
    dedup, per-entity distinct-turn partials AND the distinct-turn
    total are all exact.  Entity vocabulary is lexicon-bounded, so the
    partials fold on the driver (the pagerank precedent) and broadcast
    into the final annotate pass; the corpus-scale triple table
    streams.

    Output: (subj, obj, n_co, n_subj, n_obj, n_turns) — all int64."""

    def local_dedup(batch: pa.Table) -> pa.Table:
        df = (batch.select(["conv_id", "turn_idx", "entity_id"])
              .to_pandas().drop_duplicates())
        return pa.table({
            "conv_id": pa.array(df["conv_id"].tolist(), pa.string()),
            "turn_idx": pa.array(df["turn_idx"].to_numpy(dtype=np.int64),
                                 pa.int64()),
            "entity_id": pa.array(df["entity_id"].tolist(), pa.string()),
        })

    def block_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        g = (df.groupby("entity_id", sort=False)
             .size().reset_index(name="n"))
        n_turns = len(df[["conv_id", "turn_idx"]].drop_duplicates())
        # "" is the distinct-turn-total sentinel (entity ids are
        # E-prefixed, so it cannot collide)
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist() + [""],
                                  pa.string()),
            "n": pa.array(list(np.asarray(g["n"], np.int64))
                          + [np.int64(n_turns)], pa.int64()),
        })

    ent_turns: dict[str, int] = {}
    n_turns = 0
    # O(entities x blocks) rows — driver fold, order-free integer sums
    for r in (linked.map_batches(local_dedup, batch_format="pyarrow",
                                 batch_size=COMBINE_BATCH)
              .sort(["conv_id", "turn_idx"])
              .map_batches(block_partials, batch_format="pyarrow",
                           batch_size=None)
              .take_all()):
        if r["entity_id"] == "":
            n_turns += r["n"]
        else:
            ent_turns[r["entity_id"]] = (
                ent_turns.get(r["entity_id"], 0) + r["n"])

    def annotate(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == "co_occurs"]
        return pa.table({
            "subj": pa.array(df["subj"].tolist(), pa.string()),
            "obj": pa.array(df["obj"].tolist(), pa.string()),
            "n_co": pa.array(df["n_evidence"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "n_subj": pa.array(
                df["subj"].map(ent_turns).to_numpy(dtype=np.int64),
                pa.int64()),
            "n_obj": pa.array(
                df["obj"].map(ent_turns).to_numpy(dtype=np.int64),
                pa.int64()),
            "n_turns": pa.array(
                np.full(len(df), n_turns, np.int64), pa.int64()),
        })

    return triples.map_batches(annotate, batch_format="pyarrow",
                               batch_size=COMBINE_BATCH)


def mention_ts_join(linked: rd.Dataset,
                    turns_ts: rd.Dataset) -> rd.Dataset:
    """The mentions⋈turns timestamp sort-merge join SHARED by
    :func:`mention_timeline` and :func:`entity_daily` (and computed
    once by :func:`kg_report`): mention rows pre-aggregate
    batch-locally to (conv_id, turn_idx, entity_id, cnt) partials,
    turn rows project to (conv_id, turn_idx, us); ONE sort on the
    high-cardinality composite co-locates each partial with its
    unique turn row (Ray's range partitioner never splits equal
    keys), and a per-block pandas inner merge attaches us.

    Output: (entity_id, conv_id, turn_idx, cnt, us)."""

    def ment_partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["conv_id", "turn_idx", "entity_id"]).to_pandas()
        g = (df.groupby(["conv_id", "turn_idx", "entity_id"], sort=False)
             .size().reset_index(name="cnt"))
        n = len(g)
        return pa.table({
            "conv_id": pa.array(g["conv_id"].tolist(), pa.string()),
            "turn_idx": pa.array(
                g["turn_idx"].to_numpy(dtype=np.int64), pa.int64()),
            "entity_id": pa.array(g["entity_id"].tolist(), pa.string()),
            "cnt": pa.array(g["cnt"].to_numpy(dtype=np.int64), pa.int64()),
            "us": pa.array(np.zeros(n, np.int64), pa.int64()),
            "side": pa.array(np.ones(n, np.int8), pa.int8()),
        })

    def turn_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "entity_id": pa.array([""] * n, pa.string()),
            "cnt": pa.array(np.zeros(n, np.int64), pa.int64()),
            "us": batch.column("ts").cast(pa.int64()),
            "side": pa.array(np.zeros(n, np.int8), pa.int8()),
        })

    def attach_ts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        m = df[df["side"] == 1]
        t = df[df["side"] == 0]
        j = m.merge(
            t[["conv_id", "turn_idx", "us"]].rename(columns={"us": "tus"}),
            on=["conv_id", "turn_idx"], how="inner")
        return pa.table({
            "entity_id": pa.array(j["entity_id"].tolist(), pa.string()),
            "conv_id": pa.array(j["conv_id"].tolist(), pa.string()),
            "turn_idx": pa.array(
                j["turn_idx"].to_numpy(dtype=np.int64), pa.int64()),
            "cnt": pa.array(j["cnt"].to_numpy(dtype=np.int64), pa.int64()),
            "us": pa.array(j["tus"].to_numpy(dtype=np.int64), pa.int64()),
        })

    partials = linked.map_batches(
        ment_partial, batch_format="pyarrow", batch_size=COMBINE_BATCH)
    tt = turns_ts.map_batches(turn_rows, batch_format="pyarrow")
    return (partials.union(tt)
            .sort(["conv_id", "turn_idx"])
            .map_batches(attach_ts, batch_format="pyarrow",
                         batch_size=None))


def mention_timeline(linked: rd.Dataset, turns_ts: rd.Dataset,
                     *, joined: rd.Dataset | None = None) -> rd.Dataset:
    """Per-entity temporal profile: total mentions, distinct mention
    turns / conversations, and first / last mention timestamps (epoch
    microseconds) plus the active span.

    The tagger drops non-key turn columns, so the timestamp comes back
    via a sort-merge join: mention rows pre-aggregate batch-locally to
    (conv_id, turn_idx, entity_id, cnt) partials (shrinking what the
    shuffle moves), turn rows project to (conv_id, turn_idx, us); ONE
    sort on the high-cardinality composite (conv_id, turn_idx)
    co-locates each partial with its unique turn row (Ray's range
    partitioner never splits equal keys across blocks), a per-block
    pandas merge attaches us, then ONE sort on entity_id + block-local
    completion computes the distinct counts and min/max exactly.

    All outputs are exact integers (epoch micros, counts), so the
    DuckDB oracle matches bitwise.  Reference analog: the mention
    table join back to note metadata for temporal reporting
    (ClinicalTransformerNER emits per-document TSV/BRAT mention rows
    keyed by source file; time profiling is downstream of that join).
    """

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "entity_id": pa.array([], pa.string()),
                "n_mentions": pa.array([], pa.int64()),
                "n_turns": pa.array([], pa.int64()),
                "n_convs": pa.array([], pa.int64()),
                "first_us": pa.array([], pa.int64()),
                "last_us": pa.array([], pa.int64()),
                "span_us": pa.array([], pa.int64()),
            })
        # composite turn key only drives nunique — any injective encoding
        df["tk"] = df["conv_id"] + "#" + df["turn_idx"].astype(str)
        g = (df.groupby("entity_id", sort=False)
             .agg(n_mentions=("cnt", "sum"),
                  n_turns=("tk", "nunique"),
                  n_convs=("conv_id", "nunique"),
                  first_us=("us", "min"),
                  last_us=("us", "max"))
             .reset_index())
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist(), pa.string()),
            "n_mentions": pa.array(
                g["n_mentions"].to_numpy(dtype=np.int64), pa.int64()),
            "n_turns": pa.array(
                g["n_turns"].to_numpy(dtype=np.int64), pa.int64()),
            "n_convs": pa.array(
                g["n_convs"].to_numpy(dtype=np.int64), pa.int64()),
            "first_us": pa.array(
                g["first_us"].to_numpy(dtype=np.int64), pa.int64()),
            "last_us": pa.array(
                g["last_us"].to_numpy(dtype=np.int64), pa.int64()),
            "span_us": pa.array(
                (g["last_us"] - g["first_us"]).to_numpy(dtype=np.int64),
                pa.int64()),
        })

    j = joined if joined is not None else \
        mention_ts_join(linked, turns_ts)
    return (j.sort("entity_id")
            .map_batches(complete, batch_format="pyarrow", batch_size=None))


def conversation_stats(turns: rd.Dataset) -> rd.Dataset:
    """Per-conversation transcript profile straight off the turns
    table (no tagger): turn counts per role, total whitespace tokens,
    and the conversation's epoch-us time span — the corpus-triage
    report a pipeline runs BEFORE any model stage.

    One combine/sort/combine on the high-cardinality conv_id; the
    combiner is pure Arrow kernels + one pandas groupby (counts, sums,
    min/max all merge associatively, so re-running it per sorted block
    completes the aggregate exactly)."""
    import pyarrow.compute as pc

    def combine(batch: pa.Table) -> pa.Table:
        if "n_turns" in batch.column_names:
            df = batch.to_pandas()
            g = (df.groupby("conv_id", sort=False)
                 .agg(n_turns=("n_turns", "sum"),
                      n_user=("n_user", "sum"),
                      n_assistant=("n_assistant", "sum"),
                      n_tool=("n_tool", "sum"),
                      n_tokens=("n_tokens", "sum"),
                      first_us=("first_us", "min"),
                      last_us=("last_us", "max"))
                 .reset_index())
        else:
            text = pc.fill_null(batch.column("text"), "")
            toks = pc.add(pc.count_substring(text, " "), 1)
            role = batch.column("role").to_pandas()
            g = (pd.DataFrame({
                    "conv_id": batch.column("conv_id").to_pandas(),
                    "n_turns": np.int64(1),
                    "n_user": (role == "user").to_numpy(np.int64),
                    "n_assistant": (role == "assistant")
                    .to_numpy(np.int64),
                    "n_tool": (role == "tool").to_numpy(np.int64),
                    "n_tokens": toks.to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "first_us": batch.column("ts").cast(pa.int64())
                    .to_numpy(zero_copy_only=False),
                 })
                 .assign(last_us=lambda d: d["first_us"])
                 .groupby("conv_id", sort=False)
                 .agg(n_turns=("n_turns", "sum"),
                      n_user=("n_user", "sum"),
                      n_assistant=("n_assistant", "sum"),
                      n_tool=("n_tool", "sum"),
                      n_tokens=("n_tokens", "sum"),
                      first_us=("first_us", "min"),
                      last_us=("last_us", "max"))
                 .reset_index())
        cols = {"conv_id": pa.array(g["conv_id"].tolist(), pa.string())}
        for c in ("n_turns", "n_user", "n_assistant", "n_tool",
                  "n_tokens", "first_us", "last_us"):
            cols[c] = pa.array(g[c].to_numpy(dtype=np.int64), pa.int64())
        return pa.table(cols)

    return (turns.map_batches(combine, batch_format="pyarrow",
                              batch_size=COMBINE_BATCH)
            .sort("conv_id")
            .map_batches(combine, batch_format="pyarrow",
                         batch_size=None))


def near_cooccurrence(
    linked: rd.Dataset,
    *,
    window: int = 2,
) -> rd.Dataset:
    """Windowed co-occurrence: entity pairs appearing within
    ``window`` turns of each other in the same conversation (0 <
    turn_b - turn_a <= window, entity_a != entity_b, pair canonical by
    the OCCURRENCE ORDER so direction = discourse order) — the
    generalization of the triple emitter's same-turn `co_occurs` /
    adjacent-turn `follows` to a proximity window.

    Shape: batch-local dedup to distinct (conv, turn, entity), ONE
    sort on conv_id (a conversation's rows land whole per block), a
    vectorized per-block window join — for each offset d in 1..window
    a pandas merge of the turn-table against itself shifted by d (no
    Python pair loops) — then combine/sort/combine on the pair key.

    Output: (subj, obj, gap, n_pairs): n_pairs = count of (conv,
    turn_a, turn_b) incidences at that exact gap."""

    def dedup(batch: pa.Table) -> pa.Table:
        df = (batch.select(["conv_id", "turn_idx", "entity_id"])
              .to_pandas().drop_duplicates())
        return pa.table({
            "conv_id": pa.array(df["conv_id"].tolist(), pa.string()),
            "turn_idx": pa.array(
                df["turn_idx"].to_numpy(dtype=np.int64), pa.int64()),
            "entity_id": pa.array(df["entity_id"].tolist(), pa.string()),
        })

    def window_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        outs = []
        for d in range(1, window + 1):
            right = df.copy()
            right["turn_idx"] = right["turn_idx"] - d
            j = df.merge(right, on=["conv_id", "turn_idx"],
                         suffixes=("_a", "_b"))
            j = j[j["entity_id_a"] != j["entity_id_b"]]
            if len(j):
                outs.append(pd.DataFrame({
                    "subj": j["entity_id_a"].to_numpy(),
                    "obj": j["entity_id_b"].to_numpy(),
                    "gap": np.int64(d),
                }))
        if not outs:
            return pa.table({
                "subj": pa.array([], pa.string()),
                "obj": pa.array([], pa.string()),
                "gap": pa.array([], pa.int64()),
                "n_pairs": pa.array([], pa.int64()),
            })
        g = (pd.concat(outs)
             .groupby(["subj", "obj", "gap"], sort=False)
             .size().reset_index(name="n_pairs"))
        return pa.table({
            "subj": pa.array(g["subj"].tolist(), pa.string()),
            "obj": pa.array(g["obj"].tolist(), pa.string()),
            "gap": pa.array(g["gap"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "n_pairs": pa.array(g["n_pairs"].to_numpy(dtype=np.int64),
                                pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["subj", "obj", "gap"], sort=False)["n_pairs"]
             .sum().reset_index())
        return from_pandas_clean(g, preserve_index=False)

    return (linked.map_batches(dedup, batch_format="pyarrow",
                               batch_size=COMBINE_BATCH)
            .sort("conv_id")
            .map_batches(window_pairs, batch_format="pyarrow",
                         batch_size=None)
            .sort(["subj", "obj", "gap"])
            .map_batches(complete, batch_format="pyarrow",
                         batch_size=None))


def entity_daily(linked: rd.Dataset, turns_ts: rd.Dataset,
                 *, joined: rd.Dataset | None = None) -> rd.Dataset:
    """Per-(entity, day) mention activity — the temporal drill-down of
    :func:`mention_timeline` (same mentions⋈turns sort-merge ts join;
    see there for the join exactness argument), completed per
    (entity_id, day) instead of per entity.

    day = epoch_us // 86_400_000_000 (non-negative, floor ==
    truncation).  The final sort key is the (entity_id, day)
    composite: every row of one (entity, day) pair carries the same
    full sort key, so the pair lands whole in one block and the
    distinct-turn count is block-local exact.

    Output: (entity_id, day, n_mentions, n_turns)."""
    DAY_US = 86_400_000_000

    def with_day(batch: pa.Table) -> pa.Table:
        us = batch.column("us").to_numpy(zero_copy_only=False)
        tidx = batch.column("turn_idx").to_numpy(zero_copy_only=False)
        conv = batch.column("conv_id").to_pylist()
        return pa.table({
            "entity_id": batch.column("entity_id"),
            "day": pa.array(us.astype(np.int64) // DAY_US, pa.int64()),
            "tk": pa.array(
                [c + "#" + str(int(t)) for c, t in zip(conv, tidx)],
                pa.string()),
            "cnt": batch.column("cnt"),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "entity_id": pa.array([], pa.string()),
                "day": pa.array([], pa.int64()),
                "n_mentions": pa.array([], pa.int64()),
                "n_turns": pa.array([], pa.int64()),
            })
        g = (df.groupby(["entity_id", "day"], sort=False)
             .agg(n_mentions=("cnt", "sum"), n_turns=("tk", "nunique"))
             .reset_index())
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist(), pa.string()),
            "day": pa.array(g["day"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "n_mentions": pa.array(
                g["n_mentions"].to_numpy(dtype=np.int64), pa.int64()),
            "n_turns": pa.array(
                g["n_turns"].to_numpy(dtype=np.int64), pa.int64()),
        })

    j = joined if joined is not None else \
        mention_ts_join(linked, turns_ts)
    return (j.map_batches(with_day, batch_format="pyarrow")
            .sort(["entity_id", "day"])
            .map_batches(complete, batch_format="pyarrow",
                         batch_size=None))


def kg_report(linked: rd.Dataset, turns_ts: rd.Dataset) -> rd.Dataset:
    """ONE flagship pass for the temporal analytics pair: the linked
    mention table (already cached by ``kg_pipeline``'s object-store /
    parquet-checkpoint auto-select, so the tagger runs ONCE) feeds
    BOTH :func:`mention_timeline` and :func:`entity_daily`; their
    outputs union into a long-format all-integer report (the
    ``dedup_report`` pattern — the standalone query entries re-run
    the flagship each because the driver contract requires
    independent queries; a production run uses this).

    The mentions⋈turns ts join itself also runs ONCE
    (:func:`mention_ts_join`, materialized here — it feeds both
    completions and Ray does no CSE).

    Output rows, sorted by (section, entity_id, day):
      section='timeline': day=0, v1=n_mentions, v2=n_turns,
          v3=n_convs, v4=first_us, v5=last_us, v6=span_us
      section='daily':    day=epoch day, v1=n_mentions, v2=n_turns,
          v3..v6=0."""
    joined = mention_ts_join(linked, turns_ts).materialize()
    tl = mention_timeline(linked, turns_ts, joined=joined)
    dl = entity_daily(linked, turns_ts, joined=joined)

    def tl_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        zero = pa.array(np.zeros(m, np.int64), pa.int64())
        return pa.table({
            "section": pa.array(["timeline"] * m, pa.string()),
            "entity_id": batch.column("entity_id").cast(pa.string()),
            "day": zero,
            "v1": batch.column("n_mentions").cast(pa.int64()),
            "v2": batch.column("n_turns").cast(pa.int64()),
            "v3": batch.column("n_convs").cast(pa.int64()),
            "v4": batch.column("first_us").cast(pa.int64()),
            "v5": batch.column("last_us").cast(pa.int64()),
            "v6": batch.column("span_us").cast(pa.int64()),
        })

    def dl_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        zero = pa.array(np.zeros(m, np.int64), pa.int64())
        return pa.table({
            "section": pa.array(["daily"] * m, pa.string()),
            "entity_id": batch.column("entity_id").cast(pa.string()),
            "day": batch.column("day").cast(pa.int64()),
            "v1": batch.column("n_mentions").cast(pa.int64()),
            "v2": batch.column("n_turns").cast(pa.int64()),
            "v3": zero, "v4": zero, "v5": zero, "v6": zero,
        })

    return (tl.map_batches(tl_rows, batch_format="pyarrow")
            .union(dl.map_batches(dl_rows, batch_format="pyarrow"))
            .sort(["section", "entity_id", "day"]))


def entity_salience(linked: rd.Dataset, turns_ts: rd.Dataset,
                    *, k_bits: int = 20) -> pa.Table:
    """Recency-decayed entity salience: each (entity, day) activity
    cell from :func:`entity_daily` contributes
    ``n_mentions * 2^(k_bits - age)`` where ``age = dmax - day`` (days
    since the corpus's most recent activity), zero beyond ``k_bits``
    days — an EXACT power-of-two half-life decay, so the score is a
    deterministic int64 on both engines (no float accumulation; at
    k_bits=20 a today-mention outweighs a 20-day-old one by 2^20).
    This is the "what matters now" ranking a living knowledge graph
    serves, as opposed to the all-time mention count.

    Scale shape: the entity_daily upstream is (lexicon x active-days)
    bounded, so it is materialized ONCE (consumed twice — the repo's
    no-CSE rule) and two streaming folds keep driver state tiny:
    pass 1 folds the global max day (O(blocks) rows), pass 2 folds
    per-entity partial saliences (O(blocks x entities), exact-integer
    associative).  Zero additional wide ops beyond entity_daily's own
    sort.

    Output pa.Table (entity_id, n_days, n_mentions, last_day,
    salience_fp), sorted by entity_id."""
    ed = entity_daily(linked, turns_ts).materialize()

    def day_max(batch: pa.Table) -> pa.Table:
        d = batch.column("day").to_numpy(zero_copy_only=False)
        if not len(d):
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table({"m": pa.array([int(d.max())], pa.int64())})

    maxima = ed.map_batches(day_max, batch_format="pyarrow",
                            batch_size=None).take_all()
    if not maxima:
        z = pa.array([], pa.int64())
        return pa.table({"entity_id": pa.array([], pa.string()),
                         "n_days": z, "n_mentions": z,
                         "last_day": z, "salience_fp": z})
    dmax = max(r["m"] for r in maxima)

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"entity_id": pa.array([], pa.string()),
                             "n_days": z, "n_mentions": z,
                             "last_day": z, "salience_fp": z})
        age = (dmax - df["day"]).to_numpy(np.int64)
        w = np.where(age <= k_bits,
                     np.int64(1) << np.minimum(
                         np.maximum(k_bits - age, 0), k_bits),
                     np.int64(0))
        df = pd.DataFrame({
            "entity_id": df["entity_id"],
            "n_days": np.int64(1),
            "n_mentions": df["n_mentions"].to_numpy(np.int64),
            "last_day": df["day"].to_numpy(np.int64),
            "salience_fp": df["n_mentions"].to_numpy(np.int64) * w,
        })
        g = (df.groupby("entity_id", sort=False)
             .agg(n_days=("n_days", "sum"),
                  n_mentions=("n_mentions", "sum"),
                  last_day=("last_day", "max"),
                  salience_fp=("salience_fp", "sum"))
             .reset_index())
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist(),
                                  pa.string()),
            "n_days": pa.array(g["n_days"].to_numpy(np.int64),
                               pa.int64()),
            "n_mentions": pa.array(
                g["n_mentions"].to_numpy(np.int64), pa.int64()),
            "last_day": pa.array(g["last_day"].to_numpy(np.int64),
                                 pa.int64()),
            "salience_fp": pa.array(
                g["salience_fp"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[str, list] = {}
    parts = ed.map_batches(partials, batch_format="pyarrow")
    for r in parts.take_all():  # O(blocks x entities) — lexicon-bounded
        a = acc.setdefault(r["entity_id"], [0, 0, -1, 0])
        a[0] += int(r["n_days"])
        a[1] += int(r["n_mentions"])
        a[2] = max(a[2], int(r["last_day"]))
        a[3] += int(r["salience_fp"])
    ents = sorted(acc)
    return pa.table({
        "entity_id": pa.array(ents, pa.string()),
        "n_days": pa.array([acc[e][0] for e in ents], pa.int64()),
        "n_mentions": pa.array([acc[e][1] for e in ents], pa.int64()),
        "last_day": pa.array([acc[e][2] for e in ents], pa.int64()),
        "salience_fp": pa.array([acc[e][3] for e in ents],
                                pa.int64()),
    })


def entity_trend(linked: rd.Dataset, turns_ts: rd.Dataset) -> pa.Table:
    """Rising vs declining entities: the SIGN of the least-squares
    slope of each entity's daily mention counts over its active days,
    computed from exact integer sufficient statistics only —
    ``trend_num = N*Σ(day*y) - Σday*Σy`` (the slope numerator; the
    denominator ``N*Σday² - (Σday)²`` is positive for N >= 2, so the
    numerator's sign IS the slope's sign).  No float ever enters, so
    the classification is deterministic on both engines.

    Scale shape: per-block integer partials of (N, Σday, Σy, Σday*y)
    per entity over the entity_daily stream (associative in any
    order), lexicon-bounded driver fold — zero wide ops beyond
    entity_daily's own sort.

    Output pa.Table (entity_id, n_days, n_mentions, trend_num, trend)
    with trend ∈ {-1, 0, 1}, sorted by entity_id."""
    ed = entity_daily(linked, turns_ts)

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"entity_id": pa.array([], pa.string()),
                             "n": z, "st": z, "sy": z, "sty": z})
        day = df["day"].to_numpy(np.int64)
        y = df["n_mentions"].to_numpy(np.int64)
        g = (pd.DataFrame({"entity_id": df["entity_id"],
                           "n": np.int64(1), "st": day, "sy": y,
                           "sty": day * y})
             .groupby("entity_id", sort=False).sum().reset_index())
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist(),
                                  pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            "st": pa.array(g["st"].to_numpy(np.int64), pa.int64()),
            "sy": pa.array(g["sy"].to_numpy(np.int64), pa.int64()),
            "sty": pa.array(g["sty"].to_numpy(np.int64), pa.int64()),
        })

    acc: dict[str, list] = {}
    for r in ed.map_batches(partials,
                            batch_format="pyarrow").take_all():
        a = acc.setdefault(r["entity_id"], [0, 0, 0, 0])
        a[0] += int(r["n"])
        a[1] += int(r["st"])
        a[2] += int(r["sy"])
        a[3] += int(r["sty"])
    ents = sorted(acc)
    nums = [acc[e][0] * acc[e][3] - acc[e][1] * acc[e][2]
            for e in ents]
    return pa.table({
        "entity_id": pa.array(ents, pa.string()),
        "n_days": pa.array([acc[e][0] for e in ents], pa.int64()),
        "n_mentions": pa.array([acc[e][2] for e in ents], pa.int64()),
        "trend_num": pa.array(nums, pa.int64()),
        "trend": pa.array([(v > 0) - (v < 0) for v in nums],
                          pa.int64()),
    })
