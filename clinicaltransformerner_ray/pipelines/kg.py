"""The flagship KG-construction pipeline (SURVEY.md §7.1).

    turn files ──ReadParquetFiles->MapBatches(MentionTagger, emit="linked")──▶ linked mentions
               (one fused operator: a task per file, or per 1024 turns if fewer;
                the read plans from the Parquet footers and samples nothing)
          ──dedup+salt combiner ➜ sort(bucket) ➜ vectorized block pairs──▶ evidence rows
          ──grouped_agg ➜ sort(subj,pred,obj) ➜ grouped_agg──▶ deduped edge table
    linked mentions ──grouped_agg ➜ sort(entity_id) ➜ grouped_agg + finalize──▶ entity table

Every wide op here is the same shape (SURVEY.md §7.4): batch-local
COMBINE (shrinks what moves), one SORT on a high-cardinality key (Ray's
range partitioner keeps equal keys whole in one block), then a per-block
pass that completes the aggregation.  One function runs that shape,
``arrowutil.keyed_complete``, and it picks its own path: an input of
at most ``arrowutil.FOLD_MAX_BYTES`` folds on the driver (the same
completion, once, no Sort), a larger one (or a pair emission's)
takes ``arrowutil.keyed_exchange``.  For the triple dedup and the
entity counts both passes are one Arrow hash aggregate, ``arrowutil.grouped_agg``.  Triple emission
keeps its own coded fold (``arrowutil.driver_table`` on the linked
table): it aggregates int64 codes and decodes each distinct triple's
strings once.  No map_groups / Aggregate operators anywhere: per-group
and per-key machinery serializes at high group counts, and sorting a
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
pool.  The read fuses into that map: ``read_turns`` asks for one task
per file, or one per ``READ_TASK_TURNS`` turns when that is fewer, and
``map_stage`` maps whole blocks, slicing them to ``batch_size`` rows
inside the task, so Ray Data has no reason to split the read or to
keep it apart.  The alias lexicon travels as one Arrow table
(``load_alias_rows``), and the tagger and linker build their state from
its columns.

Downstream analytics chained off the flagship tables
(`association_stats`, `mention_ts_join`, `mention_timeline`,
`entity_daily`, `kg_report`, `near_cooccurrence`, `entity_salience`,
`entity_trend`, plus `conversation_stats` straight off the turns) call
three shared Arrow kernels and no pandas:

  - :func:`_turn_entities`, the one distinct of (conv_id, turn_idx,
    entity_id) rows (``grouped_agg`` with no aggregates);
  - keyed sums, minima, maxima and distinct counts over
    high-cardinality keys, each one ``arrowutil.keyed_complete`` with
    ``grouped_agg`` or :func:`_agg_distinct` as the completion, with
    per-block merges as Arrow joins inside the block;
  - lexicon-bounded results (per-entity counts, the day maximum) folded
    on the driver by ``arrowutil.agg_fold``, which raises ValueError
    above ``arrowutil.FOLD_MAX_BYTES``.

Each follows the ``grouped_agg`` null-key rule: a row with a null key
counts toward nothing.  The graph family (``graph.py``) reads the edge
table.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.arrowutil import (
    COMBINE_BATCH, agg_fold, cogroup, driver_table, grouped_agg,
    keyed_complete, keyed_exchange, sorted_codes, triu_pairs, typed_map)

import ray.data as rd
from ray.data.dataset import MaterializedDataset


from clinicaltransformerner_ray.sources.turns import (
    READ_TASK_TURNS, load_alias_rows, read_turns)
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
    alias_rows: pa.Table | list[dict],
    *,
    max_seq_length: int = 64,
    noise_mod: int = 5,
    batch_size: int = READ_TASK_TURNS,
    decode: str = "argmax",
    quarantine_dir: str | None = None,
    model_dir: str | None = None,
    num_gpus: float = 0.0,
    emit: str = "mentions",
) -> rd.Dataset:
    """turns -> mentions via the MentionTagger task map
    (:func:`~clinicaltransformerner_ray.stages.stage_map.map_stage`): the
    tagger is built once per worker process from the alias table
    (``load_alias_rows``, or a list of row dicts) shipped once through a
    ray.put ref.  ``decode="crf"`` selects the Viterbi route
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


def tag_turn_labels(turns: rd.Dataset, alias_rows: pa.Table | list[dict],
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
    alias_rows: pa.Table | list[dict],
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
    alias_rows: pa.Table | list[dict],
    *,
    batch_size: int = 8192,
) -> rd.Dataset:
    """mentions -> linked mentions via an EntityLinker task map.  No
    engine route calls this: the flagship links inside the tagger
    (``detect_mentions(..., emit="linked")``).  It is kept as the
    benchmark's separately traced linker layer."""
    return map_stage(mentions, EntityLinker, {"alias_rows": alias_rows},
                     batch_size=batch_size)


#: output chunk for the turn-entity combiner: wide COMBINE input (good
#: dedup) but many small output blocks (good sort/pair parallelism)
TE_OUTPUT_CHUNK = 1 << 16


def _with_ones(batch: pa.Table, cols: list[str], name: str) -> pa.Table:
    """``batch[cols]`` plus an int64 column of ones: one partial row per
    input row, ready for a summing ``grouped_agg``."""
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
    summed by ``grouped_agg`` before and after one
    :func:`arrowutil.keyed_complete` on entity_id alone, so an entity's
    surfaces complete together, then :func:`_entity_finalize`.  An
    entity seen with two types gives one row per type, each carrying
    that one canonical surface."""
    keys, aggs = ["entity_id", "type", "surface_norm"], [("pn", "sum")]
    return keyed_complete(
        linked, ["entity_id"],
        lambda b: _entity_finalize(grouped_agg(b, keys, aggs)),
        combine=lambda b: grouped_agg(_with_ones(b, keys, "pn"), keys, aggs),
        op="canonical_entities")


def mention_counts(mentions: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, surface_norm, type) -> n_mentions: one
    :func:`arrowutil.keyed_complete` summing with ``grouped_agg``."""
    keys = ["conv_id", "turn_idx", "surface_norm", "type"]
    aggs = [("n_mentions", "sum")]
    return keyed_complete(
        mentions, keys, functools.partial(grouped_agg, keys=keys, aggs=aggs),
        combine=lambda b: grouped_agg(_with_ones(b, keys, "n_mentions"),
                                      keys, aggs),
        op="mention_counts")


#: the key of a turn-entity row: one linked entity in one turn
TE_KEYS = ["conv_id", "turn_idx", "entity_id"]


def _turn_entities(batch: pa.Table) -> pa.Table:
    """The distinct (conv_id, turn_idx, entity_id) rows of ``batch``: one
    :func:`arrowutil.grouped_agg` with no aggregates.  Idempotent, so it
    serves as the batch-local combiner and as the per-block completion.
    Null-key rule: a row with a null key drops (pandas
    ``drop_duplicates`` would keep it)."""
    return grouped_agg(batch, TE_KEYS, [])


def _bucketed_turn_entities(
    linked: rd.Dataset, span: int, n_buckets: int
) -> rd.Dataset:
    """Batch-local :func:`_turn_entities` (a combiner: idempotent, so
    block alignment is irrelevant), tagged with a coarse bucket key
    ``(hash(conv_id) + turn_idx // span) % n_buckets``.  The conv_id
    hash is the engine's md5-derived uint64 (``dedup._hash64``, CLAUDE.md
    round-3 rule 1), one md5 per distinct conv_id: Arrow has no stable
    hash kernel.

    Skew salting: a mega-conversation spreads across its turn spans, so
    no single bucket inherits a whole hot conv_id.  Turns at a span
    boundary also emit a ghost copy into the *previous* span's bucket
    (right-side-only `follows` targets), keeping salted output identical
    to unsalted."""

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def dedup_and_bucket(batch: pa.Table) -> pa.Table:
        te = _turn_entities(batch)  # drops null keys: every conv hashes
        # ALL bucket arithmetic stays in uint64: h is uint64 and numpy
        # promotes uint64 + int64 to float64, which absorbs the span
        # offset for ~all hashes (salting silently a no-op) and can
        # round a ghost into the wrong bucket.  uint64 wraparound is
        # harmless because n_buckets divides 2**64.
        conv = te.column("conv_id").combine_chunks().dictionary_encode()
        h = _hash64(conv.dictionary.to_pylist())[
            conv.indices.to_numpy(zero_copy_only=False)]
        turn = te.column("turn_idx").to_numpy()
        spans = (turn // span).astype(np.uint64)
        border = (turn % span == 0) & (turn > 0)
        # the ghost's bucket is the same uint64 expression evaluated at
        # span-1, so it lands where the previous span's turns computed
        bucket = np.concatenate(
            [h + spans, h[border] + spans[border] - np.uint64(1)]
        ) % np.uint64(n_buckets)
        tbl = pa.concat_tables([te, te.filter(pa.array(border))])
        tbl = tbl.append_column("ghost", pa.array(
            np.arange(tbl.num_rows) >= te.num_rows)).append_column(
            "bucket", pa.array(bucket.astype(np.int64)))
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


#: ``pred`` by code: 0 for same-turn pairs, 1 for next-turn pairs
_PREDS = pa.array([CO_OCCURS, FOLLOWS], pa.string())


def _pair_codes(batch: pa.Table):
    """The coded pair core of triple emission over (conv_id, turn_idx,
    entity_id, ghost) rows holding every turn whole plus its next turn:
    ``(ents, convs, codes)``, where ``codes`` is one int64 table of
    partial rows (``subj``, ``pred``, ``obj``, ``n_evidence``,
    ``first_conv_id``, ``first_turn_idx``) whose string columns are
    codes into ``ents``, ``_PREDS`` and ``convs``.  None when no pair.

    Pure integer index arithmetic: conv/entity strings encode ONCE
    (:func:`arrowutil.sorted_codes`, so code comparisons ==
    lexicographic string comparisons), turns key as
    ``conv_code * 2^33 + turn_idx``, and both joins (same-turn
    co_occurs, turn+1 follows) become searchsorted + vectorized
    cross-product expansion.  A row with a null key gives no pair."""
    t = batch.drop_null()
    if not t.num_rows:
        return None
    convs, (conv_code,) = sorted_codes(t.column("conv_id"))
    ents, (ent_code,) = sorted_codes(t.column("entity_id"))
    turn = t.column("turn_idx").to_numpy().astype(np.int64)
    ghost = t.column("ghost").to_numpy()
    key = conv_code * (np.int64(1) << 33) + turn
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
    n = len(I_co) + len(I_fo)
    if n == 0:
        return None
    pred = np.zeros(n, np.int64)
    pred[len(I_co):] = 1
    return ents, convs, pa.table({
        "subj": np.concatenate([e_ng[I_co], e_ng[I_fo]]),
        "pred": pred,
        "obj": np.concatenate([e_ng[J_co], ent_code[J_fo]]),
        "n_evidence": np.ones(n, np.int64),
        "first_conv_id": np.concatenate([c_ng[I_co], c_ng[I_fo]]),
        "first_turn_idx": np.concatenate([t_ng[I_co], t_ng[I_fo]]),
    })


def _decode_triples(ents: pa.Array, convs: pa.Array,
                    codes: pa.Table) -> pa.Table:
    """The string columns of coded triple rows, decoded by ``take``."""
    return pa.table({
        "subj": ents.take(codes.column("subj")),
        "pred": _PREDS.take(codes.column("pred")),
        "obj": ents.take(codes.column("obj")),
        "n_evidence": codes.column("n_evidence"),
        "first_conv_id": convs.take(codes.column("first_conv_id")),
        "first_turn_idx": codes.column("first_turn_idx"),
    })


def _block_pairs(batch: pa.Table) -> pa.Table:
    """One-evidence partial triple rows of one bucket-sorted block (the
    exchange path): :func:`_pair_codes` with every row's strings
    decoded."""
    pairs = _pair_codes(batch)
    if pairs is None:
        return _PARTIAL_TRIPLES_EMPTY
    return _decode_triples(*pairs)


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
    turn), so shuffle #2 is a :func:`arrowutil.keyed_complete` whose
    ``grouped_agg`` sums ``n_evidence`` and takes both ``first_*`` minima
    per (subj, pred, obj); the two minima may come from different rows.

    The input is materialized (a lazy one as its distinct turn-entity
    rows); at most ``arrowutil.FOLD_MAX_BYTES`` of it skips both
    shuffles: one :func:`_pair_codes` and one ``grouped_agg`` over the
    int64 codes of every pair, on the driver, then one decode of the
    distinct triples' strings (codes sort as their strings, so the code
    minima decode to the string minima).  ``salt_span``/``n_buckets``
    shape only the exchange above the cap.

    Output: (subj, pred, obj, n_evidence, first_conv_id, first_turn_idx).
    """
    keys = ["subj", "pred", "obj"]
    aggs = [("n_evidence", "sum"), ("first_conv_id", "min"),
            ("first_turn_idx", "min")]
    if not isinstance(linked, MaterializedDataset):
        linked = linked.map_batches(_turn_entities, batch_format="pyarrow",
                                    batch_size=COMBINE_BATCH).materialize()
    tbl = driver_table(linked, op="emit_triples")
    if tbl is not None:
        te = tbl.select(["conv_id", "turn_idx", "entity_id"])
        te = te.append_column("ghost", pa.array(np.zeros(len(te), bool)))
        pairs = _pair_codes(te)
        if pairs is None:
            return rd.from_arrow(
                grouped_agg(_PARTIAL_TRIPLES_EMPTY, keys, aggs))
        ents, convs, codes = pairs
        return rd.from_arrow(
            _decode_triples(ents, convs, grouped_agg(codes, keys, aggs)))
    if n_buckets is None:
        n_buckets = 65536
    raw = keyed_exchange(
        _bucketed_turn_entities(linked, salt_span, n_buckets), ["bucket"],
        _block_pairs)
    agg = functools.partial(grouped_agg, keys=keys, aggs=aggs)
    return keyed_complete(raw, keys, agg, combine=agg,
                          op="emit_triples.dedup")


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
    """Compose the full build; returns Datasets keyed by stage.  The
    ``entities`` and ``triples`` branches run here, eagerly: under
    ``arrowutil.FOLD_MAX_BYTES`` they fold on the driver (tens of ms).

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


def _agg_distinct(t: pa.Table, keys: list[str],
                  aggs: list[tuple[str, str]],
                  distinct: list[tuple[str, list[str]]]) -> pa.Table:
    """``grouped_agg(t, keys, aggs)`` plus one int64 column per ``(name,
    cols)`` entry of ``distinct``: the number of distinct ``cols`` value
    tuples per key (pandas ``nunique``), each a ``grouped_agg`` distinct
    on ``keys + cols`` followed by a count.  Sorted by ``keys``.

    Null-key rule: a row with a null key drops, and a null in ``cols``
    is not counted (as ``nunique`` skips NaN)."""
    out = grouped_agg(t, keys, aggs)
    for name, cols in distinct:
        n = grouped_agg(grouped_agg(t, keys + cols, []), keys,
                        [(cols[0], "count")])
        out = out.join(n.rename_columns(keys + [name]), keys,
                       use_threads=False)
    return out.sort_by([(k, "ascending") for k in keys])


def _int64s(n: int, value: int = 1) -> pa.Array:
    return pa.array(np.full(n, value, np.int64))


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

    Shape: ONE sort of the :func:`_turn_entities` partials on
    (conv_id, turn_idx) ALONE — a turn's rows land whole per block
    (equal keys never split; sorting on the 3-key composite would
    split a turn across blocks and double-count it), so per-block
    distinct, per-entity distinct-turn counts AND the distinct-turn
    total are all exact.  Entity vocabulary is lexicon-bounded, so the
    per-block counts fold on the driver (:func:`arrowutil.agg_fold`)
    and ride the final annotate pass; the corpus-scale triple table
    streams.

    Null-key rule: a linked row with a null conv_id, turn_idx or
    entity_id counts toward nothing (pandas ``drop_duplicates`` kept it
    and counted its turn in n_turns).

    Output: (subj, obj, n_co, n_subj, n_obj, n_turns) — all int64."""

    def block_counts(batch: pa.Table) -> pa.Table:
        te = _turn_entities(batch)
        n_turns = grouped_agg(te, ["conv_id", "turn_idx"], []).num_rows
        # "" is the distinct-turn-total sentinel (entity ids are
        # E-prefixed, so it cannot collide)
        return pa.concat_tables([
            grouped_agg(te, ["entity_id"], [("turn_idx", "count")])
            .rename_columns(["entity_id", "n"]),
            pa.table({"entity_id": pa.array([""], pa.string()),
                      "n": _int64s(1, n_turns)})])

    counts = agg_fold(
        keyed_complete(linked, ["conv_id", "turn_idx"], block_counts,
                       combine=_turn_entities, op="association_stats.turns"),
        ["entity_id"], [("n", "sum")], op="association_stats",
        empty=block_counts(pa.table({c: pa.array([], pa.string())
                                     for c in TE_KEYS})))
    total = pc.equal(counts.column("entity_id"), "")
    n_turns = pc.sum(counts.filter(total).column("n")).as_py() or 0
    ents = counts.filter(pc.invert(total))
    ent_ids = ents.column("entity_id").combine_chunks()

    def annotate(batch: pa.Table) -> pa.Table:
        co = batch.filter(pc.equal(batch.column("pred"), CO_OCCURS))

        def n_of(col: str):
            return ents.column("n").take(
                pc.index_in(co.column(col), value_set=ent_ids))

        return pa.table({
            "subj": co.column("subj"), "obj": co.column("obj"),
            "n_co": co.column("n_evidence").cast(pa.int64()),
            "n_subj": n_of("subj"), "n_obj": n_of("obj"),
            "n_turns": _int64s(co.num_rows, n_turns),
        })

    return triples.map_batches(annotate, batch_format="pyarrow",
                               batch_size=COMBINE_BATCH)


def mention_ts_join(linked: rd.Dataset,
                    turns_ts: rd.Dataset) -> rd.Dataset:
    """The mentions⋈turns timestamp join SHARED by
    :func:`mention_timeline` and :func:`entity_daily` (and computed
    once by :func:`kg_report`): mention rows become (conv_id, turn_idx,
    entity_id, cnt) partials summed per block, turn rows (conv_id,
    turn_idx, us), and ONE :func:`arrowutil.cogroup` on the
    high-cardinality (conv_id, turn_idx) composite sums the partials
    and attaches us with an Arrow inner join.

    Null-key rule: a mention or turn row with a null key drops, as the
    pandas groupby and merge dropped it (``grouped_agg`` drops it in
    each side's map).

    Output: (entity_id, conv_id, turn_idx, cnt, us), one row per
    (entity_id, conv_id, turn_idx) with a turn row."""
    turn = ["conv_id", "turn_idx"]
    counts = functools.partial(grouped_agg, keys=turn + ["entity_id"],
                               aggs=[("cnt", "sum")])
    times = functools.partial(grouped_agg, keys=turn, aggs=[("us", "max")])

    def attach_ts(m: pa.Table, t: pa.Table) -> pa.Table:
        return counts(m).join(times(t), turn, join_type="inner",
                              use_threads=False).select(
            ["entity_id", "conv_id", "turn_idx", "cnt", "us"])

    return cogroup([
        typed_map(linked, lambda b: counts(pa.table({
            "conv_id": b.column("conv_id"),
            "turn_idx": b.column("turn_idx").cast(pa.int64()),
            "entity_id": b.column("entity_id"),
            "cnt": _int64s(b.num_rows, 1)}))),
        typed_map(turns_ts, lambda b: times(pa.table({
            "conv_id": b.column("conv_id"),
            "turn_idx": b.column("turn_idx").cast(pa.int64()),
            "us": b.column("ts").cast(pa.int64())})))],
        turn, attach_ts, op="mention_ts_join")


def mention_timeline(linked: rd.Dataset, turns_ts: rd.Dataset,
                     *, joined: rd.Dataset | None = None) -> rd.Dataset:
    """Per-entity temporal profile: total mentions, distinct mention
    turns / conversations, and first / last mention timestamps (epoch
    microseconds) plus the active span.

    The tagger drops non-key turn columns, so the timestamp comes back
    via :func:`mention_ts_join`; then ONE sort on entity_id and a
    per-block :func:`_agg_distinct` compute the sums, min/max and
    distinct counts exactly (an entity's rows are whole in one block).
    Null-key rule: as in :func:`mention_ts_join`.

    All outputs are exact integers (epoch micros, counts), so the
    DuckDB oracle matches bitwise.  Reference analog: the mention
    table join back to note metadata for temporal reporting
    (ClinicalTransformerNER emits per-document TSV/BRAT mention rows
    keyed by source file; time profiling is downstream of that join).
    """

    def complete(batch: pa.Table) -> pa.Table:
        us = batch.column("us")
        g = _agg_distinct(
            batch.append_column("first_us", us).append_column("last_us", us),
            ["entity_id"],
            [("cnt", "sum"), ("first_us", "min"), ("last_us", "max")],
            [("n_turns", ["conv_id", "turn_idx"]), ("n_convs", ["conv_id"])])
        return pa.table({
            "entity_id": g.column("entity_id"),
            "n_mentions": g.column("cnt"),
            "n_turns": g.column("n_turns"),
            "n_convs": g.column("n_convs"),
            "first_us": g.column("first_us"),
            "last_us": g.column("last_us"),
            "span_us": pc.subtract(g.column("last_us"),
                                   g.column("first_us")),
        })

    j = joined if joined is not None else \
        mention_ts_join(linked, turns_ts)
    return keyed_complete(j, ["entity_id"], complete, op="mention_timeline")


def conversation_stats(turns: rd.Dataset) -> rd.Dataset:
    """Per-conversation transcript profile straight off the turns
    table (no tagger): turn counts per role, total whitespace tokens,
    and the conversation's epoch-us time span — the corpus-triage
    report a pipeline runs BEFORE any model stage.

    One :func:`arrowutil.keyed_complete` on the high-cardinality conv_id
    over one partial row per turn, summed by ``grouped_agg`` (counts and
    sums, min/max: all merge associatively).  Null-key rule: a turn with
    a null conv_id drops, as the pandas groupby dropped it."""

    def partial(batch: pa.Table) -> pa.Table:
        role = batch.column("role")
        ts = batch.column("ts").cast(pa.int64())

        def is_role(r: str) -> pa.Array:
            return pc.fill_null(pc.equal(role, r), False).cast(pa.int64())

        return pa.table({
            "conv_id": batch.column("conv_id"),
            "n_turns": _int64s(batch.num_rows),
            "n_user": is_role("user"),
            "n_assistant": is_role("assistant"),
            "n_tool": is_role("tool"),
            "n_tokens": pc.add(pc.count_substring(pc.fill_null(
                batch.column("text"), ""), " "), 1).cast(pa.int64()),
            "first_us": ts,
            "last_us": ts,
        })

    agg = functools.partial(grouped_agg, keys=["conv_id"], aggs=[
        ("n_turns", "sum"), ("n_user", "sum"), ("n_assistant", "sum"),
        ("n_tool", "sum"), ("n_tokens", "sum"), ("first_us", "min"),
        ("last_us", "max")])
    return keyed_complete(turns.map_batches(partial, batch_format="pyarrow"),
                          ["conv_id"], agg, combine=agg,
                          op="conversation_stats")


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

    Shape: batch-local :func:`_turn_entities`, ONE sort on conv_id (a
    conversation's rows land whole per block), a per-block window join
    — for each offset d in 1..window an Arrow inner join of the
    turn-entity table against itself shifted by d (no Python pair
    loops), one :func:`arrowutil.keyed_exchange` — then a summing
    ``grouped_agg`` keyed on the pair, one ``keyed_complete``.
    Null-key rule: a linked row with a null key pairs with nothing
    (pandas kept it, and its merge matched null conv_ids together).

    Output: (subj, obj, gap, n_pairs): n_pairs = count of (conv,
    turn_a, turn_b) incidences at that exact gap."""

    def window_pairs(batch: pa.Table) -> pa.Table:
        te = _turn_entities(batch)
        turn = te.column("turn_idx")
        outs = [pa.table({"subj": pa.array([], pa.string()),
                          "obj": pa.array([], pa.string()),
                          "gap": _int64s(0), "n_pairs": _int64s(0)})]
        for d in range(1, window + 1):
            nxt = te.set_column(1, "turn_idx",
                                pc.subtract(turn, pa.scalar(d, turn.type)))
            j = te.join(nxt, ["conv_id", "turn_idx"], join_type="inner",
                        left_suffix="_a", right_suffix="_b",
                        use_threads=False)
            j = j.filter(pc.not_equal(j.column("entity_id_a"),
                                      j.column("entity_id_b")))
            outs.append(pa.table({
                "subj": j.column("entity_id_a").cast(pa.string()),
                "obj": j.column("entity_id_b").cast(pa.string()),
                "gap": _int64s(j.num_rows, d),
                "n_pairs": _int64s(j.num_rows),
            }))
        return pa.concat_tables(outs)

    agg = functools.partial(grouped_agg, keys=["subj", "obj", "gap"],
                            aggs=[("n_pairs", "sum")])
    return keyed_complete(
        keyed_exchange(linked, ["conv_id"], window_pairs,
                       combine=_turn_entities),
        ["subj", "obj", "gap"], agg, combine=agg, op="near_cooccurrence")


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
    distinct-turn count (:func:`_agg_distinct`) is block-local exact.
    Null-key rule: as in :func:`mention_ts_join`.

    Output: (entity_id, day, n_mentions, n_turns)."""
    DAY_US = 86_400_000_000

    def with_day(batch: pa.Table) -> pa.Table:
        us = batch.column("us").to_numpy()
        return batch.select(["entity_id", "conv_id", "turn_idx", "cnt"]
                            ).append_column("day", pa.array(us // DAY_US))

    def complete(batch: pa.Table) -> pa.Table:
        return _agg_distinct(
            batch, ["entity_id", "day"], [("cnt", "sum")],
            [("n_turns", ["conv_id", "turn_idx"])]).rename_columns(
            ["entity_id", "day", "n_mentions", "n_turns"])

    j = joined if joined is not None else \
        mention_ts_join(linked, turns_ts)
    return keyed_complete(j.map_batches(with_day, batch_format="pyarrow"),
                          ["entity_id", "day"], complete, op="entity_daily")


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

    def rows(batch: pa.Table, section: str, day: bool,
             vals: list[str]) -> pa.Table:
        m = batch.num_rows
        zero = _int64s(m, 0)
        cols = [batch.column(c).cast(pa.int64()) for c in vals]
        return pa.table(
            [pa.array([section] * m, pa.string()),
             batch.column("entity_id").cast(pa.string()),
             batch.column("day").cast(pa.int64()) if day else zero]
            + cols + [zero] * (6 - len(cols)),
            names=["section", "entity_id", "day",
                   "v1", "v2", "v3", "v4", "v5", "v6"])

    tl = mention_timeline(linked, turns_ts, joined=joined).map_batches(
        rows, fn_args=("timeline", False, [
            "n_mentions", "n_turns", "n_convs", "first_us", "last_us",
            "span_us"]), batch_format="pyarrow")
    dl = entity_daily(linked, turns_ts, joined=joined).map_batches(
        rows, fn_args=("daily", True, ["n_mentions", "n_turns"]),
        batch_format="pyarrow")
    return tl.union(dl).sort(["section", "entity_id", "day"])


def _daily_fold(ed: rd.Dataset, partial, aggs: list[tuple[str, str]],
                op: str) -> pa.Table:
    """Per-entity ``aggs`` over an :func:`entity_daily` output: each
    block maps to partial rows with ``partial(day, n_mentions)`` (a dict
    of int64 columns), summed per block and folded on the driver with
    :func:`arrowutil.agg_fold` (lexicon x active-days bounded, checked
    against the fold cap).  Sorted by entity_id."""
    empty = pa.table({"entity_id": pa.array([], pa.string())}
                     | {c: pa.array([], pa.int64()) for c, _ in aggs})

    def block(batch: pa.Table) -> pa.Table:
        cols = partial(batch.column("day").to_numpy(),
                       batch.column("n_mentions").to_numpy())
        return grouped_agg(pa.table(
            {"entity_id": batch.column("entity_id")}
            | {c: pa.array(v, pa.int64()) for c, v in cols.items()}),
            ["entity_id"], aggs)

    return agg_fold(ed.map_batches(block, batch_format="pyarrow"),
                    ["entity_id"], aggs, op=op, empty=empty)


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
    bounded; two :func:`arrowutil.agg_fold` passes keep driver state
    small and checked: the global max day (keyless), then per-entity
    partial saliences (exact-integer associative), over entity_daily
    materialized ONCE (consumed twice — the repo's no-CSE rule).  Zero
    additional wide ops beyond entity_daily's own sort.  Null-key rule:
    as in :func:`mention_ts_join`.

    Output pa.Table (entity_id, n_days, n_mentions, last_day,
    salience_fp), sorted by entity_id."""
    ed = entity_daily(linked, turns_ts).materialize()
    dmax = agg_fold(ed, [], [("day", "max")],
                    op="entity_salience",
                    empty=pa.table({"day": pa.array([], pa.int64())}))
    dmax = dmax.column("day")[0].as_py() if dmax.num_rows else 0

    def partial(day: np.ndarray, y: np.ndarray) -> dict:
        age = dmax - day
        w = np.where(age <= k_bits,
                     np.int64(1) << np.minimum(
                         np.maximum(k_bits - age, 0), k_bits),
                     np.int64(0))
        return {"n_days": np.ones(len(day), np.int64), "n_mentions": y,
                "last_day": day, "salience_fp": y * w}

    return _daily_fold(ed, partial,
                       [("n_days", "sum"), ("n_mentions", "sum"),
                        ("last_day", "max"), ("salience_fp", "sum")],
                       "entity_salience")


def entity_trend(linked: rd.Dataset, turns_ts: rd.Dataset) -> pa.Table:
    """Rising vs declining entities: the SIGN of the least-squares
    slope of each entity's daily mention counts over its active days,
    computed from exact integer sufficient statistics only —
    ``trend_num = N*Σ(day*y) - Σday*Σy`` (the slope numerator; the
    denominator ``N*Σday² - (Σday)²`` is positive for N >= 2, so the
    numerator's sign IS the slope's sign).  No float ever enters, so
    the classification is deterministic on both engines; the products
    are overflow-checked.

    Scale shape: per-block integer partials of (N, Σday, Σy, Σday*y)
    per entity over the entity_daily stream (associative in any
    order), folded by :func:`arrowutil.agg_fold` — zero wide ops beyond
    entity_daily's own sort.  Null-key rule: as in
    :func:`mention_ts_join`.

    Output pa.Table (entity_id, n_days, n_mentions, trend_num, trend)
    with trend ∈ {-1, 0, 1}, sorted by entity_id."""
    g = _daily_fold(
        entity_daily(linked, turns_ts),
        lambda day, y: {"n": np.ones(len(day), np.int64), "st": day,
                        "sy": y, "sty": day * y},
        [("n", "sum"), ("st", "sum"), ("sy", "sum"), ("sty", "sum")],
        "entity_trend")
    num = pc.subtract_checked(
        pc.multiply_checked(g.column("n"), g.column("sty")),
        pc.multiply_checked(g.column("st"), g.column("sy")))
    return pa.table({
        "entity_id": g.column("entity_id"),
        "n_days": g.column("n"),
        "n_mentions": g.column("sy"),
        "trend_num": num,
        "trend": pc.sign(num).cast(pa.int64()),
    })
