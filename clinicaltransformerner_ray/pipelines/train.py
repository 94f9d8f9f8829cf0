"""Distributed training loop + dev-driven model selection (SURVEY.md §2
T6/A6 — the reference's `train`/`evaluate`,
`src/transformer_ner/task.py:212-356,435-464`, re-expressed
Ray-Data-first).

The reference trains a transformer by streaming minibatches through
per-batch forward/backward.  The engine's trainable model is the mock
scorer's *emission table*: a linear softmax classifier
``score[c] = W[c, bucket(token)] + b[c]`` over md5-hashed token buckets
— i.e. exactly the "embedding" parameter family the reference's
FGM/PGD adversarial utilities perturb (`model_utils.py:247-347`).  For
such a categorical-feature GLM the entire corpus collapses to exact
integer sufficient statistics::

    N[g, d]    = #positions in micro-batch g whose token hashes to d
    Y[g, d, c] = #those positions whose gold label is c

so the Ray-side cost is ONE streaming ``map_batches`` pass emitting
sparse int64 partials (mergeable, bounded by the model size
``n_micro × n_buckets × n_labels`` — the lexicon-bounded driver-fold
pattern of ``graph.pagerank``), and the epochs × steps optimizer loop
runs on the driver against those statistics with bit-exact,
block-split-invariant arithmetic (integer partial sums are exactly
associative).  At 100 TB this is one pass over the data per training
run — not one per epoch — while preserving the reference loop's
semantics step for step:

  - micro-batches: positions are hash-partitioned into
    ``steps_per_epoch × gradient_accumulation_steps`` fixed groups; the
    driver walks them in order, scaling each loss by
    ``1/gradient_accumulation_steps`` and stepping the optimizer every
    ``gradient_accumulation_steps`` micro-batches (task.py:296-321),
  - optimizer: numpy AdamW (decoupled weight decay on W, none on the
    bias — the reference's `no_decay` grouping, task.py:219-226) with
    global-norm gradient clipping (task.py:311-315),
  - LR schedule: :func:`linear_warmup_lambda` replicates
    `get_linear_schedule_with_warmup` (model_utils.py:11-20) EXACTLY,
    including ``min_lr`` acting as a floor on the *multiplier* (not the
    absolute LR) and the post-step scheduler advance — the first
    optimizer step runs at multiplier ``lambda(0)`` (0 when warming up),
  - adversarial training: FGM (attack = ``eps · grad/‖grad‖`` on the
    embedding param, re-score, restore; model_utils.py:247-283) and PGD
    (k=3 hardcoded like task.py:188-190, alpha-step + eps-ball
    projection, grad backup/zero/restore dance; model_utils.py:286-347)
    applied to W with the accumulated-gradient semantics of
    ``param.grad`` under gradient accumulation,
  - A6 model selection: dev evaluated per epoch (or every
    ``train_steps`` optimizer steps after epoch 0, task.py:323-346),
    scored with the engine's BioEval-parity counters
    (`functions/eval_bio.py`); a new best requires
    ``cur - best > 1e-5`` (task.py:448) and saves
    ``checkpoint_{step}.bin`` with top-k retention
    (`state/artifacts.save_checkpoint`),
  - early stop: per-epoch no-improvement counter, break when it
    reaches ``early_stop`` (task.py:348-356).

The dev split is collected to the driver as compact (bucket-id,
label-id) sequences — the reference likewise holds ``dev_features`` in
memory for its per-epoch evaluations (task.py:361); dev is the small
curated split by construction.  Trained weights feed back into the
distributed inference path via :func:`tag_with_model` (a broadcast
``ray.put`` payload + one vectorized ``map_batches``), closing the
train → select → predict lifecycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from clinicaltransformerner_ray.functions.eval_bio import (
    eval_sentence_pair,
    merge_counters,
    performance,
)
from clinicaltransformerner_ray.labels import O, build_label_vocab, invert
from clinicaltransformerner_ray.stages.stage_map import map_stage
from clinicaltransformerner_ray.state.artifacts import (
    check_resume_vocab,
    save_checkpoint,
    save_label_vocab,
    save_run_config,
)

# ---------------------------------------------------------------------------
# hashing + LR schedule (pure, driver/worker shared)


def _hash64(s: str) -> int:
    """md5-derived 64-bit hash — the engine's standard (DuckDB
    ``md5_number_upper`` parity, CLAUDE.md round-3 rule 1)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def _bucket_tokens(tokens: np.ndarray, n_buckets: int) -> np.ndarray:
    """Vectorized-ish token hashing: md5 only the UNIQUE tokens (the
    vocabulary is corpus-bounded), map back via inverse indices."""
    uniq, inv = np.unique(tokens, return_inverse=True)
    codes = np.fromiter(
        (_hash64(t) % n_buckets for t in uniq), dtype=np.int64, count=len(uniq)
    )
    return codes[inv]


def linear_warmup_lambda(step: int, num_warmup_steps: int,
                         num_training_steps: int,
                         min_lr: float = 1e-6) -> float:
    """The reference's LR multiplier (`model_utils.py:11-20`): linear
    warmup to 1.0, then linear decay floored at ``min_lr`` — the floor
    applies to the MULTIPLIER, exactly like the original lambda."""
    if step < num_warmup_steps:
        return float(step) / float(max(1, num_warmup_steps))
    return max(
        min_lr,
        float(num_training_steps - step)
        / float(max(1, num_training_steps - num_warmup_steps)),
    )


# ---------------------------------------------------------------------------
# distributed sufficient statistics (the one pass over the data)

_STATS_SCHEMA = pa.schema([("key", pa.int64()), ("count", pa.int64())])


def _micro_of(doc_ids: np.ndarray, sent_idx: np.ndarray,
              n_micro: int) -> np.ndarray:
    """Deterministic micro-batch id per sentence: md5 of the sentence
    key — stable across runs, block splits and cluster sizes (the
    RandomSampler analog O5 but reproducible, data_utils.py:381-382)."""
    return np.fromiter(
        (_hash64(f"{d}\x1f{s}") % n_micro
         for d, s in zip(doc_ids, sent_idx)),
        dtype=np.int64, count=len(doc_ids))


def collect_stats(sentences: rd.Dataset, label2idx: dict[str, int],
                  *, n_buckets: int = 4096,
                  n_micro: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """ONE streaming pass over the (doc_id, sent_idx, tokens, labels)
    sentence Dataset -> dense exact-integer sufficient statistics
    ``N (n_micro, n_buckets)`` and ``Y (n_micro, n_buckets, n_labels)``.

    Each block emits sparse ``(key, count)`` int64 partials
    (key = (micro·D + bucket)·K + label); integer sums are exactly
    associative, so the fold is block-split-invariant by construction
    (CLAUDE.md round-5 rule 3)."""
    n_labels = len(label2idx)
    o_id = label2idx[O]
    lab_items = sorted(label2idx.items())
    lab_keys = np.asarray([k for k, _ in lab_items])
    lab_vals = np.asarray([v for _, v in lab_items], dtype=np.int64)

    def per_block(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(batch.column("tokens"))
        parents = pc.list_parent_indices(batch.column("tokens")).to_numpy()
        if len(toks) == 0:
            return _STATS_SCHEMA.empty_table()
        labs = pc.list_flatten(batch.column("labels")).to_numpy(
            zero_copy_only=False).astype(str)
        micro_row = _micro_of(
            batch.column("doc_id").to_numpy(zero_copy_only=False),
            batch.column("sent_idx").to_numpy(zero_copy_only=False),
            n_micro)
        micro = micro_row[parents]
        buckets = _bucket_tokens(
            toks.to_numpy(zero_copy_only=False).astype(str), n_buckets)
        # label -> id with OOV -> 'O' (data_utils.py:241)
        pos = np.searchsorted(lab_keys, labs)
        pos = np.clip(pos, 0, len(lab_keys) - 1)
        lab_id = np.where(lab_keys[pos] == labs, lab_vals[pos], o_id)
        key = (micro * n_buckets + buckets) * n_labels + lab_id
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "key": pa.array(uniq, pa.int64()),
            "count": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    parts = sentences.map_batches(per_block, batch_format="pyarrow",
                                  batch_size=1 << 16)
    y = np.zeros(n_micro * n_buckets * n_labels, dtype=np.int64)
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        np.add.at(y, blk.column("key").to_numpy(),
                  blk.column("count").to_numpy())
    y = y.reshape(n_micro, n_buckets, n_labels)
    return y.sum(axis=2), y


def stats_table(sentences: rd.Dataset, label2idx: dict[str, int],
                *, n_buckets: int = 512, n_micro: int = 4) -> pa.Table:
    """Sparse view of :func:`collect_stats` for the driver correctness
    gate: ``(key, n)`` rows with ``key = (micro·D + bucket)·K + label``
    over nonzero cells only — exact integers end to end, so the DuckDB
    replica (md5_number_upper token/micro hashing + positional BIO
    labeling in SQL) matches bit for bit."""
    _, Y = collect_stats(sentences, label2idx,
                         n_buckets=n_buckets, n_micro=n_micro)
    flat = Y.reshape(-1)
    nz = np.nonzero(flat)[0]
    return pa.table({
        "key": pa.array(nz.astype(np.int64), pa.int64()),
        "n": pa.array(flat[nz], pa.int64()),
    })


def collect_dev(sentences: rd.Dataset, label2idx: dict[str, int],
                *, n_buckets: int = 4096):
    """Dev split -> driver-held compact sequences: flat bucket ids, flat
    gold label ids, and per-sentence offsets (deterministic
    (doc_id, sent_idx) order).  Dev is the small curated split; the
    reference holds its dev_features in memory the same way
    (task.py:361,417)."""
    lab_items = sorted(label2idx.items())
    lab_keys = np.asarray([k for k, _ in lab_items])
    lab_vals = np.asarray([v for _, v in lab_items], dtype=np.int64)
    o_id = label2idx[O]

    def per_block(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens")
        flat = pc.list_flatten(toks)
        buckets = (_bucket_tokens(
            flat.to_numpy(zero_copy_only=False).astype(str), n_buckets)
            if len(flat) else np.empty(0, np.int64))
        labs = pc.list_flatten(batch.column("labels")).to_numpy(
            zero_copy_only=False).astype(str)
        if len(labs):
            pos = np.clip(np.searchsorted(lab_keys, labs), 0,
                          len(lab_keys) - 1)
            lab_id = np.where(lab_keys[pos] == labs, lab_vals[pos], o_id)
        else:
            lab_id = np.empty(0, np.int64)
        offs = toks.combine_chunks().offsets.to_numpy()
        n = len(batch)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "sent_idx": batch.column("sent_idx"),
            "buckets": pa.array(
                [buckets[offs[i]:offs[i + 1]].tolist() for i in range(n)],
                pa.list_(pa.int64())),
            "lab_ids": pa.array(
                [lab_id[offs[i]:offs[i + 1]].tolist() for i in range(n)],
                pa.list_(pa.int64())),
        })

    rows = (sentences
            .map_batches(per_block, batch_format="pyarrow")
            .sort(["doc_id", "sent_idx"])
            .take_all())
    bucket_seqs = [np.asarray(r["buckets"], dtype=np.int64) for r in rows]
    label_seqs = [np.asarray(r["lab_ids"], dtype=np.int64) for r in rows]
    return bucket_seqs, label_seqs


def collect_stats_and_dev(sentences: rd.Dataset, label2idx: dict[str, int],
                          is_dev, *, n_buckets: int = 4096,
                          n_micro: int = 1):
    """ONE streaming pass over the FULL sentence Dataset when train/dev
    are a per-doc split of the same rows (the dual-lexicon-eval
    precedent: both sides derive from the same input, so splitting
    INSIDE the block removes the two-consumer ``materialize`` barrier,
    the second pass, and :func:`collect_dev`'s Dataset sort — dev rows
    are sorted on the driver instead, where the split is small by
    construction).  ``is_dev(uniq_doc_ids) -> bool mask`` decides the
    split per unique doc id.  Returns ``(N, Y, dev_buckets,
    dev_labels)`` bit-identical to running :func:`collect_stats` /
    :func:`collect_dev` over pre-filtered datasets: the per-row hashing
    and the exact-integer fold are row-wise, so filter-then-compute ==
    compute-then-filter, and integer partial sums are exactly
    associative (block-split invariant)."""
    n_labels = len(label2idx)
    o_id = label2idx[O]
    lab_items = sorted(label2idx.items())
    lab_keys = np.asarray([k for k, _ in lab_items])
    lab_vals = np.asarray([v for _, v in lab_items], dtype=np.int64)

    _schema = pa.schema([
        ("kind", pa.int64()), ("key", pa.int64()), ("count", pa.int64()),
        ("doc_id", pa.string()), ("sent_idx", pa.int64()),
        ("buckets", pa.list_(pa.int64())),
        ("lab_ids", pa.list_(pa.int64())),
    ])

    def _lab_ids(labs: np.ndarray) -> np.ndarray:
        if not len(labs):
            return np.empty(0, np.int64)
        pos = np.clip(np.searchsorted(lab_keys, labs), 0,
                      len(lab_keys) - 1)
        return np.where(lab_keys[pos] == labs, lab_vals[pos], o_id)

    def per_block(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _schema.empty_table()
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(str)
        uniq, inv = np.unique(ids, return_inverse=True)
        dev_mask = np.asarray(is_dev(uniq), dtype=bool)[inv]
        tr = batch.filter(pa.array(~dev_mask))
        dv = batch.filter(pa.array(dev_mask))
        out = [_schema.empty_table()]

        toks = pc.list_flatten(tr.column("tokens"))
        if len(toks):
            parents = pc.list_parent_indices(tr.column("tokens")).to_numpy()
            labs = pc.list_flatten(tr.column("labels")).to_numpy(
                zero_copy_only=False).astype(str)
            micro = _micro_of(
                tr.column("doc_id").to_numpy(zero_copy_only=False),
                tr.column("sent_idx").to_numpy(zero_copy_only=False),
                n_micro)[parents]
            buckets = _bucket_tokens(
                toks.to_numpy(zero_copy_only=False).astype(str), n_buckets)
            key = (micro * n_buckets + buckets) * n_labels + _lab_ids(labs)
            u, cnt = np.unique(key, return_counts=True)
            out.append(pa.table({
                "kind": pa.array(np.zeros(len(u), np.int64), pa.int64()),
                "key": pa.array(u, pa.int64()),
                "count": pa.array(cnt.astype(np.int64), pa.int64()),
                "doc_id": pa.array([""] * len(u), pa.string()),
                "sent_idx": pa.array(np.zeros(len(u), np.int64),
                                     pa.int64()),
                "buckets": pa.array([[]] * len(u), pa.list_(pa.int64())),
                "lab_ids": pa.array([[]] * len(u), pa.list_(pa.int64())),
            }))

        if len(dv):
            dtoks = dv.column("tokens")
            flat = pc.list_flatten(dtoks)
            db = (_bucket_tokens(
                flat.to_numpy(zero_copy_only=False).astype(str), n_buckets)
                if len(flat) else np.empty(0, np.int64))
            dl = _lab_ids(pc.list_flatten(dv.column("labels")).to_numpy(
                zero_copy_only=False).astype(str))
            offs = dtoks.combine_chunks().offsets.to_numpy()
            n = len(dv)
            out.append(pa.table({
                "kind": pa.array(np.ones(n, np.int64), pa.int64()),
                "key": pa.array(np.zeros(n, np.int64), pa.int64()),
                "count": pa.array(np.zeros(n, np.int64), pa.int64()),
                "doc_id": pc.cast(dv.column("doc_id"), pa.string()),
                "sent_idx": pc.cast(dv.column("sent_idx"), pa.int64()),
                "buckets": pa.array(
                    [db[offs[i]:offs[i + 1]].tolist() for i in range(n)],
                    pa.list_(pa.int64())),
                "lab_ids": pa.array(
                    [dl[offs[i]:offs[i + 1]].tolist() for i in range(n)],
                    pa.list_(pa.int64())),
            }))
        return pa.concat_tables(out, promote_options="default")

    parts = sentences.map_batches(per_block, batch_format="pyarrow",
                                  batch_size=1 << 16)
    y = np.zeros(n_micro * n_buckets * n_labels, dtype=np.int64)
    dev_rows: list[tuple] = []
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        kind = blk.column("kind").to_numpy()
        st = blk.filter(pa.array(kind == 0))
        np.add.at(y, st.column("key").to_numpy(),
                  st.column("count").to_numpy())
        for r in blk.filter(pa.array(kind == 1)).to_pylist():
            dev_rows.append((r["doc_id"], r["sent_idx"],
                             np.asarray(r["buckets"], np.int64),
                             np.asarray(r["lab_ids"], np.int64)))
    # deterministic (doc_id, sent_idx) order == collect_dev's Dataset
    # sort (ASCII ids: Python str < is binary-codepoint, like Arrow)
    dev_rows.sort(key=lambda r: (r[0], r[1]))
    y = y.reshape(n_micro, n_buckets, n_labels)
    return (y.sum(axis=2), y,
            [r[2] for r in dev_rows], [r[3] for r in dev_rows])


def entity_types_from_sentences(sentences: rd.Dataset) -> list[str]:
    """A10-style unique type collection from BIO labels: distinct
    ``B-/I-`` suffixes (sorted), per-block unique partials folded on
    the driver (the label set is corpus-bounded)."""

    def per_block(batch: pa.Table) -> pa.Table:
        labs = pc.list_flatten(batch.column("labels"))
        uniq = pc.unique(labs).to_pylist()
        types = sorted({lb.split("-", 1)[1] for lb in uniq
                        if isinstance(lb, str) and "-" in lb})
        return pa.table({"type": pa.array(types, pa.string())})

    parts = sentences.map_batches(per_block, batch_format="pyarrow")
    out: set[str] = set()
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        out.update(blk.column("type").to_pylist())
    return sorted(out)


# ---------------------------------------------------------------------------
# driver-side optimizer machinery


class _AdamW:
    """Numpy AdamW with decoupled weight decay (the reference's
    optimizer, task.py:219-226; bias param is in the `no_decay` group)."""

    def __init__(self, shapes, lr=5e-2, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.lr, self.betas, self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self.t = 0

    def step(self, params, grads, lr_scale: float, decay_mask):
        self.t += 1
        b1, b2 = self.betas
        lr = self.lr * lr_scale
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            p -= lr * (mhat / (np.sqrt(vhat) + self.eps))
            if decay_mask[i] and self.weight_decay:
                p -= lr * self.weight_decay * p


def _softmax_cols(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _loss_and_grads(W, b, N, Y, accum: int):
    """Cross-entropy + gradients for one micro-batch's statistics,
    scaled by 1/accum (task.py:296-298)."""
    n = int(N.sum())
    if n == 0:
        return 0.0, np.zeros_like(W), np.zeros_like(b)
    P = _softmax_cols(W + b[:, None])            # (K, D)
    logP = np.log(np.maximum(P, 1e-300))
    loss = -float((Y.T * logP).sum()) / n / accum
    G = (N[None, :] * P - Y.T) / n / accum       # (K, D)
    return loss, G, G.sum(axis=1)


def _global_norm(gW, gb) -> float:
    return float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))


# ---------------------------------------------------------------------------
# the training loop (T6) + model selection (A6)


@dataclass
class TrainResult:
    W: np.ndarray
    b: np.ndarray
    label2idx: dict[str, int]
    n_buckets: int
    best_score: float
    best_step: int
    global_step: int
    stopped_early: bool
    history: list[dict] = field(default_factory=list)
    model_dir: str | None = None

    def payload(self) -> dict:
        """Checkpoint payload (state_dict analog, task.py:135-151)."""
        return {"W": self.W, "b": self.b, "label2idx": self.label2idx,
                "n_buckets": self.n_buckets, "step": self.global_step}


def _evaluate_dev(W, b, dev_buckets, dev_labels, idx2label,
                  model_selection_scoring: str, beta: float = 1.0):
    """A6 scoring: vectorized argmax predictions over the driver-held
    dev sequences, BioEval-parity counters, reference score addressing
    ``<lvl>-<method>-...`` (task.py:443-447)."""
    if not dev_buckets:
        return 0.0, 0.0
    flat = np.concatenate(dev_buckets)
    pred_flat = np.argmax(W[:, flat] + b[:, None], axis=0)
    # dev loss: mean token cross-entropy (the eval_loss of task.py:394)
    P = _softmax_cols(W + b[:, None])
    logP = np.log(np.maximum(P, 1e-300))
    gold_flat = np.concatenate(dev_labels)
    eval_loss = -float(logP[gold_flat, flat].sum()) / len(flat)
    counters, pos = [], 0
    for bks, gl in zip(dev_buckets, dev_labels):
        pr = pred_flat[pos:pos + len(bks)]
        pos += len(bks)
        counters.append(eval_sentence_pair(
            [idx2label[int(i)] for i in gl],
            [idx2label[int(i)] for i in pr]))
    perf = performance(merge_counters(counters), beta=beta)
    lvl, method = model_selection_scoring.split("-")[:2]
    cur = (perf["overall"]["acc"] if lvl == "acc"
           else perf["overall"][lvl][method])
    return float(cur), eval_loss


def train(
    train_sentences: rd.Dataset,
    dev_sentences: rd.Dataset | None = None,
    *,
    split_is_dev=None,
    entity_types: list[str] | None = None,
    label2idx: dict[str, int] | None = None,
    resume_label2idx: dict[str, int] | None = None,
    n_buckets: int = 4096,
    num_train_epochs: int = 10,
    steps_per_epoch: int = 1,
    gradient_accumulation_steps: int = 1,
    learning_rate: float = 0.5,
    weight_decay: float = 0.0,
    adam_epsilon: float = 1e-8,
    max_grad_norm: float = 1.0,
    do_warmup: bool = True,
    warmup_ratio: float = 0.1,
    min_lr: float = 1e-6,
    train_steps: int = 0,
    early_stop: int = 0,
    adversarial: str | None = None,
    adversarial_epsilon: float = 1.0,
    pgd_alpha: float = 0.3,
    pgd_k: int = 3,
    model_selection_scoring: str = "strict-f_score-1",
    model_dir: str | None = None,
    max_num_checkpoints: int = 3,
) -> TrainResult:
    """T6: the reference training loop (task.py:212-356) over
    distributed sufficient statistics.  See the module docstring for
    the semantics mapping; every knob above is the reference CLI flag
    of the same name.

    Two input shapes: pass pre-split ``(train_sentences,
    dev_sentences)`` Datasets, OR pass the FULL sentence set as
    ``train_sentences`` with ``split_is_dev`` (a ``uniq_doc_ids ->
    bool mask`` callable) — the latter collects both splits' statistics
    in ONE streaming pass (:func:`collect_stats_and_dev`, bit-identical
    results, no materialize barrier / second pass / dev sort)."""
    if label2idx is None:
        if entity_types is None:
            raise ValueError("need entity_types or label2idx")
        label2idx = build_label_vocab(sorted(entity_types))
    if resume_label2idx is not None:
        # J8 resume discipline: keyset equality, stored mapping wins
        label2idx = check_resume_vocab(label2idx, resume_label2idx)
    idx2label = invert(label2idx)
    n_labels = len(label2idx)
    n_micro = steps_per_epoch * gradient_accumulation_steps

    # --- the distributed pass(es) -------------------------------------------
    if split_is_dev is not None:
        if dev_sentences is not None:
            raise ValueError("pass dev_sentences OR split_is_dev, not both")
        N, Y, dev_buckets, dev_labels = collect_stats_and_dev(
            train_sentences, label2idx, split_is_dev,
            n_buckets=n_buckets, n_micro=n_micro)
    else:
        if dev_sentences is None:
            raise ValueError("need dev_sentences or split_is_dev")
        N, Y = collect_stats(train_sentences, label2idx,
                             n_buckets=n_buckets, n_micro=n_micro)
        dev_buckets, dev_labels = collect_dev(dev_sentences, label2idx,
                                              n_buckets=n_buckets)

    t_total = steps_per_epoch * num_train_epochs
    warmup_steps = int(warmup_ratio * t_total)

    W = np.zeros((n_labels, n_buckets))
    b = np.zeros(n_labels)
    opt = _AdamW([W.shape, b.shape], lr=learning_rate,
                 eps=adam_epsilon, weight_decay=weight_decay)

    if model_dir is not None:
        save_label_vocab(label2idx, model_dir)         # task.py:259-266
        save_run_config(model_dir, model_type="emission-glm",
                        base_model="hashed-unigram",
                        n_buckets=str(n_buckets))

    res = TrainResult(W=W, b=b, label2idx=label2idx, n_buckets=n_buckets,
                      best_score=0.0, best_step=0, global_step=0,
                      stopped_early=False, model_dir=model_dir)

    def run_eval(epoch: int, tr_loss: float):
        cur, eval_loss = _evaluate_dev(
            W, b, dev_buckets, dev_labels, idx2label,
            model_selection_scoring)
        improved = cur - res.best_score > 1e-5       # task.py:448
        if improved:
            res.best_score = cur
            res.best_step = res.global_step
            if model_dir is not None:
                save_checkpoint(model_dir, res.global_step, res.payload(),
                                latest=max_num_checkpoints)
        res.history.append({
            "epoch": epoch, "global_step": res.global_step,
            "train_loss": tr_loss, "eval_loss": eval_loss,
            "score": cur, "best_score": res.best_score,
            "improved": improved,
        })

    # --- epochs × micro-steps ----------------------------------------------
    tr_loss = 0.0
    epoch_best = 0.0
    early_flag = 0
    micro_order = list(range(n_micro))
    accum = gradient_accumulation_steps
    for epoch in range(num_train_epochs):
        aW = np.zeros_like(W)
        ab = np.zeros_like(b)
        for step, g in enumerate(micro_order):
            loss, gW, gb = _loss_and_grads(W, b, N[g], Y[g], accum)
            tr_loss += loss
            aW += gW
            ab += gb
            if adversarial == "fgm":
                # model_utils.py:247-283 on the embedding param W, with
                # param.grad == the window's accumulated grad
                norm = _global_norm(aW, np.zeros(0))
                if norm > 0 and np.isfinite(norm):
                    backup = W.copy()
                    W += adversarial_epsilon * aW / norm
                    _, gW2, gb2 = _loss_and_grads(W, b, N[g], Y[g], accum)
                    aW += gW2
                    ab += gb2
                    W[:] = backup
            elif adversarial == "pgd":
                # model_utils.py:286-347; k hardcoded 3 in task.py:188-190
                saved = (aW.copy(), ab.copy())
                origin = W.copy()
                for t in range(pgd_k):
                    norm = float(np.sqrt((aW * aW).sum()))
                    if norm > 0 and np.isfinite(norm):
                        W += pgd_alpha * aW / norm
                        r = W - origin
                        rn = float(np.sqrt((r * r).sum()))
                        if rn > adversarial_epsilon:
                            W[:] = origin + adversarial_epsilon * r / rn
                    if t != pgd_k - 1:
                        aW[:] = 0.0
                        ab[:] = 0.0
                    else:
                        aW[:], ab[:] = saved
                    _, gW2, gb2 = _loss_and_grads(W, b, N[g], Y[g], accum)
                    aW += gW2
                    ab += gb2
                W[:] = origin
            elif adversarial is not None:
                raise RuntimeError(
                    "adopt adversarial training but use an unrecognized "
                    f"method name: {adversarial}")

            if (step + 1) % accum == 0:
                gn = _global_norm(aW, ab)           # task.py:311-315
                if gn > max_grad_norm and gn > 0:
                    aW *= max_grad_norm / gn
                    ab *= max_grad_norm / gn
                scale = (linear_warmup_lambda(
                    res.global_step, warmup_steps, t_total, min_lr)
                    if do_warmup else 1.0)
                opt.step([W, b], [aW, ab], scale, decay_mask=[True, False])
                aW = np.zeros_like(W)
                ab = np.zeros_like(b)
                res.global_step += 1

            # mid-epoch eval cadence (task.py:323-333; skips epoch 0)
            if (train_steps > 0
                    and (res.global_step + 1) % train_steps == 0
                    and epoch > 0):
                run_eval(epoch, tr_loss / max(1, res.global_step))

        # per-epoch eval (task.py:336-346)
        if train_steps <= 0 or epoch == 0:
            run_eval(epoch, tr_loss / max(1, res.global_step))

        # early-stop counter (task.py:348-356)
        if epoch_best < res.best_score:
            epoch_best = res.best_score
            early_flag = 0
        else:
            early_flag += 1
        if 0 < early_stop <= early_flag:
            res.stopped_early = True
            break

    return res


# ---------------------------------------------------------------------------
# trained model -> distributed inference (closing the lifecycle)


class TrainedEmissionTagger:
    """Task-map stage scoring sentences with a trained emission
    payload — the broadcast-once / vectorize-per-batch pattern of
    `stages/tagger.py`."""

    def __init__(self, payload: dict):
        self.W = np.asarray(payload["W"])
        self.b = np.asarray(payload["b"])
        self.n_buckets = int(payload["n_buckets"])
        label2idx = {k: int(v) for k, v in payload["label2idx"].items()}
        self.idx2label = invert(label2idx)
        self.o_id = label2idx[O]
        self.labels = np.asarray(
            [self.idx2label[i] for i in range(len(self.idx2label))])

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens")
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "sent_idx": batch.column("sent_idx"),
                "tokens": toks,
                "labels": pa.array([[] for _ in range(len(batch))],
                                   pa.list_(pa.string())),
            })
        buckets = _bucket_tokens(
            flat.to_numpy(zero_copy_only=False).astype(str), self.n_buckets)
        pred = np.argmax(self.W[:, buckets] + self.b[:, None], axis=0)
        # M8 prediction fix (task.py:497-501): system labels (ids below
        # id('O') — PAD/CLS/X) map to O; an unseen bucket's all-zero
        # column argmaxes to id 0 == PAD, so this also covers OOV
        pred = np.where(pred < self.o_id, self.o_id, pred)
        offs = toks.combine_chunks().offsets.to_numpy()
        labs = self.labels[pred]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "sent_idx": batch.column("sent_idx"),
            "tokens": toks,
            "labels": pa.array(
                [labs[offs[i]:offs[i + 1]].tolist()
                 for i in range(len(batch))],
                pa.list_(pa.string())),
        })


def tag_with_model(sentences: rd.Dataset, payload: dict) -> rd.Dataset:
    """Distributed inference with a trained checkpoint payload: the
    sentence Dataset gains a predicted ``labels`` column (the engine's
    predict path fed by T6's output instead of the mock lexicon)."""
    return map_stage(sentences, TrainedEmissionTagger, {"payload": payload},
                     batch_size=None)


class TrainedMentionTagger:
    """Turns -> MENTION_SCHEMA span rows with a trained emission
    checkpoint: the drop-in replacement for the lexicon
    ``MentionTagger`` in the predict/format surface, closing the
    reference's train -> predict -> format lifecycle
    (`run_transformer_batch_prediction.py` fed by `task.py` training
    output).  Argmax predictions are BIO-repaired (`fix_bio`, the
    reference's `__fix_bio` before output, task.py:467-491) and span
    extraction reuses `tag2entity_turn` — identical downstream
    semantics to the lexicon route."""

    def __init__(self, payload: dict):
        from clinicaltransformerner_ray.functions.text import (
            tokenize_with_offsets)

        self.W = np.asarray(payload["W"])
        self.b = np.asarray(payload["b"])
        self.n_buckets = int(payload["n_buckets"])
        label2idx = {k: int(v) for k, v in payload["label2idx"].items()}
        idx2label = invert(label2idx)
        self.o_id = label2idx[O]
        self.labels = np.asarray(
            [idx2label[i] for i in range(len(idx2label))])
        self._tokenize = tokenize_with_offsets

    def __call__(self, batch: pa.Table) -> pa.Table:
        from clinicaltransformerner_ray.functions.decode import fix_bio
        from clinicaltransformerner_ray.functions.spans import (
            tag2entity_turn)
        from clinicaltransformerner_ray.functions.text import (
            normalize_surface)
        from clinicaltransformerner_ray.stages.tagger import MENTION_SCHEMA

        toks_per, offs_per = [], []
        for text in batch.column("text").to_pylist():
            tokens, offsets = self._tokenize(text or "")
            toks_per.append(tokens)
            offs_per.append(offsets)
        flat = np.asarray([t for ts in toks_per for t in ts], dtype=object)
        if len(flat) == 0:
            return MENTION_SCHEMA.empty_table()
        buckets = _bucket_tokens(flat.astype(str), self.n_buckets)
        pred_ids = np.argmax(self.W[:, buckets] + self.b[:, None], axis=0)
        # M8 prediction fix (task.py:497-501) — see TrainedEmissionTagger
        pred = self.labels[np.where(pred_ids < self.o_id,
                                    self.o_id, pred_ids)]
        out = {k: [] for k in ("conv_id", "turn_idx", "ment_id", "surface",
                               "surface_norm", "start", "end", "type")}
        pos = 0
        for cid, ti, tokens, offsets in zip(
                batch.column("conv_id").to_pylist(),
                batch.column("turn_idx").to_pylist(),
                toks_per, offs_per):
            y = fix_bio(list(pred[pos:pos + len(tokens)]))
            pos += len(tokens)
            for mid, (surf, s, e, t) in enumerate(
                    tag2entity_turn(tokens, offsets, y)):
                out["conv_id"].append(cid)
                out["turn_idx"].append(int(ti))
                out["ment_id"].append(mid)
                out["surface"].append(surf)
                out["surface_norm"].append(normalize_surface(surf))
                out["start"].append(s)
                out["end"].append(e)
                out["type"].append(t)
        return pa.table(out, schema=MENTION_SCHEMA)


def detect_mentions_trained(turns: rd.Dataset, payload: dict,
                            *, batch_size: int = 1024) -> rd.Dataset:
    """The predict surface on a trained checkpoint: the same task-map
    shape as `kg.detect_mentions`, scoring with the broadcast emission
    payload instead of the alias lexicon."""
    return map_stage(turns, TrainedMentionTagger, {"payload": payload},
                     batch_size=batch_size)
