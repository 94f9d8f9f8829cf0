"""CRF Viterbi decoding (SURVEY.md §2.4 T3).

The reference's CRF head decodes each sequence with learned transition
scores via dynamic programming (`src/common_utils/model_utils.py:582-657`
``New_Transformer_CRF._viterbi_decode``).  This is the numpy equivalent:
max-product DP over (emissions + transitions), backpointer walk, batched
over windows.  It slots into the scorer stage after the model forward —
``argmax`` is the degenerate case with zero transition scores — so the
CRF variant reuses the whole window/guard/decode pipeline unchanged.
"""

from __future__ import annotations

import numpy as np


def viterbi_decode(
    emissions: np.ndarray,       # (T, C) or (B, T, C)
    transitions: np.ndarray,     # (C, C): score of moving from i to j
    mask: np.ndarray | None = None,  # (T,) / (B, T) 1 = real position
) -> np.ndarray:
    """Best label path(s) under emission + transition scores.

    The mask must be ONE contiguous run of 1s per sequence — which
    covers both padding conventions (post-pad: 1s then 0s; XLNet-style
    pre-pad: 0s then 1s).  The DP initializes at each sequence's FIRST
    masked-in position (no transition score into it) and the backtrace
    writes the decoded path into the real positions' actual index range
    [start, start+L), so pre-padded input decodes positionally aligned
    with its guards.

    Returns int64 paths shaped like ``emissions`` without the class
    axis; masked positions get label 0 (PAD id, by the label-vocab
    convention control ids < id('O'))."""
    single = emissions.ndim == 2
    if single:
        emissions = emissions[None]
        mask = None if mask is None else np.asarray(mask)[None]
    B, T, C = emissions.shape
    if mask is None:
        mask = np.ones((B, T), dtype=bool)
    mask = mask.astype(bool)

    started = mask[:, 0].copy()                           # (B,)
    score = np.where(mask[:, 0][:, None],
                     emissions[:, 0, :], 0.0).astype(np.float64)
    history = np.zeros((B, T, C), dtype=np.int64)
    identity = np.arange(C)[None, :]
    for t in range(1, T):
        # (B, C_prev, 1) + (C_prev, C_next) -> best previous per next
        cand = score[:, :, None] + transitions[None, :, :]
        best_prev = cand.argmax(axis=1)                   # (B, C)
        best_score = np.take_along_axis(
            cand, best_prev[:, None, :], axis=1)[:, 0, :]
        step = best_score + emissions[:, t, :]
        alive = mask[:, t]
        is_first = alive & ~started                       # pre-pad start
        cont = (alive & started)[:, None]
        score = np.where(is_first[:, None], emissions[:, t, :],
                         np.where(cont, step, score))
        # history at a sequence's first real position is never consulted
        # by the backtrace (it stops at start); identity keeps it inert
        history[:, t, :] = np.where(cont, best_prev, identity)
        started |= alive

    paths = np.zeros((B, T), dtype=np.int64)
    lengths = mask.sum(axis=1)
    for b in range(B):
        L = int(lengths[b])
        if L == 0:
            continue
        start = int(mask[b].argmax())                     # first real pos
        end = start + L - 1
        lab = int(score[b].argmax())
        paths[b, end] = lab
        for t in range(end, start, -1):
            lab = int(history[b, t, lab])
            paths[b, t - 1] = lab
    return paths[0] if single else paths


def bio_transitions(label2idx: dict[str, int],
                    penalty: float = -0.4) -> np.ndarray:
    """Deterministic BIO-structured transition matrix for the CRF route.

    The reference learns its transitions (`src/common_utils/
    model_utils.py:352-657`); this sandbox has no training, so the CRF
    variant ships a fixed matrix that penalizes illegal BIO moves
    (``O -> I-t``, ``B-s/I-s -> I-t`` for s != t) and is neutral
    elsewhere.  'X' continuation subtokens sit between first-pieces in
    the subtoken sequence, so any label may follow or precede 'X'.

    |penalty| is kept far below the mock emission margin (8.0), so the
    Viterbi path over well-formed emissions equals positionwise argmax —
    which is what lets `kg_mentions_crf` be oracle-checked against the
    same SQL as `kg_mentions` while genuinely exercising the DP decode.
    """
    idx2label = {v: k for k, v in label2idx.items()}
    C = len(label2idx)
    T = np.zeros((C, C), dtype=np.float64)
    for ib in range(C):
        b = idx2label[ib]
        if not b.startswith("I-"):
            continue
        t = b[2:]
        for ia in range(C):
            a = idx2label[ia]
            legal = a in (f"B-{t}", f"I-{t}", "X", "PAD", "CLS")
            if not legal:
                T[ia, ib] = penalty
    return T


def brute_force_decode(
    emissions: np.ndarray, transitions: np.ndarray
) -> np.ndarray:
    """O(C^T) exhaustive reference for tests."""
    from itertools import product

    T, C = emissions.shape
    best, best_s = None, -np.inf
    for path in product(range(C), repeat=T):
        s = emissions[0, path[0]]
        for t in range(1, T):
            s += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        if s > best_s:
            best_s, best = s, path
    return np.asarray(best, dtype=np.int64)
