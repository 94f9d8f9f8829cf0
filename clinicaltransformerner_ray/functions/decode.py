"""Decode: logits -> per-word BIO labels (M6-M9).

  - ``argmax_decode`` — argmax over log_softmax (M7,
    `src/transformer_ner/task.py:391-393`),
  - ``decode_windows`` — guard-walk realignment merging the continuation
    windows of one sentence (M6, `src/transformer_ner/task.py:406-429`):
    stop at first mask==0, skip guard 0 and repeated guards (continuation
    subtokens), a NEXT_GUARD chains the next window onto the same sentence,
  - ``fix_system_labels`` — predictions in {X, PAD, CLS} (ids below 'O')
    map to 'O' (M8, `src/transformer_ner/task.py:497-501`),
  - ``fix_bio`` — BIO repair of illegal transitions (M9,
    `src/transformer_ner/task.py:467-491`),
  - ``BioLabels.fix_system`` / ``BioLabels.fix_bio`` — the same M8/M9
    rules as array operations over the label ids of many sentences.
"""

from __future__ import annotations

import numpy as np

from clinicaltransformerner_ray.labels import NEXT_GUARD, O


def argmax_decode(logits: np.ndarray) -> np.ndarray:
    """argmax(log_softmax(logits)) over the last axis (task.py:391-393).
    log_softmax is order-preserving; computed anyway for parity with the
    reference's non-CRF decode path."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.argmax(shifted - logsumexp, axis=-1)


def decode_windows(
    masks: list[list[int]] | np.ndarray,
    pred_ids: list[list[int]] | np.ndarray,
    guards: list[list[int]] | np.ndarray,
    idx2label: dict[int, str],
    *,
    skip_masked: bool = False,
) -> list[str]:
    """M6 guard-walk over the windows of ONE sentence (task.py:406-429).

    The reference carries ``prev_gd`` and a ``connect_sent_flag`` across
    dataloader rows; because our windows are nested per sentence row, the
    carried state here is a plain local variable.  ``skip_masked``
    selects the XLNet behavior at mask==0 (continue past pre-padding,
    task.py:411-414) instead of the post-pad early break.
    """
    y_pred: list[str] = []
    prev_gd = 0
    for mks, lgt, gds in zip(masks, pred_ids, guards):
        for mk, p, gd in zip(mks, lgt, gds):
            if mk == 0:
                if skip_masked:
                    continue  # xlnet pre-padding precedes real tokens
                break  # all further positions are pad (post-pad families)
            if gd == 0 or prev_gd == gd:
                continue
            if gd == NEXT_GUARD:
                break  # continuation: next window extends this sentence
            y_pred.append(idx2label[int(p)])
            prev_gd = gd
    return y_pred


def fix_system_labels(labels: list[str], system: set[str]) -> list[str]:
    """M8: control-label predictions become 'O' (task.py:497-501)."""
    return [O if lb in system else lb for lb in labels]


def fix_bio(bios: list[str]) -> list[str]:
    """M9: repair illegal BIO transitions (task.py:467-491).

    leading I-x -> B-x;  O,I-x -> O,B-x;  I-y after x!=y -> B-y.
    Comparisons use the *repaired* previous label, as in the reference.
    """
    fixed: list[str] = []
    prev: str | None = None
    for i, bio in enumerate(bios):
        if i == 0:
            prev = "B-" + bio.split("-")[-1] if bio.startswith("I-") else bio
        else:
            if bio.startswith("I-"):
                s = bio.split("-", 1)[1]
                if prev == O:
                    prev = "B-" + s
                else:
                    ps = prev.split("-", 1)[1] if "-" in prev else prev
                    prev = "B-" + s if ps != s else bio
            else:
                prev = bio
        fixed.append(prev)
    return fixed


class BioLabels:
    """A label vocabulary (``labels[i]`` is id ``i``) as per-id arrays for
    the vectorized M8/M9 rules.  ``fix_bio``'s position-0 rule can name a
    label outside the vocabulary (``I-a-b`` becomes ``B-b``); such labels
    get ids after the vocabulary's, so ``names`` may be longer than it."""

    def __init__(self, labels: list[str]):
        self.names = list(labels)
        ids = {lb: i for i, lb in enumerate(self.names)}

        def id_of(lb: str) -> int:
            if lb not in ids:
                ids[lb] = len(self.names)
                self.names.append(lb)
            return ids[lb]

        n = len(labels)
        self.o = ids[O]
        begin = [id_of("B-" + lb.split("-", 1)[1])
                 if lb.startswith("I-") else i
                 for i, lb in enumerate(labels)]
        begin0 = [id_of("B-" + lb.split("-")[-1])
                  if lb.startswith("I-") else i
                  for i, lb in enumerate(labels)]
        names = self.names
        #: B- id of an I- label's type; other ids map to themselves
        self.begin = np.asarray(begin + list(range(n, len(names))))
        #: the same, under fix_bio's position-0 rule
        self.begin0 = np.asarray(begin0 + list(range(n, len(names))))
        self.inside = np.asarray([lb.startswith("I-") for lb in names])
        self.is_begin = np.asarray([lb.startswith("B-") for lb in names])
        #: the labels ``tag2entity_turn`` accepts
        self.valid = self.inside | self.is_begin | (np.arange(len(names))
                                                     == self.o)
        #: fix_bio compares ``prev.split("-", 1)[1]`` (or the whole label
        #: when it has no '-') with an I- label's type
        keys = [lb.split("-", 1)[1] if "-" in lb else lb for lb in names]
        codes = {k: i for i, k in enumerate(dict.fromkeys(keys))}
        self.key = np.asarray([codes[k] for k in keys])
        #: a B- label's entity type, as ``tag2entity_turn`` reads it
        self.type = keys
        self.system = np.arange(len(names)) < self.o

    def fix_system(self, ids: np.ndarray) -> np.ndarray:
        """M8 on ids: control labels (ids below 'O') become 'O'."""
        return np.where(self.system[ids], self.o, ids)

    def fix_bio(self, ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """M9 over the concatenated label ids of many sentences;
        ``starts`` marks each sentence's first position.  Equals
        ``fix_bio`` per sentence: a repair turns I-s into B-s, which
        keeps both the type key and the not-'O' state that the next
        position compares against, so every position needs only its
        input neighbour (and position 0's own repair)."""
        ids = np.where(starts & self.inside[ids], self.begin0[ids], ids)
        prev = np.roll(ids, 1)
        bad = (self.inside[ids] & ~starts
               & ((prev == self.o) | (self.key[prev] != self.key[ids])))
        return np.where(bad, self.begin[ids], ids)
