"""Deterministic lexicon tagger — the mock "model" behind the scorer stage.

The sandbox has no network and no model weights, so the transformer forward
(T2, `src/transformer_ner/task.py:359-432`) is replaced by a deterministic
stand-in with the same *output contract*: per-subtoken logits over the BIO
label vocabulary.  Word-level tags come from greedy longest-match against an
alias lexicon; projection onto subtokens mimics a trained model (first piece
gets the word tag, continuations predict 'X').

``noise=True`` deterministically flips some B- tags to I- (content-hash
gated), producing exactly the illegal transitions the BIO repair (M9) must
fix — with no net span change as long as entities are separated by at least
one O word, which keeps the DuckDB oracle exact while still exercising the
repair path end-to-end.
"""

from __future__ import annotations

import hashlib

import numpy as np

from clinicaltransformerner_ray.labels import X


def _h(word: str) -> int:
    return int.from_bytes(hashlib.blake2b(word.encode(), digest_size=4).digest(), "little")


class Lexicon:
    """Greedy longest-match phrase lexicon over normalized words.

    entries: iterable of (alias_words: tuple[str, ...], entity_type, entity_id).
    """

    def __init__(self, entries):
        self.by_head: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
        self.max_len = 1
        for words, etype, eid in entries:
            words = tuple(words)
            self.by_head.setdefault(words[0], []).append((words, etype, eid))
            self.max_len = max(self.max_len, len(words))
        for head in self.by_head:
            self.by_head[head].sort(key=lambda t: -len(t[0]))

    def tag_words(self, words_norm: list[str]) -> list[str]:
        """Word-level BIO tags by greedy longest match (left to right)."""
        n = len(words_norm)
        labels = ["O"] * n
        i = 0
        while i < n:
            cands = self.by_head.get(words_norm[i])
            matched = False
            if cands:
                for alias, etype, _eid in cands:
                    L = len(alias)
                    if i + L <= n and tuple(words_norm[i:i + L]) == alias:
                        labels[i] = f"B-{etype}"
                        for k in range(i + 1, i + L):
                            labels[k] = f"I-{etype}"
                        i += L
                        matched = True
                        break
            if not matched:
                i += 1
        return labels


def flips_to_inside(word_norm: str, mod: int) -> bool:
    """Whether ``perturb_tags`` turns a B- tag on this word into I-."""
    return _h(word_norm) % mod == 0


def perturb_tags(words_norm: list[str], labels: list[str], mod: int = 5) -> list[str]:
    """Deterministic B->I flips (hash-gated) to exercise BIO repair.
    Net-neutral when every entity is preceded by an O word or sentence
    start — guaranteed by the synthesizer's filler-between-entities rule."""
    out = list(labels)
    for i, lb in enumerate(out):
        if lb.startswith("B-") and flips_to_inside(words_norm[i], mod):
            out[i] = "I-" + lb.split("-", 1)[1]
    return out


def tags_to_logits(
    sub_labels: list[str], label2idx: dict[str, int], n_labels: int
) -> np.ndarray:
    """Mock model head: one-hot-ish logits (peak 8.0, floor from a hash of
    the position) so the argmax/log_softmax decode path (M7) runs for real."""
    ids = np.asarray([label2idx.get(lb, label2idx["O"]) for lb in sub_labels])
    return ids_to_logits(ids, n_labels)


def ids_to_logits(label_ids: np.ndarray, n_labels: int) -> np.ndarray:
    """Vectorized mock model head over pre-mapped label ids.

    ``label_ids`` may be 1-D (positions) or 2-D (windows x positions); the
    returned logits add one trailing axis of size ``n_labels``."""
    idx = np.arange(label_ids.shape[-1])
    floor = (-1.0 + ((idx * 2654435761) % 97) / 970.0).astype(np.float32)
    logits = np.broadcast_to(
        floor[..., None], label_ids.shape + (n_labels,)
    ).copy()
    np.put_along_axis(logits, label_ids[..., None].astype(np.int64), 8.0, axis=-1)
    return logits


def project_tags_to_subtokens(word_tags: list[str], guards: list[int]) -> list[str]:
    """What a trained model emits per subtoken: word tag on the first piece,
    'X' on continuations, 'O' on specials/[next] (guard 0 / NEXT_GUARD)."""
    out: list[str] = []
    prev_gd = None
    for gd in guards:
        if gd <= 0:
            out.append("O")  # specials / [next] / pad
        elif gd == prev_gd:
            out.append(X)
        else:
            out.append(word_tags[gd - 1])
        prev_gd = gd
    return out
