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
import pyarrow as pa
import pyarrow.compute as pc

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


def alias_table(alias_rows) -> pa.Table:
    """The alias lexicon as one Arrow table (``alias``, ``type``,
    ``entity_id``, and ``embedding`` where the linker needs it): the
    table itself, or a list of row dicts converted once."""
    if isinstance(alias_rows, pa.Table):
        return alias_rows
    if not alias_rows:
        return pa.table({c: pa.array([], pa.string())
                         for c in ("alias", "type", "entity_id")})
    return pa.Table.from_pylist(list(alias_rows))


class PhraseIndex:
    """:meth:`Lexicon.tag_words`' greedy longest match as array
    operations over integer word ids.

    Alias words (``alias.split(" ")``) get ids 1..V in a vocabulary.
    Alias prefixes form a trie kept as one sorted int64 key array per
    length: a length-k prefix has key ``node(k-1) * (V + 1) + id``,
    where ``node(k-1)`` is its length-(k-1) prefix's position in the
    previous array.  A key is below ``aliases x (V + 1)``, so no
    vocabulary and no alias length can overflow it.  A prefix that is a
    whole alias maps to the alias's first row, as ``tag_words`` picks
    the first of equal-length candidates.

    :meth:`match` extends every start word one word per level with one
    ``searchsorted`` for all starts at once and keeps the longest whole
    alias at each start.  Only candidates that overlap an earlier one
    go through the greedy left-to-right pick in Python."""

    def __init__(self, aliases: pa.ChunkedArray | pa.Array):
        if isinstance(aliases, pa.ChunkedArray):
            aliases = aliases.combine_chunks()
        split = pc.split_pattern(aliases, " ")
        lens = pc.list_value_length(split).to_numpy(
            zero_copy_only=False).astype(np.int64)
        enc = pc.list_flatten(split).dictionary_encode()
        #: alias words; word id = position + 1
        self.vocab = enc.dictionary
        base = np.int64(len(self.vocab) + 1)
        ids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64) + 1
        first = np.cumsum(lens) - lens
        rows = np.arange(len(lens))
        #: per length k: (sorted prefix keys, whole-alias row or -1)
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []
        node = np.zeros(len(lens), np.int64)
        for k in range(1, int(lens.max(initial=0)) + 1):
            live = lens >= k
            key = node[live] * base + ids[first[live] + k - 1]
            keys = np.unique(key)
            node[live] = np.searchsorted(keys, key)
            whole = live & (lens == k)
            term = np.full(len(keys), len(lens), np.int64)
            np.minimum.at(term, node[whole], rows[whole])
            self.levels.append((keys, np.where(term < len(lens), term, -1)))
        self.base = base

    def word_ids(self, norms: pa.Array) -> np.ndarray:
        """Each normalized word's alias-word id, 0 for none."""
        idx = pc.fill_null(pc.index_in(norms, value_set=self.vocab), -1)
        return idx.to_numpy(zero_copy_only=False).astype(np.int64) + 1

    def match(self, ids: np.ndarray, stop: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The greedy longest matches over words with alias-word ids
        ``ids`` (0 for none), where no match may run to or past
        ``stop[i]`` from start ``i`` (its turn's end): ``(start, length,
        alias row)`` per match, in word order."""
        start = np.flatnonzero(ids)
        node = np.zeros(len(start), np.int64)
        best_len = np.zeros(len(start), np.int64)
        best_row = np.full(len(start), -1, np.int64)
        live = np.arange(len(start))
        for k, (keys, term) in enumerate(self.levels, 1):
            if not len(live):
                break
            word = start[live] + k - 1
            ok = word < stop[start[live]]
            live, word = live[ok], word[ok]
            key = node[ok] * self.base + ids[word]
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[pos] == key
            live, node = live[hit], pos[hit]
            row = term[node]
            whole = row >= 0
            best_len[live[whole]] = k
            best_row[live[whole]] = row[whole]
        found = best_len > 0
        start, length, row = start[found], best_len[found], best_row[found]
        end = start + length
        # a candidate that starts at or after every earlier one's end is
        # taken whatever the greedy pick did before it
        reach = np.maximum.accumulate(end)
        free = np.ones(len(start), dtype=bool)
        free[1:] = start[1:] >= reach[:-1]
        keep = free.copy()
        if not free.all():
            free_end = np.maximum.accumulate(np.where(free, end, 0))
            nxt = 0
            for j in np.flatnonzero(~free).tolist():
                nxt = max(nxt, int(free_end[j - 1]))
                if start[j] >= nxt:
                    keep[j] = True
                    nxt = int(end[j])
        return start[keep], length[keep], row[keep]


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


def ids_to_logits(label_ids: np.ndarray, n_labels: int,
                  cols: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mock model head over pre-mapped label ids.

    ``label_ids`` may be 1-D (positions) or 2-D (windows x positions); the
    returned logits add one trailing axis of size ``n_labels``.  A row's
    floor depends on its position (column); ``cols`` gives each id's
    column, for ids gathered from a grid, and defaults to the last
    axis's index."""
    idx = np.arange(label_ids.shape[-1]) if cols is None else cols
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
