"""Deterministic mock WordPiece-style subword tokenizer.

Stands in for the HF tokenizer family (T1 in SURVEY.md §2.4;
`src/transformer_ner/task.py:585-593`).  The real tokenizer can't ship in
this sandbox (no network / no weights), so this class implements the same
*interface contract* the windowing and decode stages rely on:

  - ``tokenize(word) -> [sub, '##sub', ...]`` — deterministic split into
    continuation-marked pieces (BERT `##` convention,
    `src/transformer_ner/task.py:158-161`),
  - special tokens CLS/SEP/PAD plus the added ``[next]`` continuation token
    (`src/transformer_ner/task.py:646-651`),
  - ``convert_tokens_to_ids`` via a stable content hash (no global state).

A real HF tokenizer can be dropped in behind the same four methods.
"""

from __future__ import annotations

import hashlib

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
PAD_TOKEN = "[PAD]"
from clinicaltransformerner_ray.functions.windowing import FAMILIES  # noqa: E402
from clinicaltransformerner_ray.labels import NEXT_TOKEN  # noqa: E402

_SPECIAL_IDS = {
    PAD_TOKEN: 0, CLS_TOKEN: 1, SEP_TOKEN: 2, NEXT_TOKEN: 3,
    # roberta/xlnet-family specials (data_utils.py:180-189)
    "<s>": 4, "</s>": 5, "<pad>": 6, "<cls>": 7, "<sep>": 8,
}
_VOCAB_BASE = len(_SPECIAL_IDS)
_VOCAB_SIZE = 30_000


class MockWordpieceTokenizer:
    """Deterministic subword splitter: pieces of at most ``piece_len`` chars,
    continuations prefixed ``##``."""

    def __init__(self, piece_len: int = 4):
        self.piece_len = piece_len
        # memoization: the long tail of repeated words makes both the piece
        # split and the id hash near-free after warmup (stage-lifetime cache)
        self._piece_cache: dict[str, list[str]] = {}
        self._id_cache: dict[str, int] = dict(_SPECIAL_IDS)

    def tokenize(self, word: str) -> list[str]:
        if not word:
            return []
        cached = self._piece_cache.get(word)
        if cached is not None:
            return cached
        n = self.piece_len
        pieces = [word[i:i + n] for i in range(0, len(word), n)]
        out = [pieces[0]] + ["##" + p for p in pieces[1:]]
        if len(self._piece_cache) < 500_000:
            self._piece_cache[word] = out
        return out

    @staticmethod
    def _tok_id(tok: str) -> int:
        if tok in _SPECIAL_IDS:
            return _SPECIAL_IDS[tok]
        h = hashlib.blake2b(tok.encode("utf-8"), digest_size=4).digest()
        return _VOCAB_BASE + int.from_bytes(h, "little") % _VOCAB_SIZE

    def convert_tokens_to_ids(self, tokens: list[str]) -> list[int]:
        cache = self._id_cache
        out = []
        for t in tokens:
            i = cache.get(t)
            if i is None:
                i = self._tok_id(t)
                if len(cache) < 1_000_000:
                    cache[t] = i
            out.append(i)
        return out

    @staticmethod
    def is_continuation(tok: str) -> bool:
        """BERT-family partial-token test (src/transformer_ner/task.py:158-161)."""
        return tok.startswith("##")


class MockBPETokenizer(MockWordpieceTokenizer):
    """Roberta/BART/Longformer-style byte-BPE mock: the word-initial
    piece carries the ``Ġ`` space marker (add_prefix_space,
    `src/transformer_ner/task.py:587-593`); continuations are bare —
    so the partial-token test is *missing* ``Ġ``
    (`src/transformer_ner/task.py:163-167`)."""

    MARK = "Ġ"  # Ġ

    def tokenize(self, word: str) -> list[str]:
        if not word:
            return []
        cached = self._piece_cache.get(word)
        if cached is not None:
            return cached
        n = self.piece_len
        pieces = [word[i:i + n] for i in range(0, len(word), n)]
        out = [self.MARK + pieces[0]] + pieces[1:]
        if len(self._piece_cache) < 500_000:
            self._piece_cache[word] = out
        return out

    @classmethod
    def is_continuation(cls, tok: str) -> bool:
        return not tok.startswith(cls.MARK)


class MockSentencePieceTokenizer(MockBPETokenizer):
    """XLNet/ALBERT-style sentencepiece mock: word-initial ``▁`` marker;
    partial-token test is *missing* ``▁``
    (`src/transformer_ner/task.py:168-172`)."""

    MARK = "▁"  # ▁


def tokenizer_for_family(name: str):
    """T1 registry: model-type name -> mock tokenizer instance (the
    analog of MODEL_CLASSES, `src/transformer_ner/task.py:53-66`).  Any
    name in ``windowing.FAMILIES`` gets the tokenizer of its strategy."""
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown tokenizer family: {name}")
    if family.name == "bert":
        return MockWordpieceTokenizer()
    if family.name == "roberta":
        return MockBPETokenizer()
    # xlnet and albert are both sentencepiece in HF: word-initial `▁`
    # mark, partial token = missing mark (task.py:168-172).  albert keeps
    # BERT framing (CLS/SEP, post-pad) — only the piece convention differs.
    return MockSentencePieceTokenizer()
