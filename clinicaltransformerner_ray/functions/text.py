"""Word-level tokenization with character offsets, and surface normalization.

The reference consumes pre-tokenized BIO files whose token rows carry two
char-offset pairs into the source text (`src/transformer_ner/data_utils.py:149-163`,
format documented at `/root/reference/README.md:117-139`).  Our engine starts
from raw turn text, so this module produces the same (token, start, end)
triples the reference expects as its input contract; we set the
"preprocessed" offset pair equal to the original one (the documented
no-preprocessing convention, data_utils.py:154-155).
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WORD_RE = re.compile(r"\S+")
_WORD_SPLIT_RE = re.compile(r"(\S+)")
_WS_RE = re.compile(r"\s+")


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Whitespace tokenization; offsets are [start, end) char spans into
    ``text``. Deterministic, no normalization."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    for m in _WORD_RE.finditer(text):
        tokens.append(m.group(0))
        offsets.append((m.start(), m.end()))
    return tokens, offsets


def tokenize_batch(
    texts: list[str | None],
) -> tuple[pa.StringArray, np.ndarray, np.ndarray, np.ndarray]:
    """``tokenize_with_offsets`` over many texts at once (``None`` reads
    as empty).  Returns ``(words, n_words, starts, ends)``: every text's
    words concatenated in order, the word count per text, and each word's
    ``[start, end)`` char span in its own text.

    The per-text work is one C-level split on the same ``\\S+`` pattern
    (Python's ``\\s``, which differs from Arrow's whitespace split on
    some code points).  Splitting with the pattern captured alternates
    gaps and words, so every text gives ``2k+1`` parts with its ``k``
    words at odd positions, and the offsets are a prefix sum of the part
    lengths."""
    parts = [_WORD_SPLIT_RE.split(t or "") for t in texts]
    n_parts = np.fromiter(map(len, parts), np.int64, len(parts))
    flat = pa.array(chain.from_iterable(parts), pa.string())
    lens = pc.utf8_length(flat).to_numpy().astype(np.int64)
    end = np.cumsum(lens)
    first = np.cumsum(n_parts) - n_parts
    text_start = np.repeat(end[first] - lens[first], n_parts)
    is_word = (np.arange(len(lens)) - np.repeat(first, n_parts)) % 2 == 1
    return (flat.filter(pa.array(is_word)), (n_parts - 1) // 2,
            (end - lens - text_start)[is_word], (end - text_start)[is_word])


def normalize_surface(surface: str) -> str:
    """Canonicalization key: lowercase + collapse internal whitespace.
    Used for alias lookup and the canonicalization groupby."""
    return _WS_RE.sub(" ", surface.strip().lower())
