"""Word-level tokenization with character offsets, and surface normalization.

The reference consumes pre-tokenized BIO files whose token rows carry two
char-offset pairs into the source text (`src/transformer_ner/data_utils.py:149-163`,
format documented at `/root/reference/README.md:117-139`).  Our engine starts
from raw turn text, so this module produces the same (token, start, end)
triples the reference expects as its input contract; we set the
"preprocessed" offset pair equal to the original one (the documented
no-preprocessing convention, data_utils.py:154-155).

``tokenize_with_offsets`` splits one Python string.  ``tokenize_batch``
splits a whole Arrow string column the same way, with numpy over the
column's UTF-8 bytes: no Python string is made per turn or per word.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

_WORD_RE = re.compile(r"\S+")
_WS_RE = re.compile(r"\s+")

#: Python's ``\s``: 29 code points, none above U+3000.  Ten are the
#: ASCII bytes 0x09-0x0D and 0x1C-0x20; the other 19 are 2- or 3-byte
#: UTF-8 sequences led by one of four bytes.
_WS_UTF8 = [chr(c).encode() for c in range(0x3001) if chr(c).isspace()]
_MB_LEAD = np.zeros(256, dtype=bool)
_MB_LEAD[[e[0] for e in _WS_UTF8 if len(e) > 1]] = True
_MB_WS2 = np.asarray(sorted(int.from_bytes(e, "big") for e in _WS_UTF8
                            if len(e) == 2), np.int64)
_MB_WS3 = np.asarray(sorted(int.from_bytes(e, "big") for e in _WS_UTF8
                            if len(e) == 3), np.int64)


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Whitespace tokenization; offsets are [start, end) char spans into
    ``text``. Deterministic, no normalization."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    for m in _WORD_RE.finditer(text):
        tokens.append(m.group(0))
        offsets.append((m.start(), m.end()))
    return tokens, offsets


def _utf8(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets rebased to 0, UTF-8 bytes) of a string array, nulls read
    as empty.  A non-string array or invalid UTF-8 raises."""
    if not (pa.types.is_string(texts.type)
            or pa.types.is_large_string(texts.type)):
        raise TypeError(f"text must be a string column, not {texts.type}")
    texts.validate(full=True)  # invalid UTF-8 raises here
    if texts.null_count:
        texts = texts.fill_null("")
    n = len(texts)
    if n == 0:
        return np.zeros(1, np.int64), np.zeros(0, np.uint8)
    width = np.int32 if pa.types.is_string(texts.type) else np.int64
    _, off_buf, data_buf = texts.buffers()
    off = np.frombuffer(off_buf, width, n + 1,
                        texts.offset * np.dtype(width).itemsize
                        ).astype(np.int64)
    size = int(off[-1] - off[0])
    data = (np.frombuffer(data_buf, np.uint8, size, int(off[0]))
            if size else np.zeros(0, np.uint8))
    return off - off[0], data


def _whitespace(data: np.ndarray) -> np.ndarray:
    """Per byte of valid UTF-8: does it belong to a ``\\s`` character?"""
    ws = ((data - np.uint8(0x09)) < 5) | ((data - np.uint8(0x1C)) < 5)
    lead = np.flatnonzero(_MB_LEAD[data])
    if len(lead):
        pad = np.concatenate([data, np.zeros(2, np.uint8)]).astype(np.int64)
        two = pad[lead] << 8 | pad[lead + 1]
        three = two << 8 | pad[lead + 2]
        hit2 = lead[np.isin(two, _MB_WS2)]
        hit3 = lead[np.isin(three, _MB_WS3)]
        for k, hits in ((2, hit2), (3, hit3)):
            for j in range(k):
                ws[hits + j] = True
    return ws


def tokenize_batch(
    texts: pa.Array | pa.ChunkedArray,
) -> tuple[pa.StringArray, np.ndarray, np.ndarray, np.ndarray]:
    """``tokenize_with_offsets`` over a string or large_string column
    (a null reads as empty).  Returns ``(words, n_words, starts, ends)``:
    every text's words concatenated in order, the word count per text,
    and each word's ``[start, end)`` char span in its own text.

    Works on the column's UTF-8 bytes: a byte is whitespace when it
    belongs to one of Python's 29 ``\\s`` code points (Arrow's own
    whitespace split differs on some), a word is a maximal run of other
    bytes inside one text, and a char offset is the count of UTF-8 lead
    bytes before it.  A binary column or invalid UTF-8 raises."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    off, data = _utf8(texts)
    ws = _whitespace(data)
    word = ~ws
    bound = np.zeros(len(data) + 1, dtype=bool)
    bound[off] = True
    # a word byte starts a word after whitespace or at a text start, and
    # ends one before whitespace or at a text end
    after_break = np.concatenate([[True], ws])[:-1] | bound[:-1]
    before_break = np.concatenate([ws, [True]])[1:] | bound[1:]
    first = np.flatnonzero(word & after_break)
    last = np.flatnonzero(word & before_break) + 1
    if len(data) and data.max() >= 0x80:
        chars = np.zeros(len(data) + 1, np.int64)
        np.cumsum((data & 0xC0) != 0x80, out=chars[1:])
    else:  # ASCII: a char per byte
        chars = np.arange(len(data) + 1, dtype=np.int64)
    text = np.searchsorted(off, first, side="right") - 1
    base = chars[off[text]]
    woff = np.zeros(len(first) + 1, np.int64)
    np.cumsum(last - first, out=woff[1:])
    if woff[-1] >= 1 << 31:
        raise ValueError("a batch's words exceed 2 GiB")
    words = pa.StringArray.from_buffers(
        len(first), pa.py_buffer(woff.astype(np.int32)),
        pa.py_buffer(np.compress(word, data)))
    return (words, np.bincount(text, minlength=len(off) - 1).astype(np.int64),
            chars[first] - base, chars[last] - base)


def normalize_surface(surface: str) -> str:
    """Canonicalization key: lowercase + collapse internal whitespace.
    Used for alias lookup and the canonicalization groupby."""
    return _WS_RE.sub(" ", surface.strip().lower())
