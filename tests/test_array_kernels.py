"""The tagger's, linker's and triple fold's array kernels against the
per-row reference functions they replace: the UTF-8 tokenizer against
the ``(\\S+)`` regex split, the phrase matcher against
``Lexicon.tag_words`` + ``perturb_tags``, span surfaces against
``normalize_surface(" ".join(...))``, the linker's ``index_in`` hit
against a row-by-row dict, and the coded triple fold against the
exchange path on both kgbench shapes."""

from __future__ import annotations

import dataclasses
import re
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinicaltransformerner_ray.functions.lexicon import (
    Lexicon,
    perturb_tags,
)
from clinicaltransformerner_ray.functions.text import (
    normalize_surface,
    tokenize_batch,
    tokenize_with_offsets,
)
from clinicaltransformerner_ray.stages.linker import EntityLinker
from clinicaltransformerner_ray.stages.tagger import (
    MentionTagger,
    _join_runs,
)

_WORD_SPLIT_RE = re.compile(r"(\S+)")

#: every code point Python's ``\s`` matches (29), and look-alikes it
#: does not: zero-width space, word joiner, Mongolian vowel separator,
#: BOM, NUL and other controls
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1)
              if 0xD800 > c or c > 0xDFFF if chr(c).isspace()]
NOT_WHITESPACE = ["\u200b", "\u2060", "\u180e", "\ufeff", "\x00", "\x08",
                  "\x0e", "\x1b", "!"]


def _split_reference(texts):
    """The regex split of each text: (words, n_words, starts, ends)."""
    words, n, starts, ends = [], [], [], []
    for t in texts:
        parts = _WORD_SPLIT_RE.split(t or "")
        pos = np.cumsum([0] + [len(p) for p in parts])
        n.append(len(parts) // 2)
        for k in range(1, len(parts), 2):
            words.append(parts[k])
            starts.append(int(pos[k]))
            ends.append(int(pos[k + 1]))
    return words, n, starts, ends


def _assert_tokenizes_like_regex(arr: pa.Array):
    words, n, starts, ends = tokenize_batch(arr)
    want = _split_reference(arr.to_pylist())
    assert words.to_pylist() == want[0]
    assert n.tolist() == want[1]
    assert starts.tolist() == want[2]
    assert ends.tolist() == want[3]


def test_tokenizer_splits_exactly_on_python_whitespace():
    """Every code point but the surrogates, between two letters: two
    words where Python's ``\\s`` matches it, one elsewhere."""
    cps = [c for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]
    texts = pa.array([f"a{chr(c)}b" for c in cps], pa.string())
    _, n, _, _ = tokenize_batch(texts)
    assert n.tolist() == [1 + chr(c).isspace() for c in cps]


_ALPHABET = WHITESPACE + NOT_WHITESPACE + list("abé中İΣς") + [
    "\u0301", "\U0001f600"]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(st.none(), st.text(alphabet=_ALPHABET,
                                                   max_size=24)),
                      max_size=8),
       large=st.booleans(), cut=st.tuples(st.integers(0, 8),
                                          st.integers(0, 8)))
def test_tokenizer_equals_regex_split(texts, large, cut):
    """PROPERTY: words, counts and char offsets equal the regex split's,
    for string and large_string arrays and for slices of them."""
    arr = pa.array(texts, pa.large_string() if large else pa.string())
    _assert_tokenizes_like_regex(arr)
    lo, hi = sorted(cut)
    _assert_tokenizes_like_regex(arr.slice(lo, hi - lo))


def test_tokenizer_reads_chunked_columns():
    col = pa.chunked_array([["a b", None], [], ["\u3000c\u2028d "]])
    words, n, starts, ends = tokenize_batch(col)
    assert words.to_pylist() == ["a", "b", "c", "d"]
    assert n.tolist() == [2, 0, 2]
    assert list(zip(starts.tolist(), ends.tolist())) == [
        (0, 1), (2, 3), (1, 2), (3, 4)]


def test_tokenizer_rejects_binary_and_invalid_utf8():
    with pytest.raises(TypeError):
        tokenize_batch(pa.array([b"ok text"], pa.binary()))
    bad = pa.Array.from_buffers(pa.string(), 1, [
        None, pa.py_buffer(np.array([0, 3], np.int32)),
        pa.py_buffer(b"a\xff\xfe")])
    with pytest.raises(pa.ArrowInvalid):
        tokenize_batch(bad)


def test_invalid_utf8_turn_is_quarantined_in_featurize(tmp_path):
    """A string column whose one turn holds bytes that are not UTF-8:
    only that turn fails, in featurize; the others are tagged."""
    import pandas as pd

    good = b"took warfarin daily"
    data = good + b"x\xff" + good
    text = pa.Array.from_buffers(pa.string(), 3, [
        None, pa.py_buffer(np.array(
            [0, len(good), len(good) + 2, len(data)], np.int32)),
        pa.py_buffer(data)])
    batch = pa.table({"conv_id": ["c", "c", "c"],
                      "turn_idx": pa.array([0, 1, 2], pa.int32()),
                      "text": text})
    qdir = str(tmp_path / "q")
    tagger = MentionTagger(ALIASES, quarantine_dir=qdir)
    out = tagger(batch)
    assert out.column("turn_idx").to_pylist() == [0, 2]
    qt = pd.read_parquet(qdir)
    assert qt["turn_idx"].tolist() == [1]
    assert qt["stage"].tolist() == ["featurize"]


ALIASES = [
    {"alias": "warfarin", "type": "drug", "entity_id": "E1"},
    {"alias": "chest pain", "type": "problem", "entity_id": "E2"},
]


# -- the phrase matcher ------------------------------------------------------

def _tagger_word_labels(aliases, texts, noise_mod):
    """The tagger's word tags for ``texts`` (the mock model's targets)."""
    tagger = MentionTagger(aliases, noise_mod=noise_mod)
    words, n_words, _, _ = tokenize_batch(pa.array(texts, pa.string()))
    enc = words.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    facts = tagger._facts(enc.dictionary.to_pylist())
    first = np.cumsum(n_words) - n_words
    tags = tagger._word_tags(codes, facts,
                             np.repeat(first + n_words, n_words))
    return [tagger.idx2label[int(i)] for i in tags]


def _reference_word_labels(aliases, texts, noise_mod):
    lex = Lexicon((tuple(r["alias"].split(" ")), r["type"], r["entity_id"])
                  for r in aliases)
    out = []
    for t in texts:
        norm = [normalize_surface(w) for w in tokenize_with_offsets(t)[0]]
        tags = lex.tag_words(norm)
        out += perturb_tags(norm, tags, mod=noise_mod) if noise_mod else tags
    return out


VOCAB = ["a", "b", "c", "d", "acid", "night", "skin"]


@st.composite
def _lexicon_case(draw):
    phrases = draw(st.lists(st.lists(st.sampled_from(VOCAB), min_size=1,
                                     max_size=4), min_size=1, max_size=8))
    aliases = [{"alias": " ".join(p), "type": draw(st.sampled_from(
        ["drug", "problem", "side-effect"])), "entity_id": f"E{i}"}
        for i, p in enumerate(phrases)]
    # one word tuple with two types: the first row's type wins
    aliases.append(dict(aliases[0], type="test", entity_id="Edup"))
    texts = draw(st.lists(st.lists(st.sampled_from(
        VOCAB + ["A", "Night", "zz"]), max_size=12).map(" ".join),
        min_size=1, max_size=5))
    return aliases, texts


@settings(max_examples=300, deadline=None)
@given(case=_lexicon_case(), noise_mod=st.sampled_from([0, 2, 5]))
def test_phrase_matcher_equals_tag_words(case, noise_mod):
    """PROPERTY: overlapping aliases, aliases at turn edges and a word
    tuple with two types tag as Lexicon.tag_words + perturb_tags tag
    each turn."""
    aliases, texts = case
    assert (_tagger_word_labels(aliases, texts, noise_mod)
            == _reference_word_labels(aliases, texts, noise_mod))


def test_phrase_matcher_vocabulary_past_int64():
    """3,000 alias words and six-word aliases: V^max_len passes 2^63,
    and the prefix keys still match exactly."""
    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(3000)]
    assert len(vocab) ** 6 > np.iinfo(np.int64).max
    aliases = [{"alias": w, "type": "drug", "entity_id": w} for w in vocab]
    long = [" ".join(rng.choice(vocab, k)) for k in (2, 3, 6, 6, 5)]
    aliases += [{"alias": a, "type": "problem", "entity_id": f"L{i}"}
                for i, a in enumerate(long)]
    texts = [f"zz {long[2]} {long[0]} zz", long[3], " ".join(
        rng.choice(vocab, 40)), f"{long[4]} {long[1]}"]
    got = _tagger_word_labels(aliases, texts, 5)
    assert got == _reference_word_labels(aliases, texts, 5)
    assert got.count("I-problem") >= 5 + 5 + 4


# -- surfaces ----------------------------------------------------------------

SURFACE_WORDS = ["ΟΔΟΣ", "Σ", "ΑΣ", "İstanbul", "İ", "e\u0301", "\u0301",
                 "ΣΑ", "Straße", "ǅ", "warfarin", "x"]


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from(SURFACE_WORDS), min_size=1,
                      max_size=10),
       runs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)),
                     max_size=5))
def test_span_surfaces_equal_normalized_join(words, runs):
    """PROPERTY: joining a span's words, and its words' norms, equals
    the joined surface and ``normalize_surface`` of it (final sigma,
    dotted capital I, combining marks)."""
    runs = [(i, min(i + k, len(words) - 1)) for i, k in runs
            if i < len(words)]
    first = np.asarray([i for i, _ in runs], np.int64)
    last = np.asarray([j for _, j in runs], np.int64)
    arr = pa.array(words, pa.string())
    enc = arr.dictionary_encode()
    norms = pa.array([normalize_surface(w)
                      for w in enc.dictionary.to_pylist()], pa.string())
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    joined = [" ".join(words[i:j + 1]) for i, j in runs]
    assert _join_runs(arr, first, last).to_pylist() == joined
    assert _join_runs(norms, first, last, codes).to_pylist() == [
        normalize_surface(s) for s in joined]


# -- the linker's dict hit ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c d", "e"]),
                               st.sampled_from(["E1", "E2", "E3"])),
                     max_size=8),
       surfaces=st.lists(st.sampled_from(["a", "b", "c d", "e", "zz"]),
                         max_size=6))
def test_linker_hit_equals_row_by_row_dict(rows, surfaces):
    """PROPERTY: a repeated alias links to its last row's entity, as a
    dict built row by row does; a miss falls back to the embedding
    (threshold 2: never) and then to the NIL id."""
    alias_rows = [{"alias": a, "type": "t", "entity_id": e,
                   "embedding": [1.0, 0.0]} for a, e in rows]
    want = {}
    for a, e in rows:
        want[a] = e
    got = EntityLinker(alias_rows, sim_threshold=2.0)(
        pa.table({"surface_norm": pa.array(surfaces, pa.string())}))
    assert got.column("entity_id").to_pylist() == [
        want.get(s, "ent:" + s) for s in surfaces]


# -- the coded triple fold ---------------------------------------------------

@pytest.fixture(scope="module")
def kgbench_linked():
    """Linked mentions of both kgbench shapes (fewer flagship turns),
    tagged in process."""
    from kgbench import gen
    from kgbench.run import WORKLOADS

    out = {}
    for name, seed in (("kg_flagship", 31), ("kg_dense", 32)):
        shape = WORKLOADS[name]
        shape = dataclasses.replace(shape,
                                    n_turns=min(shape.n_turns, 3000))
        turns, aliases, _ = gen.generate(shape, seed)
        out[name] = MentionTagger(aliases, emit="linked")(
            turns.select(["conv_id", "turn_idx", "text"]))
    return out


@pytest.mark.parametrize("workload", ["kg_flagship", "kg_dense"])
def test_triple_fold_equals_exchange_on_kgbench_shapes(
        monkeypatch, ray_session, kgbench_linked, workload):
    """The driver fold (cap 2^40) and the bucketed exchange (cap 0, md5
    conv buckets, salt span 64 so the mega conversation spans several
    buckets) give the same triple table, schema included."""
    import ray
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines import kg

    linked = kgbench_linked[workload]
    assert linked.num_rows > 0
    ds = rd.from_arrow(linked).materialize()
    out = {}
    for cap in (1 << 40, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        got = pa.concat_tables(ray.get(
            kg.emit_triples(ds, salt_span=64).to_arrow_refs()))
        out[cap] = got.sort_by([(c, "ascending") for c in got.column_names])
    assert out[0].schema.equals(out[1 << 40].schema)
    assert out[0].equals(out[1 << 40])
    assert out[0].num_rows > 100
