"""The batch-vectorized MentionTagger against the per-turn reference
(``tagger_reference.reference_tag``): mention and label tables, window
grids and model inputs, the vectorized BIO rules, batch tokenization
and per-turn quarantine."""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinicaltransformerner_ray.functions.decode import BioLabels, fix_bio
from clinicaltransformerner_ray.functions.lexicon import flips_to_inside
from clinicaltransformerner_ray.functions.text import (
    tokenize_batch,
    tokenize_with_offsets,
)
from clinicaltransformerner_ray.functions.windowing import FAMILIES
from clinicaltransformerner_ray.stages.tagger import MentionTagger

from tagger_reference import reference_tag, turn_windows

#: an alias head that perturb_tags(mod=5) flips, so its mention starts
#: with an I- tag; as the first word of a turn it exercises fix_bio's
#: ``split("-")[-1]`` rule at position 0
FLIP = next(w for w in ("acid", "night", "skin") if flips_to_inside(w, 5))
ALIASES = [
    {"alias": "warfarin", "type": "drug", "entity_id": "E1"},
    {"alias": "severe", "type": "symptom", "entity_id": "E2"},
    {"alias": "severe headache", "type": "symptom", "entity_id": "E3"},
    {"alias": f"{FLIP} burn", "type": "side-effect", "entity_id": "E4"},
    {"alias": "chest pain", "type": "side-effect", "entity_id": "E5"},
    {"alias": "ct scan of chest", "type": "test", "entity_id": "E6"},
]
LONG = "pneumonoultramicroscopicsilicovolcanoconiosis"  # > any window
WORDS = ["warfarin", "Warfarin", "severe", "headache", FLIP, "burn",
         "chest", "pain", "ct", "scan", "of", "the", "patient", "a",
         "took", "daily", "x" * 9, LONG]
SEPS = [" ", "  ", "\t", "\n", " ", "\x1c"]
SEQ_LENGTHS = [8, 12, 64]


def _batch(texts) -> pa.Table:
    return pa.table({
        "conv_id": pa.array([f"c{i % 3}" for i in range(len(texts))],
                            pa.string()),
        "turn_idx": pa.array(range(len(texts)), pa.int32()),
        "text": pa.array(texts, pa.string()),
    })


@st.composite
def _text(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, "", "  \n "]))
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPS), min_size=len(words) + 1,
                         max_size=len(words) + 1))
    return seps[0] + "".join(w + s for w, s in zip(words, seps[1:]))


_TEXTS = st.lists(_text(), min_size=1, max_size=8)


@pytest.mark.parametrize("noise_mod", [0, 5])
@pytest.mark.parametrize("emit", ["mentions", "labels"])
@pytest.mark.parametrize("decode", ["argmax", "crf"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(texts=_TEXTS, max_seq_length=st.sampled_from(SEQ_LENGTHS))
def test_batch_tagger_equals_reference(family, decode, emit, noise_mod,
                                       texts, max_seq_length):
    """PROPERTY: for any batch of turns, the batch tagger's table equals
    the per-turn reference's, byte for byte."""
    kw = dict(family=family, decode=decode, emit=emit, noise_mod=noise_mod,
              max_seq_length=max_seq_length)
    batch = _batch(texts)
    got = MentionTagger(ALIASES, **kw)(batch)
    assert got.equals(reference_tag(batch, ALIASES, **kw))


EDGE_TEXTS = [
    "",
    None,
    # a word longer than the window: the hard cut
    f"took {LONG} then warfarin daily",
    # three or more windows at max_seq_length=12
    " ".join(["the patient took warfarin daily"] * 4 + ["chest pain"]),
    # a '-' type whose first word carries I- (with noise_mod=5)
    f"{FLIP} burn after severe headache",
    "ct scan of chest   severe severe headache\tWarfarin",
]


@pytest.mark.parametrize("noise_mod", [0, 5])
@pytest.mark.parametrize("emit", ["mentions", "labels"])
@pytest.mark.parametrize("decode", ["argmax", "crf"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batch_tagger_edge_cases(family, decode, emit, noise_mod):
    """Empty and None text, a hard-cut word, a turn of 3+ windows and an
    I- tag on a turn's first word, in one batch."""
    kw = dict(family=family, decode=decode, emit=emit, noise_mod=noise_mod,
              max_seq_length=12)
    # the cases really arise at this window size
    assert max(len(turn_windows(t, ALIASES, family=family,
                                max_seq_length=12)[2])
               for t in EDGE_TEXTS) >= 3
    batch = _batch(EDGE_TEXTS)
    got = MentionTagger(ALIASES, **kw)(batch)
    assert got.equals(reference_tag(batch, ALIASES, **kw))
    if emit == "mentions":
        types = set(got.column("type").to_pylist())
        # fix_bio repairs a leading I-side-effect to B-effect
        assert ("effect" in types) == (noise_mod == 5)
        assert {"drug", "symptom", "test"} <= types


def test_hard_cut_word_gets_one_label():
    """A word split across windows keeps one label, so the words after
    it stay aligned with their tags."""
    batch = _batch([f"warfarin {LONG} warfarin"])
    out = MentionTagger(ALIASES, emit="labels", max_seq_length=8,
                        noise_mod=0)(batch)
    assert out.column("labels").to_pylist() == [["B-drug", "O", "B-drug"]]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(texts=_TEXTS, max_seq_length=st.sampled_from(SEQ_LENGTHS))
def test_batch_model_inputs_equal_make_windows(family, texts,
                                               max_seq_length):
    """PROPERTY: the batch grid's input_ids, segment_ids, attention mask
    and guards equal make_windows' fields row for row — the real-scorer
    path's inputs, checked without torch."""
    tagger = MentionTagger(ALIASES, family=family,
                           max_seq_length=max_seq_length)
    f = tagger._featurize(pa.array(texts, pa.string()))
    input_ids, segment_ids = tagger._model_inputs(f)
    wins = [w for t in texts
            for w in turn_windows(t, ALIASES, family=family,
                                  max_seq_length=max_seq_length)[2]]
    assert len(wins) == len(f.guards)
    for k, w in enumerate(wins):
        assert input_ids[k].tolist() == w.input_ids
        assert segment_ids[k].tolist() == w.segment_ids
        assert f.mask[k].tolist() == w.attention_mask
        assert f.guards[k].tolist() == w.guards


_LABEL = st.sampled_from(["O", "B-drug", "I-drug", "B-side-effect",
                          "I-side-effect", "B-effect", "I-effect", "X",
                          "PAD", "CLS"])


@settings(max_examples=200, deadline=None)
@given(seqs=st.lists(st.lists(_LABEL, min_size=1, max_size=12), max_size=6))
def test_bio_labels_fix_equals_fix_bio(seqs):
    """PROPERTY: BioLabels' M8 + M9 over concatenated sentences equals
    fix_system_labels + fix_bio per sentence."""
    vocab = ["PAD", "CLS", "X", "O", "B-drug", "I-drug", "B-side-effect",
             "I-side-effect", "B-effect", "I-effect"]
    lab = BioLabels(vocab)
    ids = np.asarray([vocab.index(x) for s in seqs for x in s], np.int64)
    starts = np.zeros(len(ids), bool)
    starts[np.cumsum([0] + [len(s) for s in seqs])[:-1]] = True
    got = [lab.names[i] for i in lab.fix_bio(lab.fix_system(ids), starts)]
    want = [x for s in seqs
            for x in fix_bio(["O" if y in ("X", "PAD", "CLS") else y
                              for y in s])]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.one_of(st.none(), st.text(
    alphabet=list("abé中 \t\n\x1c\x85\xa0\u2028\u3000\U0001f600"),
    max_size=20)), max_size=6))
def test_tokenize_batch_equals_per_text(texts):
    """PROPERTY: tokenize_batch == tokenize_with_offsets per text,
    including Python-only whitespace and astral code points."""
    words, n_words, starts, ends = tokenize_batch(pa.array(texts, pa.string()))
    want = [tokenize_with_offsets(t or "") for t in texts]
    assert n_words.tolist() == [len(w) for w, _ in want]
    assert words.to_pylist() == [t for w, _ in want for t in w]
    assert list(zip(starts.tolist(), ends.tolist())) == [
        o for _, offs in want for o in offs]


@pytest.mark.parametrize("stage", ["featurize", "decode"])
def test_poison_turn_is_the_only_one_quarantined(stage, tmp_path, caplog,
                                                 monkeypatch):
    """One poison turn among good ones: only it is quarantined, under
    the stage that failed, and every other turn's mentions equal a clean
    run's.  The featurize poison is a word the tokenizer raises on; the
    decode poison is a mention surface that span assembly raises on."""
    import pandas as pd

    import clinicaltransformerner_ray.stages.tagger as tagger_mod

    good = ["patient took warfarin daily", "severe headache today",
            "ct scan of chest was clear", "chest pain and warfarin"]
    poison = ("then chest pain zzpoison" if stage == "featurize"
              else f"then {FLIP} burn again")
    texts = good[:2] + [poison] + good[2:]
    qdir = str(tmp_path / "q")
    tagger = MentionTagger(ALIASES, quarantine_dir=qdir)
    if stage == "featurize":
        real = tagger.tokenizer.tokenize

        def tokenize(word):
            if word == "zzpoison":
                raise RuntimeError("poison word")
            return real(word)

        monkeypatch.setattr(tagger.tokenizer, "tokenize", tokenize)
    else:
        real = tagger_mod._join_runs

        def join_runs(*args):
            out = real(*args)
            if f"{FLIP} burn" in out.to_pylist():
                raise RuntimeError("poison surface")
            return out

        monkeypatch.setattr(tagger_mod, "_join_runs", join_runs)
    with caplog.at_level(logging.WARNING,
                         logger="clinicaltransformerner_ray.stages.tagger"):
        out = tagger(_batch(texts))
    assert tagger.n_failed == 1
    assert any("quarantined" in r.message for r in caplog.records)
    qt = pd.read_parquet(qdir)
    assert qt["turn_idx"].tolist() == [2]
    assert qt["stage"].tolist() == [stage]
    assert "poison" in qt["error"][0]

    monkeypatch.undo()
    clean = MentionTagger(ALIASES)(_batch(texts)).to_pylist()
    assert out.to_pylist() == [r for r in clean if r["turn_idx"] != 2]
    assert out.num_rows > 0
