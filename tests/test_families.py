"""Tokenizer-family strategy tests (M3/M5/M19 variance): framing,
padding side, continuation-label policy, partial-token conventions —
windows must reassemble to the same word labels in every family
(`src/transformer_ner/data_utils.py:174-265,287-299,392-409`,
`src/transformer_ner/task.py:154-173`)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from clinicaltransformerner_ray.functions.decode import decode_windows
from clinicaltransformerner_ray.functions.subword import (
    MockBPETokenizer,
    MockSentencePieceTokenizer,
    MockWordpieceTokenizer,
    tokenizer_for_family,
)
from clinicaltransformerner_ray.functions.windowing import (
    FAMILIES,
    make_windows,
    model_inputs,
)
from clinicaltransformerner_ray.labels import NEXT_TOKEN, build_label_vocab

WORDS = ("the patient took warfarin and then developed severe "
         "uncontrollable persistent headaches overnight repeatedly "
         "according to longstanding documentation").split()
LABELS = ["O", "O", "O", "B-drug", "O", "O", "O", "B-symptom",
          "I-symptom", "I-symptom", "I-symptom", "O", "O", "O", "O", "O",
          "O"]
assert len(WORDS) == len(LABELS)
VOCAB = build_label_vocab(["drug", "symptom"])
IDX2LABEL = {v: k for k, v in VOCAB.items()}


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_windows_reassemble_across_families(fam_name):
    """Property: for every family, feeding the gold label ids back
    through the family-aware guard-walk decode recovers the original
    word labels exactly — framing, padding side and continuation policy
    all cancel out."""
    fam = FAMILIES[fam_name]
    tok = tokenizer_for_family(fam_name)
    wins = make_windows(WORDS, LABELS, tok, 16, VOCAB, family=fam)
    assert len(wins) > 1, "sentence must split into multiple windows"
    y = decode_windows(
        [w.attention_mask for w in wins],
        [w.label_ids for w in wins],
        [w.guards for w in wins],
        IDX2LABEL,
        skip_masked=fam.pre_pad,
    )
    assert y == LABELS, fam_name


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_window_token_stream_reassembles(fam_name):
    """Stripping specials/pad/[next] from the window chain reproduces
    the full subword expansion, in order, for every family."""
    fam = FAMILIES[fam_name]
    tok = tokenizer_for_family(fam_name)
    wins = make_windows(WORDS, LABELS, tok, 16, VOCAB, family=fam)
    specials = {fam.start_tok, fam.end_tok, fam.pad_tok,
                "<s>", "</s>", NEXT_TOKEN}
    got = [t for w in wins for t in w.input_tokens if t not in specials]
    want = [p for word in WORDS for p in tok.tokenize(word)]
    assert got == want, fam_name


def test_xlnet_framing_layout():
    """XLNet window: pre-padded, ``<s> X </s> <sep> <cls>`` tail,
    segment ids [3]*pad + [0]* + [2] (data_utils.py:192-247)."""
    fam = FAMILIES["xlnet"]
    tok = tokenizer_for_family("xlnet")
    [w] = make_windows(["aspirin"], ["B-drug"], tok, 12, VOCAB, family=fam)
    pad_len = w.attention_mask.count(0)
    assert pad_len > 0
    assert w.input_tokens[:pad_len] == ["<pad>"] * pad_len
    assert w.attention_mask[:pad_len] == [0] * pad_len
    assert w.input_tokens[-1] == "<cls>" and w.input_tokens[-2] == "<sep>"
    assert w.segment_ids == [3] * pad_len + [0] * (12 - pad_len - 1) + [2]
    # continuation subtokens repeat the word label (data_utils.py:294-296)
    real = [i for i, g in enumerate(w.guards) if g > 0]
    assert [w.label_ids[i] for i in real] == [VOCAB["B-drug"]] * len(real)


def test_bert_framing_layout():
    fam = FAMILIES["bert"]
    tok = tokenizer_for_family("bert")
    [w] = make_windows(["aspirin"], ["B-drug"], tok, 12, VOCAB, family=fam)
    assert w.input_tokens[0] == "[CLS]" and "[SEP]" in w.input_tokens
    assert w.segment_ids == [0] * 12
    assert w.attention_mask[-1] == 0  # post-padded


def test_partial_token_conventions():
    """M19: the three continuation conventions
    (`src/transformer_ner/task.py:154-173`)."""
    wp = MockWordpieceTokenizer()
    assert not wp.is_continuation(wp.tokenize("warfarin")[0])
    assert wp.is_continuation(wp.tokenize("warfarin")[1])  # ## prefix
    bpe = MockBPETokenizer()
    assert not bpe.is_continuation(bpe.tokenize("warfarin")[0])  # Ġ
    assert bpe.is_continuation(bpe.tokenize("warfarin")[1])
    sp = MockSentencePieceTokenizer()
    assert not sp.is_continuation(sp.tokenize("warfarin")[0])  # ▁
    assert sp.is_continuation(sp.tokenize("warfarin")[1])


def test_albert_is_sentencepiece():
    """M19 fidelity: albert routes to the sentencepiece mock (HF albert
    uses `▁` word-initial marks, `src/transformer_ner/task.py:168-172`)
    while keeping BERT framing (CLS/SEP, post-pad) in its strategy."""
    alb = tokenizer_for_family("albert")
    assert isinstance(alb, MockSentencePieceTokenizer)
    pieces = alb.tokenize("warfarin")
    assert pieces[0].startswith("▁")
    assert not any(p.startswith("▁") for p in pieces[1:])
    assert not alb.is_continuation(pieces[0])
    assert all(alb.is_continuation(p) for p in pieces[1:])
    fam = FAMILIES["albert"]
    assert (fam.start_tok, fam.end_tok, fam.pre_pad) == ("[CLS]", "[SEP]", False)


def test_model_input_projection_per_family():
    """M5: roberta-style families drop token_type_ids
    (data_utils.py:392-409)."""
    for fam_name in FAMILIES:
        fam = FAMILIES[fam_name]
        tok = tokenizer_for_family(fam_name)
        [w] = make_windows(["x"], ["O"], tok, 8, VOCAB, family=fam)
        inputs = model_inputs(w, fam)
        assert ("token_type_ids" in inputs) == fam.uses_token_type_ids, fam_name


@pytest.mark.parametrize("fam_name", ["roberta", "xlnet"])
def test_tagger_family_end_to_end_equivalence(fam_name, ray_session):
    """The whole extraction stack is family-invariant: roberta and
    xlnet taggers emit the identical mention table as bert on real
    turns (different framing/padding/marks, same spans)."""
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.stages.tagger import MentionTagger
    from clinicaltransformerner_ray.synth import ensure_synth

    p = ensure_synth("/root/testdata/sf0.001")
    alias_rows = pq.read_table(p["aliases"]).to_pylist()
    turns = pq.read_table(p["turns"]).slice(0, 200)
    base = MentionTagger(alias_rows)(turns)
    other = MentionTagger(alias_rows, family=fam_name)(turns)
    assert other.to_pydict() == base.to_pydict()
    assert base.num_rows > 0


@pytest.mark.parametrize("fam_name", ["roberta", "xlnet"])
def test_tagger_family_slow_decode_agrees(fam_name):
    """The per-turn reference on the sequential guard-walk
    (family-aware mask handling) agrees with the batch-vectorized
    tagger for non-BERT families too."""
    from tagger_reference import reference_tag

    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    alias_rows = [
        {"alias": "warfarin", "type": "drug", "entity_id": "E1"},
        {"alias": "severe headache", "type": "symptom", "entity_id": "E2"},
    ]
    batch = pa.table({
        "conv_id": ["c"] * 2,
        "turn_idx": pa.array([0, 1], pa.int32()),
        "text": ["patient takes warfarin for severe headache today",
                 "severe headache persists " + "verylongword " * 40],
    })
    fast = MentionTagger(alias_rows, family=fam_name, noise_mod=0)(batch)
    slow = reference_tag(batch, alias_rows, family=fam_name, noise_mod=0)
    assert fast.to_pydict() == slow.to_pydict()
    assert fast.num_rows >= 3


# ---------------------------------------------------------------------------
# property-based fuzzing (hypothesis): any sentence, any family

from hypothesis import given, settings
from hypothesis import strategies as st

_WORD = st.text(alphabet="abcdefghij", min_size=1, max_size=14)
_TYPE = st.sampled_from(["drug", "symptom"])


@st.composite
def _sentence(draw):
    """Random words with a BIO-consistent label sequence."""
    words = draw(st.lists(_WORD, min_size=1, max_size=40))
    labels = []
    i = 0
    while i < len(words):
        if draw(st.booleans()):
            t = draw(_TYPE)
            span = min(draw(st.integers(1, 3)), len(words) - i)
            labels.append(f"B-{t}")
            labels.extend([f"I-{t}"] * (span - 1))
            i += span
        else:
            labels.append("O")
            i += 1
    return words, labels


@settings(max_examples=30, deadline=None)
@given(data=_sentence(), fam_name=st.sampled_from(sorted(FAMILIES)))
def test_windowing_roundtrip_property(data, fam_name):
    """PROPERTY: for any sentence and any tokenizer family, windows
    reassemble to exactly the original word labels through the
    family-aware guard-walk decode (SURVEY §5 window-reassembly
    property, fuzzed)."""
    words, labels = data
    fam = FAMILIES[fam_name]
    tok = tokenizer_for_family(fam_name)
    wins = make_windows(words, labels, tok, 16, VOCAB, family=fam)
    y = decode_windows(
        [w.attention_mask for w in wins],
        [w.label_ids for w in wins],
        [w.guards for w in wins],
        IDX2LABEL,
        skip_masked=fam.pre_pad,
    )
    assert y == labels


#: the reference's MODEL_CLASSES names -> the strategy each one frames with
MODEL_TYPES = {
    "bert": "bert", "roberta": "roberta", "xlnet": "xlnet",
    "albert": "albert", "distilbert": "bert", "electra": "bert",
    "deberta": "bert", "deberta-v2": "bert", "megatron": "bert",
    "gatortron": "bert", "bart": "roberta", "longformer": "roberta",
}


@pytest.mark.parametrize("model_type", sorted(MODEL_TYPES))
def test_every_reference_model_type_tags(model_type):
    """All 12 reference model types construct a tagger that frames with
    its family's strategy and tags the same mentions as that family."""
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.stages.tagger import MentionTagger
    from clinicaltransformerner_ray.synth import ensure_synth

    base = MODEL_TYPES[model_type]
    assert FAMILIES[model_type] is FAMILIES[base]
    assert (type(tokenizer_for_family(model_type))
            is type(tokenizer_for_family(base)))
    p = ensure_synth("/root/testdata/sf0.001")
    alias_rows = pq.read_table(p["aliases"]).to_pylist()
    turns = pq.read_table(p["turns"]).slice(0, 100)
    got = MentionTagger(alias_rows, family=model_type)(turns)
    assert got.num_rows > 0
    assert got.to_pydict() == MentionTagger(alias_rows,
                                            family=base)(turns).to_pydict()


def test_unknown_model_type_is_a_clear_error():
    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    with pytest.raises(ValueError, match="unknown model family"):
        MentionTagger([], family="gpt9")
