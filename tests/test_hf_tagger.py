"""Real-checkpoint scorer path (T1/T2 parity, VERDICT r03 item 3).

The sandbox ships neither torch nor transformers, so the heavy test is
skipped here; what CAN run everywhere is the guard itself — the default
mock path must never import torch, and ``model_dir=...`` without torch
must fail with a pointed ImportError, not a bare ModuleNotFoundError.

With torch+transformers present, ``test_real_scorer_tiny_checkpoint``
builds a random-weight 1-layer BertForTokenClassification plus a
hand-written vocab.txt tokenizer entirely offline, saves both as a
checkpoint dir, and runs the tagger's real forward over it: the HF slow
tokenizer drops into the same ``tokenize``/``convert_tokens_to_ids``
windowing interface the mock uses (reference word-by-word featurize,
`src/transformer_ner/data_utils.py:287-299`), the model scores stacked
windows in bounded sub-batches (`src/transformer_ner/task.py:359-432`),
and the argmax/CRF decode + span assembly downstream is byte-identical
machinery to the mock path.
"""

import numpy as np
import pyarrow as pa
import pytest

from clinicaltransformerner_ray.labels import build_label_vocab
from clinicaltransformerner_ray.stages.tagger import MentionTagger

ALIASES = [
    {"alias": "aspirin", "type": "drug", "entity_id": "drug_0"},
    {"alias": "fever", "type": "symptom", "entity_id": "symptom_0"},
]


def _batch():
    return pa.table({
        "conv_id": pa.array(["c0", "c0"], pa.string()),
        "turn_idx": pa.array([0, 1], pa.int32()),
        "text": pa.array(["patient took aspirin for fever",
                          "fever resolved after aspirin"], pa.string()),
    })


def test_mock_path_never_touches_torch(monkeypatch):
    """model_dir=None must not attempt any torch/transformers import."""
    import builtins

    real_import = builtins.__import__

    def deny(name, *a, **k):
        if name in ("torch", "transformers"):
            raise AssertionError("mock path imported " + name)
        return real_import(name, *a, **k)

    monkeypatch.setattr(builtins, "__import__", deny)
    tagger = MentionTagger(ALIASES, noise_mod=0)
    out = tagger(_batch())
    assert out.num_rows == 4  # two mentions per turn
    assert tagger.model is None


def test_model_dir_without_torch_raises_pointed_error():
    try:
        import torch  # noqa: F401

        pytest.skip("torch present; the guard cannot fire")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="model_dir"):
        MentionTagger(ALIASES, model_dir="/nonexistent/ckpt")


def _write_tiny_checkpoint(tmp_path):
    """Offline random-weight checkpoint: 1-layer BERT token classifier
    + a hand-written WordPiece vocab (no network, no real weights)."""
    import transformers

    label2idx = build_label_vocab(["drug", "symptom"])
    id2label = {v: k for k, v in label2idx.items()}
    vocab = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
             "patient", "took", "aspirin", "for", "fever",
             "resolved", "after", "##in", "asp", "fe", "##ver"]
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("\n".join(vocab) + "\n")
    tok = transformers.BertTokenizer(str(vocab_file), do_lower_case=True)
    cfg = transformers.BertConfig(
        vocab_size=len(vocab), hidden_size=16, num_hidden_layers=1,
        num_attention_heads=2, intermediate_size=32,
        max_position_embeddings=64,
        id2label=id2label, label2id=label2idx,
    )
    import torch

    torch.manual_seed(7)
    model = transformers.BertForTokenClassification(cfg)
    ckpt = tmp_path / "ckpt"
    model.save_pretrained(ckpt)
    tok.save_pretrained(ckpt)
    return str(ckpt), label2idx


def test_real_scorer_tiny_checkpoint(tmp_path):
    pytest.importorskip("torch")
    pytest.importorskip("transformers")
    ckpt, label2idx = _write_tiny_checkpoint(tmp_path)

    tagger = MentionTagger(ALIASES, model_dir=ckpt, noise_mod=0,
                           max_seq_length=32, forward_window_batch=2)
    assert tagger.model is not None
    assert tagger.label2idx == label2idx  # checkpoint vocab adopted
    out = tagger(_batch())
    # random weights -> arbitrary spans, but the full lifecycle must
    # run: schema intact, offsets within the turn, types from the vocab
    assert out.schema.names == ["conv_id", "turn_idx", "ment_id",
                                "surface", "surface_norm", "start",
                                "end", "type"]
    types = set(out.column("type").to_pylist())
    assert types <= {"drug", "symptom"}
    # determinism: same input, same weights -> same output
    out2 = tagger(_batch())
    assert out.equals(out2)
    # CRF route over real emissions
    crf = MentionTagger(ALIASES, model_dir=ckpt, noise_mod=0,
                        max_seq_length=32, decode="crf")
    crf_out = crf(_batch())
    assert crf_out.schema.names == out.schema.names


def test_real_forward_subbatching_matches_single_call(tmp_path):
    """forward_window_batch must not change predictions (pure batching)."""
    pytest.importorskip("torch")
    pytest.importorskip("transformers")
    ckpt, _ = _write_tiny_checkpoint(tmp_path)
    a = MentionTagger(ALIASES, model_dir=ckpt, noise_mod=0,
                      max_seq_length=32, forward_window_batch=1)
    b = MentionTagger(ALIASES, model_dir=ckpt, noise_mod=0,
                      max_seq_length=32, forward_window_batch=64)
    assert a(_batch()).equals(b(_batch()))


@pytest.mark.parametrize("family", ["bert", "roberta", "xlnet", "albert"])
def test_real_forward_all_framing_families(tmp_path, family):
    """VERDICT r04 item 7: the real forward must compose with every
    framing strategy — including XLNet's PRE-pad layout (leading pad,
    trailing <sep><cls>, 4 shifts) — because the decode selects by
    per-position guards, not by slice offset.  The tiny checkpoint's
    vocab carries the xlnet special tokens so framing uses real ids."""
    pytest.importorskip("torch")
    import transformers

    from clinicaltransformerner_ray.labels import build_label_vocab

    label2idx = build_label_vocab(["drug", "symptom"])
    id2label = {v: k for k, v in label2idx.items()}
    vocab = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
             "<cls>", "<sep>", "<pad>", "<s>", "</s>",
             "patient", "took", "aspirin", "for", "fever",
             "resolved", "after", "##in", "asp", "fe", "##ver"]
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("\n".join(vocab) + "\n")
    tok = transformers.BertTokenizer(str(vocab_file), do_lower_case=True)
    cfg = transformers.BertConfig(
        vocab_size=len(vocab), hidden_size=16, num_hidden_layers=1,
        num_attention_heads=2, intermediate_size=32,
        max_position_embeddings=64,
        id2label=id2label, label2id=label2idx,
    )
    import torch

    torch.manual_seed(7)
    model = transformers.BertForTokenClassification(cfg)
    ckpt = tmp_path / "ckpt"
    model.save_pretrained(ckpt)
    tok.save_pretrained(ckpt)

    tagger = MentionTagger(ALIASES, model_dir=str(ckpt), noise_mod=0,
                           max_seq_length=16, family=family,
                           forward_window_batch=2)
    out = tagger(_batch())
    assert out.schema.names == ["conv_id", "turn_idx", "ment_id",
                                "surface", "surface_norm", "start",
                                "end", "type"]
    # deterministic, and window sub-batching must not change output
    wide = MentionTagger(ALIASES, model_dir=str(ckpt), noise_mod=0,
                         max_seq_length=16, family=family,
                         forward_window_batch=64)
    assert out.equals(wide(_batch()))
