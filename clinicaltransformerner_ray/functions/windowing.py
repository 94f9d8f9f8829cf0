"""Subword expansion with guard arrays and sentence-window chunking (M1-M3),
parameterized by tokenizer FAMILY (M3/M5/M19 family variance).

Semantics parity with the reference featurizer:

  - per word: first subtoken keeps the word label, continuations get 'X'
    (XLNet: the label is REPEATED on continuations,
    `src/transformer_ner/data_utils.py:287-299`); guards record the
    1-based word index per subtoken,
  - a sentence whose subtoken length exceeds ``max_seq_length - shifts``
    (shifts 2; XLNet 4, `data_utils.py:301-306`) is cut at the last word
    boundary before the limit (backward guard scan, `data_utils.py:268-274`)
    and each non-final window is terminated by the ``[next]`` token with
    label 'O' and guard ``NEXT_GUARD`` (`data_utils.py:301-331`),
  - framing is family-specific (`data_utils.py:174-265`):
      bert/albert  ``[CLS] X [SEP]`` then post-padding, segment ids all 0
      roberta      ``<s> X </s>`` same shape (and the model-input
                   projection DROPS token_type_ids, `data_utils.py:392-409`)
      xlnet        ``<s> X </s> <sep> <cls>`` then PRE-padding with
                   segment ids ``[3]*pad + [0]*(L-pad-1) + [2]``
  - label->id with OOV->'O' (`data_utils.py:241`).

Windows of one sentence stay together as a nested list so the
continuation-window merge during decode is always intra-row (SURVEY.md
§7.5 hard-part #1) — no cross-batch state anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from clinicaltransformerner_ray.labels import CLS, NEXT_GUARD, NEXT_TOKEN, O, PAD, X

SHIFTS = 2  # BERT-family default (data_utils.py:303-306)


@dataclass(frozen=True)
class FamilyStrategy:
    """One tokenizer family's framing/padding/projection contract —
    the strategy object replacing the reference's isinstance ladders
    (`data_utils.py:174-265,392-409`, `task.py:154-173`)."""

    name: str
    start_tok: str
    end_tok: str
    pad_tok: str
    shifts: int                  # specials per window (2; xlnet 4)
    pre_pad: bool                # xlnet pre-pads, others post-pad
    repeat_label_on_continuation: bool  # xlnet M1 variant
    uses_token_type_ids: bool    # False: roberta/bart/longformer (M5)


BERT = FamilyStrategy("bert", "[CLS]", "[SEP]", "[PAD]",
                      2, False, False, True)
ROBERTA = FamilyStrategy("roberta", "<s>", "</s>", "<pad>",
                         2, False, False, False)
XLNET = FamilyStrategy("xlnet", "<cls>", "<sep>", "<pad>",
                       4, True, True, True)
ALBERT = FamilyStrategy("albert", "[CLS]", "[SEP]", "<pad>",
                        2, False, False, True)

#: every model-type name of the reference's ``MODEL_CLASSES``
#: (`src/transformer_ner/task.py:53-66`) -> its framing strategy.  The
#: BERT-framed encoders share BERT's ``[CLS] X [SEP]`` contract; bart and
#: longformer are RoBERTa-framed and take no token_type_ids (M5).
FAMILIES: dict[str, FamilyStrategy] = {
    **{f.name: f for f in (BERT, ROBERTA, XLNET, ALBERT)},
    **dict.fromkeys(("distilbert", "electra", "deberta", "deberta-v2",
                     "megatron", "gatortron"), BERT),
    **dict.fromkeys(("bart", "longformer"), ROBERTA),
}


@dataclass
class Window:
    """One fixed-length model input (reference InputFeature, data_utils.py:31-41)."""

    input_tokens: list[str]
    input_ids: list[int]
    attention_mask: list[int]
    segment_ids: list[int]
    label_ids: list[int]
    guards: list[int]


def word_boundary_cut(guards: list[int], i: int) -> int:
    """Index of the first subtoken of the word covering position ``i``
    (backward scan until the guard value changes, data_utils.py:268-274)."""
    prev = guards[i]
    for j in range(i - 1, -1, -1):
        if guards[j] != prev:
            return j + 1
        prev = guards[j]
    return i


def subword_with_guards(
    words: list[str], labels: list[str], tokenizer,
    family: FamilyStrategy = BERT,
) -> tuple[list[str], list[str], list[int]]:
    """M1: expand words to subtokens; first piece keeps the label,
    continuations get 'X' (XLNet: the label again); guard = 1-based
    word index (data_utils.py:287-299)."""
    toks: list[str] = []
    labs: list[str] = []
    guards: list[int] = []
    for i, (word, label) in enumerate(zip(words, labels)):
        pieces = tokenizer.tokenize(word)
        toks.extend(pieces)
        for k in range(len(pieces)):
            if k == 0 or family.repeat_label_on_continuation:
                labs.append(label)
            else:
                labs.append(X)
            guards.append(i + 1)
    return toks, labs, guards


def _frame_and_pad(
    toks: list[str],
    labs: list[str],
    guards: list[int],
    tokenizer,
    max_seq_length: int,
    label2idx: dict[str, int],
    family: FamilyStrategy = BERT,
) -> Window:
    """M3: family-specific special-token framing + padding
    (data_utils.py:174-265)."""
    if family.pre_pad:  # xlnet: ``<s> X </s> <sep> <cls>``, pre-padded
        toks = ["<s>"] + toks + ["</s>", family.end_tok, family.start_tok]
        labs = [O] + labs + [O, O, O]
        guards = [0] + guards + [0, 0, 0]
        mask = [1] * len(toks)
        pad_len = max_seq_length - len(toks)
        toks = [family.pad_tok] * pad_len + toks
        labs = [PAD] * pad_len + labs
        mask = [0] * pad_len + mask
        guards = [0] * pad_len + guards
        # single sequence: pad segment 3, content 0, trailing <cls> 2
        # (data_utils.py:243-247)
        segment_ids = ([3] * pad_len
                       + [0] * (max_seq_length - pad_len - 1) + [2])
    else:  # bert/roberta/albert: ``start X end``, post-padded
        toks = [family.start_tok] + toks + [family.end_tok]
        labs = [CLS] + labs + [O]
        guards = [0] + guards + [0]
        mask = [1] * len(toks)
        while len(toks) < max_seq_length:
            toks.append(family.pad_tok)
            labs.append(PAD)
            mask.append(0)
            guards.append(0)
        segment_ids = [0] * max_seq_length
    label_ids = [label2idx.get(lb, label2idx[O]) for lb in labs]
    assert len(toks) == max_seq_length, (len(toks), max_seq_length)
    return Window(
        input_tokens=toks,
        input_ids=tokenizer.convert_tokens_to_ids(toks),
        attention_mask=mask,
        segment_ids=segment_ids,
        label_ids=label_ids,
        guards=guards,
    )


def make_windows(
    words: list[str],
    labels: list[str],
    tokenizer,
    max_seq_length: int,
    label2idx: dict[str, int],
    family: FamilyStrategy = BERT,
) -> list[Window]:
    """M1+M2+M3 for one sentence: subword expansion then window chunking
    with the [next]/NEXT_GUARD chain (data_utils.py:277-331)."""
    toks, labs, guards = subword_with_guards(words, labels, tokenizer,
                                             family)
    out: list[Window] = []
    tlen = len(toks)
    limit = max_seq_length - family.shifts
    while tlen > limit:
        cutoff = word_boundary_cut(guards, limit - 1)
        if cutoff == 0:
            # a single word longer than the window: hard-cut (the reference
            # would loop forever here; we bound it and split the word)
            cutoff = limit - 1
        w_toks = toks[:cutoff] + [NEXT_TOKEN]
        w_labs = labs[:cutoff] + [O]
        w_guards = guards[:cutoff] + [NEXT_GUARD]
        out.append(_frame_and_pad(w_toks, w_labs, w_guards, tokenizer,
                                  max_seq_length, label2idx, family))
        toks, labs, guards = toks[cutoff:], labs[cutoff:], guards[cutoff:]
        tlen -= cutoff
    out.append(_frame_and_pad(toks, labs, guards, tokenizer,
                              max_seq_length, label2idx, family))
    return out


def model_inputs(window: Window, family: FamilyStrategy = BERT) -> dict:
    """M5: the per-family model-input projection — roberta-style
    families drop ``token_type_ids`` (`data_utils.py:392-409`)."""
    inputs = {
        "input_ids": window.input_ids,
        "attention_mask": window.attention_mask,
        "label_ids": window.label_ids,
    }
    if family.uses_token_type_ids:
        inputs["token_type_ids"] = window.segment_ids
    return inputs
