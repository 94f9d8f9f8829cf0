"""Per-turn reference composition of the mention stage, for parity tests.

``reference_tag`` runs one turn at a time through the library's
reference-semantics functions: ``make_windows`` (subword expansion,
guards, window chunking, framing), the mock model over the windows'
lexicon targets, ``decode_windows`` (the sequential guard walk),
``fix_system_labels``, ``fix_bio`` and ``tag2entity_turn``.
``MentionTagger`` does the same work over a whole batch with array
operations; the tests hold it to this output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clinicaltransformerner_ray.functions.decode import (
    argmax_decode,
    decode_windows,
    fix_bio,
    fix_system_labels,
)
from clinicaltransformerner_ray.functions.lexicon import (
    Lexicon,
    ids_to_logits,
    perturb_tags,
)
from clinicaltransformerner_ray.functions.spans import tag2entity_turn
from clinicaltransformerner_ray.functions.subword import tokenizer_for_family
from clinicaltransformerner_ray.functions.text import (
    normalize_surface,
    tokenize_with_offsets,
)
from clinicaltransformerner_ray.functions.windowing import FAMILIES, make_windows
from clinicaltransformerner_ray.labels import (
    build_label_vocab,
    invert,
    system_labels,
)
from clinicaltransformerner_ray.stages.tagger import (
    LABELS_SCHEMA,
    MENTION_SCHEMA,
)


def turn_windows(text, alias_rows, *, family="bert", max_seq_length=64):
    """(tokens, offsets, windows) of one turn; windows is [] when the
    turn has no words."""
    tokens, offsets = tokenize_with_offsets(text or "")
    if not tokens:
        return tokens, offsets, []
    l2i = build_label_vocab(sorted({r["type"] for r in alias_rows}))
    wins = make_windows(tokens, ["O"] * len(tokens),
                        tokenizer_for_family(family), max_seq_length, l2i,
                        family=FAMILIES[family])
    return tokens, offsets, wins


def _targets(tokens, wins, lexicon, l2i, fam, noise_mod):
    """The mock model's per-subtoken target ids: the word's lexicon tag
    on the first piece of each run of equal guards, X (XLNet: the tag
    again) on continuations, O on specials."""
    norm = [normalize_surface(t) for t in tokens]
    tags = lexicon.tag_words(norm)
    if noise_mod:
        tags = perturb_tags(norm, tags, mod=noise_mod)
    out = []
    for w in wins:
        row, prev = [], None
        for k, g in enumerate(w.guards):
            if g <= 0:
                row.append(l2i["O"])
            elif k == 0 or g != prev:
                row.append(l2i[tags[g - 1]])
            else:
                row.append(l2i[tags[g - 1]] if fam.repeat_label_on_continuation
                           else l2i["X"])
            prev = g
        out.append(row)
    return np.asarray(out)


def reference_tag(batch: pa.Table, alias_rows, *, family="bert",
                  max_seq_length=64, noise_mod=5, decode="argmax",
                  emit="mentions") -> pa.Table:
    """MentionTagger's output for ``batch``, computed turn by turn."""
    fam = FAMILIES[family]
    lexicon = Lexicon((tuple(r["alias"].split(" ")), r["type"], r["entity_id"])
                      for r in alias_rows)
    l2i = build_label_vocab(sorted({r["type"] for r in alias_rows}))
    i2l = invert(l2i)
    if decode == "crf":
        from clinicaltransformerner_ray.functions.crf import (
            bio_transitions, viterbi_decode)

        trans = bio_transitions(l2i)
    rows = []
    for cid, ti, text in zip(batch.column("conv_id").to_pylist(),
                             batch.column("turn_idx").to_pylist(),
                             batch.column("text").to_pylist()):
        tokens, offsets, wins = turn_windows(
            text, alias_rows, family=family, max_seq_length=max_seq_length)
        y = []
        if wins:
            logits = ids_to_logits(
                _targets(tokens, wins, lexicon, l2i, fam, noise_mod),
                len(l2i))
            masks = [w.attention_mask for w in wins]
            preds = (viterbi_decode(logits, trans, np.asarray(masks))
                     if decode == "crf" else argmax_decode(logits))
            y = decode_windows(masks, preds.tolist(),
                               [w.guards for w in wins], i2l,
                               skip_masked=fam.pre_pad)
            y = fix_bio(fix_system_labels(y, system_labels(l2i)))
        if emit == "labels":
            rows.append({"conv_id": cid, "turn_idx": ti, "tokens": tokens,
                         "labels": y})
            continue
        for mid, (surf, s, e, t) in enumerate(
                tag2entity_turn(tokens, offsets, y)):
            rows.append({"conv_id": cid, "turn_idx": ti, "ment_id": mid,
                         "surface": surf,
                         "surface_norm": normalize_surface(surf),
                         "start": s, "end": e, "type": t})
    schema = LABELS_SCHEMA if emit == "labels" else MENTION_SCHEMA
    return pa.Table.from_pylist(rows, schema=schema)
