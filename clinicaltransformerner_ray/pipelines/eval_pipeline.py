"""Distributed BioEval: strict/relax span P/R/F as a Ray aggregate.

The reference zips gold and prediction files positionally and mutates a
counter object (`src/common_utils/bio_prf_eval.py:228-303`, SURVEY.md
§2.4 T5, §2.5 J2).  Here both sides are Datasets of
``(conv_id, turn_idx, labels: list<string>)`` rows; pairing is a
sort-merge on the explicit key (never positional), counters are pure
mergeable dicts (`functions/eval_bio.py`), and the reduction is
batch-partial counts -> one tiny driver-side merge + finalize — the
canonical partial+final aggregate over a result that is O(#categories).
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa

from clinicaltransformerner_ray.arrowutil import from_pandas_clean

import ray.data as rd

from clinicaltransformerner_ray.functions.eval_bio import (
    counts,
    eval_sentence_pair,
    merge_counters,
    performance,
)
from clinicaltransformerner_ray.stages.stage_map import map_stage

KEY = ["conv_id", "turn_idx"]


def _tag_side(ds: rd.Dataset, side: str) -> rd.Dataset:
    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "side", pa.array([side] * batch.num_rows, pa.string()))

    return ds.map_batches(add, batch_format="pyarrow")


def span_prf(
    gold: rd.Dataset,
    pred: rd.Dataset,
    *,
    beta: float = 1.0,
) -> dict:
    """Merge-key pairing + distributed counting; returns the reference's
    nested {performance, counts} structure.

    Pairing: union both sides, sort on (conv_id, turn_idx) — equal keys
    land whole in one block — then pair gold/pred rows per key inside a
    vectorized per-block pass.  Keys present on only one side are
    dropped (cardinality equality is the caller's assert, as in
    `bio_prf_eval.py:291-297`)."""
    both = _tag_side(gold, "g").union(_tag_side(pred, "p"))

    def block_counters(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        partials = []
        for _, g in df.groupby(KEY, sort=False):
            gs = g[g["side"] == "g"]
            pr = g[g["side"] == "p"]
            if len(gs) == 1 and len(pr) == 1:
                partials.append(eval_sentence_pair(
                    list(gs["labels"].iloc[0]), list(pr["labels"].iloc[0])))
        merged = merge_counters(partials) if partials else {
            "acc_true": 0, "acc_false": 0, "cat": {}}
        return pa.table({"counter_json": pa.array(
            [json.dumps(merged)], pa.string())})

    partial_rows = (
        both.sort(KEY)
        .map_batches(block_counters, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    merged = merge_counters(
        [json.loads(r["counter_json"]) for r in partial_rows])
    return {
        "performance": performance(merged, beta=beta),
        "counts": counts(merged),
    }


def span_counters_table(gold: rd.Dataset, pred: rd.Dataset) -> pa.Table:
    """Distributed A2-A4 evaluation as a QUERYABLE table: per-category
    integer counters ``(category, gs, strict_true, strict_false,
    relax_true, relax_false)`` — the exact BioEval cells `performance`
    finalizes, exposed raw so the whole distributed count is
    oracle-checkable (every cell is an exact integer).

    Same pairing shape as :func:`span_prf` (union -> sort(key) ->
    per-block pairing), with per-block counters emitted as category
    ROWS and a lexicon-bounded driver fold."""
    gold = gold.select_columns(["conv_id", "turn_idx", "labels"])
    pred = pred.select_columns(["conv_id", "turn_idx", "labels"])
    both = _tag_side(gold, "g").union(_tag_side(pred, "p"))

    def block_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        partials = []
        for _, g in df.groupby(KEY, sort=False):
            gs = g[g["side"] == "g"]
            pr = g[g["side"] == "p"]
            if len(gs) == 1 and len(pr) == 1:
                partials.append(eval_sentence_pair(
                    list(gs["labels"].iloc[0]), list(pr["labels"].iloc[0])))
        merged = merge_counters(partials) if partials else {"cat": {}}
        cats = sorted(merged["cat"])
        return pa.table({
            "category": pa.array(cats, pa.string()),
            "cells": pa.array([merged["cat"][c] for c in cats],
                              pa.list_(pa.int64())),
        })

    acc: dict[str, list[int]] = {}
    parts = (both.sort(KEY)
             .map_batches(block_rows, batch_format="pyarrow",
                          batch_size=None))
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for cat, cells in zip(blk.column("category").to_pylist(),
                              blk.column("cells").to_pylist()):
            tot = acc.setdefault(cat, [0, 0, 0, 0, 0])
            for i in range(5):
                tot[i] += cells[i]
    cats = sorted(acc)
    cols = ["gs", "strict_true", "strict_false", "relax_true",
            "relax_false"]
    out = {"category": pa.array(cats, pa.string())}
    for i, col in enumerate(cols):
        out[col] = pa.array([acc[c][i] for c in cats], pa.int64())
    return pa.table(out)


def token_accuracy_table(gold: rd.Dataset, pred: rd.Dataset) -> pa.Table:
    """A1 as a queryable table: global token-level
    ``(acc_true, acc_false)`` between two per-turn label datasets —
    the same union/sort pairing as :func:`span_prf`, with a vectorized
    per-block flatten-and-compare and a two-integer driver fold."""
    import numpy as np

    gold = gold.select_columns(["conv_id", "turn_idx", "labels"])
    pred = pred.select_columns(["conv_id", "turn_idx", "labels"])
    both = _tag_side(gold, "g").union(_tag_side(pred, "p"))

    def block_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        t = f = 0
        for _, g in df.groupby(KEY, sort=False):
            gs = g[g["side"] == "g"]
            pr = g[g["side"] == "p"]
            if len(gs) == 1 and len(pr) == 1:
                a = np.asarray(list(gs["labels"].iloc[0]), dtype=object)
                b = np.asarray(list(pr["labels"].iloc[0]), dtype=object)
                eq = int((a == b).sum())
                t += eq
                f += len(a) - eq
        return pa.table({"acc_true": pa.array([t], pa.int64()),
                         "acc_false": pa.array([f], pa.int64())})

    t = f = 0
    parts = (both.sort(KEY)
             .map_batches(block_counts, batch_format="pyarrow",
                          batch_size=None))
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        t += sum(blk.column("acc_true").to_pylist())
        f += sum(blk.column("acc_false").to_pylist())
    return pa.table({"acc_true": pa.array([t], pa.int64()),
                     "acc_false": pa.array([f], pa.int64())})


class DualLexiconEval:
    """Task-map stage computing BioEval counters in ONE pass: both
    the gold and the degraded lexicons tag the SAME turn batch inside
    the task, so gold/pred pairing is local to the row and the
    union -> sort(key) exchange of :func:`span_counters_table`
    disappears entirely (at corpus scale that sort shuffles the whole
    token-label table twice).  Use the pairing-based functions when
    gold and pred are genuinely separate datasets; use this when both
    sides are derived from the same input rows."""

    def __init__(self, gold_rows: list[dict], pred_rows: list[dict]):
        from clinicaltransformerner_ray.stages.tagger import MentionTagger

        self.gold = MentionTagger(gold_rows, emit="labels")
        self.pred = MentionTagger(pred_rows, emit="labels")

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self.gold(batch)
        p = self.pred(batch)
        pl = {(r["conv_id"], r["turn_idx"]): r["labels"]
              for r in p.to_pylist()}
        partials, acc_t, acc_f = [], 0, 0
        for r in g.to_pylist():
            pr = pl.get((r["conv_id"], r["turn_idx"]))
            if pr is None:
                continue
            c = eval_sentence_pair(r["labels"], pr)
            partials.append(c)
            acc_t += c["acc_true"]
            acc_f += c["acc_false"]
        merged = merge_counters(partials) if partials else {"cat": {}}
        cats = sorted(merged["cat"])
        return pa.table({
            "category": pa.array(cats + ["__acc__"], pa.string()),
            "cells": pa.array(
                [merged["cat"][c] for c in cats]
                + [[acc_t, acc_f, 0, 0, 0]],
                pa.list_(pa.int64())),
        })


def _dual_eval_fold(turns: rd.Dataset, gold_rows: list[dict],
                    pred_rows: list[dict]) -> dict[str, list[int]]:
    """Run the dual-lexicon stage over turns and fold the partial
    counter rows on the driver (category count is lexicon-bounded)."""
    parts = map_stage(turns, DualLexiconEval,
                      {"gold_rows": gold_rows, "pred_rows": pred_rows},
                      batch_size=1024)
    acc: dict[str, list[int]] = {}
    for blk in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for cat, cells in zip(blk.column("category").to_pylist(),
                              blk.column("cells").to_pylist()):
            tot = acc.setdefault(cat, [0, 0, 0, 0, 0])
            for i in range(5):
                tot[i] += cells[i]
    return acc


def dual_eval_prf(turns: rd.Dataset, gold_rows: list[dict],
                  pred_rows: list[dict]) -> pa.Table:
    """Zero-shuffle A2-A4 counters table (same schema/values as
    :func:`span_counters_table` over the two taggings — bit-parity
    tested)."""
    acc = _dual_eval_fold(turns, gold_rows, pred_rows)
    acc.pop("__acc__", None)
    cats = sorted(acc)
    cols = ["gs", "strict_true", "strict_false", "relax_true",
            "relax_false"]
    out = {"category": pa.array(cats, pa.string())}
    for i, col in enumerate(cols):
        out[col] = pa.array([acc[c][i] for c in cats], pa.int64())
    return pa.table(out)


def dual_eval_token_acc(turns: rd.Dataset, gold_rows: list[dict],
                        pred_rows: list[dict]) -> pa.Table:
    """Zero-shuffle A1 table (same values as
    :func:`token_accuracy_table`)."""
    acc = _dual_eval_fold(turns, gold_rows, pred_rows).get(
        "__acc__", [0, 0, 0, 0, 0])
    return pa.table({"acc_true": pa.array([acc[0]], pa.int64()),
                     "acc_false": pa.array([acc[1]], pa.int64())})


def labels_from_mentions(
    mentions: rd.Dataset, turns: rd.Dataset, *, emit_tokens: bool = False
) -> rd.Dataset:
    """Project a mention span table back onto per-turn BIO label rows
    (for evaluating span tables with the label-sequence machinery).

    Joins mentions onto turn token grids by (conv_id, turn_idx) via the
    same union/sort/block-pair shape used everywhere else.

    ``emit_tokens=True`` additionally carries each turn's token list
    through to the output (for renderers like the CLI's BIO writer) —
    the tokens ride the SAME union/sort, so no caller ever needs a
    second tokenization pass or a second join."""
    from clinicaltransformerner_ray.functions.spans import spans_to_bio
    from clinicaltransformerner_ray.functions.text import tokenize_with_offsets

    # one UNION schema for both sides (Ray union requires alignment)
    UNION_SCHEMA = pa.schema([
        ("conv_id", pa.string()),
        ("turn_idx", pa.int64()),
        ("side", pa.string()),
        ("starts", pa.list_(pa.int64())),
        ("n_tokens", pa.int64()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("type", pa.string()),
        ("tokens", pa.list_(pa.string())),
    ])

    def turn_tokens(batch: pa.Table) -> pa.Table:
        cids, tis, starts_col, ntoks, toks_col = [], [], [], [], []
        for cid, ti, text in zip(batch.column("conv_id").to_pylist(),
                                 batch.column("turn_idx").to_pylist(),
                                 batch.column("text").to_pylist()):
            tokens, offsets = tokenize_with_offsets(text or "")
            cids.append(cid)
            tis.append(int(ti))
            starts_col.append([s for s, _ in offsets])
            ntoks.append(len(tokens))
            toks_col.append(tokens if emit_tokens else None)
        n = len(cids)
        return pa.table({
            "conv_id": pa.array(cids, pa.string()),
            "turn_idx": pa.array(tis, pa.int64()),
            "side": pa.array(["t"] * n, pa.string()),
            "starts": pa.array(starts_col, pa.list_(pa.int64())),
            "n_tokens": pa.array(ntoks, pa.int64()),
            "start": pa.array([None] * n, pa.int64()),
            "end": pa.array([None] * n, pa.int64()),
            "type": pa.array([None] * n, pa.string()),
            "tokens": pa.array(toks_col, pa.list_(pa.string())),
        }, schema=UNION_SCHEMA)

    def mention_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        n = len(df)
        return pa.table({
            "conv_id": pa.array(df["conv_id"].tolist(), pa.string()),
            "turn_idx": pa.array(df["turn_idx"].astype("int64").tolist(), pa.int64()),
            "side": pa.array(["m"] * n, pa.string()),
            "starts": pa.array([None] * n, pa.list_(pa.int64())),
            "n_tokens": pa.array([None] * n, pa.int64()),
            "start": pa.array(df["start"].astype("int64").tolist(), pa.int64()),
            "end": pa.array(df["end"].astype("int64").tolist(), pa.int64()),
            "type": pa.array(df["type"].tolist(), pa.string()),
            "tokens": pa.array([None] * n, pa.list_(pa.string())),
        }, schema=UNION_SCHEMA)

    t = turns.map_batches(turn_tokens, batch_format="pyarrow")
    m = mentions.map_batches(mention_rows, batch_format="pyarrow")

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = []
        for _, g in df.groupby(KEY, sort=False):
            tr = g[g["side"] == "t"]
            if len(tr) != 1:
                continue
            starts = list(tr["starts"].iloc[0])
            n = int(tr["n_tokens"].iloc[0])
            spans = []
            ms = g[g["side"] == "m"]
            pos = {s: i for i, s in enumerate(starts)}
            for r in ms.itertuples():
                if pd.isna(r.start):
                    continue
                si = pos.get(int(r.start))
                if si is None:
                    continue
                # word span = tokens whose char start < mention end
                ei = si
                while ei < n and starts[ei] < int(r.end):
                    ei += 1
                spans.append((si, ei, r.type))
            row = {
                "conv_id": g["conv_id"].iloc[0],
                "turn_idx": g["turn_idx"].iloc[0],
                "labels": spans_to_bio(n, spans),
            }
            if emit_tokens:
                row["tokens"] = list(tr["tokens"].iloc[0])
            out.append(row)
        if out:
            return from_pandas_clean(pd.DataFrame(out))
        # int64 to match the pandas-path blocks (mixed int32/int64
        # blocks trip a schema-unification warning in downstream sorts)
        cols = {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int64()),
            "labels": pa.array([], pa.list_(pa.string())),
        }
        if emit_tokens:
            cols["tokens"] = pa.array([], pa.list_(pa.string()))
        return pa.table(cols)

    both = t.union(m)
    return both.sort(KEY).map_batches(
        per_block, batch_format="pyarrow", batch_size=None)


def binary_span_prf(
    gold: rd.Dataset,
    pred: rd.Dataset,
    *,
    keys: tuple[str, ...] = ("conv_id", "turn_idx"),
    span_cols: tuple[str, ...] = ("type", "start", "end"),
) -> dict:
    """A9: the biaffine dev metric — per-sentence BINARY span F1 via set
    intersection of (type, start, end) tuples, summed then smoothed with
    the reference's +1e-10 (`src/transformer_biaffine_ner/
    task_utils.py:73-89`).

    Distribution shape: union both sides with a side column, one sort on
    the sentence key, vectorized per-block set ops, driver-side finalize
    of three integers."""

    def side(s):
        def add(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "side", pa.array([s] * batch.num_rows, pa.string()))
        return add

    cols = list(keys) + list(span_cols)
    both = (gold.select_columns(cols)
            .map_batches(side("g"), batch_format="pyarrow")
            .union(pred.select_columns(cols)
                   .map_batches(side("p"), batch_format="pyarrow")))

    def block_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        if df.empty:
            return pa.table({"tp": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64()),
                             "fn": pa.array([], pa.int64())})
        # a span present on both sides of its sentence = tp; the
        # per-sentence sets are implicit in the (keys + span) identity
        wide = df.assign(n=1).pivot_table(
            index=cols, columns="side", values="n",
            aggfunc="max", fill_value=0)
        g = wide.get("g", 0)
        p = wide.get("p", 0)
        tp = int(((g == 1) & (p == 1)).sum())
        fp = int(((g == 0) & (p == 1)).sum())
        fn = int(((g == 1) & (p == 0)).sum())
        return pa.table({"tp": pa.array([tp], pa.int64()),
                         "fp": pa.array([fp], pa.int64()),
                         "fn": pa.array([fn], pa.int64())})

    parts = (both.sort(list(keys))
             .map_batches(block_counts, batch_format="pyarrow",
                          batch_size=None)
             .to_pandas())  # O(blocks) rows
    tp, fp, fn = (int(parts["tp"].sum()), int(parts["fp"].sum()),
                  int(parts["fn"].sum()))
    precision = tp / (tp + fp + 1e-10)
    recall = tp / (tp + fn + 1e-10)
    f1 = 2 * precision * recall / (precision + recall + 1e-10)
    return {"tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall, "f1": f1}
