"""Output formatters — the reference's writer surface (SURVEY.md §2.2)
re-expressed over the mention table.

  brat_annotations   K2: per-document `.ann` text — `T{n}\\ttype s e\\ttext`
                     lines with per-doc sequential ids (A8) and the
                     newline-in-span discontinuous-offset repair (M12)
  bioc_documents     K3: the same content as minimal BioC XML passages
  bio_lines          K1: token/label rows -> blank-line-separated BIO text

All three are per-document projections: one groupby on the document key
((conv_id, turn_idx) here; note stem in the reference) with deterministic
intra-doc ordering (sort by start offset, reference
`output_format_converter.py:212-232`), emitted as one row per document so
a downstream ``write_parquet`` — or a trivial per-row file writer — lands
one artifact per document.  Cited: `output_format_converter.py:18`
(brat template), `:19-41` (BioC templates), `common_io.py:63-70` (BIO).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from clinicaltransformerner_ray.arrowutil import (
    from_pandas_clean, keyed_complete)

import ray.data as rd



BRAT_TEMPLATE = "T{n}\t{t} {o}\t{text}"

BIOC_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    "<collection><source>clinicaltransformerner_ray</source>\n")
BIOC_FOOTER = "</collection>\n"


def _group_runs(df: pd.DataFrame, key: list[str]):
    """Boundaries of consecutive equal-``key`` runs in an already-sorted
    frame: (starts, offsets, per_row_rank) as numpy arrays, no per-group
    Python.  per_row_rank is the 1-based position within each run (the
    cumcount replacement)."""
    import numpy as np

    n = len(df)
    kd = df[key].reset_index(drop=True)
    changed = (kd != kd.shift()).any(axis=1).to_numpy()
    changed[0] = True
    starts = np.flatnonzero(changed)
    offsets = np.append(starts, n)
    rank = np.arange(n) - np.repeat(starts, np.diff(offsets)) + 1
    return starts, offsets, rank


def _join_by_group(df: pd.DataFrame, key: list[str], col: str,
                   out_col: str, runs=None) -> pd.DataFrame:
    """Concatenate string column ``col`` within consecutive equal-``key``
    runs (df must already be sorted by key).  Vectorized end-to-end: run
    boundaries by shifted compare, then one Arrow ``ListArray`` wrap +
    ``binary_join`` — zero per-group Python calls, unlike
    ``groupby().agg(''.join)`` which pays a Python call per document
    (measured: the old lambda-agg was the dominant cost of the brat
    formatter at 69k docs/100k mentions).  Pass ``runs=(starts,
    offsets)`` from an earlier `_group_runs` call on the SAME sorted
    frame to skip recomputing the boundaries."""
    import numpy as np
    import pyarrow.compute as pc

    starts, offsets = runs if runs is not None else _group_runs(df, key)[:2]
    lines = pa.array(df[col].to_numpy(), pa.string())
    la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), lines)
    out = df.iloc[starts][key].reset_index(drop=True)
    out[out_col] = pc.binary_join(la, "").to_pandas()
    return out


def brat_annotations(mentions: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, ann) — one brat .ann document per turn.

    Sequential T ids restart per document after an intra-doc sort by
    (start, end) — deterministic regardless of upstream block order.
    One ``keyed_complete`` on the doc key (a driver fold under the cap;
    above it, a Sort whose input is coalesced first, so many small
    tagger blocks do not cost blocks x blocks sort tasks); line
    construction is vectorized pandas
    string ops over the whole block (per-doc work is only the final
    newline join), so millions of documents never invoke per-group
    Python."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "ann": pa.array([], pa.string()),
            })
        key = ["conv_id", "turn_idx"]
        df = df.sort_values(key + ["start", "end", "type"])
        starts, offsets, rank = _group_runs(df, key)
        df["n"] = rank
        # vectorized M12 newline repair
        surf = df["surface"].astype(str)
        nl = surf.str.find("\n")
        s, e = df["start"].astype(str), df["end"].astype(str)
        plain = s + " " + e
        split_at = (df["start"] + nl.clip(lower=0)).astype(str)
        split_next = (df["start"] + nl.clip(lower=0) + 1).astype(str)
        disc = s + " " + split_at + ";" + split_next + " " + e
        field = plain.where(nl < 0, disc)
        text = surf.str.replace("\n", " ", regex=False)
        df["line"] = ("T" + df["n"].astype(str) + "\t" + df["type"]
                      + " " + field + "\t" + text + "\n")
        out = _join_by_group(df, key, "line", "ann",
                             runs=(starts, offsets))
        return from_pandas_clean(out, preserve_index=False)

    return keyed_complete(mentions, ["conv_id", "turn_idx"], per_block,
                          op="brat_annotations")


def bioc_documents(mentions: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, xml) — minimal BioC annotation block per turn
    (reference templates `output_format_converter.py:19-41`)."""

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "xml": pa.array([], pa.string()),
            })
        key = ["conv_id", "turn_idx"]
        df = df.sort_values(key + ["start", "end", "type"])
        starts, offsets, rank = _group_runs(df, key)
        df["n"] = rank
        text = df["surface"].astype(str).str.replace("\n", " ", regex=False)
        df["annot"] = (
            '<annotation id="' + df["n"].astype(str) + '">'
            + '<infon key="type">' + df["type"] + "</infon>"
            + '<location offset="' + df["start"].astype(str)
            + '" length="' + (df["end"] - df["start"]).astype(str) + '"/>'
            + "<text>" + text + "</text></annotation>")
        out = _join_by_group(df, key, "annot", "annot",
                             runs=(starts, offsets))
        out["xml"] = ("<document><id>" + out["conv_id"].astype(str) + ":"
                      + out["turn_idx"].astype(str)
                      + "</id><passage><offset>0</offset>"
                      + out["annot"] + "</passage></document>")
        out = out[["conv_id", "turn_idx", "xml"]]
        return from_pandas_clean(out, preserve_index=False)

    return keyed_complete(mentions, ["conv_id", "turn_idx"], per_block,
                          op="bioc_documents")


#: the reference's full per-document BioC wrapper
#: (`output_format_converter.py:25-41`: xml decl, collection with empty
#: source/date/key, one document/passage at offset 0)
BIOC_FILE_HEADER = (
    "<?xml version='1.0' encoding='utf-8' standalone='yes'?>\n"
    "<collection>\n  <source></source>\n  <date></date>\n  <key></key>\n"
    "  <document>\n    <id>{doc_id}</id>\n    <passage>\n"
    "      <offset>0</offset>\n")
BIOC_FILE_FOOTER = "    </passage>\n  </document>\n</collection>\n"


def bioc_files(mentions: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, xml) — COMPLETE per-document BioC files with
    the reference's collection header/footer (K3 in full,
    `output_format_converter.py:19-41,226-241`), wrapping the
    annotation blocks from :func:`bioc_documents`."""

    def wrap(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "xml": pa.array([], pa.string()),
            })
        doc_id = df["conv_id"].astype(str) + ":" + df["turn_idx"].astype(str)
        body = (df["xml"].str.replace(r"^<document>.*?<offset>0</offset>",
                                      "", regex=True)
                .str.replace("</passage></document>", "", regex=False))
        header = doc_id.map(lambda d: BIOC_FILE_HEADER.format(doc_id=d))
        df["xml"] = header + body + BIOC_FILE_FOOTER
        return from_pandas_clean(
            df[["conv_id", "turn_idx", "xml"]], preserve_index=False)

    return bioc_documents(mentions).map_batches(
        wrap, batch_format="pyarrow")


def bio_lines(tokens: list[str], labels: list[str]) -> str:
    """K1: one sentence's BIO block (space-joined `word label` lines,
    `common_io.py:63-70`)."""
    return "\n".join(f"{w} {lb}" for w, lb in zip(tokens, labels))


def mentions_via_offset_mapping(
    spans: rd.Dataset,
    mapping: rd.Dataset,
) -> rd.Dataset:
    """M17: the biaffine->brat offset-mapping route
    (`src/common_utils/output_format_converter.py:96-144`): word-index
    span predictions join a per-sentence side table of original char
    offsets, producing mention rows ready for :func:`brat_annotations`.

    ``spans``: (doc_idx, text, type, start, end) — word-INDEX inclusive
    spans (the biaffine JSON reader's gold_spans shape).
    ``mapping``: (doc_idx, note_id, word_starts: list<int>,
    word_ends: list<int>) — the engine's Dataset analog of the
    reference's pickle zip (`:104-107`), joined by key instead of
    positionally.

    Join shape: union both sides with a kind column, one sort on
    doc_idx, per-block resolution (equal keys arrive whole).  Spans
    whose word index falls outside the mapping are dropped with the
    reference's skip-and-warn semantics (`task_utils.py:183-188`)."""

    # union requires one schema: each side projects onto the superset
    def span_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "doc_idx": batch.column("doc_idx").cast(pa.int64()),
            "kind": pa.array(["s"] * n, pa.string()),
            "text": batch.column("text"),
            "type": batch.column("type"),
            "start": batch.column("start").cast(pa.int64()),
            "end": batch.column("end").cast(pa.int64()),
            "note_id": pa.array([None] * n, pa.string()),
            "word_starts": pa.array([None] * n, pa.list_(pa.int64())),
            "word_ends": pa.array([None] * n, pa.list_(pa.int64())),
        })

    def map_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "doc_idx": batch.column("doc_idx").cast(pa.int64()),
            "kind": pa.array(["m"] * n, pa.string()),
            "text": pa.array([None] * n, pa.string()),
            "type": pa.array([None] * n, pa.string()),
            "start": pa.array([-1] * n, pa.int64()),
            "end": pa.array([-1] * n, pa.int64()),
            "note_id": batch.column("note_id"),
            "word_starts": batch.column("word_starts").cast(
                pa.list_(pa.int64())),
            "word_ends": batch.column("word_ends").cast(
                pa.list_(pa.int64())),
        })

    both = (spans.map_batches(span_side, batch_format="pyarrow")
            .union(mapping.map_batches(map_side, batch_format="pyarrow")))

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out_conv, out_tidx, out_surf, out_s, out_e, out_t = \
            [], [], [], [], [], []
        for doc, g in df.groupby("doc_idx", sort=False):
            maps = g[g["kind"] == "m"]
            if maps.empty:
                continue
            m = maps.iloc[0]
            ws, we = list(m["word_starts"]), list(m["word_ends"])
            note = m["note_id"]
            for r in g[g["kind"] == "s"].itertuples():
                s, e = int(r.start), int(r.end)
                if s < 0 or e >= len(ws) or s > e:
                    continue  # unmappable span: skip-and-warn semantics
                out_conv.append(note)
                out_tidx.append(int(doc))
                out_surf.append(r.text)
                out_s.append(int(ws[s]))
                out_e.append(int(we[e]))
                out_t.append(r.type)
        return pa.table({
            "conv_id": pa.array(out_conv, pa.string()),
            "turn_idx": pa.array(out_tidx, pa.int64()),
            "surface": pa.array(out_surf, pa.string()),
            "start": pa.array(out_s, pa.int64()),
            "end": pa.array(out_e, pa.int64()),
            "type": pa.array(out_t, pa.string()),
        })

    return both.sort("doc_idx").map_batches(
        per_block, batch_format="pyarrow", batch_size=None)


def copy_source_texts(src_dir: str, out_dir: str) -> int:
    """K7: copy the raw ``.txt`` sources next to the formatted output
    (the reference's ``do_copy`` flag, `src/common_utils/
    output_format_converter.py:142-144,234-236`).  Driver-side metadata
    op; returns the number of files copied."""
    import glob as _glob
    import os
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for fn in sorted(_glob.glob(os.path.join(src_dir, "*.txt"))):
        shutil.copy2(fn, os.path.join(out_dir, os.path.basename(fn)))
        n += 1
    return n
