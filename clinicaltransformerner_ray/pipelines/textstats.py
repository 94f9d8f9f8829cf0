"""Text-analysis operators over the `documents` table.

  doc_stats        per-doc token counts, uniques, stopword ratio,
                   mean token length, language-ID heuristic
  doc_fingerprint  per-doc winnowing-style fingerprint: min md5 over
                   word 5-gram shingles (content-derived, stable)
  token_vocab      corpus-level token frequency table via a BPE-ish
                   regex tokenizer — batch-local partial counts then
                   one grouped sum (the combiner keeps the all-to-all
                   proportional to vocabulary, not corpus, size)
  token_count_quantiles  exact corpus-level percentiles of the per-doc
                   token count via a distributed value-histogram (the
                   shuffle moves one row per DISTINCT count per batch)
                   and a driver-side CDF walk — integer arithmetic, so
                   the SQL oracle is bit-exact
  hash_stratified_sample  deterministic per-stratum sampling: keep a doc
                   iff md5_64(str(doc_id)) % 100 < rate[lang] — pure
                   projection, reproducible across runs and engines

All per-doc work is a pure projection (map_batches, no shuffle).  The
only wide operation is token_vocab's final groupby.  Ratios divide
int64 counts in float64 so DuckDB and numpy produce bit-identical
doubles.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from clinicaltransformerner_ray.arrowutil import (
    from_pandas_clean, grouped_agg, grouped_topk, topk_complete)

import ray.data as rd

#: tiny function-word lexicon for the language-ID heuristic
STOPWORDS = ("a", "the")

#: BPE-ish pre-tokenizer: letter runs | digit runs | single punct.
#: The punct class excludes exactly space/tab/newline — NOT \s — so the
#: Python and SQL tokenizers agree byte-for-byte on \r, \f, \v and
#: unicode spaces (those count as punct tokens on both sides).
TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n]")

#: SQL twin of TOKEN_RE (identical character classes)
TOKEN_RE_SQL = "[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \\t\\n]"


def _id_mod100(ids: np.ndarray) -> np.ndarray:
    """md5_64(str(id)) % 100 — the one hashing convention shared by
    every deterministic id-keyed selector (`hash_stratified_sample`,
    `assign_splits`) and their `md5_number_upper` SQL oracles."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    return (_hash64([str(int(i)) for i in ids])
            % np.uint64(100)).astype(np.int64)


def space_token_counts(batch: pa.Table) -> "pa.Array":
    """THE per-doc token-count kernel: ``split(" ")`` semantics, every
    doc has spaces+1 tokens (empty text included).  Single shared
    definition — the rule is load-bearing for oracle parity (several
    SQL oracles replicate it as len - len(replace) + 1), so operators
    must not drift apart."""
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    return pc.add(pc.cast(pc.count_substring(text, " "), pa.int64()), 1)


def stats_columns(batch: pa.Table) -> pa.Table:
    """Vectorized per-doc shape/quality kernel shared by
    :func:`doc_stats` and :func:`curate_corpus`."""
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    # `"".split(" ") == [""]` -> every doc has spaces+1 tokens, and
    # token chars = chars - spaces; both are single Arrow kernels.
    n_spaces = pc.cast(pc.count_substring(text, " "), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_tok = pc.add(n_spaces, 1)
    tok_chars = pc.subtract(n_chars, n_spaces)
    # uniques + stopword hits need per-token identity: one explode,
    # then C++ grouped aggregation (every row has >= 1 token, so the
    # group keys cover 0..n-1; sort restores positional alignment).
    toks = pc.split_pattern(text, " ")
    flat = pa.table({
        "i": pc.list_parent_indices(toks),
        "tok": pc.list_flatten(toks),
    })
    flat = flat.append_column(
        "is_stop", pc.cast(pc.is_in(flat.column("tok"),
                                    value_set=pa.array(STOPWORDS)),
                           pa.int64()))
    agg = (flat.group_by("i")
           .aggregate([("tok", "count_distinct"), ("is_stop", "sum")])
           .sort_by("i"))
    n_uniq = agg.column("tok_count_distinct")
    n_stop = agg.column("is_stop_sum")
    denom = np.maximum(n_tok.to_numpy(), 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": n_tok,
        "n_uniq_tokens": pc.cast(n_uniq, pa.int64()),
        "stop_ratio": pa.array(n_stop.to_numpy() / denom, pa.float64()),
        "mean_tok_len": pa.array(tok_chars.to_numpy() / denom,
                                 pa.float64()),
        "lang_pred": pc.if_else(pc.greater(n_stop, 0), "en", "unk"),
    })


def doc_stats(docs: rd.Dataset) -> rd.Dataset:
    """Per-document shape/quality columns.

    Output: (doc_id, n_tokens, n_uniq_tokens, stop_ratio, mean_tok_len,
    lang_pred) — `stop_ratio` is the stopword-hit fraction, `lang_pred`
    the n-gram-free language-ID heuristic ('en' iff any stopword hit)."""
    return docs.map_batches(stats_columns, batch_format="pyarrow")


def curate_corpus(
    docs: rd.Dataset,
    *,
    min_tokens: int = 15,
    require_lang: str | None = "en",
) -> rd.Dataset:
    """The canonical training-data cleanup pass — quality gate +
    keep-one exact dedup + shape columns — in ONE shuffle.

    Semantics: a document survives iff it passes the quality gate
    (`lang_pred == require_lang` and `n_tokens >= min_tokens`) AND it is
    the minimum ``doc_id`` of its identical-text group among survivors.
    Identical text implies identical stats, so gating before the dedup
    is exact (a whole duplicate group passes or fails together).

    Output: (doc_id, n_tokens, n_uniq_tokens, stop_ratio, mean_tok_len,
    n_copies) for each retained document.

    Scale shape: the gate + batch-local combine runs before the shuffle,
    so the sort moves one row of (sha1, stats) per distinct surviving
    text per batch — never the text bytes.  Same combine/sort/combine
    pattern as `dedup.exact_dedup`."""

    stat_cols = ["n_tokens", "n_uniq_tokens", "stop_ratio", "mean_tok_len"]

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "h" not in df.columns:
            stats = stats_columns(batch).to_pandas()
            keep = stats["n_tokens"] >= min_tokens
            if require_lang is not None:
                keep &= stats["lang_pred"] == require_lang
            stats = stats[keep.to_numpy()]
            df = df[keep.to_numpy()]
            stats["h"] = [hashlib.sha1((t or "").encode()).hexdigest()
                          for t in df["text"]]
            stats["n_copies"] = 1
            df = stats
        g = df.groupby("h", sort=False).agg(
            doc_id=("doc_id", "min"),
            n_copies=("n_copies", "sum"),
            **{c: (c, "first") for c in stat_cols},
        ).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    agg = (
        docs.map_batches(combine, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("h")
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    return agg.select_columns(["doc_id", *stat_cols, "n_copies"])


def doc_fingerprints(docs: rd.Dataset, *, n: int = 5) -> rd.Dataset:
    """Rolling-hash document fingerprint: the minimum md5 hex digest
    over word ``n``-gram shingles (winnowing with window = whole doc).
    Identical near-copy prefixes collide; stable across processes.

    Output: (doc_id, fingerprint)."""

    def fp(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out = []
        for t in texts:
            toks = (t or "").split(" ")
            if len(toks) < n:
                grams = [" ".join(toks)]
            else:
                grams = [" ".join(toks[i:i + n])
                         for i in range(len(toks) - n + 1)]
            out.append(min(hashlib.md5(g.encode()).hexdigest()
                           for g in grams))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "fingerprint": pa.array(out, pa.string()),
        })

    return docs.map_batches(fp, batch_format="pyarrow")


def token_count_quantiles(
    docs: rd.Dataset,
    *,
    q_pct: tuple[int, ...] = (1, 25, 50, 75, 99),
) -> pa.Table:
    """Exact distributed percentiles of the per-doc token count.

    Shape: batch-local value-count combine (the all-to-all moves one
    (value, count) row per DISTINCT token count per batch — a
    thousands-row exchange regardless of corpus size), `sort(v)`,
    per-block re-combine, then a CDF walk on the driver over the tiny
    distinct-value table (`take_all` is O(distinct values), justified).

    Quantile definition (DuckDB `quantile_disc`): the value at 1-based
    sorted position ``ceil(q*N/100) == (q*N + 99) // 100`` — pure
    integer arithmetic, so the SQL oracle matches bit-for-bit.

    Output: small pa.Table (q_pct BIGINT, n_tokens BIGINT)."""
    import pyarrow.compute as pc

    def combine(batch: pa.Table) -> pa.Table:
        if "v" not in batch.column_names:
            df = pa.table({"v": space_token_counts(batch)}).to_pandas()
            df["n"] = np.int64(1)
        else:
            df = batch.to_pandas()
        g = df.groupby("v", sort=False)["n"].sum().reset_index()
        return from_pandas_clean(g, preserve_index=False)

    cdf = (
        docs.map_batches(combine, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("v")
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    rows = cdf.take_all()  # O(distinct token counts) — tiny by design
    vals = np.asarray([r["v"] for r in rows], dtype=np.int64)
    cnts = np.asarray([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n_total = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in q_pct:
        if n_total == 0:
            continue
        pos = (int(q) * n_total + 99) // 100
        idx = int(np.searchsorted(cum, pos, side="left"))
        out_q.append(int(q))
        out_v.append(int(vals[idx]))
    return pa.table({
        "q_pct": pa.array(out_q, pa.int64()),
        "n_tokens": pa.array(out_v, pa.int64()),
    })


#: default per-language sampling rates (percent): downsample the
#: dominant language, keep half of the rare/unknown bucket
SAMPLE_RATES_PCT = {"en": 10, "unk": 50}


def hash_stratified_sample(
    docs: rd.Dataset,
    *,
    rates_pct: dict[str, int] | None = None,
) -> rd.Dataset:
    """Deterministic hash-based stratified sampling for corpus
    rebalancing: a document survives iff
    ``md5_64(str(doc_id)) % 100 < rates_pct[lang_pred]`` (md5_64 ==
    the engine's `dedup._hash64` == DuckDB `md5_number_upper`, so the
    sample is reproducible across runs, engines and the SQL oracle —
    no RNG state, no seed plumbing, and re-running on a grown corpus
    keeps previously-sampled docs stable).

    Pure projection (map_batches, no shuffle): each batch computes its
    own lang_pred via :func:`stats_columns` and filters locally.

    Output: (doc_id, lang_pred)."""
    rates = dict(SAMPLE_RATES_PCT if rates_pct is None else rates_pct)

    def sample(batch: pa.Table) -> pa.Table:
        stats = stats_columns(batch)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        lang = np.asarray(stats.column("lang_pred").to_pylist())
        mod = _id_mod100(ids)
        rate = np.asarray([rates.get(lg, 0) for lg in lang],
                          dtype=np.int64)
        keep = mod < rate
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "lang_pred": pa.array(lang[keep], pa.string()),
        })

    return docs.map_batches(sample, batch_format="pyarrow")


def chunk_spans(n_toks: int, chunk_tokens: int,
                stride: int) -> list[tuple[int, int]]:
    """Pure window arithmetic shared by `chunk_documents` and its
    property test: [lo, hi) token spans covering every index, advancing
    by `stride`, only the last window short.  n_chunks = 1 if
    L <= chunk else (L - chunk + stride - 1)//stride + 1."""
    if n_toks <= chunk_tokens:
        nc = 1
    else:
        nc = (n_toks - chunk_tokens + stride - 1) // stride + 1
    return [(i * stride, min(i * stride + chunk_tokens, n_toks))
            for i in range(nc)]


def chunk_documents(
    docs: rd.Dataset,
    *,
    chunk_tokens: int = 16,
    stride: int = 8,
) -> rd.Dataset:
    """Sliding-window document chunking (the embedding-prep flat-map):
    one output row per ``chunk_tokens``-token window every ``stride``
    tokens; the last window clamps at the document end.

    n_chunks = 1 if L <= chunk else (L - chunk + stride - 1)//stride + 1
    — pure integer arithmetic, so the SQL oracle (1-based inclusive
    list slices) is exact.  Pure flat-map expansion, no shuffle; the
    per-doc Python loop is inherent to the ragged window emission
    (same trade as doc_fingerprints).

    Output: (doc_id, chunk_idx, text, n_tokens)."""
    # stride > chunk would SKIP tokens between windows (silent data
    # loss) and emit empty windows past the end — refuse it
    assert 1 <= stride <= chunk_tokens

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        o_id, o_ci, o_tx, o_nt = [], [], [], []
        for did, t in zip(ids, texts):
            toks = (t or "").split(" ")
            for i, (lo, hi) in enumerate(
                    chunk_spans(len(toks), chunk_tokens, stride)):
                w = toks[lo:hi]
                o_id.append(did)
                o_ci.append(i)
                o_tx.append(" ".join(w))
                o_nt.append(len(w))
        return pa.table({
            "doc_id": pa.array(o_id, pa.int64()),
            "chunk_idx": pa.array(o_ci, pa.int64()),
            "text": pa.array(o_tx, pa.string()),
            "n_tokens": pa.array(o_nt, pa.int64()),
        })

    return docs.map_batches(chunk, batch_format="pyarrow")


def pack_sequences(
    docs: rd.Dataset,
    *,
    capacity: int = 2048,
    shard_size: int | None = None,
) -> rd.Dataset:
    """Sequence packing for pretraining: concatenate documents in
    doc_id order and cut fixed ``capacity``-token bins; each document
    is assigned the bin its global token offset falls in.

    This is a distributed PREFIX SUM (scan) — the one primitive the
    combine/sort/combine family can't express alone — done in two
    passes:

    1. SHARD TOTALS: per-batch token sums per ``doc_id // shard_size``
       shard (a pure combiner; `take_all` is O(batches x shards/batch),
       the driver folds it to one int per shard).
    2. ASSIGN: broadcast the per-shard EXCLUSIVE prefix offsets, sort
       on the shard key (equal shards land whole; high-cardinality at
       corpus scale), and compute each doc's global offset = shard
       offset + within-shard exclusive cumsum.

    ``shard_size=None`` (default) auto-scales to target ~2^16 shards
    (`max(1, n_docs // 65536)`), keeping the sort key high-cardinality
    (CLAUDE.md perf rule 2 — a fixed shard size becomes a
    low-cardinality sort at mid-scale) while bounding the broadcast
    offset table at ~2^16 int64s; beyond ~10^8 shards a second
    sharding level (offsets-of-offset-shards) is the documented
    escalation.  The auto path calls ``docs.count()`` (metadata-cheap
    on parquet); pre-transformed inputs should pass it explicitly.

    Output: (doc_id, n_tokens, start_tok, bin_id) — all integer, so
    the SQL oracle (window cumsum over doc_id order) is bit-exact."""
    import pyarrow.compute as pc

    if shard_size is None:
        shard_size = max(1, docs.count() // 65536)

    def shard_sums(batch: pa.Table) -> pa.Table:
        n_tok = space_token_counts(batch).to_numpy()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        g = (pd.DataFrame({"shard": ids // shard_size, "tok": n_tok})
             .groupby("shard", sort=False)["tok"].sum().reset_index())
        return pa.table({
            "shard": pa.array(np.asarray(g["shard"], np.int64),
                              pa.int64()),
            "tok": pa.array(np.asarray(g["tok"], np.int64),
                            pa.int64()),
        })

    rows = docs.map_batches(shard_sums, batch_format="pyarrow",
                            batch_size=1 << 17).take_all()
    totals: dict[int, int] = {}
    for r in rows:
        totals[r["shard"]] = totals.get(r["shard"], 0) + r["tok"]
    offsets: dict[int, int] = {}
    acc = 0
    for s in sorted(totals):
        offsets[s] = acc
        acc += totals[s]

    def tag(batch: pa.Table) -> pa.Table:
        n_tok = space_token_counts(batch).to_numpy()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "shard": pa.array(ids // shard_size, pa.int64()),
        })

    def assign(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["shard", "doc_id"]))
        ntk = df["n_tokens"].to_numpy()
        within = (df.groupby("shard", sort=False)["n_tokens"]
                  .cumsum().to_numpy() - ntk)
        base = np.asarray([offsets[s] for s in df["shard"]],
                          dtype=np.int64)
        start = base + within
        return pa.table({
            "doc_id": pa.array(np.asarray(df["doc_id"], np.int64),
                               pa.int64()),
            "n_tokens": pa.array(ntk, pa.int64()),
            "start_tok": pa.array(start, pa.int64()),
            "bin_id": pa.array(start // capacity, pa.int64()),
        })

    return (
        docs.map_batches(tag, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("shard")
        .map_batches(assign, batch_format="pyarrow", batch_size=None)
    )


#: default split layout (percent, must sum to <= 100; remainder goes
#: to the last split)
SPLIT_LAYOUT = (("train", 80), ("val", 10), ("test", 10))


def assign_splits(
    docs: rd.Dataset,
    *,
    layout: tuple[tuple[str, int], ...] = SPLIT_LAYOUT,
) -> rd.Dataset:
    """Deterministic train/val/test split assignment: the split is a
    pure function of ``md5_64(str(doc_id)) % 100`` against cumulative
    layout ranges — reproducible across runs and engines, stable under
    corpus growth (an existing doc never changes split), and exactly
    replicated by the SQL oracle.  Pure projection, no shuffle.

    Output: (doc_id, split)."""
    names = [n for n, _ in layout]
    assert names, "layout must name at least one split"
    bounds = np.cumsum([p for _, p in layout]).astype(np.int64)
    assert (np.diff(bounds, prepend=0) >= 0).all() and bounds[-1] <= 100, \
        "layout percents must be non-negative and sum to <= 100"

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mod = _id_mod100(ids)
        idx = np.minimum(np.searchsorted(bounds, mod, side="right"),
                         len(names) - 1)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "split": pa.array([names[j] for j in idx], pa.string()),
        })

    return docs.map_batches(assign, batch_format="pyarrow")


def token_vocab(docs: rd.Dataset) -> rd.Dataset:
    """Corpus token-frequency table under the BPE-ish regex tokenizer.

    Output: (token, n).  The classic combiner-before-shuffle wordcount
    in the engine's combine/sort/combine shape — the shuffle moves one
    row per distinct token per batch, and a million-token vocabulary
    never hits per-key Aggregate machinery."""

    def combine(batch: pa.Table) -> pa.Table:
        if "n" in batch.column_names:
            df = batch.to_pandas()
            g = df.groupby("token", sort=False)["n"].sum().reset_index()
            return from_pandas_clean(g, preserve_index=False)
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in TOKEN_RE.findall(t or ""):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table({
            "token": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    return (
        docs.map_batches(combine, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("token")
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def top_tokens(docs: rd.Dataset, *, k: int = 100) -> rd.Dataset:
    """Exact top-``k`` most frequent tokens (heavy hitters without the
    sketch): :func:`token_vocab`, a per-block LOCAL top-k (each block
    holds distinct tokens after the vocab sort, so its top-k is a
    valid partial — at most k rows per block reach the driver), then a
    running driver fold (``topk_complete``) — no second sort.

    Ordering/tie rule: (n DESC, token ASC) on both engines, so the
    boundary cut is deterministic.  Output: (token, n)."""

    order = [("n", "descending"), ("token", "ascending")]
    vocab = token_vocab(docs).map_batches(
        grouped_topk, fn_args=([], order, k), batch_format="pyarrow",
        batch_size=None)
    return rd.from_arrow(topk_complete(vocab, [], order, k))


def token_count_ranks(docs: rd.Dataset) -> rd.Dataset:
    """Exact percentile-rank normalization of the per-doc token count
    (the feature-scaling pass a training-mix pipeline runs): every
    document gets the exact number of strictly-smaller documents
    (``n_smaller`` = SQL ``rank() - 1``) and the corpus size — integer
    numerators only; the float percentile n_smaller/n_docs is left to
    the consumer (the engine's integer-derivation invariant).

    Shape: the `token_count_quantiles` value-histogram trick without
    even its sort — per-block (value, count) partials fold on the
    driver with order-free integer sums (O(distinct counts), bounded
    by the max document length, not the corpus), then ONE stateless
    map annotates every document via broadcast searchsorted.  No
    shuffle at all; the corpus streams exactly twice.

    Output: (doc_id, n_tokens, n_smaller, n_docs)."""
    _counts = space_token_counts

    def hist(batch: pa.Table) -> pa.Table:
        df = pa.table({"v": _counts(batch)}).to_pandas()
        df["n"] = np.int64(1)
        g = df.groupby("v", sort=False)["n"].sum().reset_index()
        return pa.table({
            "v": pa.array(g["v"].to_numpy(), pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    acc: dict[int, int] = {}
    for r in docs.map_batches(hist, batch_format="pyarrow",
                              batch_size=1 << 17).take_all():
        acc[r["v"]] = acc.get(r["v"], 0) + r["n"]
    vals = np.asarray(sorted(acc), dtype=np.int64)
    below = np.concatenate(
        [[0], np.cumsum([acc[v] for v in vals])[:-1]]
    ).astype(np.int64) if len(vals) else np.array([], np.int64)
    n_docs = int(sum(acc.values()))

    def annotate(batch: pa.Table) -> pa.Table:
        v = np.asarray(_counts(batch), dtype=np.int64)
        idx = np.searchsorted(vals, v, side="left")  # exact: v in vals
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_tokens": pa.array(v, pa.int64()),
            "n_smaller": pa.array(below[idx] if len(v) else
                                  np.array([], np.int64), pa.int64()),
            "n_docs": pa.array(np.full(len(v), n_docs, np.int64),
                               pa.int64()),
        })

    return docs.map_batches(annotate, batch_format="pyarrow",
                            batch_size=1 << 17)


def token_bigrams(docs: rd.Dataset, *, min_count: int = 1) -> rd.Dataset:
    """Corpus bigram-frequency table under the BPE-ish regex tokenizer
    (the n-gram LM-counts companion to :func:`token_vocab`; adjacent
    token pairs within a document, no cross-document pairs).

    Output: (bigram, n) with ``bigram = left || ' ' || right``; rows
    with n < ``min_count`` are dropped AFTER the exact global sum, so
    the threshold never changes surviving counts.  Same combiner-
    before-shuffle wordcount shape as token_vocab — the all-to-all
    moves one row per distinct bigram per batch."""

    def combine(batch: pa.Table) -> pa.Table:
        if "n" in batch.column_names:
            df = batch.to_pandas()
            g = (df.groupby("bigram", sort=False)["n"].sum()
                 .reset_index())
            g = g[g["n"] >= min_count]
            return pa.table({
                "bigram": pa.array(g["bigram"].tolist(), pa.string()),
                "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            })
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            toks = TOKEN_RE.findall(t or "")
            for a, b in zip(toks, toks[1:]):
                k = a + " " + b
                counts[k] = counts.get(k, 0) + 1
        return pa.table({
            "bigram": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    # min_count must only apply AFTER the global sum: the pre-shuffle
    # combine therefore keeps every partial (the "n" branch runs the
    # filter only in the post-sort completion pass, where counts are
    # final because equal bigrams land whole per block)
    partials = docs.map_batches(
        lambda b: combine(b.select(["text"])),
        batch_format="pyarrow", batch_size=1 << 17)
    return partials.sort("bigram").map_batches(
        combine, batch_format="pyarrow", batch_size=None)


def heavy_hitters(
    docs: rd.Dataset,
    *,
    phi_denom: int = 2000,
    width_mult: int = 4,
) -> rd.Dataset:
    """EXACT frequent-items (heavy hitters): every token whose corpus
    frequency exceeds ``1/phi_denom`` of all tokens, with its exact
    count — found WITHOUT ever shuffling the full vocabulary.

    Classic two-pass Misra-Gries (mergeable-summaries form, Agarwal et
    al. 2013 — public algorithm):

      pass 1  per-batch MG summary of width k = width_mult*phi_denom - 1
              (exact local counts, then the MG compress: subtract the
              (k+1)-th largest count, keep positive — ≤ k survivors,
              undercount added ≤ batch_tokens/(k+1)).  Summaries merge
              by PLAIN SUM (skipping re-compression only widens the
              summary, never the error), so the merge is the engine's
              combine → sort(token) → combine wordcount shape over
              ≤ k rows per batch, never the corpus vocabulary.
      prune   total undercount ≤ n/(width_mult*phi_denom), so any true
              heavy hitter's merged estimate exceeds
              (width_mult-1)*n/(width_mult*phi_denom); integer test
              ``est*width_mult*phi_denom > (width_mult-1)*n`` keeps a
              candidate set of ≤ ~width_mult/(width_mult-1)*phi_denom
              tokens (driver-held, bounded by phi — NOT by vocab).
      pass 2  exact counts of candidates only (broadcast set, batch
              filter + the same combine/sort/combine), final exact
              filter ``n_tok*phi_denom > n_total``.

    The guarantee is exactness: a token absent from every batch summary
    has merged estimate 0, so undercount ≤ n/(k+1) means every true
    heavy hitter survives to pass 2, where counts are exact — the
    output equals the brute-force SQL (HAVING count*phi_denom > total).

    The driver holds only the merged summary (union of per-batch MG
    sets; worst-case n_batches*k but Zipf-bounded in practice and
    pruned to O(phi_denom) immediately); the corpus streams twice.

    Output: (token, n) sorted by token."""
    if phi_denom < 2 or width_mult < 2:
        raise ValueError("phi_denom and width_mult must be >= 2")
    k = width_mult * phi_denom - 1

    def summarize(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        total = 0
        for t in batch.column("text").to_pylist():
            toks = TOKEN_RE.findall(t or "")
            total += len(toks)
            for tok in toks:
                counts[tok] = counts.get(tok, 0) + 1
        toks = np.array(list(counts.keys()), dtype=object)
        est = np.fromiter(counts.values(), np.int64, len(counts))
        if len(est) > k:
            cut = np.partition(est, len(est) - (k + 1))[len(est) - (k + 1)]
            keep = est > cut
            toks, est = toks[keep], est[keep] - cut
        # sentinel "" carries the exact batch token total through the
        # same grouped sum (TOKEN_RE can never emit an empty string)
        return pa.table({
            "token": pa.array(list(toks) + [""], pa.string()),
            "est": pa.array(np.concatenate([est, [total]]), pa.int64()),
        })

    def sum_by_token(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("token", sort=False)["est"].sum().reset_index()
        return pa.table({
            "token": pa.array(g["token"].tolist(), pa.string()),
            "est": pa.array(np.asarray(g["est"], np.int64), pa.int64()),
        })

    merged = (
        docs.map_batches(summarize, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("token")
        .map_batches(sum_by_token, batch_format="pyarrow",
                     batch_size=None)
    )
    # driver collect is O(merged summary), not O(corpus) — see docstring
    rows = merged.take_all()
    n_total = 0
    cand_est: dict[str, int] = {}
    for r in rows:
        if r["token"] == "":
            n_total += int(r["est"])
        else:
            cand_est[r["token"]] = int(r["est"])
    candidates = {
        t for t, e in cand_est.items()
        if e * width_mult * phi_denom > (width_mult - 1) * n_total
    }

    def exact_counts(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in TOKEN_RE.findall(t or ""):
                if tok in candidates:
                    counts[tok] = counts.get(tok, 0) + 1
        return pa.table({
            "token": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(np.fromiter(counts.values(), np.int64,
                                      len(counts)), pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("token", sort=False)["n"].sum().reset_index()
        g = g[g["n"].to_numpy() * phi_denom > n_total]
        g = g.sort_values("token")
        return pa.table({
            "token": pa.array(g["token"].tolist(), pa.string()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    return (
        docs.map_batches(exact_counts, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("token")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


#: default training-mix rates in basis points of 1.0x (10000 = keep
#: exactly once): en upsampled 2.5x, zh 1.5x, es halved, fr quartered
MIX_RATES_BP = {"en": 25_000, "de": 10_000, "es": 5_000,
                "fr": 2_500, "zh": 15_000}


def mixture_sample(
    docs: rd.Dataset,
    rates_bp: dict[str, int] | None = None,
    *,
    key_col: str = "lang",
    default_bp: int = 10_000,
) -> rd.Dataset:
    """Deterministic training-mix resampling: each document is
    replicated ``copies`` times where copies = bp // 10000 plus one
    extra iff md5_64(str(doc_id)) % 10000 < bp % 10000 — so a 2.5x
    stratum emits 2 copies for every doc and a 3rd for a fixed
    pseudo-random half, and a 0.25x stratum keeps a fixed quarter.
    The `rep` index (0..copies-1) distinguishes replicas downstream
    (per-epoch shuffling salt, curriculum weighting).

    This is the data-mixing step of an LLM training pipeline
    (up/down-weighting sources to target proportions).  All-integer
    basis-point rates + the md5 convention shared with
    `hash_stratified_sample` make the emitted (doc_id, rep) SET — not
    just its size — reproducible across runs, engines and partitioning
    (id-exact SQL oracle, no RNG state anywhere).

    Pure batch-local projection: no shuffle; output rows = sum of
    copies.  Output: (doc_id, ``key_col``, rep)."""
    rates = dict(MIX_RATES_BP if rates_bp is None else rates_bp)
    if min(rates.values(), default=0) < 0 or default_bp < 0:
        raise ValueError("rates_bp must be non-negative")
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def explode(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", key_col]).to_pandas()
        ids = df["doc_id"].to_numpy()
        bp = (df[key_col].map(rates).fillna(default_bp)
              .to_numpy(dtype=np.int64))
        frac = (_hash64([str(int(i)) for i in ids])
                % np.uint64(10_000)).astype(np.int64)
        copies = bp // 10_000 + (frac < bp % 10_000)
        idx = np.repeat(np.arange(len(df)), copies)
        # rep = position within each doc's run of copies
        starts = np.concatenate([[0], np.cumsum(copies)[:-1]])
        rep = np.arange(int(copies.sum()), dtype=np.int64) \
            - np.repeat(starts, copies)
        return pa.table({
            "doc_id": pa.array(ids[idx].astype(np.int64), pa.int64()),
            key_col: pa.array(df[key_col].to_numpy()[idx].tolist(),
                              pa.string()),
            "rep": pa.array(rep, pa.int64()),
        })

    return docs.map_batches(explode, batch_format="pyarrow",
                            batch_size=1 << 17)


def token_collocations(
    docs: rd.Dataset,
    *,
    min_count: int = 5,
    lift_num: int = 5,
    lift_den: int = 4,
) -> rd.Dataset:
    """Collocation extraction: adjacent token pairs whose observed
    frequency exceeds independence by the rational lift threshold
    ``lift_num/lift_den`` — i.e. keep (a,b) iff ``n_ab >= min_count``
    and ``lift_den * n_ab * n_total > lift_num * n_a * n_b`` (exact
    integer cross-multiplication; the PMI numerators an LM-data
    pipeline filters on, with no float log anywhere).

    Shape: one pass emits BOTH bigram and unigram count partials onto
    a shared superset schema keyed by the LEFT/self token; the first
    token-key sort completes unigram sums and bigram sums in the same
    block (equal keys land whole) and attaches ``n_left``; surviving
    bigram rows re-key on the RIGHT token, union with the completed
    unigram rows passed through, and a second sort attaches
    ``n_right`` + applies the threshold.  Shuffle rows are bounded by
    distinct tokens/bigrams per batch, never corpus positions.

    ``n_total`` folds from one-row-per-block partials on the driver
    (the scalar-subquery pattern of `relational.idle_rich_customers`).

    Output: (left, right, n_ab, n_left, n_right, n_tokens)."""

    def _sup(key, kind, right, n) -> pa.Table:
        return pa.table({
            "key": pa.array(list(key), pa.string()),
            "kind": pa.array([kind] * len(n), pa.string()),
            "right": pa.array(list(right), pa.string()),
            "n": pa.array(np.asarray(n, np.int64), pa.int64()),
            "n_left": pa.array(np.zeros(len(n), np.int64), pa.int64()),
        })

    def emit_partials(batch: pa.Table) -> pa.Table:
        uni: dict[str, int] = {}
        bi: dict[tuple[str, str], int] = {}
        total = 0
        for t in batch.column("text").to_pylist():
            toks = TOKEN_RE.findall(t or "")
            total += len(toks)
            for tok in toks:
                uni[tok] = uni.get(tok, 0) + 1
            for a, b in zip(toks, toks[1:]):
                bi[(a, b)] = bi.get((a, b), 0) + 1
        u = _sup(list(uni.keys()), "u", [""] * len(uni),
                 list(uni.values()))
        b = _sup([k[0] for k in bi], "b", [k[1] for k in bi],
                 list(bi.values()))
        return pa.concat_tables([u, b])

    # scalar n_total: one int per block, driver fold (O(blocks))
    def tok_count(batch: pa.Table) -> pa.Table:
        n = sum(len(TOKEN_RE.findall(t or ""))
                for t in batch.column("text").to_pylist())
        return pa.table({"n": pa.array([n], pa.int64())})

    n_total = int(docs.map_batches(
        tok_count, batch_format="pyarrow", batch_size=1 << 17
    ).to_pandas()["n"].sum())

    def join_left(batch: pa.Table) -> pa.Table:
        """Complete unigram + bigram sums (equal keys whole per block),
        attach n_left, re-key bigrams on the right token; completed
        unigram rows pass through for the second join."""
        df = batch.to_pandas()
        u = (df[df["kind"] == "u"].groupby("key", sort=False)["n"]
             .sum().reset_index())
        b = (df[df["kind"] == "b"]
             .groupby(["key", "right"], sort=False)["n"]
             .sum().reset_index())
        b = b[b["n"] >= min_count]
        j = pd.merge(b, u.rename(columns={"key": "k2", "n": "nl"}),
                     left_on="key", right_on="k2")
        out_b = pa.table({
            "key": pa.array(j["right"].tolist(), pa.string()),
            "kind": pa.array(["x"] * len(j), pa.string()),
            "right": pa.array(j["key"].tolist(), pa.string()),  # left
            "n": pa.array(np.asarray(j["n"], np.int64), pa.int64()),
            "n_left": pa.array(np.asarray(j["nl"], np.int64),
                               pa.int64()),
        })
        out_u = pa.table({
            "key": pa.array(u["key"].tolist(), pa.string()),
            "kind": pa.array(["u"] * len(u), pa.string()),
            "right": pa.array([""] * len(u), pa.string()),
            "n": pa.array(np.asarray(u["n"], np.int64), pa.int64()),
            "n_left": pa.array(np.zeros(len(u), np.int64), pa.int64()),
        })
        return pa.concat_tables([out_b, out_u])

    def join_right(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        u = df[df["kind"] == "u"][["key", "n"]].rename(
            columns={"n": "nr"})
        x = df[df["kind"] == "x"]
        j = pd.merge(x, u, on="key")
        keep = (lift_den * j["n"].to_numpy() * n_total
                > lift_num * j["n_left"].to_numpy()
                * j["nr"].to_numpy())
        j = j[keep]
        return pa.table({
            "left": pa.array(j["right"].tolist(), pa.string()),
            "right": pa.array(j["key"].tolist(), pa.string()),
            "n_ab": pa.array(np.asarray(j["n"], np.int64), pa.int64()),
            "n_left": pa.array(np.asarray(j["n_left"], np.int64),
                               pa.int64()),
            "n_right": pa.array(np.asarray(j["nr"], np.int64),
                                pa.int64()),
            "n_tokens": pa.array(
                np.full(len(j), n_total, np.int64), pa.int64()),
        })

    return (
        docs.map_batches(
            lambda b: emit_partials(b.select(["text"])),
            batch_format="pyarrow", batch_size=1 << 17)
        .sort("key")
        .map_batches(join_left, batch_format="pyarrow",
                     batch_size=None)
        .sort("key")
        .map_batches(join_right, batch_format="pyarrow",
                     batch_size=None)
    )


def tfidf_topk(docs: rd.Dataset, n_docs: int, *, k: int = 5) -> rd.Dataset:
    """Per-document top-k TF-IDF terms under an INTEGER-LIFT idf:
    ``score = tf * ((n_docs * 10000) // df)`` — floor division on
    non-negative operands, so the ranking is bit-identical across
    engines (no float log ever enters; the repo's integer-derivation
    invariant applied to feature extraction).

    Tokens are whitespace splits (the Jaccard-shingle convention, not
    the BPE-ish vocab regex).  Tie rule on BOTH engines: (score DESC,
    token ASC).

    Shape: one row per doc means tf is COMPLETE per batch (a doc never
    splits), so the explode emits final (doc_id, token, tf) rows; ONE
    sort on token makes each block see every row of its tokens — df is
    a block-local run count and the idf annotate is free; a block-local
    partial top-k per doc shrinks the second shuffle (global top-k is
    contained in the union of per-block top-ks), and ``topk_complete``
    (ONE sort on doc_id + per-block ranking) completes.  ``n_docs``
    comes from parquet metadata — no counting pass."""
    import pyarrow.compute as pc

    lift = 10_000

    def explode_tf(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " ")
        parent = pc.list_parent_indices(toks)
        g = (pd.DataFrame({
                "doc_id": batch.column("doc_id").take(parent)
                .to_numpy(zero_copy_only=False),
                "token": pc.list_flatten(toks).to_pandas(),
             })
             .groupby(["doc_id", "token"], sort=False)
             .size().reset_index(name="tf"))
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "token": pa.array(g["token"].tolist(), pa.string()),
            "tf": pa.array(g["tf"].to_numpy(dtype=np.int64),
                           pa.int64()),
        })

    order = [("score", "descending"), ("token", "ascending")]

    def score_tokens(batch: pa.Table) -> pa.Table:
        # df is the token's run count in this block (tokens land whole)
        tok = batch.column("token")
        vc = pc.value_counts(tok)
        dfc = pc.take(vc.field("counts"),
                      pc.index_in(tok, value_set=vc.field("values")))
        dfc = dfc.to_numpy(zero_copy_only=False).astype(np.int64)
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        # partial top-k per doc inside this block (shrinks the shuffle)
        return grouped_topk(
            batch.append_column("df", pa.array(dfc, pa.int64()))
            .append_column("score", pa.array(
                tf * ((n_docs * lift) // dfc), pa.int64())),
            ["doc_id"], order, k)

    return topk_complete(
        docs.map_batches(explode_tf, batch_format="pyarrow",
                         batch_size=1 << 14)
        .sort("token")
        .map_batches(score_tokens, batch_format="pyarrow",
                     batch_size=None),
        ["doc_id"], order, k, rank="rk")


def weighted_sample(docs: rd.Dataset, *, k: int = 50) -> pa.Table:
    """Deterministic weighted sampling without replacement: keep the k
    documents with the smallest integer priority
    ``md5_hash(doc_id) // n_tokens`` — longer documents get smaller
    priorities in expectation, so the sample is size-biased (the
    exponential-jumps / bottom-k weighted reservoir idea with the
    float ``h^(1/w)`` key replaced by an INTEGER division key, which
    both engines floor identically).

    Scale shape: bottom-k partials are mergeable (global bottom-k is
    inside the union of per-block bottom-ks), so each block ships <= k
    rows and the driver folds them with a running top-k (O(k) state).
    Tie rule: (priority, doc_id).

    Output: (rk, doc_id, n_tokens) sorted by rank."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    order = [("prio", "ascending"), ("doc_id", "ascending")]

    def priorities(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " ")
        w = pc.list_value_length(toks).to_numpy().astype(np.uint64)
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = _hash64([str(int(d)) for d in did])
        prio = h // w  # uint64 floor division, exact on both engines
        return grouped_topk(pa.table({
            "doc_id": pa.array(did.astype(np.int64), pa.int64()),
            "n_tokens": pa.array(w.astype(np.int64), pa.int64()),
            "prio": pa.array(prio, pa.uint64()),
        }), [], order, k)

    return topk_complete(
        docs.map_batches(priorities, batch_format="pyarrow",
                         batch_size=1 << 19),
        [], order, k, rank="rk", empty=pa.schema([
            ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
            ("prio", pa.uint64())]).empty_table(),
    ).select(["rk", "doc_id", "n_tokens"])


def shard_plan(docs: rd.Dataset, *, n_shards: int = 16) -> rd.Dataset:
    """Partitioned-output planning: deterministic hash-shard
    assignment ``shard = md5(doc_id) % n_shards`` with per-shard
    balance statistics (doc count, token sum) — the report that sizes
    a resumable partitioned write before it runs.

    Combine/sort/combine on the shard id; partials are O(n_shards)
    per batch so the shuffle is negligible.  md5-derived hashing ==
    DuckDB ``md5_number_upper`` (CLAUDE.md), and n_shards divides into
    uint64 space without bias concerns for a balance REPORT."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def combine(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = batch.to_pandas()
        if "n_docs" in df.columns:
            g = (df.groupby("shard", sort=False)
                 .agg(n_docs=("n_docs", "sum"),
                      n_tokens=("n_tokens", "sum"))
                 .reset_index())
        else:
            toks = pc.list_value_length(pc.split_pattern(
                pc.fill_null(batch.column("text"), ""), " "))
            h = _hash64([str(int(d)) for d in df["doc_id"]])
            g = (pd.DataFrame({
                    "shard": (h % np.uint64(n_shards)).astype(np.int64),
                    "n_docs": np.int64(1),
                    "n_tokens": toks.to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                 })
                 .groupby("shard", sort=False)
                 .agg(n_docs=("n_docs", "sum"),
                      n_tokens=("n_tokens", "sum"))
                 .reset_index())
        return pa.table({
            "shard": pa.array(g["shard"].to_numpy(dtype=np.int64),
                              pa.int64()),
            "n_docs": pa.array(g["n_docs"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "n_tokens": pa.array(g["n_tokens"].to_numpy(dtype=np.int64),
                                 pa.int64()),
        })

    return (docs.map_batches(combine, batch_format="pyarrow",
                             batch_size=1 << 19)
            .sort("shard")
            .map_batches(combine, batch_format="pyarrow",
                         batch_size=None))


def char_trigram_counts(docs: rd.Dataset) -> rd.Dataset:
    """Corpus character-TRIGRAM frequency table — the n-gram feature
    family language-ID / gibberish models train on (the word-level
    token_vocab's sub-word sibling).

    Tokens are whitespace splits; a token of length L contributes its
    L-2 sliding char trigrams (tokens shorter than 3 contribute
    nothing).  The per-batch combiner counts DISTINCT tokens first and
    multiplies each token's trigrams by its count, so per-batch work
    is bounded by the distinct-token tail, not raw length; then the
    standard combine/sort/combine wordcount shape on the trigram key."""

    def combine(batch: pa.Table) -> pa.Table:
        if "n" in batch.column_names and "trigram" in batch.column_names:
            df = batch.to_pandas()
            g = (df.groupby("trigram", sort=False)["n"].sum()
                 .reset_index())
            return pa.table({
                "trigram": pa.array(g["trigram"].tolist(), pa.string()),
                "n": pa.array(g["n"].to_numpy(dtype=np.int64),
                              pa.int64()),
            })
        tok_counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for w in (t or "").split(" "):
                tok_counts[w] = tok_counts.get(w, 0) + 1
        counts: dict[str, int] = {}
        for w, c in tok_counts.items():
            for i in range(len(w) - 2):
                g3 = w[i:i + 3]
                counts[g3] = counts.get(g3, 0) + c
        return pa.table({
            "trigram": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    return (docs.map_batches(combine, batch_format="pyarrow",
                             batch_size=1 << 17)
            .sort("trigram")
            .map_batches(combine, batch_format="pyarrow",
                         batch_size=None))


#: PII patterns applied IN ORDER by :func:`pii_redact` — each is
#: (column-suffix, RE2 pattern, replacement token).  Both pyarrow and
#: DuckDB compile these with RE2, so match sets are engine-identical
#: (verified: email/ssn/phone/ip fixtures agree byte-for-byte).  Order
#: matters: counts are taken on the text AS REDACTED SO FAR, and the
#: SQL oracle must chain its regexp_replace calls identically.
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
)


def pii_redact(
    docs: rd.Dataset,
    *,
    patterns: tuple[tuple[str, str, str], ...] = PII_PATTERNS,
) -> rd.Dataset:
    """Scrub PII from the text column: sequentially count + replace each
    pattern (emails, NANP phone numbers, SSNs, IPv4 addresses) with its
    placeholder token.

    The training-data sanitize pass every LLM corpus pipeline needs
    before text leaves the ingest tier.  Pure projection — vectorized
    RE2 kernels (`pc.count_substring_regex` / `replace_substring_regex`)
    inside one map_batches, zero shuffles, streams at any scale.
    Patterns apply IN ORDER so an earlier replacement cannot double-count
    under a later pattern (e.g. phone before SSN: `555-010-0042` is gone
    before the \\d{3}-\\d{2}-\\d{4} scan runs); the SQL oracle chains
    `regexp_replace(..., 'g')` in the same order.

    Output: (doc_id, clean_text, n_<name> per pattern) — counts are
    int64 match counts at that pattern's turn."""
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        cols: dict = {"doc_id": batch.column("doc_id")}
        counts = []
        for name, pat, rep in patterns:
            counts.append((name, pc.cast(
                pc.count_substring_regex(text, pat), pa.int64())))
            text = pc.replace_substring_regex(text, pat, rep)
        cols["clean_text"] = text
        for name, n in counts:
            cols[f"n_{name}"] = n
        return pa.table(cols)

    return docs.map_batches(scrub, batch_format="pyarrow")


def doc_repetition(docs: rd.Dataset) -> rd.Dataset:
    """Gopher-style per-doc repetition signals as EXACT integers: token
    and bigram duplication is the strongest single predictor of
    low-quality machine-generated text (Rae et al. 2021 §A1.1 use
    duplicate line/n-gram fractions as hard filters).

    Per doc (split-on-space tokens, the shared `space_token_counts`
    rule): ``n_tokens``, ``n_distinct`` distinct tokens,
    ``top_token_n`` = occurrences of the most-repeated token,
    ``n_bigrams`` = n_tokens - 1 adjacent pairs, ``n_distinct_bigrams``,
    ``top_bigram_n`` = occurrences of the most-repeated bigram (0 when
    the doc has no bigrams).  Downstream filters derive the Gopher
    fractions as ratios of these integers — emitting the integers keeps
    the oracle comparison bit-exact (the repo's float-parity rule).

    Pure projection: docs are whole rows, so every signal is
    block-local — explode once, two pandas groupbys per block, zero
    shuffles."""
    import pyarrow.compute as pc

    def per_block(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks).to_pylist()
        n_rows = batch.num_rows
        df = pd.DataFrame({"i": parent, "tok": flat})
        per_tok = (df.groupby(["i", "tok"], sort=False)
                   .size().reset_index(name="c"))
        by_doc = per_tok.groupby("i", sort=False)["c"]
        n_tok = np.zeros(n_rows, np.int64)
        n_dist = np.zeros(n_rows, np.int64)
        top_tok = np.zeros(n_rows, np.int64)
        agg = by_doc.agg(["sum", "count", "max"])
        idx = agg.index.to_numpy()
        n_tok[idx] = agg["sum"].to_numpy(dtype=np.int64)
        n_dist[idx] = agg["count"].to_numpy(dtype=np.int64)
        top_tok[idx] = agg["max"].to_numpy(dtype=np.int64)
        # adjacent bigrams: consecutive flattened tokens with the same
        # parent row (vectorized pair mask, no per-doc loop)
        same = parent[1:] == parent[:-1]
        ser = pd.Series(flat, dtype="object")
        bi = pd.DataFrame({
            "i": parent[1:][same],
            "w1": ser.iloc[:-1].reset_index(drop=True)[same],
            "w2": ser.iloc[1:].reset_index(drop=True)[same],
        })
        n_bi = np.maximum(n_tok - 1, 0)
        n_dist_bi = np.zeros(n_rows, np.int64)
        top_bi = np.zeros(n_rows, np.int64)
        if len(bi):
            per_bg = (bi.groupby(["i", "w1", "w2"], sort=False)
                      .size().reset_index(name="c"))
            bagg = per_bg.groupby("i", sort=False)["c"].agg(
                ["count", "max"])
            bidx = bagg.index.to_numpy()
            n_dist_bi[bidx] = bagg["count"].to_numpy(dtype=np.int64)
            top_bi[bidx] = bagg["max"].to_numpy(dtype=np.int64)
        cols = {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_distinct": pa.array(n_dist, pa.int64()),
            "top_token_n": pa.array(top_tok, pa.int64()),
            "n_bigrams": pa.array(n_bi, pa.int64()),
            "n_distinct_bigrams": pa.array(n_dist_bi, pa.int64()),
            "top_bigram_n": pa.array(top_bi, pa.int64()),
        }
        for extra in ("source", "lang"):   # domain_report pass-through
            if extra in batch.column_names:
                cols[extra] = batch.column(extra)
        return pa.table(cols)

    return docs.map_batches(per_block, batch_format="pyarrow")


def lang_id_profiles(docs: rd.Dataset, *,
                     with_true: bool = False) -> rd.Dataset:
    """Corpus-trained language identification (Cavnar-Trenkle-style
    character-n-gram profiles, simplified to frequency-weighted
    scoring): build per-language char-trigram frequency profiles from
    the corpus's own ``lang`` labels, then classify every document by
    ``score(doc, lang) = sum_g c_doc(g) * n_corpus(lang, g)`` — all
    int64, so the argmax (score DESC, lang ASC) is oracle-exact.

    Trigrams are per token OCCURRENCE (the `token_char_trigrams`
    extraction rule: every length-3 substring of every >= 3-char
    token).  Docs with no >= 3-char token produce no trigram rows and
    are absent from the output on both engines (inner-join semantics).

    Shape: ONE pass over docs emits per-block (doc_id, lang, g, c)
    trigram counts (materialized — it feeds both the profile build and
    the doc side, and Ray does no CSE); the trigram sort co-locates
    each trigram's profile partials WITH its doc rows, so profiles
    finalize and join in the same block pass; the doc_id sort
    completes per-doc score sums and the argmax.  Two wide ops total,
    both on high-cardinality keys.

    Output: (doc_id, lang_pred, score); with ``with_true=True`` the
    stored ``lang`` label rides the same rows (``lang_true``) for
    label-noise audits — no extra ops, the doc-side rows carry it
    anyway."""
    import pyarrow.compute as pc

    def tri_counts(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pd.Series(pc.list_flatten(toks).to_pylist(),
                         dtype="object")
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        langs = np.asarray(batch.column("lang").to_pylist(),
                           dtype=object)
        frames = []
        if len(flat):
            max_len = int(flat.str.len().max())
            for j in range(max(0, max_len - 2)):
                sub = flat.str.slice(j, j + 3)
                keep = (sub.str.len() == 3).to_numpy()
                if not keep.any():
                    continue
                frames.append(pd.DataFrame({
                    "doc_id": doc_ids[parent[keep]],
                    "lang": langs[parent[keep]],
                    "g": sub[keep].to_numpy(),
                }))
        if not frames:
            z = pa.array([], pa.int64())
            return pa.table({
                "doc_id": z,
                "lang": pa.array([], pa.string()),
                "g": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            })
        all_tg = pd.concat(frames, ignore_index=True)
        grp = (all_tg.groupby(["doc_id", "lang", "g"], sort=False)
               .size().reset_index(name="c"))
        return pa.table({
            "doc_id": pa.array(grp["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "lang": pa.array(grp["lang"].tolist(), pa.string()),
            "g": pa.array(grp["g"].tolist(), pa.string()),
            "c": pa.array(grp["c"].to_numpy(dtype=np.int64),
                          pa.int64()),
        })

    rows = docs.map_batches(tri_counts, batch_format="pyarrow",
                            batch_size=1 << 17).materialize()

    def doc_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "g": batch.column("g"),
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "c": batch.column("c"),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def prof_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        grp = (df.groupby(["g", "lang"], sort=False)["c"].sum()
               .reset_index())
        m = len(grp)
        return pa.table({
            "g": pa.array(grp["g"].tolist(), pa.string()),
            "doc_id": pa.array(np.zeros(m, np.int64), pa.int64()),
            "lang": pa.array(grp["lang"].tolist(), pa.string()),
            "c": pa.array(grp["c"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def score_partial(batch: pa.Table) -> pa.Table:
        """All rows of a trigram land whole here: finalize its
        per-lang profile counts and emit per-(doc, lang) score
        partials."""
        df = batch.to_pandas()
        d = df[df["side"] == 0]
        if d.empty:
            z = pa.array([], pa.int64())
            cols = {
                "doc_id": z,
                "lang": pa.array([], pa.string()),
                "s": z,
            }
            if with_true:
                cols["tl"] = pa.array([], pa.string())
            return pa.table(cols)
        p = (df[df["side"] == 1]
             .groupby(["g", "lang"], sort=False)["c"].sum()
             .reset_index().rename(columns={"lang": "plang",
                                            "c": "n"}))
        dcols = ["g", "doc_id", "c"] + (["lang"] if with_true else [])
        j = pd.merge(d[dcols].rename(columns={"lang": "tl"}),
                     p, on="g")
        j["s"] = j["c"].to_numpy() * j["n"].to_numpy()
        keys = ["doc_id", "plang"] + (["tl"] if with_true else [])
        grp = (j.groupby(keys, sort=False)["s"].sum()
               .reset_index())
        cols = {
            "doc_id": pa.array(grp["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "lang": pa.array(grp["plang"].tolist(), pa.string()),
            "s": pa.array(grp["s"].to_numpy(dtype=np.int64),
                          pa.int64()),
        }
        if with_true:
            cols["tl"] = pa.array(grp["tl"].tolist(), pa.string())
        return pa.table(cols)

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            cols = {
                "doc_id": pa.array([], pa.int64()),
                "lang_pred": pa.array([], pa.string()),
                "score": pa.array([], pa.int64()),
            }
            if with_true:
                cols["lang_true"] = pa.array([], pa.string())
            return pa.table(cols)
        keys = ["doc_id", "lang"] + (["tl"] if with_true else [])
        g = (df.groupby(keys, sort=False)["s"].sum()
             .reset_index()
             .sort_values(["doc_id", "s", "lang"],
                          ascending=[True, False, True],
                          kind="mergesort")
             .drop_duplicates("doc_id"))
        cols = {
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "lang_pred": pa.array(g["lang"].tolist(), pa.string()),
            "score": pa.array(g["s"].to_numpy(dtype=np.int64),
                              pa.int64()),
        }
        if with_true:
            cols["lang_true"] = pa.array(g["tl"].tolist(), pa.string())
        return pa.table(cols)

    return (rows.map_batches(doc_rows, batch_format="pyarrow")
            .union(rows.map_batches(prof_rows, batch_format="pyarrow",
                                    batch_size=1 << 17))
            .sort("g")
            .map_batches(score_partial, batch_format="pyarrow",
                         batch_size=None)
            .sort("doc_id")
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


def quality_gates(
    docs: rd.Dataset,
    *,
    min_tokens: int = 5,
    max_tok_len: int = 20,
    bad_substrings: tuple[str, ...] = ("lorem ipsum", "{", "click here"),
) -> rd.Dataset:
    """C4-style document quality gates (Raffel et al. 2020 §2.2) as
    exact integer signals plus a combined ``keep`` flag:

      n_tokens        split-on-space token count
      max_tok_len     longest token in characters (code/URL blobs gate)
      ends_terminal   1 iff the doc ends in ``. ! ?`` (C4 applies this
                      per LINE; the documents table has no line
                      structure, so it is reported as a signal, not
                      gated)
      flag_<i>        1 iff ``bad_substrings[i]`` occurs (C4 drops
                      pages containing "lorem ipsum", a curly brace,
                      or policy boilerplate)
      keep            1 iff no flag fires, n_tokens >= min_tokens and
                      max_tok_len <= max_tok_len

    Pure projection: Arrow substring/regex kernels plus one flatten for
    the per-doc max token length — zero shuffles, streams at any scale.
    """
    import pyarrow.compute as pc

    def gates(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat_len = pc.utf8_length(pc.list_flatten(toks)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        mx = np.zeros(len(counts), np.int64)
        np.maximum.at(mx, parent, flat_len)
        ends = pc.cast(pc.match_substring_regex(text, r"[.!?]$"),
                       pa.int64()).to_numpy(zero_copy_only=False)
        cols: dict = {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(counts, pa.int64()),
            "max_tok_len": pa.array(mx, pa.int64()),
            "ends_terminal": pa.array(ends, pa.int64()),
        }
        for extra in ("source", "lang"):   # domain_report pass-through
            if extra in batch.column_names:
                cols[extra] = batch.column(extra)
        bad = np.zeros(len(counts), bool)
        for i, s in enumerate(bad_substrings):
            f = pc.match_substring(text, s).to_numpy(zero_copy_only=False)
            cols[f"flag_{i}"] = pa.array(f.astype(np.int64), pa.int64())
            bad |= f
        keep = (~bad) & (counts >= min_tokens) & (mx <= max_tok_len)
        cols["keep"] = pa.array(keep.astype(np.int64), pa.int64())
        return pa.table(cols)

    return docs.map_batches(gates, batch_format="pyarrow")


#: GPT-2-style pre-tokenizer, simplified to RE2 (no lookahead): common
#: contractions, space-prefixed letter runs, digit runs, punctuation
#: runs.  Both pyarrow and DuckDB compile RE2, so match counts agree
#: byte-for-byte (the pii_redact precedent).
BPE_TOKEN_RE = (r"'(?:s|t|re|ve|m|ll|d)"
                r"| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+")


def dsir_importance(
    docs: rd.Dataset, *, target_source: str, n_buckets: int = 4096,
) -> rd.Dataset:
    """DSIR-style data selection via hashed-token importance weights
    (Xie et al. 2023, "Data Selection for Language Models via
    Importance Resampling"): build hashed unigram count profiles for a
    TARGET slice (``source == target_source``) and the RAW rest of the
    corpus, then score every raw document by how target-like its
    tokens are — the standard shape for steering a web-scale crawl
    toward a curated domain before training.

    Integer-exact surrogate: DSIR's per-token smoothed log-ratio
    ``log p_t(h) - log p_r(h)`` is positive iff
    ``(t[h]+1) * R' > (r[h]+1) * T'`` (``T' = T + n_buckets``,
    ``R' = R + n_buckets`` the add-one-smoothed totals), so the score
    sums the cross-multiplied differences
    ``(t[h]+1)*R' - (r[h]+1)*T'`` — same per-token sign as the
    log-ratio, deterministic int64, exactly SQL-replicable (the md5
    bucket hash == DuckDB ``md5_number_upper``).  A corpus-scale run
    would swap the per-token term for the float64 log-ratio (the
    broadcast profile and the streaming pass are unchanged); the
    integer form is what makes the operator oracle-checkable bit for
    bit at test scale.

    Shape: profile state is BOUNDED (2 x ``n_buckets`` int64), so no
    shuffle ever happens — pass 1 streams the corpus emitting
    per-block (side, bucket, count) partials folded on the driver
    (O(n_buckets), never corpus-sized), ``ray.put`` broadcasts the two
    count vectors, and pass 2 re-streams the corpus scoring raw-side
    docs block-locally.  Zero wide ops; ``docs`` stays lazy (two
    streaming reads, no materialization — the scale-correct choice for
    a full-corpus input).

    Tokens are ``split(" ")`` with ``''`` artifacts dropped on both
    engines.  Docs with zero tokens are absent from the output
    (inner-join semantics, the `lang_id_profiles` precedent).

    Output: (doc_id, n_toks, score) for every raw-side doc.
    """
    import ray
    import pyarrow.compute as pc

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    nb = np.uint64(n_buckets)

    def _buckets_parents(batch: pa.Table):
        """Shared token -> (bucket, parent-doc-row) extraction."""
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        words = flat.to_pylist()
        words = [w for w, k in zip(words, keep) if k]
        parent = parent[keep]
        h = (_hash64(words) % nb).astype(np.int64)
        return h, parent

    def profile_partial(batch: pa.Table) -> pa.Table:
        h, parent = _buckets_parents(batch)
        side = pc.equal(
            pc.fill_null(batch.column("source"), ""), target_source
        ).to_numpy(zero_copy_only=False)[parent]
        out_s, out_h, out_c = [], [], []
        for sval in (0, 1):
            hh = h[side.astype(bool) == bool(sval)]
            if len(hh):
                u, c = np.unique(hh, return_counts=True)
                out_s.append(np.full(len(u), sval, np.int8))
                out_h.append(u)
                out_c.append(c.astype(np.int64))
        if not out_h:
            z = pa.array([], pa.int64())
            return pa.table({"side": pa.array([], pa.int8()),
                             "h": z, "c": z})
        return pa.table({
            "side": pa.array(np.concatenate(out_s), pa.int8()),
            "h": pa.array(np.concatenate(out_h), pa.int64()),
            "c": pa.array(np.concatenate(out_c), pa.int64()),
        })

    # driver fold is O(n_buckets) per block row set, never corpus-sized
    t_counts = np.zeros(n_buckets, np.int64)
    r_counts = np.zeros(n_buckets, np.int64)
    for row in docs.map_batches(profile_partial, batch_format="pyarrow",
                                batch_size=1 << 17).take_all():
        (t_counts if row["side"] else r_counts)[row["h"]] += row["c"]
    t_tot = int(t_counts.sum()) + n_buckets  # add-one-smoothed totals
    r_tot = int(r_counts.sum()) + n_buckets
    ref = ray.put((t_counts, r_counts))

    def score(batch: pa.Table) -> pa.Table:
        tc, rc = ray.get(ref)
        h, parent = _buckets_parents(batch)
        is_raw = pc.not_equal(
            pc.fill_null(batch.column("source"), ""), target_source
        ).to_numpy(zero_copy_only=False)
        keep = is_raw[parent]
        h, parent = h[keep], parent[keep]
        if not len(h):
            z = pa.array([], pa.int64())
            return pa.table({"doc_id": z, "n_toks": z, "score": z})
        # same sign per token as the smoothed log-ratio (docstring)
        term = (tc[h] + 1) * r_tot - (rc[h] + 1) * t_tot
        m = batch.num_rows
        tot = np.zeros(m, np.int64)
        np.add.at(tot, parent, term)  # int64-exact segment sum
        n_toks = np.bincount(parent, minlength=m).astype(np.int64)
        nz = n_toks > 0
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False)[nz].astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_toks": pa.array(n_toks[nz], pa.int64()),
            "score": pa.array(tot[nz], pa.int64()),
        })

    return docs.map_batches(score, batch_format="pyarrow",
                            batch_size=1 << 17)


def dsir_select(
    docs: rd.Dataset, *, target_source: str, n_buckets: int = 4096,
    m: int = 100,
) -> rd.Dataset:
    """DSIR stage 2 — importance-resampling SELECTION (Xie et al.
    2023): keep the ``m`` raw-side documents with the highest
    importance scores, the subset actually handed to training after
    :func:`dsir_importance` scores the crawl.

    Exact deterministic order: (score DESC, doc_id ASC), 1-based rank.

    Shape: the scored stream is consumed with ``iter_batches`` while
    the driver maintains a RUNNING top-m (``topk_complete``: one
    ``grouped_topk`` over at most ``m + batch`` rows per step) — O(m)
    driver state, no sort, no shuffle, nothing corpus-sized
    materializes.  At fleet scale the same fold runs as a tree
    (per-block partial top-m -> combine); the running fold is the
    single-driver degenerate tree.

    Output: (doc_id, n_toks, score, rank) for the selected m,
    rank-ascending."""
    scored = dsir_importance(docs, target_source=target_source,
                             n_buckets=n_buckets)
    return rd.from_arrow(topk_complete(
        scored, [], [("score", "descending"), ("doc_id", "ascending")], m,
        rank="rank", empty=pa.schema([
            ("doc_id", pa.int64()), ("n_toks", pa.int64()),
            ("score", pa.int64())]).empty_table()))


def lm_quality(
    docs: rd.Dataset, *, ref_source: str, n_buckets: int = 4096,
    scale_bits: int = 20,
) -> rd.Dataset:
    """CCNet-style language-model quality bucketing (Wenzek et al.
    2020, "CCNet: Extracting High Quality Monolingual Datasets from
    Web Crawl Data"): train an n-gram LM on a curated reference slice
    (``source == ref_source``), score every other document, and assign
    each to a head / middle / tail bucket by corpus tertiles — the
    standard pre-training quality gate (keep head+middle, drop tail).

    Integer-exact surrogate (the `dsir_importance` precedent): instead
    of a KenLM float perplexity, the LM is add-one-smoothed hashed
    BIGRAM counts over hashed unigram contexts, and each adjacent pair
    contributes the fixed-point probability
    ``q = ((big[h12]+1) << scale_bits) // (ctx[h1] + n_buckets)``
    (non-negative operands, so numpy and DuckDB ``//`` agree).  A doc's
    score is the exact int64 sum of its q terms; its comparison key is
    the floor mean ``mean_fp = score // n_pairs``.  Tertile thresholds
    are exact integers: ``t_head`` = smallest mean with
    ``count(mean >= t) <= n // 3`` (head = ``mean >= t_head``),
    ``t_tail`` = largest mean with ``count(mean <= t) <= n // 3``
    (tail = ``mean <= t_tail``); ties fall into the middle bucket on
    both engines.  A corpus-scale run would swap q for the float
    log-prob — the passes are unchanged; the integer form is what
    makes the operator oracle-checkable bit for bit.

    Shape: LM state is BOUNDED (2 x ``n_buckets`` int64), so pass 1
    streams the reference slice folding per-block (kind, bucket,
    count) partials on the driver, then ``ray.put`` broadcasts the two
    count vectors.  Pass 2 scores raw-side docs block-locally and
    materializes the NARROW (doc_id, n_pairs, lm_score, mean_fp)
    table (O(n_docs) ints — never the text).  The tertile fold is
    O(distinct means) <= 2^scale_bits driver state, and the bucket
    label is a block-local comparison against the two broadcast
    thresholds.  Zero wide ops end to end.

    Tokens are ``split(" ")`` with ``''`` artifacts dropped; docs with
    fewer than two tokens have no bigram and are absent from the
    output (inner-join semantics, the `dsir_importance` precedent).

    Output: (doc_id, n_pairs, lm_score, mean_fp, bucket) for every
    raw-side doc with >= 1 bigram; bucket in {'head','middle','tail'}.
    """
    import ray
    import pyarrow.compute as pc

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    nb = np.uint64(n_buckets)
    scale = np.int64(1) << scale_bits

    def _pairs(batch: pa.Table):
        """(bigram bucket, context bucket, parent-doc-row) triples."""
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        words = np.asarray(flat.to_pylist(), dtype=object)[keep]
        parent = parent[keep]
        if len(words) < 2:
            z = np.empty(0, np.int64)
            return z, z, z
        adj = parent[:-1] == parent[1:]  # pairs never cross docs
        w1 = words[:-1][adj]
        w2 = words[1:][adj]
        big = np.asarray(w1 + " " + w2, dtype=object)
        hb = (_hash64(list(big)) % nb).astype(np.int64)
        hc = (_hash64(list(w1)) % nb).astype(np.int64)
        return hb, hc, parent[:-1][adj]

    def profile_partial(batch: pa.Table) -> pa.Table:
        hb, hc, parent = _pairs(batch)
        is_ref = pc.equal(
            pc.fill_null(batch.column("source"), ""), ref_source
        ).to_numpy(zero_copy_only=False)
        if len(hb):
            m = is_ref[parent].astype(bool)
            hb, hc = hb[m], hc[m]
        out_k, out_h, out_c = [], [], []
        for kind, arr in ((0, hb), (1, hc)):
            if len(arr):
                u, c = np.unique(arr, return_counts=True)
                out_k.append(np.full(len(u), kind, np.int8))
                out_h.append(u)
                out_c.append(c.astype(np.int64))
        if not out_h:
            z = pa.array([], pa.int64())
            return pa.table({"kind": pa.array([], pa.int8()),
                             "h": z, "c": z})
        return pa.table({
            "kind": pa.array(np.concatenate(out_k), pa.int8()),
            "h": pa.array(np.concatenate(out_h), pa.int64()),
            "c": pa.array(np.concatenate(out_c), pa.int64()),
        })

    # driver fold is O(n_buckets), never corpus-sized
    big_counts = np.zeros(n_buckets, np.int64)
    ctx_counts = np.zeros(n_buckets, np.int64)
    for row in docs.map_batches(profile_partial, batch_format="pyarrow",
                                batch_size=1 << 17).take_all():
        (ctx_counts if row["kind"] else big_counts)[row["h"]] += row["c"]
    lm = ray.put((big_counts, ctx_counts))

    def score(batch: pa.Table) -> pa.Table:
        bc, cc = ray.get(lm)
        hb, hc, parent = _pairs(batch)
        is_raw = pc.not_equal(
            pc.fill_null(batch.column("source"), ""), ref_source
        ).to_numpy(zero_copy_only=False)
        if len(hb):
            m = is_raw[parent].astype(bool)
            hb, hc, parent = hb[m], hc[m], parent[m]
        if not len(hb):
            z = pa.array([], pa.int64())
            return pa.table({"doc_id": z, "n_pairs": z,
                             "lm_score": z, "mean_fp": z})
        # fixed-point smoothed bigram probability (docstring)
        q = ((bc[hb] + 1) * scale) // (cc[hc] + np.int64(n_buckets))
        m = batch.num_rows
        tot = np.zeros(m, np.int64)
        np.add.at(tot, parent, q)  # int64-exact segment sum
        n_pairs = np.bincount(parent, minlength=m).astype(np.int64)
        nz = n_pairs > 0
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False)[nz].astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_pairs": pa.array(n_pairs[nz], pa.int64()),
            "lm_score": pa.array(tot[nz], pa.int64()),
            "mean_fp": pa.array(tot[nz] // n_pairs[nz], pa.int64()),
        })

    scored = docs.map_batches(score, batch_format="pyarrow",
                              batch_size=1 << 17).materialize()

    def mean_hist(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column("mean_fp").to_numpy(
            zero_copy_only=False).astype(np.int64), return_counts=True)
        return pa.table({"v": pa.array(u, pa.int64()),
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    # tertile fold: O(distinct means) <= 2^scale_bits driver state
    hist: dict[int, int] = {}
    for row in scored.map_batches(mean_hist, batch_format="pyarrow",
                                  batch_size=None).take_all():
        hist[row["v"]] = hist.get(row["v"], 0) + row["c"]
    vals = np.sort(np.fromiter(hist.keys(), np.int64, len(hist)))
    cnts = np.asarray([hist[int(v)] for v in vals], np.int64)
    n = int(cnts.sum())
    third = n // 3
    cle = np.cumsum(cnts)                      # count(mean <= v)
    cge = n - cle + cnts                       # count(mean >= v)
    head_ok = vals[cge <= third]
    tail_ok = vals[cle <= third]
    t_head = int(head_ok.min()) if len(head_ok) else np.iinfo(np.int64).max
    t_tail = int(tail_ok.max()) if len(tail_ok) else np.iinfo(np.int64).min

    def label(batch: pa.Table) -> pa.Table:
        mf = batch.column("mean_fp").to_numpy(
            zero_copy_only=False).astype(np.int64)
        lab = np.where(mf >= t_head, "head",
                       np.where(mf <= t_tail, "tail", "middle"))
        return batch.append_column(
            "bucket", pa.array(lab.tolist(), pa.string()))

    return scored.map_batches(label, batch_format="pyarrow")


def curriculum_order(scored: rd.Dataset) -> rd.Dataset:
    """Curriculum-learning training order (Bengio et al. 2009 shape,
    easy/high-quality first): given a per-doc quality table
    (doc_id, ..., mean_fp, bucket) — :func:`lm_quality`'s output — rank
    every document by (bucket head < middle < tail, mean_fp DESC) and
    emit the exact count of strictly-preceding documents, the integer
    a curriculum sampler orders its epochs by.

    Same zero-shuffle shape as `token_count_ranks`: the rank key space
    is BOUNDED (3 buckets x <= 2^scale_bits distinct means), so
    per-block (key, count) partials fold on the driver, the exclusive
    prefix table broadcasts in the closure, and ONE stateless pass
    annotates every row via searchsorted on a monotone composite key.
    Ties (same bucket, same mean) share ``n_ahead`` — the doc_id
    tiebreak is left to the consumer (SQL ``rank() - 1`` semantics,
    which is what makes the output bit-exact on both engines).

    Output: (doc_id, bucket, mean_fp, n_ahead, n_docs)."""
    scored = scored.materialize()  # feeds the fold AND the annotate

    _BR = {"head": 0, "middle": 1, "tail": 2}

    def _key(bucket: np.ndarray, mean_fp: np.ndarray) -> np.ndarray:
        br = np.asarray([_BR[b] for b in bucket], np.int64)
        # ascending key == curriculum order: bucket asc, mean desc;
        # 2^61 stride: br <= 2 keeps br*2^61 - mean_fp inside int64
        # for any mean_fp < 2^61 (mean_fp is a nonneg int64 quotient)
        return br * (np.int64(1) << 61) - mean_fp

    def key_hist(batch: pa.Table) -> pa.Table:
        k = _key(np.asarray(batch.column("bucket").to_pylist()),
                 batch.column("mean_fp").to_numpy(
                     zero_copy_only=False).astype(np.int64))
        u, c = np.unique(k, return_counts=True)
        return pa.table({"k": pa.array(u, pa.int64()),
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    acc: dict[int, int] = {}
    for r in scored.map_batches(key_hist, batch_format="pyarrow",
                                batch_size=None).take_all():
        acc[r["k"]] = acc.get(r["k"], 0) + r["c"]
    keys = np.asarray(sorted(acc), np.int64)
    ahead = np.concatenate(
        [[0], np.cumsum([acc[int(k)] for k in keys])[:-1]]
    ).astype(np.int64) if len(keys) else np.array([], np.int64)
    n_docs = int(sum(acc.values()))

    def annotate(batch: pa.Table) -> pa.Table:
        mf = batch.column("mean_fp").to_numpy(
            zero_copy_only=False).astype(np.int64)
        k = _key(np.asarray(batch.column("bucket").to_pylist()), mf)
        idx = np.searchsorted(keys, k, side="left")  # exact: k in keys
        m = batch.num_rows
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "bucket": batch.column("bucket"),
            "mean_fp": pa.array(mf, pa.int64()),
            "n_ahead": pa.array(ahead[idx] if m else
                                np.array([], np.int64), pa.int64()),
            "n_docs": pa.array(np.full(m, n_docs, np.int64),
                               pa.int64()),
        })

    return scored.map_batches(annotate, batch_format="pyarrow",
                              batch_size=1 << 17)


def mlm_mask_plan(docs: rd.Dataset, *, salt: str = "mlm") -> rd.Dataset:
    """BERT-style masked-LM example plan (Devlin et al. 2019): select
    15% of token positions per document and split them 80/10/10 into
    [MASK] / random-replace / keep — the deterministic example-
    generation pass a pretraining pipeline runs over the whole corpus
    before tokenization.

    Determinism: position p of doc d draws
    ``r = md5_hash64(f"{salt}:{d}:{p}") % 1000`` — masked iff r < 150,
    [MASK] iff r < 120, random iff 120 <= r < 135, keep iff
    135 <= r < 150 (the md5 rule == DuckDB ``md5_number_upper``, the
    corpus_splits / bloom precedent), so the plan is reproducible
    across runs, engines and resumes — no RNG state to checkpoint.

    Shape: ONE streaming ``map_batches`` pass, zero wide ops; output is
    the per-doc integer summary (a production run would emit the
    masked-position list itself — same pass, wider rows).  Tokens are
    ``split(" ")`` with ``''`` dropped; token-less docs are absent
    (inner-join semantics).

    Output: (doc_id, n_tokens, n_masked, n_mask, n_rand, n_keep,
    masked_pos_sum) — all exact int64.
    """
    import pyarrow.compute as pc

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def plan(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = parent[keep]
        m = batch.num_rows
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if not len(parent):
            z = pa.array([], pa.int64())
            return pa.table({c: z for c in (
                "doc_id", "n_tokens", "n_masked", "n_mask", "n_rand",
                "n_keep", "masked_pos_sum")})
        counts = np.bincount(parent, minlength=m)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = np.arange(len(parent), dtype=np.int64) - starts[parent]
        r = (_hash64([f"{salt}:{ids[p]}:{q}"
                      for p, q in zip(parent, pos)])
             % np.uint64(1000)).astype(np.int64)

        def seg(mask: np.ndarray, weights=None) -> np.ndarray:
            out = np.zeros(m, np.int64)
            w = mask.astype(np.int64) if weights is None \
                else mask.astype(np.int64) * weights
            np.add.at(out, parent, w)
            return out

        masked = r < 150
        nz = counts > 0
        cols = {
            "doc_id": ids[nz],
            "n_tokens": counts.astype(np.int64)[nz],
            "n_masked": seg(masked)[nz],
            "n_mask": seg(r < 120)[nz],
            "n_rand": seg((r >= 120) & (r < 135))[nz],
            "n_keep": seg((r >= 135) & (r < 150))[nz],
            "masked_pos_sum": seg(masked, pos)[nz],
        }
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in cols.items()})

    return docs.map_batches(plan, batch_format="pyarrow",
                            batch_size=1 << 17)


def t5_span_plan(docs: rd.Dataset, *, salt: str = "t5") -> rd.Dataset:
    """T5-style span-corruption plan (Raffel et al. 2020): choose
    corruption spans per document deterministically, merge overlaps,
    and report the merged span count and corrupted-token coverage —
    the example-generation pass a span-denoising pretraining pipeline
    runs corpus-wide.

    Determinism (the `mlm_mask_plan` rule): position p of doc d is a
    span START iff ``md5_hash64(f"{salt}:{d}:{p}") % 1000 < 50`` (~5%
    of positions) with width ``2 + md5_hash64(f"{salt}w:{d}:{p}") % 3``
    (2-4 tokens, clipped at the doc end).  OVERLAPPING spans merge
    (touching spans stay separate): a start is a MERGED-SPAN HEAD iff
    it lies at or beyond the running max end of all earlier spans
    (``pos >= prev_max_end``), and the corrupted coverage
    is the exact interval-union length via the running-max-end scan
    (the variable-width generalization of `substring_dup_coverage`'s
    fixed-width ``min(w, next_pos - pos)`` trick) — both exactly
    replicable in SQL with a window ``max(...) OVER (... ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    Shape: ONE streaming pass, zero wide ops; per-doc scans vectorize
    across the whole batch by offsetting positions with
    ``parent * 2^32`` so one global ``np.maximum.accumulate`` handles
    every doc segment.  Token-less docs are absent (inner-join
    semantics).

    Output: (doc_id, n_tokens, n_starts, n_spans, n_corrupted) —
    all exact int64.
    """
    import pyarrow.compute as pc

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    BIG = np.int64(1) << 32

    def plan(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = parent[keep]
        m = batch.num_rows
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        out_cols = ("doc_id", "n_tokens", "n_starts", "n_spans",
                    "n_corrupted")
        if not len(parent):
            z = pa.array([], pa.int64())
            return pa.table({c: z for c in out_cols})
        counts = np.bincount(parent, minlength=m)
        doc_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = (np.arange(len(parent), dtype=np.int64)
               - doc_start[parent])
        keys = [f"{salt}:{ids[p]}:{q}" for p, q in zip(parent, pos)]
        is_start = (_hash64(keys) % np.uint64(1000)) < np.uint64(50)
        sp, spos = parent[is_start], pos[is_start]
        n_tok_of = counts.astype(np.int64)
        if len(sp):
            w = 2 + (_hash64([f"{salt}w:{ids[p]}:{q}"
                              for p, q in zip(sp, spos)])
                     % np.uint64(3)).astype(np.int64)
            end = np.minimum(spos + w, n_tok_of[sp])
            # per-doc running max end, one global scan via the
            # parent*2^32 offset (positions < 2^32 per doc)
            gpos = sp * BIG + spos
            gend = sp * BIG + end
            prev_max = np.concatenate(
                [[np.int64(-1)],
                 np.maximum.accumulate(gend)[:-1]])
            # a span head starts at/after every earlier end; a
            # different doc's offset is always far below/above, so
            # cross-doc comparisons never bind
            head = gpos >= prev_max
            new_cov = np.maximum(
                gend - np.maximum(gpos, prev_max), 0)
            # clip cross-doc: first span of a doc contributes fully
            first_of_doc = np.concatenate(
                [[True], sp[1:] != sp[:-1]])
            new_cov[first_of_doc] = (end - spos)[first_of_doc]
            head[first_of_doc] = True
        else:
            head = np.zeros(0, bool)
            new_cov = np.zeros(0, np.int64)

        def seg(values: np.ndarray, par: np.ndarray) -> np.ndarray:
            out = np.zeros(m, np.int64)
            np.add.at(out, par, values.astype(np.int64))
            return out

        nz = counts > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_tokens": pa.array(n_tok_of[nz], pa.int64()),
            "n_starts": pa.array(seg(is_start, parent)[nz], pa.int64()),
            "n_spans": pa.array(seg(head, sp)[nz], pa.int64()),
            "n_corrupted": pa.array(seg(new_cov, sp)[nz], pa.int64()),
        })

    return docs.map_batches(plan, batch_format="pyarrow",
                            batch_size=1 << 17)


def fim_plan(docs: rd.Dataset, *, salt: str = "fim",
             fim_per_mille: int = 500) -> rd.Dataset:
    """Fill-in-the-middle transformation plan (Bavarian et al. 2022,
    "Efficient Training of Language Models to Fill in the Middle"):
    decide per document whether to apply FIM (default 50% rate), cut
    the token sequence into prefix | middle | suffix at two
    deterministic points, and pick PSM vs SPM ordering 50/50 — the
    document-level transformation pass a code-LLM pretraining pipeline
    runs corpus-wide.

    Determinism (the `mlm_mask_plan` rule — md5 draws, no RNG state):
      apply  iff md5_hash64(f"{salt}:{d}") % 1000 < fim_per_mille
      cut1 = md5_hash64(f"{salt}c1:{d}") % (n + 1)
      cut2 = md5_hash64(f"{salt}c2:{d}") % (n + 1), swapped so
      cut1 <= cut2 (the paper splits uniformly at two points)
      spm  iff md5_hash64(f"{salt}m:{d}") % 2 == 1 (else PSM)
    Non-FIM docs emit cut1 = cut2 = n, spm = 0: prefix is the whole
    document, middle and suffix are empty — plain autoregressive
    order.

    Shape: ONE streaming pass, zero wide ops; per-doc constants only
    (no per-token hashing).  Token-less docs are absent.

    Output: (doc_id, n_tokens, fim, cut1, cut2, spm) — all int64
    (fim/spm as 0/1).
    """
    import pyarrow.compute as pc

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def plan(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(toks).to_numpy()[keep]
        m = batch.num_rows
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = np.bincount(parent, minlength=m).astype(np.int64) \
            if len(parent) else np.zeros(m, np.int64)
        nz = n > 0
        ids, n = ids[nz], n[nz]
        if not len(ids):
            z = pa.array([], pa.int64())
            return pa.table({c: z for c in (
                "doc_id", "n_tokens", "fim", "cut1", "cut2", "spm")})
        fim = ((_hash64([f"{salt}:{d}" for d in ids])
                % np.uint64(1000))
               < np.uint64(fim_per_mille)).astype(np.int64)
        c1 = (_hash64([f"{salt}c1:{d}" for d in ids])
              % (n + 1).astype(np.uint64)).astype(np.int64)
        c2 = (_hash64([f"{salt}c2:{d}" for d in ids])
              % (n + 1).astype(np.uint64)).astype(np.int64)
        lo, hi = np.minimum(c1, c2), np.maximum(c1, c2)
        spm = (_hash64([f"{salt}m:{d}" for d in ids])
               % np.uint64(2)).astype(np.int64)
        off = fim == 0  # untouched docs: prefix = whole doc
        lo[off], hi[off], spm[off] = n[off], n[off], 0
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
            "fim": pa.array(fim, pa.int64()),
            "cut1": pa.array(lo, pa.int64()),
            "cut2": pa.array(hi, pa.int64()),
            "spm": pa.array(spm, pa.int64()),
        })

    return docs.map_batches(plan, batch_format="pyarrow",
                            batch_size=1 << 17)


def bpe_train(
    docs: rd.Dataset, *, n_merges: int = 8, max_types: int = 64,
) -> rd.Dataset:
    """Distributed BPE tokenizer TRAINING (Sennrich et al. 2016): learn
    the first ``n_merges`` merge rules from corpus word frequencies —
    the standard shape real tokenizer trainers use at corpus scale:
    the DATA pass is one distributed exact word-count (combiner before
    the one shuffle, then a per-block local top-``max_types`` so the
    driver sees at most ``max_types`` x blocks candidate rows), and
    the merge rounds then run on the BOUNDED word-type table
    driver-side (types x avg word length work per round — independent
    of corpus size, like ``pipelines/train.py``'s
    sufficient-statistics pattern).

    Conventions (identical on both engines, so the output is
    SQL-oracle-exact):
      - words are ``split(' ')`` with ``''`` dropped; initial symbol
        sequence is the word's characters (no end-of-word marker);
      - pair counts sum word frequency over ALL adjacent positions
        (overlapping: 'aaa' contributes ('a','a') twice);
      - best pair per round = (count DESC, pair-string ASC) — binary
        codepoint tie order;
      - a merge applies by left-to-right non-overlapping replacement
        on the space-joined symbol string, repeated 4x (Python
        ``str.replace`` == DuckDB ``replace``; one pass loses every
        other occurrence in a back-to-back run because matches share
        the boundary space, and each extra pass at least halves the
        residue, so 4 passes reach the canonical merge-every-
        occurrence fixpoint for runs up to 2^4 adjacent pairs — ample
        for natural word lengths, and bit-identical to the SQL
        replica's 4 nested ``replace`` calls);
      - word-type cap = (count DESC, word ASC) top ``max_types``.

    Stops early (fewer than ``n_merges`` rows) only if the type table
    runs out of adjacent pairs.

    Output: (round, left, right, merged, pair_count), one row per
    learned merge, round starting at 0.
    """
    import pyarrow.compute as pc

    order = [("n", "descending"), ("word", "ascending")]

    def count_words(batch: pa.Table) -> pa.Table:
        if "word" in batch.column_names:       # post-sort completion
            # exact local partial: each word is whole per block after
            # the sort, so the union of block top-Ms holds the global
            return grouped_topk(
                grouped_agg(batch, ["word"], [("n", "sum")]),
                [], order, max_types)
        toks = pc.list_flatten(pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " "))
        vc = pc.value_counts(toks)
        words = vc.field("values")
        counts = vc.field("counts")
        keep = pc.not_equal(words, "")
        return pa.table({
            "word": pc.filter(words, keep),
            "n": pc.cast(pc.filter(counts, keep), pa.int64()),
        })

    cand = topk_complete(
        docs.map_batches(count_words, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("word")
        .map_batches(count_words, batch_format="pyarrow",
                     batch_size=None),
        [], order, max_types, empty=pa.schema([
            ("word", pa.string()), ("n", pa.int64())]).empty_table())
    types = list(zip(cand.column("word").to_pylist(),
                     cand.column("n").to_pylist()))

    seqs = {w: " ".join(w) for w, _ in types}
    rounds, lefts, rights, mergeds, pcs = [], [], [], [], []
    for r in range(n_merges):
        pair_counts: dict[str, int] = {}
        for w, cnt in types:
            sym = seqs[w].split(" ")
            for a, b in zip(sym, sym[1:]):
                p = a + " " + b
                pair_counts[p] = pair_counts.get(p, 0) + cnt
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        pair, n_pair = best
        a, b = pair.split(" ")
        merged = a + b
        pat, rep = " " + pair + " ", " " + merged + " "
        for w, _ in types:
            s = " " + seqs[w] + " "
            for _ in range(4):
                s = s.replace(pat, rep)
            seqs[w] = s[1:-1]
        rounds.append(r)
        lefts.append(a)
        rights.append(b)
        mergeds.append(merged)
        pcs.append(n_pair)
    return rd.from_arrow(pa.table({
        "round": pa.array(rounds, pa.int64()),
        "left": pa.array(lefts, pa.string()),
        "right": pa.array(rights, pa.string()),
        "merged": pa.array(mergeds, pa.string()),
        "pair_count": pa.array(pcs, pa.int64()),
    }))


def bpe_encode_counts(
    docs: rd.Dataset, *, n_merges: int = 8, max_types: int = 64,
    with_fertility: bool = False,
) -> rd.Dataset:
    """Apply a corpus-trained BPE tokenizer (see :func:`bpe_train`) to
    the corpus itself — the tokenizer-lifecycle closure (train ->
    encode), and the token-budget measurement a training run actually
    bills against.  Encoding applies the learned merges in RANK ORDER
    (ordered replay, each via the same 4-fold replace fixpoint as
    training — the documented convention, identical in the SQL
    replica since both paths apply the same operation sequence to a
    word's character string).

    Shape: :func:`bpe_train`'s one distributed word-count pass leaves
    the merge list (bounded: ``n_merges`` pairs) on the driver;
    ``ray.put`` broadcasts it and ONE more streaming pass encodes —
    per batch, each DISTINCT word is encoded once (vocabulary-bounded
    work) and symbol counts map back to tokens vectorized.  Docs with
    zero non-``''`` tokens are absent (inner-join semantics).

    Output: (doc_id, n_ws_tokens, n_bpe_tokens) per document.  With
    ``with_fertility=True``, two exact fixed-point quality signals are
    appended — the numbers a tokenizer bake-off actually compares:
    ``n_chars`` (UTF-8 code points, == DuckDB ``length``),
    ``fertility_bp = n_bpe_tokens * 10^4 // max(n_chars, 1)`` (tokens
    per char, basis points — the compression/fertility metric) and
    ``expansion_bp = n_bpe_tokens * 10^4 // n_ws_tokens`` (BPE tokens
    per whitespace word).  All non-negative integer floors, so `//`
    matches on both engines.
    """
    import ray
    import pyarrow.compute as pc

    merges = bpe_train(docs, n_merges=n_merges,
                       max_types=max_types).take_all()
    merges.sort(key=lambda r: r["round"])
    ref = ray.put([(r["left"] + " " + r["right"],
                    r["merged"]) for r in merges])

    def encode(batch: pa.Table) -> pa.Table:
        rules = ray.get(ref)
        toks = pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        words = np.asarray(flat.to_pylist(), dtype=object)[keep]
        parent = parent[keep]
        if not len(words):
            z = pa.array([], pa.int64())
            cols = {"doc_id": z, "n_ws_tokens": z, "n_bpe_tokens": z}
            if with_fertility:
                cols.update({"n_chars": z, "fertility_bp": z,
                             "expansion_bp": z})
            return pa.table(cols)
        uniq, inv = np.unique(words, return_inverse=True)
        n_sym = np.empty(len(uniq), np.int64)
        for j, w in enumerate(uniq):       # vocabulary-bounded loop
            s = " " + " ".join(w) + " "
            for pair, merged in rules:
                pat, rep = " " + pair + " ", " " + merged + " "
                for _ in range(4):
                    s = s.replace(pat, rep)
            n_sym[j] = s.count(" ") - 1
        per_tok = n_sym[inv]
        m = batch.num_rows
        bpe = np.zeros(m, np.int64)
        np.add.at(bpe, parent, per_tok)
        ws = np.bincount(parent, minlength=m).astype(np.int64)
        nz = ws > 0
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False)[nz].astype(np.int64)
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "n_ws_tokens": pa.array(ws[nz], pa.int64()),
            "n_bpe_tokens": pa.array(bpe[nz], pa.int64()),
        }
        if with_fertility:
            nchars = pc.utf8_length(pc.fill_null(
                batch.column("text"), "")).to_numpy(
                    zero_copy_only=False).astype(np.int64)[nz]
            cols["n_chars"] = pa.array(nchars, pa.int64())
            cols["fertility_bp"] = pa.array(
                bpe[nz] * 10000 // np.maximum(nchars, 1), pa.int64())
            cols["expansion_bp"] = pa.array(
                bpe[nz] * 10000 // ws[nz], pa.int64())
        return pa.table(cols)

    return docs.map_batches(encode, batch_format="pyarrow",
                            batch_size=1 << 17)


def bpe_token_counts(docs: rd.Dataset) -> rd.Dataset:
    """Token-budget estimation: per-doc token counts under a GPT-2-ish
    regex pre-tokenizer (`BPE_TOKEN_RE`) next to the whitespace count
    and character length — the number every training-data pipeline
    needs before packing sequences or pricing a corpus in tokens.

    Pure projection (one vectorized RE2 scan per batch, zero
    shuffles); BPE merges only ever SPLIT pre-tokens further, so
    ``n_bpe_tokens`` is an exact lower bound on the real BPE count.

    Output: (doc_id, n_chars, n_ws_tokens, n_bpe_tokens)."""
    import pyarrow.compute as pc

    def count(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "n_ws_tokens": pc.cast(
                pc.list_value_length(pc.split_pattern(text, " ")),
                pa.int64()),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(text, BPE_TOKEN_RE), pa.int64()),
        })

    return docs.map_batches(count, batch_format="pyarrow")


def corpus_report(
    gates: rd.Dataset,
    repetition: rd.Dataset,
) -> pa.Table:
    """Corpus DATA CARD in one bounded table: integer sums of the
    per-document C4 quality gates (:func:`quality_gates`) and Gopher
    repetition signals (:func:`doc_repetition`) — the composition a
    100 TB curation run reads before deciding its filter thresholds,
    instead of re-scanning per metric.

    Scale shape: both inputs are zero-shuffle per-doc projections;
    this fold adds NO wide op — each block contributes one tiny
    partial-sum row per column (exact integers, associative in any
    order) and the driver folds O(blocks x columns) rows.

    Output pa.Table (section, k, v), sorted: section='size' doc/token
    counts, section='c4' gate sums, section='gopher' repetition-signal
    sums.
    """

    def col_sums(cols: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            ks, vs = [], []
            for c in cols:
                ks.append(c)
                vs.append(int(np.sum(batch.column(c).to_numpy(
                    zero_copy_only=False).astype(np.int64))))
            ks.append("__n_rows__")
            vs.append(batch.num_rows)
            return pa.table({
                "k": pa.array(ks, pa.string()),
                "v": pa.array(vs, pa.int64()),
            })
        return f

    def fold(ds: rd.Dataset, cols: list[str]) -> dict[str, int]:
        acc: dict[str, int] = {}
        parts = ds.map_batches(col_sums(cols), batch_format="pyarrow")
        for r in parts.take_all():  # O(blocks x columns) — tiny
            acc[r["k"]] = acc.get(r["k"], 0) + int(r["v"])
        return acc

    g = fold(gates, ["n_tokens", "ends_terminal",
                     "flag_0", "flag_1", "flag_2", "keep"])
    r = fold(repetition, ["n_tokens", "n_distinct", "top_token_n",
                          "n_bigrams", "n_distinct_bigrams",
                          "top_bigram_n"])
    rows = [
        ("size", "n_docs", r["__n_rows__"]),
        ("size", "n_tokens", r["n_tokens"]),
        ("c4", "keep", g["keep"]),
        ("c4", "ends_terminal", g["ends_terminal"]),
        ("c4", "flag_0", g["flag_0"]),
        ("c4", "flag_1", g["flag_1"]),
        ("c4", "flag_2", g["flag_2"]),
        ("gopher", "n_distinct", r["n_distinct"]),
        ("gopher", "top_token_n", r["top_token_n"]),
        ("gopher", "n_bigrams", r["n_bigrams"]),
        ("gopher", "n_distinct_bigrams", r["n_distinct_bigrams"]),
        ("gopher", "top_bigram_n", r["top_bigram_n"]),
    ]
    rows.sort()
    return pa.table({
        "section": pa.array([a for a, _, _ in rows], pa.string()),
        "k": pa.array([b for _, b, _ in rows], pa.string()),
        "v": pa.array([c for _, _, c in rows], pa.int64()),
    })


def domain_report(
    gates: rd.Dataset,
    repetition: rd.Dataset,
) -> pa.Table:
    """Per-DOMAIN data card: the :func:`corpus_report` sums sliced by
    (source, lang) — the per-domain quality table a corpus-mixing
    decision actually reads (which sources carry the boilerplate,
    which languages fail the gates), instead of one global row.

    Inputs must carry ``source`` and ``lang`` columns (the gate
    kernels pass them through when present).  Scale shape identical
    to corpus_report: both inputs are zero-shuffle per-doc
    projections; each block contributes one partial-sum row per
    (source, lang, column) — the key space is bounded (domains x
    languages x ~12 columns) — and the driver folds exact integers,
    associative in any order.  Zero wide ops.

    Output pa.Table (section, source, lang, k, v), sorted."""

    def col_sums(cols: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            df = pd.DataFrame({
                "source": batch.column("source").to_pylist(),
                "lang": batch.column("lang").to_pylist(),
            })
            for c in cols:
                df[c] = batch.column(c).to_numpy(
                    zero_copy_only=False).astype(np.int64)
            df["__n_rows__"] = np.int64(1)
            g = (df.groupby(["source", "lang"], sort=False)
                 .sum().reset_index())
            long = g.melt(id_vars=["source", "lang"],
                          var_name="k", value_name="v")
            return pa.table({
                "source": pa.array(long["source"].tolist(),
                                   pa.string()),
                "lang": pa.array(long["lang"].tolist(), pa.string()),
                "k": pa.array(long["k"].tolist(), pa.string()),
                "v": pa.array(long["v"].to_numpy(np.int64),
                              pa.int64()),
            })
        return f

    def fold(ds: rd.Dataset, cols: list[str]) -> dict[tuple, int]:
        acc: dict[tuple, int] = {}
        parts = ds.map_batches(col_sums(cols), batch_format="pyarrow")
        for r in parts.take_all():  # O(blocks x keys) — bounded
            key = (r["source"], r["lang"], r["k"])
            acc[key] = acc.get(key, 0) + int(r["v"])
        return acc

    g = fold(gates, ["n_tokens", "ends_terminal",
                     "flag_0", "flag_1", "flag_2", "keep"])
    r = fold(repetition, ["n_tokens", "n_distinct", "top_token_n",
                          "n_bigrams", "n_distinct_bigrams",
                          "top_bigram_n"])
    rows = []
    for (src, lg, k), v in g.items():
        if k in ("__n_rows__", "n_tokens"):
            continue  # gates run on the ENRICHED text; size is raw
        rows.append(("c4", src, lg, k, v))
    for (src, lg, k), v in r.items():
        if k == "__n_rows__":
            rows.append(("size", src, lg, "n_docs", v))
        elif k == "n_tokens":
            rows.append(("size", src, lg, "n_tokens", v))
        else:
            rows.append(("gopher", src, lg, k, v))
    rows.sort()
    return pa.table({
        "section": pa.array([a for a, _, _, _, _ in rows],
                            pa.string()),
        "source": pa.array([b for _, b, _, _, _ in rows],
                           pa.string()),
        "lang": pa.array([c for _, _, c, _, _ in rows], pa.string()),
        "k": pa.array([d for _, _, _, d, _ in rows], pa.string()),
        "v": pa.array([e for _, _, _, _, e in rows], pa.int64()),
    })


def lang_confusion(docs: rd.Dataset) -> pa.Table:
    """Label-noise audit: the confusion matrix between the STORED
    ``lang`` label and the corpus-trained language-ID prediction
    (:func:`lang_id_profiles`) — the first table anyone reads before
    trusting a crawl's language metadata, since mislabeled documents
    poison per-language corpus mixing.

    Scale shape: the true label rides the lang_id pipeline's own rows
    (``with_true=True``, zero extra ops), then each block contributes
    bounded (lang_true, lang_pred) partial counts and the driver folds
    languages^2 integers.  No join against the documents table.

    Output pa.Table (lang_true, lang_pred, n, mismatch), sorted."""

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "lang_true": pa.array([], pa.string()),
                "lang_pred": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        g = (df.groupby(["lang_true", "lang_pred"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "lang_true": pa.array(g["lang_true"].tolist(),
                                  pa.string()),
            "lang_pred": pa.array(g["lang_pred"].tolist(),
                                  pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    preds = lang_id_profiles(docs, with_true=True)
    acc: dict[tuple, int] = {}
    parts = preds.map_batches(partials, batch_format="pyarrow")
    for r in parts.take_all():  # O(blocks x langs^2) — bounded
        key = (r["lang_true"], r["lang_pred"])
        acc[key] = acc.get(key, 0) + int(r["n"])
    ks = sorted(acc)
    return pa.table({
        "lang_true": pa.array([a for a, _ in ks], pa.string()),
        "lang_pred": pa.array([b for _, b in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
        "mismatch": pa.array(
            [1 if a != b else 0 for a, b in ks], pa.int64()),
    })


def vocab_growth(docs: rd.Dataset, *, n_buckets: int = 10) -> pa.Table:
    """Heaps'-law vocabulary growth curve: how many NEW word types
    each doc_id decile introduces, plus the cumulative curve — the
    saturation diagnostic a corpus-expansion decision reads (a flat
    tail says more of the same data buys no new vocabulary; it is
    also a cheap global near-dup smell).

    Shape: per-batch (token -> min doc_id) partials, ONE sort on the
    token string (high-cardinality), per-block min completion, then
    bounded decile partial counts folded on the driver (``n_buckets``
    integers per block) with the cumulative sum driver-side.  Token
    convention: split-on-space, ``''`` dropped (the BPE family's
    ``w <> ''`` rule); ``decile = first_doc * n_buckets // n_docs``
    over dense non-negative doc_ids.

    Output pa.Table (decile, new_types, cum_types), sorted."""
    import pyarrow.compute as pc

    def tok_min(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({
            "w": np.asarray(flat.to_pylist(), dtype=object)[keep],
            "d": ids[parent[keep]],
        })
        g = df.groupby("w", sort=False)["d"].min().reset_index()
        return pa.table({
            "w": pa.array(g["w"].tolist(), pa.string()),
            "d": pa.array(g["d"].to_numpy(np.int64), pa.int64()),
        })

    def doc_max(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if not len(ids):
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table({"m": pa.array([int(ids.max())], pa.int64())})

    n_docs = 1 + max(
        (r["m"] for r in docs.map_batches(
            doc_max, batch_format="pyarrow",
            batch_size=None).take_all()), default=-1)
    if n_docs <= 0:
        z = pa.array([], pa.int64())
        return pa.table({"decile": z, "new_types": z, "cum_types": z})

    def bucket_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"decile": z, "new_types": z})
        first = (df.groupby("w", sort=False)["d"].min()
                 .to_numpy(np.int64))
        dec = first * n_buckets // n_docs
        u, c = np.unique(dec, return_counts=True)
        return pa.table({
            "decile": pa.array(u, pa.int64()),
            "new_types": pa.array(c.astype(np.int64), pa.int64()),
        })

    partials = docs.map_batches(tok_min, batch_format="pyarrow")
    folded = partials.sort("w").map_batches(
        bucket_counts, batch_format="pyarrow", batch_size=None)
    acc: dict[int, int] = {}
    for r in folded.take_all():  # O(blocks x n_buckets)
        acc[int(r["decile"])] = acc.get(int(r["decile"]), 0) \
            + int(r["new_types"])
    ks = sorted(acc)
    cum = np.cumsum([acc[k] for k in ks]).astype(np.int64)
    return pa.table({
        "decile": pa.array(ks, pa.int64()),
        "new_types": pa.array([acc[k] for k in ks], pa.int64()),
        "cum_types": pa.array(cum, pa.int64()),
    })
