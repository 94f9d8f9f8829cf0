"""Deduplication operators over the `documents` table.

Five dedup families, all Ray-Data-first (map_batches partials before any
wide shuffle; broadcast small sides via ``ray.put``):

  exact_dedup          content-hash combine/sort/combine (exact)
  ngram_jaccard_pairs  exact word n-gram Jaccard via a distributed
                       posting-list self-join (shingle -> docs -> pairs)
  minhash_lsh_pairs    MinHash signatures + LSH banding -> candidate
                       pairs -> signature-estimated Jaccard (approximate)
  simhash_pairs        64-bit SimHash + pigeonhole chunk banding ->
                       Hamming-verified near-dup pairs
  embedding_dup_pairs  cosine near-dup over an embedding column via
                       blocked matmul against a broadcast matrix

Scale notes (100 TB path):
  - posting-list joins square on hot shingles; the ``max_df`` knob drops
    shingles whose document frequency exceeds a cap (a standard prefix /
    frequency filter) — disabled by default so the SQL oracle matches.
  - the broadcast embedding matrix works to ~10M x small-dim; beyond
    that, the IVF/LSH-bucketed path in pipelines/similarity.py co-locates
    candidates by bucket so no stage holds the full matrix.
  - all pair emission happens in vectorized per-block passes after ONE
    sort on the bucket/shingle key (equal keys arrive whole per block);
    outputs are pre-combined per block before the final distinct.  Both
    steps are ``arrowutil.keyed_exchange`` and never fold: pairs
    outgrow their postings, and the distinct's pandas groupby over
    sf0.1's pairs ran slower as one driver call than in parallel
    blocks (dedup_ngram_jaccard 1.49 vs 1.35 s, 4 CPUs).
"""

from __future__ import annotations

import functools
import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.arrowutil import (
    COMBINE_BATCH, agg_fold, attach_state, driver_table, from_pandas_clean,
    grouped_agg, grouped_topk, keyed_complete, keyed_exchange, sorted_codes,
    topk_complete)

import ray
import ray.data as rd

# ---------------------------------------------------------------------------
# shared helpers

MERSENNE_P = (1 << 61) - 1

_LOG = logging.getLogger(__name__)


def _token_shingles(text: str, n: int) -> list[str]:
    toks = text.split(" ")
    if len(toks) < n:
        return [" ".join(toks)] if text else []
    return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]


def _hash64(strings: list[str]) -> np.ndarray:
    """Stable 64-bit content hashes (md5-derived — process-independent)."""
    return np.asarray(
        [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
         for s in strings],
        dtype=np.uint64,
    )


# ---------------------------------------------------------------------------
# 1. exact dedup

def exact_dedup(docs: rd.Dataset) -> rd.Dataset:
    """Exact dedup by full text: batch-local combine (content hash ->
    min id, count), one sort on the 160-bit hash (high cardinality, so
    the range partitioner balances), vectorized per-block completion.
    The shuffle moves one row per distinct text per batch, never the
    text bytes themselves."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "h" not in df.columns:
            df = pd.DataFrame({
                "h": [hashlib.sha1((t or "").encode()).hexdigest()
                      for t in df["text"]],
                "keep_doc_id": df["doc_id"],
                "n_copies": 1,
            })
        g = df.groupby("h", sort=False).agg(
            keep_doc_id=("keep_doc_id", "min"),
            n_copies=("n_copies", "sum")).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    partials = docs.map_batches(combine, batch_format="pyarrow",
                                batch_size=1 << 17)
    agg = keyed_complete(partials, ["h"], combine, op="exact_dedup")
    return agg.select_columns(["keep_doc_id", "n_copies"])


# ---------------------------------------------------------------------------
# 2. exact n-gram Jaccard pairs (posting-list join)

def ngram_pair_stats(
    docs: rd.Dataset,
    *,
    n: int = 3,
    max_df: int | None = None,
) -> rd.Dataset:
    """The SHARED intermediate of the whole n-gram dedup family: per
    co-occurring document pair, the exact intersection size and both
    distinct-shingle set sizes ``(a, b, i, fsa, fsb)``.  Jaccard,
    containment, the near-dup graph analytics and the calibration
    harness are all one cheap projection away from this table —
    materialize it ONCE per corpus run and derive every report from it
    (:func:`dedup_report`) instead of re-running the posting join per
    metric.

    Distributed exact algorithm: explode distinct shingles into postings
    ``(shingle, doc_id, set_size)``, co-locate by shingle (one sort),
    emit co-occurrence pairs carrying both set sizes, then sum the
    per-pair intersection — Jaccard = i / (sa + sb - i).  No stage ever
    holds two documents' texts together.

    ``max_df`` (OFF by default — exact semantics, bit-exact vs the SQL
    oracle): when set, a shingle in more than ``max_df`` documents emits
    no pairs; without the cap one stopword shingle squares the join at
    corpus scale.  CAVEAT — the cap is NOT output-preserving: in a
    mass-duplicate cluster larger than ``max_df`` EVERY shingle exceeds
    the cap, so Jaccard-1.0 duplicates emit zero pairs and downstream
    keep-one dedup inherits the hole.  At scale, run :func:`exact_dedup`
    first (it catches identical mass-dups cheaply), then this with the
    cap for the near-dup tail.  Skipped shingles are counted and logged
    per block (no silent caps)."""

    def postings(batch: pa.Table) -> pa.Table:
        ids, shs, sizes = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            ss = set(_token_shingles(text or "", n))
            for s in ss:
                ids.append(did)
                shs.append(s)
                sizes.append(len(ss))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "shingle": pa.array(shs, pa.string()),
            "set_size": pa.array(sizes, pa.int64()),
        })

    posts = docs.map_batches(postings, batch_format="pyarrow")

    # sort co-locates every posting of a shingle in one block (Ray's
    # range partitioner never splits equal keys); pair emission is pure
    # index arithmetic over the block — per-group work is one
    # np.triu_indices call, and ONE output frame is built per block
    def block_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["shingle", "doc_id"])
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64"),
                              "sa": pd.Series(dtype="int64"),
                              "sb": pd.Series(dtype="int64")})
        if df.empty:
            return from_pandas_clean(empty, preserve_index=False)
        _, first, counts = np.unique(
            df["shingle"].to_numpy(), return_index=True, return_counts=True)
        ids = df["doc_id"].to_numpy()
        sz = df["set_size"].to_numpy()
        i_parts, j_parts = [], []
        n_hot = 0
        for start, c in zip(first, counts):
            if c < 2:
                continue  # df=1: no pairs
            if max_df is not None and c > max_df:
                n_hot += 1  # hot-shingle guard: see docstring
                continue
            ii, jj = np.triu_indices(int(c), k=1)
            i_parts.append(start + ii)
            j_parts.append(start + jj)
        if n_hot:
            _LOG.warning("ngram_jaccard_pairs: skipped %d shingles with "
                         "df > max_df=%d in this block", n_hot, max_df)
        if not i_parts:
            return from_pandas_clean(empty, preserve_index=False)
        I = np.concatenate(i_parts)
        J = np.concatenate(j_parts)
        out = pd.DataFrame({"a": ids[I], "b": ids[J],
                            "sa": sz[I], "sb": sz[J]})
        return from_pandas_clean(out, preserve_index=False)

    pairs = keyed_exchange(posts, ["shingle"], block_pairs)

    def pair_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "i" in df.columns:
            g = df.groupby(["a", "b"], sort=False).agg(
                i=("i", "sum"), fsa=("fsa", "min"),
                fsb=("fsb", "min")).reset_index()
        else:
            g = df.groupby(["a", "b"], sort=False).agg(
                i=("sa", "size"), fsa=("sa", "min"),
                fsb=("sb", "min")).reset_index()
        return from_pandas_clean(g, preserve_index=False)

    # per-block combine (batch_size=None), not keyed_exchange's
    # COMBINE_BATCH: a bigger batch would shrink the final input only
    # ~5% here (pairs are near-unique) while forcing the fused
    # block_pairs->combine stage into ONE task (Ray bundles up to
    # batch_size rows per task; 260k postings < 2^19 = a single serial
    # task, measured 0.83 s vs 32-way parallel)
    partials = pairs.map_batches(pair_combine, batch_format="pyarrow",
                                 batch_size=None)
    return keyed_exchange(partials, ["a", "b"], pair_combine)


def pairs_from_stats(
    stats: rd.Dataset,
    *,
    threshold: float,
    mode: str = "jaccard",
) -> rd.Dataset:
    """Project a :func:`ngram_pair_stats` table to thresholded near-dup
    pairs: ``jaccard`` = i / (sa + sb - i), ``containment`` =
    i / min(sa, sb).  Pure per-block map — no shuffle, so deriving
    several reports from one materialized stats table costs only this
    projection each."""

    def finalize(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if mode == "containment":
            # near-SUBSET detection: i / min(|A|, |B|).  One float
            # division of exact ints — bit-identical across engines
            # (no accumulation, the jaccard precedent)
            df["containment"] = (df["i"]
                                 / np.minimum(df["fsa"], df["fsb"]))
            out = df[df["containment"] >= threshold]
            out = out.rename(columns={
                "a": "doc_a", "b": "doc_b", "i": "n_common",
                "fsa": "size_a", "fsb": "size_b"})
            return from_pandas_clean(
                out[["doc_a", "doc_b", "n_common", "size_a", "size_b",
                     "containment"]],
                preserve_index=False)
        df["jaccard"] = df["i"] / (df["fsa"] + df["fsb"] - df["i"])
        out = df[df["jaccard"] >= threshold]
        return from_pandas_clean(
            out.rename(columns={"a": "doc_a", "b": "doc_b"})[
                ["doc_a", "doc_b", "jaccard"]],
            preserve_index=False,
        )

    return stats.map_batches(finalize, batch_format="pyarrow")


def ngram_jaccard_pairs(
    docs: rd.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.8,
    max_df: int | None = None,
    mode: str = "jaccard",
) -> rd.Dataset:
    """All document pairs with word-``n``-gram Jaccard >= ``threshold``
    (or containment, with ``mode="containment"``) — the posting-join
    pair stats (:func:`ngram_pair_stats`, where the algorithm and the
    ``max_df`` hot-shingle caveat are documented) followed by the
    thresholding projection (:func:`pairs_from_stats`)."""
    return pairs_from_stats(
        ngram_pair_stats(docs, n=n, max_df=max_df),
        threshold=threshold, mode=mode)


def ngram_containment_pairs(
    docs: rd.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.9,
    max_df: int | None = None,
) -> rd.Dataset:
    """Document pairs where the smaller shingle set is >= ``threshold``
    contained in the other — catches doc-inside-doc duplication
    (quoted articles, appended boilerplate) that symmetric Jaccard
    misses: a short doc fully embedded in a long one has tiny Jaccard
    but containment 1.0.  Same posting-join machinery and ``max_df``
    hot-shingle guard as :func:`ngram_jaccard_pairs`."""
    return ngram_jaccard_pairs(docs, n=n, threshold=threshold,
                               max_df=max_df, mode="containment")


# ---------------------------------------------------------------------------
# 3. MinHash + LSH (approximate near-dup)

N_PERM = 64
N_BANDS = 16  # x 4 rows/band


def _minhash_params() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(1234)
    a = rng.randint(1, MERSENNE_P, size=N_PERM, dtype=np.uint64)
    b = rng.randint(0, MERSENNE_P, size=N_PERM, dtype=np.uint64)
    return a, b


def minhash_lsh_pairs(
    docs: rd.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.8,
    max_bucket: int | None = 10_000,
) -> rd.Dataset:
    """Approximate near-dup pairs: 64-perm MinHash -> 16-band LSH bucket
    groupby -> pairwise signature-estimated Jaccard >= threshold.

    The only wide shuffle moves (bucket_key, doc_id, 512-byte signature)
    rows.  Buckets are tiny except for true duplicate clusters;
    ``max_bucket`` caps the quadratic per-bucket pair loop — an
    adversarial bucket larger than the cap emits pairs only for its
    first ``max_bucket`` members (doc_id order, deterministic) and logs
    what was truncated.  A pair of genuinely near-dup documents agrees
    on many bands, so it still surfaces through a smaller bucket in
    practice."""
    A, B = _minhash_params()

    def signatures(batch: pa.Table) -> pa.Table:
        out_band, out_doc, out_sig = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            ss = list(set(_token_shingles(text or "", n)))
            if not ss:
                continue
            h = _hash64(ss)  # (S,)
            # (S, P) permuted hashes, min over shingles, vectorized
            ph = (h[:, None] * A[None, :] + B[None, :]) % MERSENNE_P
            sig = ph.min(axis=0)  # (P,) uint64
            sig_bytes = sig.tobytes()
            r = N_PERM // N_BANDS
            for band in range(N_BANDS):
                key = f"{band}:" + sig[band * r:(band + 1) * r].tobytes().hex()
                out_band.append(key)
                out_doc.append(did)
                out_sig.append(sig_bytes)
        return pa.table({
            "bucket": pa.array(out_band, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
            "sig": pa.array(out_sig, pa.binary()),
        })

    bucketed = docs.map_batches(signatures, batch_format="pyarrow")

    def block_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dup = df[df.duplicated("bucket", keep=False)]
        frames = []
        for _b, g in dup.groupby("bucket", sort=False):
            g = g.drop_duplicates("doc_id").sort_values("doc_id")
            if max_bucket is not None and len(g) > max_bucket:
                _LOG.warning(
                    "minhash_lsh_pairs: bucket %r has %d docs > "
                    "max_bucket=%d; pairing only the first %d",
                    _b, len(g), max_bucket, max_bucket)
                g = g.head(max_bucket)
            ids = g["doc_id"].to_numpy()
            if len(ids) < 2:
                continue
            sigs = np.stack([np.frombuffer(s, dtype=np.uint64)
                             for s in g["sig"]])  # (D, P)
            ii, jj = np.triu_indices(len(ids), k=1)
            est = (sigs[ii] == sigs[jj]).mean(axis=1)
            keep = est >= threshold
            frames.append(pd.DataFrame({
                "doc_a": ids[ii][keep], "doc_b": ids[jj][keep],
                "est_jaccard": est[keep]}))
        out = (pd.concat(frames, ignore_index=True) if frames
               else pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                  "doc_b": pd.Series(dtype="int64"),
                                  "est_jaccard": pd.Series(dtype="float64")}))
        return from_pandas_clean(out, preserve_index=False)

    pairs = keyed_exchange(bucketed, ["bucket"], block_pairs)

    # a pair can surface from several bands: exact distinct
    def pair_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["doc_a", "doc_b"], sort=False)[
            "est_jaccard"].min().reset_index()
        return from_pandas_clean(g, preserve_index=False)

    # batch_size=None: see ngram_pair_stats — a 2^19 coalescing batch
    # serializes the fused banding->combine stage into one task
    partials = pairs.map_batches(pair_combine, batch_format="pyarrow",
                                 batch_size=None)
    return keyed_exchange(partials, ["doc_a", "doc_b"], pair_combine)


# ---------------------------------------------------------------------------
# 4. SimHash (near-dup via Hamming distance)

SIMHASH_BITS = 64
N_CHUNKS = 4  # pigeonhole: hamming <= N_CHUNKS-1 ==> >=1 identical chunk


def _simhash(tokens: list[str]) -> int:
    if not tokens:
        return 0
    uniq, counts = np.unique(np.asarray(tokens, dtype=object),
                             return_counts=True)
    h = _hash64(list(uniq))  # (U,)
    bits = ((h[:, None] >> np.arange(SIMHASH_BITS, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int64)
    acc = ((2 * bits - 1) * counts[:, None]).sum(axis=0)
    return int(((acc > 0).astype(np.uint64)
                << np.arange(SIMHASH_BITS, dtype=np.uint64)).sum())


def simhash_pairs(
    docs: rd.Dataset,
    *,
    max_hamming: int = 3,
) -> rd.Dataset:
    """Near-dup pairs with SimHash Hamming distance <= ``max_hamming``.

    Banding by 16-bit chunks (4 chunks): any pair within distance 3 must
    agree on at least one chunk, so grouping by (chunk_idx, chunk_value)
    finds every such pair without an all-pairs scan."""

    def sigs(batch: pa.Table) -> pa.Table:
        out_key, out_doc, out_sig = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            s = _simhash((text or "").split(" ") if text else [])
            for c in range(N_CHUNKS):
                chunk = (s >> (c * 16)) & 0xFFFF
                out_key.append(f"{c}:{chunk}")
                out_doc.append(did)
                out_sig.append(s)
        return pa.table({
            "bucket": pa.array(out_key, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
            "sig": pa.array(out_sig, pa.uint64()),
        })

    bucketed = docs.map_batches(sigs, batch_format="pyarrow")

    def block_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dup = df[df.duplicated("bucket", keep=False)]
        frames = []
        for _b, g in dup.groupby("bucket", sort=False):
            g = g.drop_duplicates("doc_id").sort_values("doc_id")
            ids = g["doc_id"].to_numpy()
            if len(ids) < 2:
                continue
            s = g["sig"].to_numpy().astype(np.uint64)
            ii, jj = np.triu_indices(len(ids), k=1)
            x = s[ii] ^ s[jj]
            ham = np.zeros(len(x), dtype=np.int64)
            for _ in range(SIMHASH_BITS):  # popcount via shifts (vectorized)
                ham += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
            keep = ham <= max_hamming
            frames.append(pd.DataFrame({
                "doc_a": ids[ii][keep], "doc_b": ids[jj][keep],
                "hamming": ham[keep]}))
        out = (pd.concat(frames, ignore_index=True) if frames
               else pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                  "doc_b": pd.Series(dtype="int64"),
                                  "hamming": pd.Series(dtype="int64")}))
        return from_pandas_clean(out, preserve_index=False)

    pairs = keyed_exchange(bucketed, ["bucket"], block_pairs)

    def pair_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["doc_a", "doc_b"], sort=False)[
            "hamming"].min().reset_index()
        return from_pandas_clean(g, preserve_index=False)

    # batch_size=None: see ngram_pair_stats — a 2^19 coalescing batch
    # serializes the fused banding->combine stage into one task
    partials = pairs.map_batches(pair_combine, batch_format="pyarrow",
                                 batch_size=None)
    return keyed_exchange(partials, ["doc_a", "doc_b"], pair_combine)


# ---------------------------------------------------------------------------
# 5. embedding-cosine near-dup

#: target rows per chunk-pair bucket side; per-bucket heap is
#: ~2 x TARGET_BUCKET_ROWS x dim x 8 bytes (64 MiB at dim=64)
TARGET_BUCKET_ROWS = 65_536


def _auto_n_chunks(n_rows: int,
                   target_bucket_rows: int = TARGET_BUCKET_ROWS) -> int:
    """Pick n_chunks so each bucket side holds ~target_bucket_rows
    vectors: chunks grow linearly with the input so per-bucket heap
    stays constant; bucket count n_chunks*(n_chunks+1)/2 then grows
    quadratically, keeping parallelism ahead of the cluster."""
    return int(min(1024, max(2, -(-n_rows // target_bucket_rows))))


def embedding_dup_pairs(
    vecs: rd.Dataset,
    *,
    threshold: float = 0.45,
    n_chunks: int | None = None,
) -> rd.Dataset:
    """Pairs (a < b) with cosine similarity >= threshold — EXACT, with
    no driver-side materialization and no broadcast of the full matrix.

    Chunk-pair co-location join (distributed block-nested-loop): every
    vector is assigned ``chunk = vec_id % n_chunks`` and replicated once
    into each pair-bucket ``(min(chunk, p), max(chunk, p))``; one sort
    on the bucket key brings both chunks of a bucket into one block, and
    a vectorized per-block pass runs the bucket-local float64 matmul.
    Each unordered vector pair meets in exactly one bucket, so output is
    exact with no dedup pass.

    Scale shape: shuffle volume = n_chunks x input (the price of an
    exact all-pairs join); per-bucket memory = 2·N/n_chunks vectors, so
    n_chunks grows ~N/(worker heap); bucket count n_chunks·(n_chunks+1)/2
    must exceed target parallelism — raise n_chunks at scale (64 chunks
    = 2080 buckets).  ``n_chunks=None`` (default) auto-scales from the
    input row count via :func:`_auto_n_chunks`.  CAVEAT: count() is
    metadata-only for direct parquet reads (this module's query paths),
    but on a DERIVED dataset it executes the upstream lineage once
    before the pair pipeline runs it again — callers with transformed
    inputs should pass n_chunks explicitly (or count from their own
    source metadata).  For approximate near-dup at 100 TB use
    minhash_lsh_pairs / knn_ivf instead; exact O(N^2) cosine is the
    small-to-mid-scale tool."""
    if n_chunks is None:
        n_chunks = _auto_n_chunks(vecs.count())

    def replicate(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        X = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        chunk = ids % n_chunks
        out_bucket, out_id, out_chunk, out_vec = [], [], [], []
        for p in range(n_chunks):
            lo = np.minimum(chunk, p)
            hi = np.maximum(chunk, p)
            out_bucket.append(lo * n_chunks + hi)
            out_id.append(ids)
            out_chunk.append(chunk)
            out_vec.append(X)
        return pa.table({
            "bucket": pa.array(np.concatenate(out_bucket), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
            "chunk": pa.array(np.concatenate(out_chunk), pa.int64()),
            "embedding": pa.array(list(np.concatenate(out_vec)),
                                  pa.list_(pa.float64())),
        })

    replicated = vecs.map_batches(replicate, batch_format="pyarrow")

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out_a, out_b = [], []
        for b, g in df.groupby("bucket", sort=False):
            i, j = int(b) // n_chunks, int(b) % n_chunks
            gi = g[g["chunk"] == i]
            ids_i = gi["vec_id"].to_numpy()
            # emptiness guards run BEFORE any np.stack: an off-diagonal
            # bucket can hold only one side's rows when a vec_id residue
            # class mod n_chunks is unoccupied (sparse / filtered ids),
            # and np.stack([]) raises
            if i == j:
                if len(ids_i) < 2:
                    continue
                Xi = np.stack(gi["embedding"].to_numpy())
                sims = Xi @ Xi.T
                rr, cc = np.nonzero(sims >= threshold)
                keep = ids_i[rr] < ids_i[cc]
                a, bb = ids_i[rr][keep], ids_i[cc][keep]
            else:
                gj = g[g["chunk"] == j]
                ids_j = gj["vec_id"].to_numpy()
                if not len(ids_i) or not len(ids_j):
                    continue
                Xi = np.stack(gi["embedding"].to_numpy())
                Xj = np.stack(gj["embedding"].to_numpy())
                sims = Xi @ Xj.T
                rr, cc = np.nonzero(sims >= threshold)
                ai, bj = ids_i[rr], ids_j[cc]
                a, bb = np.minimum(ai, bj), np.maximum(ai, bj)
            out_a.append(a)
            out_b.append(bb)
        if not out_a:
            return pa.table({"vec_a": pa.array([], pa.int64()),
                             "vec_b": pa.array([], pa.int64())})
        return pa.table({
            "vec_a": pa.array(np.concatenate(out_a), pa.int64()),
            "vec_b": pa.array(np.concatenate(out_b), pa.int64()),
        })

    return keyed_exchange(replicated, ["bucket"], bucket_pairs)


# ---------------------------------------------------------------------------
# 6. duplicate clustering (connected components over near-dup pairs)

def dup_clusters(
    pairs: rd.Dataset,
    *,
    max_iters: int = 16,
    on_max_iters: str = "warn",
) -> rd.Dataset:
    """Connected components over dup pairs -> (doc_id, cluster_id) with
    ``cluster_id = min doc_id`` of the component; keep-one dedup is then
    ``doc_id == cluster_id``.

    Iterative min-label propagation with FUSED POINTER JUMPING: each
    round every node takes the min of its own label, its neighbors'
    labels and its label's label (``label(label(v))``, the classic
    pointer jump), so the remaining path length halves per round:
    rounds = O(log diameter), and ``max_iters=16`` covers diameters to
    ~2^15 even for pathological near-dup chains.

    The (doc_a, doc_b) columns are materialized once and
    ``arrowutil.driver_table`` picks the path, logged as
    ``dup_clusters``.  Fold, at or below the
    cap: the round over sorted int64 node codes on the driver, with no
    Ray Data execution per round::

        new = lab.copy()
        np.minimum.at(new, d, lab[s])
        new = np.minimum(new, lab[lab])

    Exchange, above it: labels are a Dataset (node, label), and each
    round is one ``arrowutil.attach_state`` over the edges plus one
    shortcut edge (label(v) -> v) per node whose label is not its own,
    then one ``keyed_complete`` on the receiver taking the min label.
    Each round's labels are materialized (iterative lineage
    truncation); ``keyed_complete`` coalesces each exchange to at most
    about the cluster's CPU count of blocks, so the label table's block
    count stays flat round over round.  Both paths run the same rounds,
    so their outputs are equal at every ``max_iters``, converged or not.

    If the loop exits without converging the result is WRONG (split
    clusters); per ``on_max_iters`` this logs a warning (``"warn"``) or
    raises (``"raise"``) — never silent.

    Input pairs may be any of this module's pair outputs (columns
    doc_a, doc_b); only documents appearing in a pair get a row.  Node
    ids must not be null."""
    src = pairs.select_columns(["doc_a", "doc_b"]).materialize()
    tbl = driver_table(src, op="dup_clusters", empty=pa.table(
        {c: pa.array([], pa.int64()) for c in ("doc_a", "doc_b")}))
    if tbl is not None:
        nodes, (a, b) = sorted_codes(tbl.column("doc_a").cast(pa.int64()),
                                     tbl.column("doc_b").cast(pa.int64()))
        lab = component_labels(a, b, len(nodes), max_iters, on_max_iters)
        return rd.from_arrow(pa.table({
            "doc_id": nodes, "cluster_id": nodes.take(pa.array(lab))}))
    labels, n_changed = _components_exchange(src, max_iters)
    _check_converged(n_changed, max_iters, on_max_iters)
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("node"),
                            "cluster_id": t.column("label")}),
        batch_format="pyarrow")


def component_labels(a: np.ndarray, b: np.ndarray, n: int,
                     max_iters: int = 16,
                     on_max_iters: str = "warn") -> np.ndarray:
    """:func:`dup_clusters`' fold rounds over int64 node codes: min-label
    propagation over the undirected edges (a, b) of nodes ``0..n-1`` plus
    the pointer jump, at most ``max_iters`` rounds, then
    :func:`_check_converged`.  Returns each node's label code (its
    component's min code once converged)."""
    s, d = np.concatenate([a, b]), np.concatenate([b, a])
    lab = np.arange(n)
    n_changed = 0
    for _ in range(max_iters):
        new = lab.copy()
        np.minimum.at(new, d, lab[s])
        new = np.minimum(new, lab[lab])
        n_changed = int((new != lab).sum())
        lab = new
        if n_changed == 0:
            break
    _check_converged(n_changed, max_iters, on_max_iters)
    return lab


def _check_converged(n_changed: int, max_iters: int, on_max_iters: str):
    """Warn (``"warn"``) or raise (``"raise"``) when label propagation
    ended with labels still changing: the cluster ids are split."""
    if n_changed != 0:
        msg = (f"dup_clusters: label propagation did NOT converge after "
               f"max_iters={max_iters} rounds ({n_changed} labels still "
               f"changing); cluster ids are split — raise max_iters")
        if on_max_iters == "raise":
            raise RuntimeError(msg)
        _LOG.warning(msg)


def _components_exchange(src: rd.Dataset, max_iters: int):
    """:func:`dup_clusters`' exchange rounds over the materialized pairs
    ``src``: (the materialized (node, label) Dataset, labels changed in
    the last round)."""

    def both(t: pa.Table) -> pa.Table:
        a = t.column("doc_a").cast(pa.int64()).combine_chunks()
        b = t.column("doc_b").cast(pa.int64()).combine_chunks()
        return pa.table({"node": pa.concat_arrays([a, b]),
                         "dst": pa.concat_arrays([b, a])})

    def jumps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("node"), t.column("label")))
        return pa.table({"node": t.column("label"), "dst": t.column("node")})

    mins = [("label", "min"), ("old", "min")]

    def messages(s: pa.Table, e: pa.Table) -> pa.Table:
        """Each node's own (label, old=label) row and one (dst, label,
        old=INT64_MAX) row per edge: ``old`` survives the min only from
        the node's own row."""
        return grouped_agg(pa.table({
            "node": pa.concat_arrays([s.column("node").combine_chunks(),
                                      e.column("dst").combine_chunks()]),
            "label": pa.concat_arrays([s.column("label").combine_chunks(),
                                       e.column("label").combine_chunks()]),
            "old": np.concatenate([
                s.column("label").to_numpy(),
                np.full(e.num_rows, np.iinfo(np.int64).max)])}),
            ["node"], mins)

    def fold(t: pa.Table) -> pa.Table:
        g = grouped_agg(t, ["node"], mins)
        return pa.table({"node": g.column("node"), "label": g.column("label"),
                         "changed": pc.not_equal(g.column("label"),
                                                 g.column("old"))
                         .cast(pa.int64())})

    def own(t: pa.Table) -> pa.Table:
        g = grouped_agg(t, ["node"], [])
        return g.append_column("label", g.column("node"))

    edges = src.map_batches(both, batch_format="pyarrow",
                            batch_size=COMBINE_BATCH).materialize()
    labels = keyed_complete(
        edges, ["node"], own, combine=functools.partial(
            grouped_agg, keys=["node"], aggs=[]),
        op="dup_clusters.init").materialize()
    n_changed = 0
    for _ in range(max_iters):
        folded = keyed_complete(
            attach_state(labels, edges.union(labels.map_batches(
                jumps, batch_format="pyarrow")), messages,
                op="dup_clusters.attach"),
            ["node"], fold, op="dup_clusters.fold").materialize()
        n_changed = agg_fold(
            folded.select_columns(["changed"]), [], [("changed", "sum")],
            op="dup_clusters").column("changed")[0].as_py()
        labels = folded.select_columns(["node", "label"]).materialize()
        if n_changed == 0:
            break
    return labels, n_changed


# ---------------------------------------------------------------------------
# 7. ensemble near-dup (text signal ∪ embedding signal + agreement count)


def ensemble_dup_pairs(
    docs: rd.Dataset,
    vecs: rd.Dataset,
    *,
    threshold: float = 0.8,
    cos_threshold: float = 0.45,
) -> rd.Dataset:
    """Multi-signal near-duplicate pairs: the UNION of MinHash-LSH text
    similarity (est_jaccard >= ``threshold``) and embedding cosine
    (>= ``cos_threshold``), with a per-pair agreement count — the
    recall-first fusion a curation pipeline runs before review
    (threshold ``n_signals >= 2`` downstream for the precision-first
    intersection).  ``doc_id`` and ``vec_id`` share the id space
    (synth invariant).

    Shape: each signal's pair table is already tiny (pairs, not
    corpus); the fusion is one union with a source tag, a sort on the
    composite pair key (equal pairs land whole per block), and a
    per-block distinct-signal count.  Output: (doc_a, doc_b,
    n_signals)."""

    def tag(kind: str):
        def f(batch: pa.Table) -> pa.Table:
            cols = batch.column_names
            a = batch.column("doc_a" if "doc_a" in cols else "vec_a")
            b = batch.column("doc_b" if "doc_b" in cols else "vec_b")
            return pa.table({
                "doc_a": a.cast(pa.int64()),
                "doc_b": b.cast(pa.int64()),
                "kind": pa.array([kind] * batch.num_rows, pa.string()),
            })
        return f

    def merge(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = {"doc_a": pa.array([], pa.int64()),
                 "doc_b": pa.array([], pa.int64()),
                 "n_signals": pa.array([], pa.int64())}
        if df.empty:
            return pa.table(empty)
        g = (df.groupby(["doc_a", "doc_b"], sort=False)["kind"]
             .nunique().reset_index(name="n_signals"))
        return pa.table({
            "doc_a": pa.array(np.asarray(g["doc_a"], np.int64),
                              pa.int64()),
            "doc_b": pa.array(np.asarray(g["doc_b"], np.int64),
                              pa.int64()),
            "n_signals": pa.array(np.asarray(g["n_signals"], np.int64),
                                  pa.int64()),
        })

    mh = minhash_lsh_pairs(docs, threshold=threshold).map_batches(
        tag("mh"), batch_format="pyarrow")
    em = embedding_dup_pairs(vecs, threshold=cos_threshold).map_batches(
        tag("em"), batch_format="pyarrow")
    return keyed_complete(mh.union(em), ["doc_a", "doc_b"], merge,
                          op="ensemble_dup_pairs")


def curate_neardup(
    docs: rd.Dataset,
    *,
    threshold: float = 0.8,
    max_iters: int = 16,
    on_max_iters: str = "warn",
) -> rd.Dataset:
    """The production near-dup curation flow END-TO-END: exact n-gram
    Jaccard pairs -> connected components (`dup_clusters`) -> keep one
    representative per cluster (the min doc_id), composed into one
    lazy pipeline.  A document survives iff it is in no near-dup pair
    or it is its cluster's representative.

    Output: (doc_id, n_cluster) for every SURVIVING document —
    n_cluster is the size of the near-dup cluster it represents (1 for
    documents with no near-dups), i.e. how many near-copies this row
    stands for in the curated corpus.

    Shape: the cluster table is bounded by documents-that-have-dups
    (corpus-scale in the worst case, so nothing broadcasts); survivors
    come from ONE sort on doc_id over a three-way union — doc ids
    (kind d), non-rep drop keys (kind x), per-rep cluster sizes
    (kind s, keyed by the rep's own doc_id) — the tpch_antijoin shape
    with the size attach fused into the same pass.

    ``max_iters`` / ``on_max_iters`` forward to :func:`dup_clusters`
    (set ``on_max_iters="raise"`` when a silently-split pathological
    chain must abort the curation rather than warn)."""
    cl = dup_clusters(
        ngram_jaccard_pairs(docs, threshold=threshold),
        max_iters=max_iters, on_max_iters=on_max_iters).materialize()

    def d_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64())
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({"key": ids, "n": z,
                         "kind": pa.array(["d"] * batch.num_rows,
                                          pa.string())})

    def drop_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["doc_id"] != df["cluster_id"]]
        return pa.table({
            "key": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            "n": pa.array(np.zeros(len(df), np.int64), pa.int64()),
            "kind": pa.array(["x"] * len(df), pa.string()),
        })

    def size_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("cluster_id", sort=False).size()
             .reset_index(name="n")
             .rename(columns={"cluster_id": "key"}))
        return pa.table({
            "key": pa.array(g["key"].to_numpy(), pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "kind": pa.array(["s"] * len(g), pa.string()),
        })

    # raw per-block size PARTIALS go straight into the final union —
    # the survivors sort co-locates equal keys, so summing them there
    # saves a whole extra sort+completion shuffle
    sizes = cl.map_batches(size_partials, batch_format="pyarrow",
                           batch_size=1 << 19)

    def survivors(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dropped = set(df.loc[df["kind"] == "x", "key"])
        sz = (df.loc[df["kind"] == "s"]
              .groupby("key", sort=False)["n"].sum())
        d = df[df["kind"] == "d"]
        d = d[~d["key"].isin(dropped)]
        return pa.table({
            "doc_id": pa.array(d["key"].to_numpy(), pa.int64()),
            "n_cluster": pa.array(
                d["key"].map(sz).fillna(1).to_numpy(dtype=np.int64),
                pa.int64()),
        })

    tagged = (docs.map_batches(d_rows, batch_format="pyarrow",
                               batch_size=1 << 19)
              .union(cl.map_batches(drop_rows, batch_format="pyarrow",
                                    batch_size=1 << 19))
              .union(sizes))
    return keyed_complete(tagged, ["key"], survivors, op="curate_neardup")


def _fingerprint_shingles(text: str, n: int) -> list[str]:
    """doc_fingerprints' shingle convention (textstats.py): every doc
    yields >= 1 shingle — a short doc contributes its whole text,
    INCLUDING the empty string for empty text (matches the SQL CASE
    the doc_fingerprint oracle uses)."""
    toks = (text or "").split(" ")
    if len(toks) < n:
        return [" ".join(toks)]
    return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]


def decontaminate(
    train: rd.Dataset,
    eval_docs: rd.Dataset,
    *,
    n: int = 5,
) -> rd.Dataset:
    """Benchmark decontamination: flag TRAIN documents sharing any word
    ``n``-gram shingle with the EVAL corpus — the overlap check every
    LLM data pipeline runs before training (eval-set leakage).

    Shape: the eval side (small by definition — a benchmark) reduces
    to per-batch DISTINCT md5-64 shingle hashes, folds to one driver
    set (O(eval shingles), never train data) and broadcasts via
    ``ray.put``; the train side then streams once, counting per doc
    the DISTINCT shingles present in the set — a broadcast semi-join,
    no shuffle at all.  For an eval set too big to broadcast, fall
    back to the posting-list join (`ngram_jaccard_pairs` shape).

    Hashes are md5-derived (== DuckDB ``md5_number_upper``), so the
    flagged set and hit counts are id-exact in SQL.

    Output: (doc_id, n_hits) for train docs with n_hits >= 1."""

    def eval_partial(batch: pa.Table) -> pa.Table:
        hs: set = set()
        for t in batch.column("text").to_pylist():
            hs.update(_hash64(_fingerprint_shingles(t, n)).tolist())
        return pa.table({"h": pa.array(
            np.fromiter(hs, np.uint64, len(hs)), pa.uint64())})

    fp: set = set()
    # driver fold is O(distinct eval shingles) — see docstring
    for r in eval_docs.map_batches(eval_partial, batch_format="pyarrow",
                                   batch_size=1 << 17).take_all():
        fp.add(r["h"])
    ref = ray.put(fp)

    def flag(batch: pa.Table) -> pa.Table:
        fp_ = ray.get(ref)
        ids = batch.column("doc_id").to_pylist()
        out_id, out_n = [], []
        for i, t in zip(ids, batch.column("text").to_pylist()):
            hits = len({int(h) for h in
                        _hash64(_fingerprint_shingles(t, n))} & fp_)
            if hits:
                out_id.append(i)
                out_n.append(hits)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_hits": pa.array(np.asarray(out_n, np.int64), pa.int64()),
        })

    return train.map_batches(flag, batch_format="pyarrow",
                             batch_size=1 << 17)


def shingle_novelty(docs: rd.Dataset, *, n: int = 3) -> rd.Dataset:
    """Per-document content NOVELTY: the fraction of a doc's distinct
    word-``n``-gram shingles whose FIRST owner (minimum doc_id across
    the corpus) is the doc itself — the dedup-adjacent diversity score
    a curation pass ranks by (mass-duplicated boilerplate scores ~0,
    fresh content ~10000 bp).

    ONE shuffle: the same posting explode as the Jaccard family, one
    sort on shingle (every owner of a shingle lands whole per block),
    and the per-block pass marks each posting ``novel = (doc_id ==
    min(doc_id of the shingle))`` — first-ownership is decided inside
    the block.  A second small sort completes the per-doc counts.
    All integers; novelty_bp = n_novel * 10^4 // n_shingles
    (non-negative floor).

    Output: (doc_id, n_shingles, n_novel, novelty_bp)."""

    def postings(batch: pa.Table) -> pa.Table:
        ids, shs, sizes = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            ss = set(_token_shingles(text or "", n))
            for s in ss:
                ids.append(did)
                shs.append(s)
                sizes.append(len(ss))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "shingle": pa.array(shs, pa.string()),
            "set_size": pa.array(sizes, pa.int64()),
        })

    def mark_first(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_shingles": pa.array([], pa.int64()),
                "n_novel": pa.array([], pa.int64()),
            })
        fd = (df.groupby("shingle", sort=False)["doc_id"]
              .transform("min"))
        df["novel"] = (df["doc_id"] == fd).astype(np.int64)
        g = (df.groupby("doc_id", sort=False)
             .agg(n_shingles=("set_size", "min"),
                  n_novel=("novel", "sum"))
             .reset_index())
        # n_shingles rides every posting (constant per doc); partial
        # rows for one doc from different blocks sum n_novel and keep
        # the constant via min
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "n_shingles": pa.array(
                g["n_shingles"].to_numpy(dtype=np.int64), pa.int64()),
            "n_novel": pa.array(
                g["n_novel"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_shingles": pa.array([], pa.int64()),
                "n_novel": pa.array([], pa.int64()),
                "novelty_bp": pa.array([], pa.int64()),
            })
        g = (df.groupby("doc_id", sort=False)
             .agg(n_shingles=("n_shingles", "min"),
                  n_novel=("n_novel", "sum"))
             .reset_index())
        ns = g["n_shingles"].to_numpy(dtype=np.int64)
        nv = g["n_novel"].to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "n_shingles": pa.array(ns, pa.int64()),
            "n_novel": pa.array(nv, pa.int64()),
            "novelty_bp": pa.array(nv * 10_000 // ns, pa.int64()),
        })

    posts = docs.map_batches(postings, batch_format="pyarrow")
    marked = keyed_complete(posts, ["shingle"], mark_first,
                            op="shingle_novelty.first")
    return keyed_complete(marked, ["doc_id"], complete, op="shingle_novelty")


def minhash_calibration(
    docs: rd.Dataset,
    *,
    threshold: float = 0.5,
    exact_pairs: rd.Dataset | None = None,
) -> pa.Table:
    """Calibration report for the APPROXIMATE dedup path: MinHash+LSH
    candidate pairs bucketed by their signature estimate (est_64 =
    est_jaccard * 64, an exact integer — k agreeing permutations out
    of 64) and cross-checked against the EXACT shingle-Jaccard pairs
    at the same threshold — the quality harness that tells an operator
    whether the cheap path's estimates can be trusted before running
    it over 100 TB.

    Shape: both pair pipelines run (each already oracle-checked); one
    sort-merge on the (doc_a, doc_b) composite marks candidates
    confirmed by the exact set; the driver folds O(65 x blocks)
    per-bucket partials.

    Output: pa.Table (est_64, n_candidates, n_confirmed)."""

    def mh_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # k/64 stored in float64 is exact (power-of-two divisor), so
        # round() recovers the integer match count losslessly
        est = np.rint(df["est_jaccard"].to_numpy() * 64).astype(np.int64)
        return pa.table({
            "a": pa.array(df["doc_a"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "b": pa.array(df["doc_b"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "est": pa.array(est, pa.int64()),
            "kind": pa.array(np.ones(len(df), np.int8), pa.int8()),
        })

    def ex_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        n = len(df)
        return pa.table({
            "a": pa.array(df["doc_a"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "b": pa.array(df["doc_b"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "est": pa.array(np.zeros(n, np.int64), pa.int64()),
            "kind": pa.array(np.zeros(n, np.int8), pa.int8()),
        })

    def mark(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ex = {(r.a, r.b) for r in df[df["kind"] == 0].itertuples()}
        mh = df[df["kind"] == 1]
        conf = np.asarray([(r.a, r.b) in ex for r in mh.itertuples()],
                          dtype=np.int64) if len(mh) else \
            np.array([], dtype=np.int64)
        g = (pd.DataFrame({"est": mh["est"].to_numpy(), "conf": conf,
                           "n": np.int64(1)})
             .groupby("est", sort=False)
             .agg(n_candidates=("n", "sum"),
                  n_confirmed=("conf", "sum"))
             .reset_index())
        return pa.table({
            "est": pa.array(g["est"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "n_candidates": pa.array(
                g["n_candidates"].to_numpy(dtype=np.int64), pa.int64()),
            "n_confirmed": pa.array(
                g["n_confirmed"].to_numpy(dtype=np.int64), pa.int64()),
        })

    mh = minhash_lsh_pairs(docs, threshold=threshold).map_batches(
        mh_rows, batch_format="pyarrow")
    # exact_pairs: a precomputed (materialized) exact Jaccard pair set
    # at the SAME threshold — dedup_report's shared-pairs path; the
    # default recomputes it for driver-contract independence
    if exact_pairs is None:
        exact_pairs = ngram_jaccard_pairs(docs, threshold=threshold)
    ex = exact_pairs.map_batches(ex_rows, batch_format="pyarrow")
    parts = keyed_complete(mh.union(ex), ["a", "b"], mark,
                           op="minhash_calibration")
    acc: dict[int, list[int]] = {}
    for r in parts.take_all():  # O(65 x blocks) — tiny
        x = acc.setdefault(r["est"], [0, 0])
        x[0] += r["n_candidates"]
        x[1] += r["n_confirmed"]
    ks = sorted(acc)
    return pa.table({
        "est_64": pa.array(ks, pa.int64()),
        "n_candidates": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_confirmed": pa.array([acc[k][1] for k in ks], pa.int64()),
    })


def semantic_dup_pairs(
    vecs: rd.Dataset,
    *,
    k: int = 16,
    iters: int = 5,
    threshold: float = 0.45,
    n_chunks: int = 2,
) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means cluster
    the embedding space, then run exact pairwise cosine ONLY within each
    cluster — the published recipe for semantic dedup at web scale,
    where clustering bounds the quadratic term (all-pairs cost drops
    from N^2 to sum of cluster_size^2).

    Composition of two already-oracle-verified kernels: the
    `similarity.kmeans` integer assignment (driver state = k x dim
    centroids only, broadcast via ``ray.put``) and the
    `embedding_dup_pairs` chunk-pair co-location join, with the cluster
    id prepended to the bucket key so only same-cluster vectors ever
    meet in a block.  One sort on the composite bucket; per-block
    vectorized matmul emits (vec_a, vec_b, centroid) for cosine >=
    threshold.

    Scale knobs: ``k`` is SemDeDup's own lever (grow it ~N/target
    cluster size; the paper uses 11k clusters for LAION); ``n_chunks``
    bounds per-block memory for fat clusters (bucket count =
    k * n_chunks*(n_chunks+1)/2).  Pairs that straddle clusters are
    deliberately NOT emitted — that approximation is the algorithm, and
    the SQL oracle applies the identical cluster constraint."""
    from clinicaltransformerner_ray.pipelines.similarity import kmeans

    C, _ = kmeans(vecs, k=k, iters=iters)
    ref = ray.put(C)

    def replicate(batch: pa.Table) -> pa.Table:
        C_ = ray.get(ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(),
                         dtype=np.int64)
        X = np.asarray(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        cen = np.argmax(X @ C_.T, axis=1).astype(np.int64)
        chunk = ids % n_chunks
        out_bucket, out_id, out_chunk, out_vec, out_cen = [], [], [], [], []
        for p in range(n_chunks):
            lo = np.minimum(chunk, p)
            hi = np.maximum(chunk, p)
            out_bucket.append((cen * n_chunks + lo) * n_chunks + hi)
            out_id.append(ids)
            out_chunk.append(chunk)
            out_vec.append(X)
            out_cen.append(cen)
        return pa.table({
            "bucket": pa.array(np.concatenate(out_bucket), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
            "chunk": pa.array(np.concatenate(out_chunk), pa.int64()),
            "centroid": pa.array(np.concatenate(out_cen), pa.int64()),
            "embedding": pa.array(list(np.concatenate(out_vec)),
                                  pa.list_(pa.float64())),
        })

    replicated = vecs.map_batches(replicate, batch_format="pyarrow")

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out_a, out_b, out_c = [], [], []
        for b, g in df.groupby("bucket", sort=False):
            cen = int(b) // (n_chunks * n_chunks)
            i = (int(b) // n_chunks) % n_chunks
            j = int(b) % n_chunks
            gi = g[g["chunk"] == i]
            ids_i = gi["vec_id"].to_numpy()
            if i == j:
                if len(ids_i) < 2:
                    continue
                Xi = np.stack(gi["embedding"].to_numpy())
                sims = Xi @ Xi.T
                rr, cc = np.nonzero(sims >= threshold)
                keep = ids_i[rr] < ids_i[cc]
                a, bb = ids_i[rr][keep], ids_i[cc][keep]
            else:
                gj = g[g["chunk"] == j]
                ids_j = gj["vec_id"].to_numpy()
                if not len(ids_i) or not len(ids_j):
                    continue
                Xi = np.stack(gi["embedding"].to_numpy())
                Xj = np.stack(gj["embedding"].to_numpy())
                sims = Xi @ Xj.T
                rr, cc = np.nonzero(sims >= threshold)
                a, bb = ids_i[rr], ids_j[cc]
            lo, hi = np.minimum(a, bb), np.maximum(a, bb)
            out_a.append(lo)
            out_b.append(hi)
            out_c.append(np.full(len(lo), cen, np.int64))
        if not out_a:
            z = pa.array([], pa.int64())
            return pa.table({"vec_a": z, "vec_b": z, "centroid": z})
        return pa.table({
            "vec_a": pa.array(np.concatenate(out_a), pa.int64()),
            "vec_b": pa.array(np.concatenate(out_b), pa.int64()),
            "centroid": pa.array(np.concatenate(out_c), pa.int64()),
        })

    return keyed_exchange(replicated, ["bucket"], bucket_pairs)


# ---------------------------------------------------------------------------
# 11. exact duplicated-substring coverage (Lee et al. 2022 signal)

def substring_dup_coverage(docs: rd.Dataset, *, n: int = 3) -> rd.Dataset:
    """Per-document DUPLICATED-SUBSTRING coverage: how many of a doc's
    tokens sit inside a word-``n``-gram that also appears in at least
    one OTHER document (the exact-substring dedup signal of
    "Deduplicating Training Data Makes Language Models Better" —
    positions, not just set membership, so overlapping duplicated
    n-grams merge into covered spans).

    Distributed shape (two sorts, no all-pairs join):
      1. positional postings ``(shingle, doc_id, pos)`` — every
         position, NOT deduped (vectorized: one Arrow split + flat
         numpy string concat per batch, no per-doc Python loop);
      2. sort on shingle — a shingle's owners land whole per block, so
         multi-document shingles (count of DISTINCT doc_id >= 2) are
         decided block-locally; only duplicated positions survive;
      3. union with one stats row per doc, sort on doc_id, and a
         vectorized per-block interval-union pass turns sorted dup
         positions into covered-token counts (interval [p, p+n-1]
         clipped to the doc; a short doc's single whole-text shingle
         covers all its tokens).

    Token/shingle conventions mirror the Jaccard-family SQL CTE:
    ``n_tokens = len(string_split(text, ' '))`` and docs shorter than
    ``n`` tokens contribute ONE whole-text shingle at position 1.
    All outputs are exact integers; ``dup_bp = covered * 10^4 //
    n_tokens`` (non-negative floor, n_tokens >= 1 always).

    Output: (doc_id, n_tokens, n_shingles, n_dup, covered_tokens,
    dup_bp)."""
    import pyarrow.compute as pc

    def postings(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column("text"), "")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = pc.split_pattern(texts, " ")
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = np.asarray(toks.combine_chunks().flatten().to_pylist(),
                          dtype=object)
        parent = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        # long docs: shingle at every i where i+n-1 stays in the doc
        if len(flat) >= n:
            valid = parent[:len(parent) - n + 1] == parent[n - 1:]
            sh = flat[:len(flat) - n + 1].copy()
            for j in range(1, n):
                sh = sh + " "
                sh = sh + flat[j:len(flat) - n + 1 + j]
            sel = np.flatnonzero(valid)
            long_doc = np.repeat(ids, np.maximum(counts - n + 1, 0))
            long_pos = sel - starts[parent[sel]] + 1
            long_sh = sh[sel]
        else:
            long_doc = np.empty(0, np.int64)
            long_pos = np.empty(0, np.int64)
            long_sh = np.empty(0, object)
        # short docs (< n tokens): one whole-text shingle at pos 1
        short = np.flatnonzero(counts < n)
        short_sh = np.asarray(
            [t.as_py() for t in texts.take(pa.array(short))], object
        ) if len(short) else np.empty(0, object)
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([long_doc, ids[short]]), pa.int64()),
            "pos": pa.array(
                np.concatenate([long_pos, np.ones(len(short), np.int64)]),
                pa.int64()),
            "shingle": pa.array(
                np.concatenate([long_sh, short_sh]), pa.string()),
        })

    def mark_dup(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "kind": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "n_shingles": pa.array([], pa.int64()),
            })
        nd = (df.groupby("shingle", sort=False)["doc_id"]
              .transform("nunique"))
        keep = df[nd >= 2]
        return pa.table({
            "doc_id": pa.array(keep["doc_id"].to_numpy(np.int64),
                               pa.int64()),
            "pos": pa.array(keep["pos"].to_numpy(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(keep), np.int64), pa.int64()),
            "n_tokens": pa.array(np.zeros(len(keep), np.int64),
                                 pa.int64()),
            "n_shingles": pa.array(np.zeros(len(keep), np.int64),
                                   pa.int64()),
        })

    def stats_rows(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column("text"), "")
        nt = pc.list_value_length(
            pc.split_pattern(texts, " ")).to_numpy(
                zero_copy_only=False).astype(np.int64)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "pos": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "n_shingles": pa.array(np.maximum(nt - n + 1, 1), pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "n_shingles": pa.array([], pa.int64()),
            "n_dup": pa.array([], pa.int64()),
            "covered_tokens": pa.array([], pa.int64()),
            "dup_bp": pa.array([], pa.int64()),
        })
        df = batch.to_pandas()
        if df.empty:
            return empty
        st = df[df["kind"] == 0]
        doc = st["doc_id"].to_numpy(np.int64)
        order = np.argsort(doc, kind="stable")
        doc, ntk = doc[order], st["n_tokens"].to_numpy(np.int64)[order]
        nsh = st["n_shingles"].to_numpy(np.int64)[order]
        du = df[df["kind"] == 1]
        d_id = du["doc_id"].to_numpy(np.int64)
        d_pos = du["pos"].to_numpy(np.int64)
        o2 = np.lexsort((d_pos, d_id))
        d_id, d_pos = d_id[o2], d_pos[o2]
        # interval union over sorted positions: each dup position p
        # contributes min(n, next_p - p) within its doc; the last one
        # min(n, n_tokens - p + 1)
        d_nt = ntk[np.searchsorted(doc, d_id)]
        nxt = np.empty(len(d_pos), np.int64)
        if len(d_pos):
            nxt[:-1] = np.where(d_id[:-1] == d_id[1:],
                                d_pos[1:] - d_pos[:-1],
                                d_nt[:-1] - d_pos[:-1] + 1)
            nxt[-1] = d_nt[-1] - d_pos[-1] + 1
        contrib = np.minimum(n, nxt)
        cov = np.zeros(len(doc), np.int64)
        cnt = np.zeros(len(doc), np.int64)
        at = np.searchsorted(doc, d_id)
        np.add.at(cov, at, contrib)
        np.add.at(cnt, at, 1)
        return pa.table({
            "doc_id": pa.array(doc, pa.int64()),
            "n_tokens": pa.array(ntk, pa.int64()),
            "n_shingles": pa.array(nsh, pa.int64()),
            "n_dup": pa.array(cnt, pa.int64()),
            "covered_tokens": pa.array(cov, pa.int64()),
            "dup_bp": pa.array(cov * 10_000 // ntk, pa.int64()),
        })

    posts = docs.map_batches(postings, batch_format="pyarrow")
    dup_pos = keyed_complete(posts, ["shingle"], mark_dup,
                             op="substring_dup_coverage.dups")
    stats = docs.map_batches(stats_rows, batch_format="pyarrow")
    return keyed_complete(stats.union(dup_pos), ["doc_id"], complete,
                          op="substring_dup_coverage")


# ---------------------------------------------------------------------------
# 10b. Global span dedup with corpus REWRITE (C4-style)

def span_dedup_rewrite(docs: rd.Dataset, *, w: int = 4) -> rd.Dataset:
    """C4-style global span deduplication with REWRITE (Raffel et al.
    2020 §2.2 "we discarded all but one of any three-sentence span
    occurring more than once in the data set"): cut every document
    into fixed-width ``w``-token spans (the sentence-free analog — the
    corpus has no sentence boundaries), keep only the corpus-wide
    FIRST occurrence of each distinct span text (ordered by
    ``(doc_id, span_idx)``), and rebuild each document from its
    surviving spans.  Unlike ``substring_dup_coverage`` (a statistic),
    this is the corpus TRANSFORMATION: the output text is what a
    training run would consume.

    Distributed shape (two sorts, no all-pairs, no driver state):
      1. one vectorized pass explodes ``(doc_id, span_idx, span
         text, h)`` rows — flat Arrow token split, ``np.add.reduceat``
         object-array concat at span starts (no per-doc loop);
      2. sort on the md5-derived span hash ``h`` — equal span texts
         share ``h`` so they arrive whole per block, and the global
         first occurrence is decided block-locally (groupby the TEXT,
         so a 64-bit hash collision cannot merge distinct spans);
      3. sort on ``doc_id`` (whole-doc-per-block invariant) and a
         vectorized per-block rebuild: kept spans re-joined in
         ``span_idx`` order via one more ``reduceat``.

    Tokens are ``split(' ')`` WITHOUT dropping ``''`` artifacts, so
    the surviving text is an exact character-span subset of the input
    (an empty doc yields one empty span).  The trailing partial span
    is kept as its own (shorter) span, mirroring the SQL replica's
    ``list_slice``.  All counts exact integers.

    Output: (doc_id, n_spans, n_kept, new_text) — one row per doc;
    a doc whose every span is a repeat survives with ``new_text=''``.
    """
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "ci": pa.array([], pa.int64()),
                "span": pa.array([], pa.string()),
                "h": pa.array([], pa.int64()),
            })
        texts = pc.fill_null(batch.column("text"), "")
        toks = pc.split_pattern(texts, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
        m = batch.num_rows
        counts = np.bincount(parent, minlength=m)  # >= 1 per doc
        doc_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(len(flat)) - doc_start[parent]
        cs = np.flatnonzero(pos % w == 0)          # span starts
        joined = np.add.reduceat(flat + " ", cs)
        spans = [s[:-1] for s in joined]           # drop the pad space
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[parent[cs]], pa.int64()),
            "ci": pa.array(pos[cs] // w, pa.int64()),
            "span": pa.array(spans, pa.string()),
            # int64 view of the uint64 md5 hash (sort key; ties on the
            # TEXT are resolved in mark_keep so collisions are safe)
            "h": pa.array(_hash64(spans).view(np.int64), pa.int64()),
        })

    def mark_keep(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["span", "doc_id", "ci"], kind="mergesort")
        keep = ~df["span"].duplicated().to_numpy()
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64),
                               pa.int64()),
            "ci": pa.array(df["ci"].to_numpy(np.int64), pa.int64()),
            "span": pa.array(df["span"].tolist(), pa.string()),
            "keep": pa.array(keep, pa.bool_()),
        })

    def rebuild(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_spans": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "new_text": pa.array([], pa.string()),
        })
        if batch.num_rows == 0:
            return empty
        df = batch.to_pandas().sort_values(["doc_id", "ci"],
                                           kind="mergesort")
        ids = df["doc_id"].to_numpy(np.int64)
        uids, starts, n_spans = np.unique(ids, return_index=True,
                                          return_counts=True)
        keep = df["keep"].to_numpy(bool)
        n_kept = np.add.reduceat(keep.astype(np.int64), starts)
        kdf = df[keep]
        texts = np.full(len(uids), "", dtype=object)
        if len(kdf):
            kids = kdf["doc_id"].to_numpy(np.int64)
            kspans = np.asarray(kdf["span"].tolist(), dtype=object)
            kstarts = np.flatnonzero(
                np.concatenate(([True], kids[1:] != kids[:-1])))
            jt = np.add.reduceat(kspans + " ", kstarts)
            texts[np.searchsorted(uids, kids[kstarts])] = [
                s[:-1] for s in jt]
        return pa.table({
            "doc_id": pa.array(uids, pa.int64()),
            "n_spans": pa.array(n_spans.astype(np.int64), pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
            "new_text": pa.array(texts.tolist(), pa.string()),
        })

    spans = docs.map_batches(explode, batch_format="pyarrow")
    kept = keyed_complete(spans, ["h"], mark_keep,
                          op="span_dedup_rewrite.keep")
    return keyed_complete(kept, ["doc_id"], rebuild, op="span_dedup_rewrite")


# ---------------------------------------------------------------------------
# 11. Shared-pairs dedup report (VERDICT r04 item 5)

def dedup_report(
    docs: rd.Dataset,
    *,
    n: int = 3,
    jaccard_threshold: float = 0.8,
    containment_threshold: float = 0.9,
) -> rd.Dataset:
    """ONE corpus pass for the whole dedup analytics trio: the shingle
    posting join runs ONCE (:func:`ngram_pair_stats`, materialized —
    it feeds two projections and Ray does no CSE), the thresholded
    Jaccard pair graph is materialized once more (it feeds BOTH the
    clustering coefficients and the calibration confirm side), and
    containment + clustering + calibration are derived from those
    shared tables.  The per-metric query entries re-run the join each
    because the driver contract requires independent queries; a
    production run uses this.

    Output (long format, all-integer): one row per finding with a
    ``section`` discriminator —
      section='containment': k1=doc_a, k2=doc_b,
          v1=n_common, v2=size_a, v3=size_b
      section='clustering':  k1=doc_id, k2=0,
          v1=n_triangles, v2=degree, v3=coeff_bp
      section='calibration': k1=est_64, k2=0,
          v1=n_candidates, v2=n_confirmed, v3=0
    sorted by (section, k1, k2) for deterministic comparison."""
    from clinicaltransformerner_ray.pipelines.graph import (
        clustering_coefficients)

    stats = ngram_pair_stats(docs, n=n).materialize()
    jacc = pairs_from_stats(
        stats, threshold=jaccard_threshold).materialize()
    cont = pairs_from_stats(stats, threshold=containment_threshold,
                            mode="containment")
    cc = clustering_coefficients(jacc, out_col="doc_id")
    cal = minhash_calibration(docs, threshold=jaccard_threshold,
                              exact_pairs=jacc)

    def _long(section: str, cols: tuple[str, str | None, str, str,
                                        str | None]):
        k1c, k2c, v1c, v2c, v3c = cols

        def f(batch: pa.Table) -> pa.Table:
            m = batch.num_rows
            zero = pa.array(np.zeros(m, np.int64), pa.int64())
            return pa.table({
                "section": pa.array([section] * m, pa.string()),
                "k1": batch.column(k1c).cast(pa.int64()),
                "k2": (batch.column(k2c).cast(pa.int64())
                       if k2c else zero),
                "v1": batch.column(v1c).cast(pa.int64()),
                "v2": batch.column(v2c).cast(pa.int64()),
                "v3": (batch.column(v3c).cast(pa.int64())
                       if v3c else zero),
            })

        return f

    cont_rows = cont.map_batches(
        _long("containment",
              ("doc_a", "doc_b", "n_common", "size_a", "size_b")),
        batch_format="pyarrow")
    cc_rows = cc.map_batches(
        _long("clustering",
              ("doc_id", None, "n_triangles", "degree", "coeff_bp")),
        batch_format="pyarrow")
    cal_rows = rd.from_arrow(
        _long("calibration",
              ("est_64", None, "n_candidates", "n_confirmed", None))(cal))
    return keyed_complete(cont_rows.union(cc_rows).union(cal_rows),
                          ["section", "k1", "k2"], lambda t: t,
                          op="dedup_report")


# ---------------------------------------------------------------------------
# 12. winnowing fingerprints (Schleimer et al. 2003, the MOSS selector)

def winnow_fingerprints(docs: rd.Dataset, *, n: int = 3,
                        w: int = 4) -> rd.Dataset:
    """Winnowing fingerprint selection: over each document's word
    ``n``-gram hash sequence, every length-``w`` window records its
    MINIMUM hash (rightmost occurrence on ties — the robust-winnowing
    tiebreak), and the document's fingerprint set is the distinct
    selected (position, hash) pairs.  Guarantees a match for any
    shared run of >= ``w + n - 1`` words while keeping ~2/(w+1)
    density — the local-document-dedup selector of "Winnowing: Local
    Algorithms for Document Fingerprinting" (Schleimer, Wilkerson,
    Aiken, SIGMOD 2003).

    Scale shape: ONE ``map_batches`` pass, zero wide ops — selection
    is per-document, and docs arrive whole per batch.  The per-batch
    kernel is fully vectorized: one Arrow split, flat numpy n-gram
    concat (no per-doc loop), a single padded sliding-window min over
    the whole batch (``w - 1`` INT64_MAX sentinels between docs make
    partial prefix windows fall out of the same pass).

    The rightmost-min tiebreak is encoded arithmetically: the window
    minimizes ``comp = hr * 2^32 + (2^31 - pos)`` where
    ``hr = md5_64(shingle) % 2^20`` — smaller hash wins, then larger
    position.  All-integer, bit-replicable in SQL (md5_number_upper +
    a windowed MIN; see the `doc_winnowing` oracle).

    Shingle conventions mirror the Jaccard/substring family: docs
    shorter than ``n`` tokens contribute ONE whole-text shingle at
    position 1; a doc with fewer than ``w`` shingles yields one
    window over all of them.

    Output: (doc_id, n_shingles, n_windows, n_fingerprints, fp_sum)
    where fp_sum is the int64 sum of selected hashes over the
    distinct (position, hash) pairs."""
    def per_batch(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_shingles": pa.array([], pa.int64()),
            "n_windows": pa.array([], pa.int64()),
            "n_fingerprints": pa.array([], pa.int64()),
            "fp_sum": pa.array([], pa.int64()),
        })
        if batch.num_rows == 0:
            return empty
        ids, nsh, df = _winnow_select(batch, n, w)
        df["hr"] = df["c"].to_numpy() >> 32
        g = (df.groupby("r", sort=True)
             .agg(n_fingerprints=("c", "size"), fp_sum=("hr", "sum"))
             .reset_index())
        r = g["r"].to_numpy(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[r], pa.int64()),
            "n_shingles": pa.array(nsh[r], pa.int64()),
            "n_windows": pa.array(np.maximum(nsh[r] - w + 1, 1),
                                  pa.int64()),
            "n_fingerprints": pa.array(
                g["n_fingerprints"].to_numpy(np.int64), pa.int64()),
            "fp_sum": pa.array(g["fp_sum"].to_numpy(np.int64),
                               pa.int64()),
        })

    return docs.map_batches(per_batch, batch_format="pyarrow")


_WINNOW_HR_MOD = np.uint64(1 << 20)
_WINNOW_POS_BASE = np.int64(1) << 31
_WINNOW_SENTINEL = np.iinfo(np.int64).max


def _winnow_select(batch: pa.Table, n: int, w: int):
    """Shared winnowing selection kernel (see
    :func:`winnow_fingerprints` for the algorithm): returns
    ``(ids, nsh, df)`` — per-row doc ids, shingles-per-row, and the
    DISTINCT selected fingerprints as a DataFrame with columns ``r``
    (batch row index) and ``c`` (the composite
    ``(md5 % 2^20) * 2^32 + (2^31 - pos)``)."""
    import pyarrow.compute as pc

    HR_MOD = _WINNOW_HR_MOD
    POS_BASE = _WINNOW_POS_BASE
    SENTINEL = _WINNOW_SENTINEL
    texts = pc.fill_null(batch.column("text"), "")
    ids = batch.column("doc_id").to_numpy(
        zero_copy_only=False).astype(np.int64)
    toks = pc.split_pattern(texts, " ")
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = np.asarray(toks.combine_chunks().flatten().to_pylist(),
                      dtype=object)
    parent = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
    tok_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    # shingle strings + (doc row index, position), in doc order
    if len(flat) >= n:
        valid = parent[:len(parent) - n + 1] == parent[n - 1:]
        sh = flat[:len(flat) - n + 1].copy()
        for j in range(1, n):
            sh = sh + " "
            sh = sh + flat[j:len(flat) - n + 1 + j]
        sel = np.flatnonzero(valid)
        long_row = parent[sel]
        long_pos = sel - tok_starts[long_row] + 1
        long_sh = sh[sel]
    else:
        long_row = np.empty(0, np.int64)
        long_pos = np.empty(0, np.int64)
        long_sh = np.empty(0, object)
    short = np.flatnonzero(counts < n)
    short_sh = np.asarray(
        [t.as_py() for t in texts.take(pa.array(short))], object
    ) if len(short) else np.empty(0, object)
    # interleave back into per-doc contiguous order: long docs'
    # shingles are already doc-ordered; short docs' singletons
    # must slot at their doc's place — concatenate then argsort
    # on (row, pos) with a stable sort (counts are small ints).
    row = np.concatenate([long_row, short])
    pos = np.concatenate([long_pos, np.ones(len(short), np.int64)])
    sh_all = np.concatenate([long_sh, short_sh])
    order = np.lexsort((pos, row))
    row, pos, sh_all = row[order], pos[order], sh_all[order]

    nsh = np.maximum(counts - n + 1, 1)  # shingles per doc row
    hr = (_hash64(list(sh_all)) % HR_MOD).astype(np.int64)
    comp = hr * (np.int64(1) << 32) + (POS_BASE - pos)

    # padded layout: w-1 sentinels before each doc's shingle run
    pad_starts = np.concatenate(
        ([0], np.cumsum(nsh + (w - 1))))[:-1]
    total = int(np.sum(nsh + (w - 1)))
    padded = np.full(total, SENTINEL, np.int64)
    within = (np.arange(len(row), dtype=np.int64)
              - np.concatenate(([0], np.cumsum(nsh)))[:-1][row])
    flat_idx = pad_starts[row] + (w - 1) + within
    padded[flat_idx] = comp
    # window ending at padded index k covers [k-w+1, k]
    wmin = np.lib.stride_tricks.sliding_window_view(
        padded, w).min(axis=1)  # index k -> window END k + w - 1
    # valid ends per doc: local 1-based pos e >= min(w, nsh)
    lo = np.minimum(np.int64(w), nsh)
    keep = pos >= lo[row]
    end_idx = flat_idx[keep] - (w - 1)
    sel_row = row[keep]
    sel_comp = wmin[end_idx]
    # distinct (doc, comp): comp encodes (hash, position)
    df = pd.DataFrame({"r": sel_row, "c": sel_comp}) \
        .drop_duplicates()
    return ids, nsh, df


def winnow_pairs(docs: rd.Dataset, *, n: int = 3, w: int = 4,
                 min_shared: int = 3,
                 max_bucket: int | None = 10_000) -> rd.Dataset:
    """Near-dup CANDIDATE pairs from shared winnowing fingerprints —
    how MOSS actually matches documents, and the scale argument for
    the selector: the posting table carries only ~2/(w+1) of the
    full shingle postings for the same >= ``w + n - 1``-word-run
    guarantee, so the pair-join shuffle is ~3x smaller at w=4 than
    the ngram_pair_stats equivalent.

    Shape (the MinHash-band pattern): per-batch winnow selection
    (block-local, zero wide ops) -> distinct (hash, doc) postings ->
    ONE sort on the hash -> per-block per-hash pair emission (buckets
    are tiny; a hash shared by more than ``max_bucket`` docs raises
    ValueError rather than truncating its pairs) ->
    pre-sort pair-count combine -> ONE sort on the pair -> exact
    shared-fingerprint counts, thresholded at ``min_shared``.

    Position is dropped from the fingerprint identity here (MOSS
    matches on hash SETS); the hash space is the same
    ``md5 % 2^20`` as :func:`winnow_fingerprints`, so the oracle
    shares the selection CTE.

    Output: (doc_a, doc_b, n_shared) with n_shared >= min_shared."""

    def postings(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            z = pa.array([], pa.int64())
            return pa.table({"hr": z, "doc_id": z})
        ids, _nsh, df = _winnow_select(batch, n, w)
        df["hr"] = df["c"].to_numpy() >> 32
        # hash-SET identity: distinct (doc, hr)
        d = df[["r", "hr"]].drop_duplicates()
        return pa.table({
            "hr": pa.array(d["hr"].to_numpy(np.int64), pa.int64()),
            "doc_id": pa.array(ids[d["r"].to_numpy(np.int64)],
                               pa.int64()),
        })

    def block_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dup = df[df.duplicated("hr", keep=False)]
        out_a, out_b = [], []
        for h, g in dup.groupby("hr", sort=False):
            ids = np.sort(g["doc_id"].to_numpy(np.int64))
            if max_bucket is not None and len(ids) > max_bucket:
                raise ValueError(
                    f"winnow_pairs: hash {h} is shared by {len(ids)} "
                    f"docs, more than max_bucket={max_bucket}; pairing "
                    "only some of them would drop candidate pairs "
                    "silently")
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ii])
            out_b.append(ids[jj])
        if not out_a:
            z = pa.array([], pa.int64())
            return pa.table({"doc_a": z, "doc_b": z, "n_shared": z})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        return pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            "n_shared": pa.array(np.ones(len(a), np.int64),
                                 pa.int64()),
        })

    def pair_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["doc_a", "doc_b"], sort=False)["n_shared"]
             .sum().reset_index())
        return pa.table({
            "doc_a": pa.array(g["doc_a"].to_numpy(np.int64),
                              pa.int64()),
            "doc_b": pa.array(g["doc_b"].to_numpy(np.int64),
                              pa.int64()),
            "n_shared": pa.array(g["n_shared"].to_numpy(np.int64),
                                 pa.int64()),
        })

    def finalize(batch: pa.Table) -> pa.Table:
        t = pair_combine(batch)
        keep = pa.compute.greater_equal(t.column("n_shared"),
                                        min_shared)
        return t.filter(keep)

    post = docs.map_batches(postings, batch_format="pyarrow")
    pairs = keyed_exchange(post, ["hr"], block_pairs)
    partials = pairs.map_batches(pair_combine, batch_format="pyarrow",
                                 batch_size=None)
    return keyed_exchange(partials, ["doc_a", "doc_b"], finalize)


def source_losses(docs: rd.Dataset, *,
                  threshold: float = 0.8) -> pa.Table:
    """Near-dup curation survivorship BY SOURCE: after
    :func:`curate_neardup`, which sources lose the most documents —
    the data-card slice that tells a corpus mix which domains carry
    the duplicated boilerplate (a source whose docs are mostly
    represented by another source's survivors is pure redundancy).

    Shape: curate_neardup's own pipeline (posting join + pointer-
    jumping CC + one survivor sort), then ONE more doc_id sort-merge
    that attaches each doc's source to its survivor row, with
    bounded per-source integer partials folded on the driver.

    Output pa.Table (source, n_docs, n_survivors, n_dropped,
    n_represented), sorted by source — n_represented sums survivors'
    cluster sizes (how many corpus docs this source's survivors stand
    for)."""
    docs = docs.materialize()  # feeds curation AND the source side
    sur = curate_neardup(docs, threshold=threshold)

    def d_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "kind": pa.array(np.zeros(batch.num_rows, np.int64),
                             pa.int64()),
            "n_cluster": pa.array(np.zeros(batch.num_rows, np.int64),
                                  pa.int64()),
            "source": batch.column("source"),
        })

    def s_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "kind": pa.array(np.ones(batch.num_rows, np.int64),
                             pa.int64()),
            "n_cluster": batch.column("n_cluster").cast(pa.int64()),
            "source": pa.array([""] * batch.num_rows, pa.string()),
        })

    def per_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        empty = pa.table({
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_survivors": pa.array([], pa.int64()),
            "n_represented": pa.array([], pa.int64()),
        })
        d = df[df["kind"] == 0]
        if d.empty:
            return empty
        s = df[df["kind"] == 1][["doc_id", "n_cluster"]]
        j = pd.merge(d[["doc_id", "source"]], s, on="doc_id",
                     how="left")
        j["surv"] = j["n_cluster"].notna().astype(np.int64)
        j["rep"] = j["n_cluster"].fillna(0).astype(np.int64)
        g = (j.groupby("source", sort=False)
             .agg(n_docs=("doc_id", "size"),
                  n_survivors=("surv", "sum"),
                  n_represented=("rep", "sum"))
             .reset_index())
        return pa.table({
            "source": pa.array(g["source"].tolist(), pa.string()),
            "n_docs": pa.array(g["n_docs"].to_numpy(np.int64),
                               pa.int64()),
            "n_survivors": pa.array(
                g["n_survivors"].to_numpy(np.int64), pa.int64()),
            "n_represented": pa.array(
                g["n_represented"].to_numpy(np.int64), pa.int64()),
        })

    unioned = keyed_complete(
        docs.map_batches(d_rows, batch_format="pyarrow")
        .union(sur.map_batches(s_rows, batch_format="pyarrow")),
        ["doc_id"], per_block, op="source_losses")
    acc: dict[str, list] = {}
    for r in unioned.take_all():  # O(blocks x sources) — bounded
        a = acc.setdefault(r["source"], [0, 0, 0])
        a[0] += int(r["n_docs"])
        a[1] += int(r["n_survivors"])
        a[2] += int(r["n_represented"])
    ks = sorted(acc)
    return pa.table({
        "source": pa.array(ks, pa.string()),
        "n_docs": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_survivors": pa.array([acc[k][1] for k in ks], pa.int64()),
        "n_dropped": pa.array([acc[k][0] - acc[k][1] for k in ks],
                              pa.int64()),
        "n_represented": pa.array([acc[k][2] for k in ks],
                                  pa.int64()),
    })


def coverage_select(docs: rd.Dataset, *, n: int = 3,
                    k: int = 5) -> pa.Table:
    """Greedy maximum-coverage data selection (the facility-location
    coreset greedy of submodular data-subset selection, e.g.
    Mirzasoleiman et al.): pick ``k`` documents one at a time, each
    maximizing the number of NEW word-``n``-gram shingle hashes it
    adds to the covered set (ties -> smaller doc_id).  The classic
    1-1/e-approximate diverse-subset selector — the "which k docs
    summarize the corpus" primitive of data pruning.

    Scale shape: the distinct (doc, shingle-hash) postings build
    once and sort ONCE on doc_id (each doc's postings land whole per
    block); every greedy round is then a single ``map_batches`` pass
    that computes exact per-doc marginal gains against the broadcast
    covered-hash set and emits only each block's LOCAL best
    (gain DESC, doc_id ASC) — the driver picks among O(blocks)
    candidates and fetches the winner's hashes with a distributed
    filter.  Driver state = covered hashes of <= k docs, never the
    corpus.  Shingle/hash conventions are the Jaccard family's
    (md5-64, whole-text shingle for short docs), so the SQL replica
    unrolls the identical k rounds.

    Output pa.Table (rank, doc_id, gain, covered_total), rank
    1-based."""
    import ray

    def postings(batch: pa.Table) -> pa.Table:
        out_d, out_h = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            ss = set(_token_shingles(text or "", n))
            if not ss:
                continue
            hs = _hash64(sorted(ss))
            out_d.extend([did] * len(hs))
            out_h.extend(hs.tolist())
        return pa.table({
            "doc_id": pa.array(out_d, pa.int64()),
            "h": pa.array(np.asarray(out_h, np.uint64), pa.uint64()),
        })

    post = keyed_complete(docs.map_batches(postings, batch_format="pyarrow"),
                          ["doc_id"], lambda t: t,
                          op="coverage_select").materialize()

    order = [("gain", "descending"), ("doc_id", "ascending")]
    covered: set = set()
    chosen: list[tuple] = []
    for _round in range(k):
        cref = ray.put((covered, {d for _, d, _, _ in chosen}))

        def local_best(batch: pa.Table) -> pa.Table:
            cov, sel = ray.get(cref)
            df = batch.to_pandas()
            df = df[~df["doc_id"].isin(sel)]
            new = pa.table({
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64),
                                   pa.int64()),
                "gain": pa.array((~df["h"].isin(cov)).to_numpy(np.int64),
                                 pa.int64()),
            })
            return grouped_topk(grouped_agg(new, ["doc_id"],
                                            [("gain", "sum")]),
                                [], order, 1)

        best = topk_complete(post.map_batches(
            local_best, batch_format="pyarrow", batch_size=None),
            [], order, 1)
        if not best.num_rows:
            break
        win, gain = (best.column("doc_id")[0].as_py(),
                     best.column("gain")[0].as_py())

        def win_rows(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(
                zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(ids == win))

        for r in post.map_batches(win_rows,
                                  batch_format="pyarrow").take_all():
            covered.add(r["h"])
        chosen.append((len(chosen) + 1, win, gain, len(covered)))

    return pa.table({
        "rank": pa.array([c[0] for c in chosen], pa.int64()),
        "doc_id": pa.array([c[1] for c in chosen], pa.int64()),
        "gain": pa.array([c[2] for c in chosen], pa.int64()),
        "covered_total": pa.array([c[3] for c in chosen],
                                  pa.int64()),
    })
