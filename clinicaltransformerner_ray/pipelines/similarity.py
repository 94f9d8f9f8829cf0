"""Similarity search over an embedding column (`embeddings` table).

  knn_bruteforce   exact cosine top-k: blocked matmul of every batch
                   against a small broadcast query matrix, per-batch
                   partial top-k, one sort on query_id to rank
  knn_ivf          IVF-style approximate top-k: vectors bucketed by
                   nearest coarse centroid; queries probe only the
                   ``n_probe`` closest buckets

Scale shape: the data side streams — no stage holds the full vector
set.  The query matrix (and the centroid table) is the broadcast small
side, shipped once per actor via ``ray.put``.  All float math is
float64 so rankings are reproducible across backends.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.arrowutil import (
    agg_fold, cogroup, grouped_agg, grouped_topk, keyed_exchange,
    topk_complete, typed_map)

import ray
import ray.data as rd


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids, X = _batch_matrix_raw(batch)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return ids, X


def _batch_matrix_raw(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """UNnormalized batch matrix (embedding_outliers wants raw
    magnitudes; the stored float32 values cast to float64 read the
    same bits on both engines)."""
    ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
    X = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
    return ids, X


def _query_table(vecs: rd.Dataset, n_queries: int
                 ) -> tuple[np.ndarray, np.ndarray, pa.Table]:
    """Deterministic query set: the vectors with vec_id < n_queries,
    sorted by vec_id, as RAW (ids, X) plus the filtered table (callers
    normalize, or read ``label`` from it).

    The predicate is applied DISTRIBUTED (per-batch pyarrow filter under
    streaming execution), so only the handful of matching rows ever
    reach the driver — the data side never materializes."""
    small = vecs.map_batches(
        lambda b: b.filter(pc.less(b.column("vec_id"), n_queries)),
        batch_format="pyarrow",
    )
    t = pa.concat_tables(list(small.iter_batches(
        batch_format="pyarrow", batch_size=None))).sort_by("vec_id")
    ids, X = _batch_matrix_raw(t)
    return ids, X, t


def load_queries(vecs: rd.Dataset, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_query_table`'s (ids, X) with every row L2-normalized."""
    ids, X, _ = _query_table(vecs, n_queries)
    return ids, X / np.linalg.norm(X, axis=1, keepdims=True)


_NEIGHBOR_ORDER = [("sim", "descending"), ("neighbor_id", "ascending")]


def _per_query_topk(vecs: rd.Dataset, k: int, score) -> rd.Dataset:
    """The per-query top-k shape every query-set search here shares.
    ``score(batch)`` returns ``(qids, ids, S, keep)``: the batch's
    (B, nq) score matrix and a mask of the (vector, query) pairs that
    may match.  Each batch emits its kept pairs as one long
    (query_id, neighbor_id, sim) table cut to the per-query top-k (so
    the shuffle moves <= k rows per (query, batch)); one
    ``topk_complete`` keyed on query_id then ranks each query's
    candidates (a driver fold under the cap: a few query ids give a
    range sort nothing to spread).  The cut and the rank
    use the same total order (sim desc, neighbor_id asc), so a tie at
    the k boundary never drops a lower-id candidate the global top-k
    keeps.  ``n_queries`` can be a table, not a constant: nothing runs
    per group.

    Output: (query_id, neighbor_id, rank), rank 1-based."""

    def query_pairs(batch: pa.Table) -> pa.Table:
        qids, ids, S, keep = score(batch)
        b, q = np.nonzero(keep)
        return grouped_topk(pa.table({
            "query_id": pa.array(qids[q], pa.int64()),
            "neighbor_id": pa.array(ids[b], pa.int64()),
            "sim": pa.array(S[b, q], pa.float64()),
        }), ["query_id"], _NEIGHBOR_ORDER, k)

    # 2^14-row batches: the completion sees few blocks of k * nq rows
    # each, while a large table still scores in parallel tasks
    return topk_complete(
        vecs.map_batches(query_pairs, batch_format="pyarrow",
                         batch_size=1 << 14),
        ["query_id"], _NEIGHBOR_ORDER, k, rank="rank",
    ).drop_columns(["sim"])


def knn_bruteforce(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
) -> rd.Dataset:
    """Exact top-k cosine neighbors for each query vector.

    map_batches computes (B, nq) similarities and keeps only each
    query's batch-local top-k (so the shuffle moves k*nq rows per batch,
    not B*nq); one sort on query_id ranks the tiny candidate set
    (:func:`_per_query_topk`).  Self-matches excluded.  Ties break
    (sim desc, vec_id asc).

    Output: (query_id, neighbor_id, rank) with rank 1-based."""
    qids, Q = load_queries(vecs, n_queries)
    qref = ray.put((qids, Q))

    def score(batch: pa.Table):
        qids_, Q_ = ray.get(qref)
        ids, X = _batch_matrix(batch)
        return qids_, ids, X @ Q_.T, ids[:, None] != qids_[None, :]

    return _per_query_topk(vecs, k, score)


def hard_negatives(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
) -> rd.Dataset:
    """Hard-negative mining for contrastive training: for each query
    vector, the exact top-k most-COSINE-SIMILAR vectors whose ``label``
    DIFFERS from the query's — the highest-loss negatives a contrastive
    batch builder wants (DPR / SimCSE style: random negatives are too
    easy; the near-miss wrong-label neighbors carry the gradient).

    Same scale shape as :func:`knn_bruteforce`: the query matrix (plus
    its labels) is the broadcast small side via ``ray.put``; the data
    side streams in blocked matmuls keeping only a per-batch per-query
    top-k, so the shuffle moves <= k*n_queries rows per batch.  Rank
    output only (the `ann_topk` precedent: float sims order-stable on
    both engines); ties break (sim desc, neighbor_id asc).

    Output: (query_id, neighbor_id, rank) with rank 1-based.
    """
    qids, Q, qt = _query_table(vecs, n_queries)
    qlab = np.asarray(qt.column("label").to_pylist(), dtype=np.int64)
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    qref = ray.put((qids, qlab, Q))

    def score(batch: pa.Table):
        qids_, qlab_, Q_ = ray.get(qref)
        ids, X = _batch_matrix(batch)
        labels = np.asarray(batch.column("label").to_pylist(),
                            dtype=np.int64)
        # negatives only (self excluded: same label)
        return qids_, ids, X @ Q_.T, labels[:, None] != qlab_[None, :]

    return _per_query_topk(vecs, k, score)


# ---------------------------------------------------------------------------
# IVF (approximate)

def build_centroids(vecs: rd.Dataset, n_centroids: int = 16) -> np.ndarray:
    """Deterministic coarse centroids: one averaging pass over vectors
    seeded by ``vec_id % n_centroids`` assignment (a k-means step with a
    deterministic init — enough structure for bucket pruning)."""

    def partial_sums(batch: pa.Table) -> pa.Table:
        ids, X = _batch_matrix(batch)
        assign = ids % n_centroids
        out_c, out_v, out_n = [], [], []
        for c in range(n_centroids):
            m = assign == c
            if m.any():
                out_c.append(c)
                out_v.append(X[m].sum(axis=0).tolist())
                out_n.append(int(m.sum()))
        return pa.table({
            "centroid": pa.array(out_c, pa.int64()),
            "vsum": pa.array(out_v, pa.list_(pa.float64())),
            "n": pa.array(out_n, pa.int64()),
        })

    rows = vecs.map_batches(partial_sums, batch_format="pyarrow").take_all()
    dim = len(rows[0]["vsum"])
    sums = np.zeros((n_centroids, dim))
    counts = np.zeros(n_centroids)
    for r in rows:
        sums[r["centroid"]] += np.asarray(r["vsum"])
        counts[r["centroid"]] += r["n"]
    counts[counts == 0] = 1.0
    C = sums / counts[:, None]
    C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
    return C


def kmeans(
    vecs: rd.Dataset,
    *,
    k: int = 16,
    iters: int = 5,
) -> tuple[np.ndarray, rd.Dataset]:
    """Deterministic spherical k-means (Lloyd's) over the embedding
    column — the multi-iteration upgrade of build_centroids' single
    averaging step, and the real IVF training path at scale.

    Each iteration: centroids broadcast via ``ray.put`` (k x dim —
    tiny), every batch assigns its vectors by max cosine and emits
    per-centroid partial sums (the combiner), and the k-row reduction
    finalizes on the driver.  The data side streams every iteration;
    nothing driver-side ever exceeds k x dim.

    Returns (centroids, assignments Dataset of (vec_id, centroid))."""
    C = build_centroids(vecs, k)  # deterministic init (vec_id % k)

    for _ in range(iters):
        ref = ray.put(C)

        def partial_sums(batch: pa.Table) -> pa.Table:
            C_ = ray.get(ref)
            ids, X = _batch_matrix(batch)
            assign = np.argmax(X @ C_.T, axis=1)
            out_c, out_v, out_n = [], [], []
            for c in np.unique(assign):
                m = assign == c
                out_c.append(int(c))
                out_v.append(X[m].sum(axis=0).tolist())
                out_n.append(int(m.sum()))
            return pa.table({
                "centroid": pa.array(out_c, pa.int64()),
                "vsum": pa.array(out_v, pa.list_(pa.float64())),
                "n": pa.array(out_n, pa.int64()),
            })

        rows = vecs.map_batches(partial_sums,
                                batch_format="pyarrow").take_all()
        dim = C.shape[1]
        sums = np.zeros((k, dim))
        counts = np.zeros(k)
        for r in rows:
            sums[r["centroid"]] += np.asarray(r["vsum"])
            counts[r["centroid"]] += r["n"]
        # empty centroids keep their previous position (deterministic)
        newC = C.copy()
        nz = counts > 0
        newC[nz] = sums[nz] / counts[nz, None]
        newC = newC / np.maximum(
            np.linalg.norm(newC, axis=1, keepdims=True), 1e-12)
        if np.allclose(newC, C, atol=1e-12):
            C = newC
            break
        C = newC

    ref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        C_ = ray.get(ref)
        ids, X = _batch_matrix(batch)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "centroid": pa.array(
                np.argmax(X @ C_.T, axis=1).astype(np.int64), pa.int64()),
        })

    return C, vecs.map_batches(assign, batch_format="pyarrow")


def knn_ivf(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
    n_centroids: int = 16,
    n_probe: int = 4,
) -> rd.Dataset:
    """IVF-bucketed approximate top-k: each vector scores only against
    queries whose ``n_probe`` nearest centroids include the vector's
    bucket.  Same output schema as knn_bruteforce; recall measured in
    tests against the exact result."""
    C = build_centroids(vecs, n_centroids)
    qids, Q = load_queries(vecs, n_queries)
    # per query: the probed centroid set
    probes = np.argsort(-(Q @ C.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    ref = ray.put((qids, Q, C, probes))

    def score(batch: pa.Table):
        qids_, Q_, C_, probes_ = ray.get(ref)
        ids, X = _batch_matrix(batch)
        buckets = np.argmax(X @ C_.T, axis=1)  # (B,)
        probed = (buckets[:, None, None] == probes_[None, :, :]).any(axis=2)
        return (qids_, ids, X @ Q_.T,
                probed & (ids[:, None] != qids_[None, :]))

    return _per_query_topk(vecs, k, score)


def _lsh_planes(n_planes: int, dim: int) -> np.ndarray:
    """±1 hyperplane matrix derived from md5 (process-independent;
    sign = md5_64('lsh:p:d') % 2 — the same hashing convention as
    dedup/_hash64, so DuckDB md5_number_upper reproduces it)."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    bits = (_hash64([f"lsh:{p}:{d}"
                     for p in range(n_planes) for d in range(dim)])
            % np.uint64(2)).astype(np.int64)
    return bits.reshape(n_planes, dim) * 2 - 1


def _lsh_codes(X_raw: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-bit bucket codes over INTEGER-quantized projections:
    floor(x*1024) is exact float64 arithmetic on both engines (1024 is
    a power of two; floor is floor in numpy AND DuckDB — no //
    truncation hazard), so the code is bit-reproducible in SQL — the
    reason this LSH variant is oracle-checked while classic gaussian
    planes could flip a sign on accumulation order."""
    xq = np.floor(X_raw * 1024.0).astype(np.int64)
    proj = xq @ planes.T  # exact int64: |proj| <= dim * 2^10 * |x|max
    return ((proj >= 0).astype(np.int64)
            << np.arange(planes.shape[0], dtype=np.int64)).sum(axis=1)


def knn_lsh(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
    n_planes: int = 8,
    max_hamming: int = 3,
) -> rd.Dataset:
    """LSH-bucketed approximate top-k (random-hyperplane signs,
    Charikar 2002 — public algorithm): a vector is scored against a
    query only when their sign-bit codes differ in <= ``max_hamming``
    planes (multiprobe by hamming ball instead of bucket equality, so
    no candidate re-shuffle is needed — the probe test is a bitwise
    xor inside the scoring map).

    The scale path alongside IVF: codes cost one integer matmul per
    batch, no centroid training pass, and the candidate mass per query
    is ~C(n_planes,<=h)/2^n_planes of the corpus.  Same output schema
    as knn_bruteforce; recall gated in tests; and because the codes
    are integer-exact (see :func:`_lsh_codes`) the ENTIRE query —
    buckets, probes, ranks — is SQL-oracle-checked, unlike typical LSH.

    Output: (query_id, neighbor_id, rank), rank 1-based by
    (sim desc, neighbor_id asc)."""
    qids, Qraw, _ = _query_table(vecs, n_queries)
    Q = Qraw / np.linalg.norm(Qraw, axis=1, keepdims=True)
    planes = _lsh_planes(n_planes, Q.shape[1])
    # query codes from RAW (unnormalized) vectors
    qcodes = _lsh_codes(Qraw, planes)
    pop = np.array([bin(i).count("1") for i in range(1 << n_planes)],
                   dtype=np.int64)
    qref = ray.put((qids, Q, qcodes, planes, pop))

    def score(batch: pa.Table):
        qids_, Q_, qcodes_, planes_, pop_ = ray.get(qref)
        ids, Xr = _batch_matrix_raw(batch)
        codes = _lsh_codes(Xr, planes_)
        X = Xr / np.linalg.norm(Xr, axis=1, keepdims=True)
        near = pop_[np.bitwise_xor(codes[:, None], qcodes_[None, :])]
        return (qids_, ids, X @ Q_.T,
                (near <= max_hamming) & (ids[:, None] != qids_[None, :]))

    return _per_query_topk(vecs, k, score)


def knn_graph(
    vecs: rd.Dataset,
    *,
    k: int = 5,
    n_chunks: int | None = None,
) -> rd.Dataset:
    """EXACT k-nearest-neighbor GRAPH over the whole embedding table
    (every vector is a query — the all-nodes generalization of
    :func:`knn_bruteforce`'s fixed query set), the similarity-graph
    construction that feeds clustering / near-dup components.

    Similarity is the INTEGER dot product of floor(x * 1024)-quantized
    vectors (the ann_lsh quantization: float32 -> float64 is exact and
    floor agrees between numpy and SQL, and quantized dots are < 2^53
    so the float64 matmul is integer-exact) — which makes the emitted
    edge WEIGHTS hash-checkable against the SQL oracle, not just the
    ranks.

    Shape: `embedding_dup_pairs`' chunk-pair co-location join (every
    unordered chunk pair meets in exactly one bucket; shuffle volume =
    n_chunks x input) with a per-bucket matmul emitting each source's
    LOCAL top-k over the partner chunk; since every (src, dst) pair
    appears in exactly one bucket, the global top-k per src is
    contained in the union of its <= n_chunks bucket-local top-ks.
    One src_id sort then finalizes ranks per block.  Ties break
    (dot_q desc, dst_id asc) at BOTH cuts, so boundary ties are exact.

    Output: (src_id, dst_id, rk, dot_q) — rk 1-based."""
    from clinicaltransformerner_ray.pipelines.dedup import _auto_n_chunks

    if n_chunks is None:
        n_chunks = _auto_n_chunks(vecs.count())

    def replicate(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(),
                         dtype=np.int64)
        X = np.asarray(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        Q = np.floor(X * 1024.0)  # integer-valued float64, SQL-exact
        chunk = ids % n_chunks
        out_bucket, out_id, out_chunk, out_vec = [], [], [], []
        for p in range(n_chunks):
            lo = np.minimum(chunk, p)
            hi = np.maximum(chunk, p)
            out_bucket.append(lo * n_chunks + hi)
            out_id.append(ids)
            out_chunk.append(chunk)
            out_vec.append(Q)
        return pa.table({
            "bucket": pa.array(np.concatenate(out_bucket), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
            "chunk": pa.array(np.concatenate(out_chunk), pa.int64()),
            "qvec": pa.array(list(np.concatenate(out_vec)),
                             pa.list_(pa.float64())),
        })

    order = [("dot_q", "descending"), ("dst_id", "ascending")]

    def bucket_dots(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = [pa.table({"src_id": pa.array([], pa.int64()),
                         "dst_id": pa.array([], pa.int64()),
                         "dot_q": pa.array([], pa.int64())})]
        for bk in pd.unique(df["bucket"]):
            g = df[df["bucket"] == bk]
            lo, hi = divmod(int(bk), n_chunks)
            gi = g[g["chunk"] == lo]
            gj = g[g["chunk"] == hi]
            # emptiness FIRST (sparse vec_id residues leave one side
            # empty in off-diagonal buckets — np.stack would raise)
            if not len(gi) or not len(gj):
                continue
            ids_i = gi["vec_id"].to_numpy()
            ids_j = gj["vec_id"].to_numpy()
            dots = (np.stack(gi["qvec"].to_numpy())
                    @ np.stack(gj["qvec"].to_numpy()).T)
            r, c = np.nonzero(ids_i[:, None] != ids_j[None, :])
            src, dst = [ids_i[r]], [ids_j[c]]
            if lo != hi:  # both directions of an off-diagonal pair
                src, dst = [ids_i[r], ids_j[c]], [ids_j[c], ids_i[r]]
            # each src's LOCAL top-k over the partner chunk
            out.append(grouped_topk(pa.table({
                "src_id": pa.array(np.concatenate(src), pa.int64()),
                "dst_id": pa.array(np.concatenate(dst), pa.int64()),
                "dot_q": pa.array(np.tile(dots[r, c].astype(np.int64),
                                          len(src)), pa.int64()),
            }), ["src_id"], order, k))
        return pa.concat_tables(out)

    return topk_complete(
        keyed_exchange(vecs.map_batches(replicate, batch_format="pyarrow",
                                        batch_size=1 << 16),
                       ["bucket"], bucket_dots),
        ["src_id"], order, k, rank="rk",
    ).select_columns(["src_id", "dst_id", "rk", "dot_q"])


def mips_topk(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
) -> rd.Dataset:
    """Exact top-k by MAXIMUM INNER PRODUCT (no normalization) — the
    recommendation-retrieval scoring cosine kNN can't answer (MIPS
    favors long vectors; cosine is scale-blind).  Same scale shape as
    :func:`knn_bruteforce`: broadcast raw query matrix, per-batch
    matmul + local top-k, combine/sort/combine merge.  Rank-only
    output (the ann_topk float rule); ties (dot DESC, neighbor ASC).

    Output: (query_id, neighbor_id, rank)."""
    qids, Q, _ = _query_table(vecs, n_queries)  # RAW: no normalization
    qref = ray.put((qids, Q))

    def score(batch: pa.Table):
        qids_, Q_ = ray.get(qref)
        ids, X = _batch_matrix_raw(batch)
        return qids_, ids, X @ Q_.T, ids[:, None] != qids_[None, :]

    return _per_query_topk(vecs, k, score)


def pq_topk(
    vecs: rd.Dataset,
    *,
    n_queries: int = 8,
    k: int = 10,
    m: int = 4,
    k_sub: int = 8,
    iters: int = 3,
) -> rd.Dataset:
    """Product-quantization ANN (Jegou, Douze, Schmid 2011, TPAMI):
    split the (L2-normalized) embedding into ``m`` subspaces, train a
    ``k_sub``-centroid L2 codebook per subspace (Lloyd's, deterministic
    ``vec_id % k_sub`` init), encode every vector as its m nearest
    sub-centroids, and score queries by asymmetric distance — the sum
    over subspaces of dot(query_sub, assigned_sub_centroid), a LUT of
    m x k_sub dots per query instead of a full matmul.

    This is THE memory-bound scale path for ANN: each database vector
    costs m codes (bytes) instead of dim floats, and scoring reads the
    LUT, never the vector.  Driver state = m x k_sub x (dim/m) codebook
    floats (tiny, broadcast via ``ray.put``); the data side streams in
    every pass.  The output ranking is integer (rank by score DESC,
    neighbor_id ASC) — oracle-exact under the kmeans precedent as long
    as score margins dominate float noise (the synth's margins are
    ~1e-2 vs noise ~1e-14; asserted at two scales).

    DETERMINISM (r05): normalized values are quantized to
    ``floor(v * 2^20)`` (the knn_lsh precedent) BEFORE any
    accumulation, so every centroid partial sum is a sum of exact
    integers in float64 — exactly associative below 2^53, hence
    invariant to Ray's run-to-run block splits.  Without this, 1-ulp
    drift in a block-order float sum could flip a near-tie code
    assignment on the synth's unseparated subspaces and amplify
    through the Lloyd's iterations (observed once as a transient
    ann_pq hash mismatch in a 140-query sim).  Distances use an
    explicit per-centroid loop rather than one BLAS matmul so each
    row's reduction is batch-size-invariant.

    Output: (query_id, neighbor_id, rank) with rank 1-based."""
    SCALE = float(1 << 20)
    qids, Q = load_queries(vecs, n_queries)
    dim = Q.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m

    def sub_view(X: np.ndarray, s: int) -> np.ndarray:
        return X[:, s * dsub:(s + 1) * dsub]

    # --- train: C[s] is (k_sub, dsub); init = vec_id % k_sub means ---
    def init_partial(batch: pa.Table) -> pa.Table:
        ids, X = _batch_matrix(batch)
        X = np.floor(X * SCALE)  # exact ints: order-free partials
        assign = ids % k_sub
        out_s, out_c, out_v, out_n = [], [], [], []
        for c in range(k_sub):
            msk = assign == c
            if not msk.any():
                continue
            for s in range(m):
                out_s.append(s)
                out_c.append(c)
                out_v.append(sub_view(X, s)[msk].sum(axis=0).tolist())
                out_n.append(int(msk.sum()))
        return pa.table({
            "s": pa.array(out_s, pa.int64()),
            "c": pa.array(out_c, pa.int64()),
            "vsum": pa.array(out_v, pa.list_(pa.float64())),
            "n": pa.array(out_n, pa.int64()),
        })

    def fold(rows) -> tuple[np.ndarray, np.ndarray]:
        sums = np.zeros((m, k_sub, dsub))
        counts = np.zeros((m, k_sub))
        for r in rows:
            sums[r["s"], r["c"]] += np.asarray(r["vsum"])
            counts[r["s"], r["c"]] += r["n"]
        return sums, counts

    sums, counts = fold(vecs.map_batches(
        init_partial, batch_format="pyarrow").take_all())
    C = np.zeros((m, k_sub, dsub))
    nz = counts > 0
    C[nz] = sums[nz] / counts[nz][:, None]

    def codes_of(X: np.ndarray, C_: np.ndarray) -> np.ndarray:
        """(B, m) int64 codes: per subspace argmin L2 distance, lowest
        code on ties (np.argmin) — replicated by the SQL's
        (d2 ASC, c ASC) row_number."""
        out = np.empty((len(X), m), np.int64)
        d2 = np.empty((len(X), k_sub))
        for s in range(m):
            Xs = sub_view(X, s)
            for c in range(k_sub):
                diff = Xs - C_[s][c]
                # row-local fixed-length reduction: batch-size-invariant
                d2[:, c] = (diff * diff).sum(axis=1)
            out[:, s] = np.argmin(d2, axis=1)
        return out

    for _ in range(iters):
        ref = ray.put(C)

        def step_partial(batch: pa.Table) -> pa.Table:
            C_ = ray.get(ref)
            ids, X = _batch_matrix(batch)
            X = np.floor(X * SCALE)
            codes = codes_of(X, C_)
            out_s, out_c, out_v, out_n = [], [], [], []
            for s in range(m):
                Xs = sub_view(X, s)
                for c in np.unique(codes[:, s]):
                    msk = codes[:, s] == c
                    out_s.append(s)
                    out_c.append(int(c))
                    out_v.append(Xs[msk].sum(axis=0).tolist())
                    out_n.append(int(msk.sum()))
            return pa.table({
                "s": pa.array(out_s, pa.int64()),
                "c": pa.array(out_c, pa.int64()),
                "vsum": pa.array(out_v, pa.list_(pa.float64())),
                "n": pa.array(out_n, pa.int64()),
            })

        sums, counts = fold(vecs.map_batches(
            step_partial, batch_format="pyarrow").take_all())
        newC = C.copy()  # empty centroids keep their position
        nz = counts > 0
        newC[nz] = sums[nz] / counts[nz][:, None]
        C = newC

    # --- encode + ADC score + batch-local top-k ---
    cref = ray.put((C, qids, np.floor(Q * SCALE)))

    def score(batch: pa.Table):
        C_, qids_, Q_ = ray.get(cref)
        ids, X = _batch_matrix(batch)
        X = np.floor(X * SCALE)
        codes = codes_of(X, C_)
        # LUT[s]: (nq, k_sub) dots; score = sum_s LUT[s][:, code_s]
        scores = np.zeros((len(X), len(qids_)))
        for s in range(m):
            lut = sub_view(Q_, s) @ C_[s].T          # (nq, k_sub)
            scores += lut[:, codes[:, s]].T           # (B, nq)
        return qids_, ids, scores, ids[:, None] != qids_[None, :]

    return _per_query_topk(vecs, k, score)


def topk_recall(exact: rd.Dataset, approx: rd.Dataset,
                *, k: int = 10) -> rd.Dataset:
    """Retrieval-quality harness: per-query overlap between an EXACT
    top-``k`` result and an APPROXIMATE one (recall@k — the number
    every ANN index is tuned against).  Both inputs carry
    (query_id, neighbor_id, ...) rows.

    Distributed composition, not a driver join: ONE
    :func:`arrowutil.cogroup` on query_id (a query's rows of both sides
    meet whole), where an Arrow inner join counts the neighbors present
    on both sides.  Inputs are top-k tables (n_queries x k rows), so
    the join is inherently tiny no matter the corpus size behind them.

    Output: (query_id, n_common, recall_bp) with recall_bp =
    n_common * 10^4 // k (exact integers)."""
    pair = ["query_id", "neighbor_id"]
    distinct = functools.partial(grouped_agg, keys=pair, aggs=[])

    def ids(ds: rd.Dataset) -> rd.Dataset:
        return typed_map(ds.select_columns(pair), lambda b: b.cast(
            pa.schema([(c, pa.int64()) for c in pair])))

    def overlap(e: pa.Table, a: pa.Table) -> pa.Table:
        both = distinct(e).join(distinct(a), pair, join_type="inner")
        n = grouped_agg(pa.table({
            "query_id": both.column("query_id"),
            "n_common": np.ones(both.num_rows, np.int64)}),
            ["query_id"], [("n_common", "sum")])
        j = grouped_agg(pa.concat_tables([e, a]), ["query_id"], []).join(
            n, "query_id", join_type="left outer")
        n_common = j.column("n_common").fill_null(0)
        return pa.table({
            "query_id": j.column("query_id"), "n_common": n_common,
            "recall_bp": pa.array(n_common.to_numpy() * 10_000 // k)})

    return cogroup([ids(exact), ids(approx)], ["query_id"], overlap,
                   op="topk_recall")


# ---------------------------------------------------------------------------
# MMR diversified retrieval + streaming covariance


def _quantize_rows(X: np.ndarray) -> np.ndarray:
    """Elementwise ``floor(v * 2^20)`` as int64 — the knn_lsh / kmeans
    quantization precedent: integer inputs make every downstream sum
    and comparison exactly associative and bit-replicable in SQL
    (``CAST(floor(CAST(x AS DOUBLE) * 1048576) AS BIGINT)``)."""
    return np.floor(X.astype(np.float64) * float(1 << 20)).astype(np.int64)


def mmr_topk(
    vecs: rd.Dataset,
    *,
    query_id: int = 0,
    n_candidates: int = 20,
    k: int = 5,
) -> pa.Table:
    """Maximal Marginal Relevance diversified top-k (Carbonell &
    Goldstein 1998): greedily select ``k`` results from the
    ``n_candidates`` most-query-similar vectors, each round picking the
    candidate maximizing ``lambda*sim(q,c) - (1-lambda)*max_{s in S}
    sim(c,s)`` — relevance minus redundancy, the de-dup layer every
    retrieval-augmented pipeline wants on top of raw kNN.

    Exactness: similarities are INTEGER inner products of
    ``floor(v*2^20)``-quantized raw vectors (MIPS flavor —
    normalization would reintroduce float sqrt), and with the classic
    lambda = 0.5 the MMR ordering equals the integer ordering
    ``sim_q - max_sel``, so the candidate cut and every greedy argmax
    are exact integer comparisons, bit-replicable by unrolled SQL CTE
    rounds (the kmeans-oracle pattern).  Ties break vec_id ASC.

    Scale shape: the query vector is fetched by a distributed filter
    (O(1) rows to the driver), candidate generation is a streaming
    per-batch integer-matmul top-``n_candidates`` carrying each
    survivor's embedding (<= n_candidates rows per block leave each
    task), and the greedy selection runs on the driver over the
    bounded n_candidates x n_candidates similarity grid — never over
    the corpus.

    Output pa.Table: (rank 1-based, vec_id, score) where score =
    sim_q for rank 1 and sim_q - max-selected-sim after (all int64).
    """
    import pyarrow.compute as pc

    qrows = vecs.map_batches(
        lambda b: b.filter(pc.equal(b.column("vec_id"), query_id)),
        batch_format="pyarrow",
    ).take_all()
    if not qrows:
        raise ValueError(f"query vec_id {query_id} not found")
    q = _quantize_rows(np.asarray([qrows[0]["embedding"]]))[0]
    qref = ray.put(q)

    order = [("s", "descending"), ("vec_id", "ascending")]

    def partial(batch: pa.Table) -> pa.Table:
        q_ = ray.get(qref)
        ids = np.asarray(batch.column("vec_id").to_pylist(),
                         dtype=np.int64)
        X = _quantize_rows(np.asarray(batch.column("embedding")
                                      .to_pylist(), dtype=np.float64))
        mask = ids != query_id
        ids, X = ids[mask], X[mask]
        n, dim = X.shape
        return grouped_topk(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "s": pa.array(X @ q_, pa.int64()),  # exact int64
            "emb": pa.ListArray.from_arrays(  # row i is X[i], no loop
                pa.array(np.arange(0, n * dim + 1, dim), pa.int32()),
                pa.array(X.ravel(), pa.int64())),
        }), [], order, n_candidates)

    cand = topk_complete(vecs.map_batches(partial, batch_format="pyarrow"),
                         [], order, n_candidates)
    ids = cand.column("vec_id").to_numpy(zero_copy_only=False)
    s = cand.column("s").to_numpy(zero_copy_only=False)
    X = np.asarray(cand.column("emb").to_pylist(), dtype=np.int64)

    G = X @ X.T  # candidate-candidate integer sims (bounded grid)
    sel: list[int] = []
    out_rank, out_id, out_score = [], [], []
    remaining = np.ones(len(ids), bool)
    for r in range(min(k, len(ids))):
        idxs = np.flatnonzero(remaining)
        if not sel:
            sc = s[idxs]
        else:
            sc = s[idxs] - G[np.ix_(idxs, sel)].max(axis=1)
        # argmax with vec_id ASC tie-break, over remaining only (a
        # sentinel-and-negate scheme would wrap at INT64_MIN)
        best_local = np.lexsort((ids[idxs], -sc))[0]
        best = int(idxs[best_local])
        sel.append(best)
        remaining[best] = False
        out_rank.append(r + 1)
        out_id.append(int(ids[best]))
        out_score.append(int(sc[best_local]))
    return pa.table({
        "rank": pa.array(out_rank, pa.int64()),
        "vec_id": pa.array(out_id, pa.int64()),
        "score": pa.array(out_score, pa.int64()),
    })


def embedding_covariance(vecs: rd.Dataset) -> pa.Table:
    """Exact second-moment statistics of the embedding table in ONE
    streaming pass — the Gram matrix, per-dimension sums and the row
    count, from which mean vector / covariance / PCA axes / whitening
    all derive driver-side.  THE canonical distributed-ML fold: the
    driver state is dim x dim (bounded, independent of corpus size),
    every block contributes an integer partial, and integer partials
    are exactly associative — block-split-invariant by construction.

    Inputs quantized ``floor(v * 2^20)`` (int64); per-block partials
    ``X^T X`` via integer matmul (exact; terms ~2^46 at |v|<=32,
    dim 64 — far below 2^63), folded on the driver in Python ints
    (unbounded) and emitted as int64.

    Output pa.Table, long upper-triangle form sorted (i, j):
      (i, j,  v)  with 0 <= i <= j < dim : sum of q_i * q_j
      (i, -1, v)                         : per-dimension sum of q_i
      (-1, -1, n)                        : row count
    """

    def partials(batch: pa.Table) -> pa.Table:
        X = _quantize_rows(np.asarray(batch.column("embedding")
                                      .to_pylist(), dtype=np.float64))
        d = X.shape[1]
        G = X.T @ X  # exact int64
        iu, ju = np.triu_indices(d)
        i = np.concatenate([iu, np.arange(d), [-1]])
        j = np.concatenate([ju, np.full(d, -1, np.int64), [-1]])
        v = np.concatenate([G[iu, ju], X.sum(axis=0),
                            [np.int64(len(X))]])
        return pa.table({
            "i": pa.array(i.astype(np.int64), pa.int64()),
            "j": pa.array(j.astype(np.int64), pa.int64()),
            "v": pa.array(v.astype(np.int64), pa.int64()),
        })

    acc: dict[tuple[int, int], int] = {}
    parts = vecs.map_batches(partials, batch_format="pyarrow")
    for blk in parts.iter_batches(batch_format="pyarrow",
                                  batch_size=None):
        ii = blk.column("i").to_numpy(zero_copy_only=False)
        jj = blk.column("j").to_numpy(zero_copy_only=False)
        vv = blk.column("v").to_numpy(zero_copy_only=False)
        for a, b, c in zip(ii.tolist(), jj.tolist(), vv.tolist()):
            acc[(a, b)] = acc.get((a, b), 0) + c
    ks = sorted(acc)
    return pa.table({
        "i": pa.array([a for a, _ in ks], pa.int64()),
        "j": pa.array([b for _, b in ks], pa.int64()),
        "v": pa.array([acc[kk] for kk in ks], pa.int64()),
    })


def embedding_outliers(vecs: rd.Dataset, *, k: int = 20,
                       q_bits: int = 10) -> pa.Table:
    """Embedding-space outliers: the ``k`` vectors farthest from the
    corpus centroid — the standard embedding-QA sweep for corrupt /
    mislabeled / degenerate vectors before any ANN index is built.

    Exactness trick: with ``xq = floor(v * 2^q_bits)`` (the engine's
    quantize-before-accumulate rule) and ``S_d = Σ xq_d``, ``n`` the
    vector count, the integer score ``Σ_d (n*xq_d - S_d)²`` equals
    ``n² · ‖xq - mean(xq)‖²`` — the same ORDER as distance-to-centroid
    with no float division ever happening, so the ranking is
    deterministic and block-split-invariant on both engines.  Bound:
    each term is at most ``n·(max_d - min_d)`` of its dimension's
    quantized values, so every score is at most
    ``Σ_d (n·(max_d - min_d))²``; that sum (and ``n·|xq|``) must fit
    int64.  The function checks it after pass 1 and raises
    OverflowError above it.  Components in [-1, 1] spread at most
    2^(q_bits+1) per dimension, which always fits while
    ``n · 2^(q_bits+1) · sqrt(dim) < 2^63.5`` (about 185k vectors of
    dim 64 at q_bits 10; real spreads are narrower); lower q_bits as n
    grows.

    Shape: pass 1 folds (n, S) on the driver (O(blocks x dim) rows);
    pass 2 streams blocked score computation keeping each block's
    local top-k by (score DESC, vec_id ASC); the driver folds them
    with a running top-k (O(k) state).  Zero wide ops.

    Output pa.Table (vec_id, score, rank), rank 1-based."""
    import ray

    scale = float(1 << q_bits)

    def sum_partial(batch: pa.Table) -> pa.Table:
        ids, X = _batch_matrix_raw(batch)
        if not len(ids):
            return pa.table({"d": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        Xq = np.floor(X * scale).astype(np.int64)
        dims = np.arange(Xq.shape[1], dtype=np.int64)
        return pa.table({
            "d": pa.array(dims, pa.int64()),
            "s": pa.array(Xq.sum(axis=0), pa.int64()),
            "n": pa.array(np.full(len(dims), len(ids), np.int64),
                          pa.int64()),
            "lo": pa.array(Xq.min(axis=0), pa.int64()),
            "hi": pa.array(Xq.max(axis=0), pa.int64()),
        })

    S: dict[int, int] = {}
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    n = 0
    for r in vecs.map_batches(sum_partial,
                              batch_format="pyarrow").take_all():
        d = int(r["d"])
        S[d] = S.get(d, 0) + int(r["s"])
        lo[d] = min(lo.get(d, int(r["lo"])), int(r["lo"]))
        hi[d] = max(hi.get(d, int(r["hi"])), int(r["hi"]))
        if d == 0:
            n += int(r["n"])
    if not S or n == 0:
        z = pa.array([], pa.int64())
        return pa.table({"vec_id": z, "score": z, "rank": z})
    top = sum((n * (hi[d] - lo[d])) ** 2 for d in S)
    big = n * max(abs(v) for v in (*lo.values(), *hi.values()))
    if max(top, big) > (1 << 63) - 1:
        raise OverflowError(
            f"embedding_outliers: scores can reach {top} over {n} "
            f"vectors of dim {len(S)} at q_bits={q_bits}, past int64; "
            "lower q_bits")
    Sv = np.asarray([S[d] for d in sorted(S)], np.int64)
    ref = ray.put((n, Sv))
    order = [("score", "descending"), ("vec_id", "ascending")]

    def scores(batch: pa.Table) -> pa.Table:
        n_, S_ = ray.get(ref)
        ids, X = _batch_matrix_raw(batch)
        # an empty batch reads as shape (0,): give it its (0, dim)
        Xq = np.floor(X.reshape(len(ids), len(S_)) * scale).astype(np.int64)
        diff = n_ * Xq - S_[None, :]
        return grouped_topk(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "score": pa.array((diff * diff).sum(axis=1), pa.int64()),
        }), [], order, k)

    return topk_complete(vecs.map_batches(scores, batch_format="pyarrow"),
                         [], order, k, rank="rank")


def embedding_coverage(docs: rd.Dataset,
                       vecs: rd.Dataset) -> pa.Table:
    """Embedding-coverage audit by source: which fraction of each
    domain's documents actually HAS an embedding row — the
    partial-coverage check the hybrid_rerank incident institutionalized
    (the round-3 rule: never assume a doc_id ⋈ vec_id join covers),
    promoted to a first-class data-QA table.

    Shape: ONE :func:`arrowutil.cogroup` on the shared id (a doc row
    and its vec rows meet whole) emits per-source integer partials, and
    an ``agg_fold`` finishes them.  Coverage is an exact integer
    per-mille floor.

    Output pa.Table (source, n_docs, n_with_vec, cov_per_mille),
    sorted by source."""
    sums = [("n_docs", "sum"), ("n_with_vec", "sum")]

    def per_source(d: pa.Table, v: pa.Table) -> pa.Table:
        return grouped_agg(pa.table({
            "source": d.column("source"),
            "n_docs": np.ones(d.num_rows, np.int64),
            "n_with_vec": pc.is_in(d.column("id"), value_set=v.column(
                "id")).cast(pa.int64())}), ["source"], sums)

    acc = agg_fold(cogroup([
        typed_map(docs, lambda b: pa.table({
            "id": b.column("doc_id").cast(pa.int64()),
            "source": b.column("source")})),
        typed_map(vecs, lambda b: pa.table({
            "id": b.column("vec_id").cast(pa.int64())}))],
        ["id"], per_source, op="embedding_coverage"),
        ["source"], sums, op="embedding_coverage.sources")
    n_docs, n_vec = (acc.column(c).to_numpy() for c, _ in sums)
    return acc.append_column(
        "cov_per_mille", pa.array(n_vec * 1000 // np.maximum(n_docs, 1)))
