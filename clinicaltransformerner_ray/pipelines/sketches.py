"""Sketch / cardinality operators (`events` + `documents` tables).

  distinct_users        EXACT distinct-user count per event_type —
                        composite-key sort dedup, per-block partials,
                        tiny final roll-up (the kg_turn_entities shape)
  hll_distinct_users    HyperLogLog approximate distinct per
                        event_type — per-batch register blocks merged
                        by elementwise max (a mergeable counter: the
                        shuffle moves one 2^p-byte row per
                        (event_type, batch), NEVER the user ids)
  cms_token_estimates   count-min sketch point-frequency estimates
                        over the corpus token stream — d×w counter
                        matrices merged by plain sum; md5-derived
                        hashing makes the sketch itself exactly
                        SQL-reconstructible (oracle-checked)

HLL per Flajolet et al. 2007 (the standard bias-corrected estimator
with linear counting for small cardinalities).  The registers are
md5-derived so the sketch is process-independent and merge order
cannot change the result (max is commutative/associative) — the
ESTIMATE is deterministic even though it is approximate, which is why
the pytest gate can assert a fixed tolerance against the exact count.
Approximate relative to truth, so no SQL oracle (rows-only query);
`distinct_users` is the oracle-checked exact companion.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from clinicaltransformerner_ray.arrowutil import agg_fold, from_pandas_clean

import ray.data as rd

#: register-index bits: 2^12 = 4096 registers, ~1.6% standard error
HLL_P = 12
HLL_M = 1 << HLL_P
#: bias constant alpha_m for m >= 128 (Flajolet et al. 2007, fig. 3)
_ALPHA = 0.7213 / (1 + 1.079 / HLL_M)


def distinct_users(events: rd.Dataset) -> rd.Dataset:
    """Exact distinct users per event_type.

    Shape: batch-local (event_type, user_id) dedup BEFORE the shuffle
    (the all-to-all moves distinct pairs per batch, not raw events),
    one composite-key sort (equal pairs land whole), per-block dedup +
    partial counts, then a final roll-up over the tiny
    (event_type, partial) table — one row per type per block, so the
    second sort exchanges O(types x blocks) rows.

    Output: (event_type, n_users)."""

    def dedup_pairs(batch: pa.Table) -> pa.Table:
        df = (batch.select(["event_type", "user_id"]).to_pandas()
              .drop_duplicates())
        return from_pandas_clean(df, preserve_index=False)

    def block_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        g = (df.groupby("event_type", sort=False)["user_id"]
             .size().reset_index(name="n_users"))
        return pa.table({
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "n_users": pa.array(np.asarray(g["n_users"], np.int64),
                                pa.int64()),
        })

    def rollup(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("event_type", sort=False)["n_users"]
             .sum().reset_index())
        return pa.table({
            "event_type": pa.array(g["event_type"].tolist(),
                                   pa.string()),
            "n_users": pa.array(np.asarray(g["n_users"], np.int64),
                                pa.int64()),
        })

    return (
        events.map_batches(dedup_pairs, batch_format="pyarrow",
                           batch_size=1 << 19)
        .sort(["event_type", "user_id"])
        .map_batches(block_counts, batch_format="pyarrow",
                     batch_size=None)
        .sort("event_type")
        .map_batches(rollup, batch_format="pyarrow", batch_size=None)
    )


def _hll_registers(user_ids: np.ndarray) -> np.ndarray:
    """One 2^p register block from md5-derived 64-bit hashes: index =
    top p bits, register = 1 + leading-zero count of the rest.

    Hashes come from the engine's canonical `dedup._hash64` (md5 first
    8 bytes little-endian); duplicates are removed first — max is
    idempotent, so hashing each distinct id once gives identical
    registers at a fraction of the md5 calls."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    regs = np.zeros(HLL_M, dtype=np.uint8)
    if not len(user_ids):
        return regs
    h = _hash64([str(int(u)) for u in np.unique(user_ids)])
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # rho = 1 + leading zeros of the remaining word (low p bits are
    # set, so cur > 0 and rho caps at 64-p+1); vectorized CLZ via a
    # 6-step binary reduction
    cur = rest.copy()
    shift_total = np.zeros(len(h), dtype=np.uint64)
    for s in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - s))
        cur[mask] = cur[mask] << np.uint64(s)
        shift_total[mask] += np.uint64(s)
    rho = (shift_total + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate with small-range linear counting."""
    regs = regs.astype(np.float64)
    est = _ALPHA * HLL_M * HLL_M / np.sum(np.exp2(-regs))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * np.log(HLL_M / zeros)
    return float(est)


def hll_distinct_users(events: rd.Dataset) -> pd.DataFrame:
    """Approximate distinct users per event_type via HyperLogLog.

    Each batch emits one (event_type, registers) row per type present
    — 4 KiB per row — and the driver folds the O(blocks x types)
    sketch rows with elementwise max (`take_all` collects sketches,
    never ids; the same mergeable-counter shape as eval_bio).

    Output: pandas (event_type, n_users_approx float) — deterministic
    (md5-derived registers, order-free max merge) but approximate, so
    its correctness gate is the pytest tolerance vs
    :func:`distinct_users`, not a SQL hash."""

    def sketch(batch: pa.Table) -> pa.Table:
        df = batch.select(["event_type", "user_id"]).to_pandas()
        types, blobs = [], []
        for et, grp in df.groupby("event_type", sort=False):
            types.append(et)
            blobs.append(
                _hll_registers(grp["user_id"].to_numpy()).tobytes())
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "regs": pa.array(blobs, pa.binary()),
        })

    rows = events.map_batches(
        sketch, batch_format="pyarrow", batch_size=1 << 19,
    ).take_all()  # O(blocks x types) sketch rows, 4 KiB each
    merged: dict[str, np.ndarray] = {}
    for r in rows:
        regs = np.frombuffer(r["regs"], dtype=np.uint8)
        key = r["event_type"]
        if key in merged:
            merged[key] = np.maximum(merged[key], regs)
        else:
            merged[key] = regs.copy()
    out = sorted((et, _hll_estimate(regs))
                 for et, regs in merged.items())
    return pd.DataFrame(out, columns=["event_type", "n_users_approx"])


def cms_token_estimates(
    docs: rd.Dataset,
    probe_tokens: list[str],
    *,
    depth: int = 4,
    width: int = 1024,
) -> pa.Table:
    """Count-min sketch (Cormode & Muthukrishnan 2005 — public
    algorithm) over the corpus token stream, probed at fixed tokens.

    Completes the mergeable-sketch family (HLL = distinct, Misra-Gries
    = heavy hitters, CMS = point frequency): per-batch local d×w
    counter matrices merge by PLAIN SUM, so the all-to-all moves at
    most depth*width nonzero cells per batch — never tokens — and the
    driver holds exactly one d×w int64 matrix (32 KiB at 4×1024).

    est(t) = min over rows r of cell[r][md5_64(t||'#'||r) % width];
    the guarantee is one-sided (est >= true count, over-estimate
    < e/width * n with prob 1-e^-depth per row-seed independence).

    The hashes are md5-derived (dedup._hash64 parity — CLAUDE.md:
    DuckDB md5_number_upper == first-8-bytes-little-endian), so the
    SKETCH ITSELF is deterministic and SQL-expressible: the oracle
    reconstructs every probed cell exactly — an approximate operator
    with an exact oracle.

    Output: pa.Table (token, est) in probe order."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.textstats import TOKEN_RE

    def bucket(tokens: list[str], row: int) -> np.ndarray:
        return (_hash64([f"{t}#{row}" for t in tokens])
                % np.uint64(width)).astype(np.int64)

    def cells(batch: pa.Table) -> pa.Table:
        if "cell" in batch.column_names:  # completion pass after sort
            df = batch.to_pandas()
            g = df.groupby("cell", sort=False)["c"].sum().reset_index()
            return pa.table({
                "cell": pa.array(np.asarray(g["cell"], np.int64),
                                 pa.int64()),
                "c": pa.array(np.asarray(g["c"], np.int64), pa.int64()),
            })
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in TOKEN_RE.findall(t or ""):
                counts[tok] = counts.get(tok, 0) + 1
        toks = list(counts.keys())
        n = np.fromiter(counts.values(), np.int64, len(counts))
        mat = np.zeros((depth, width), np.int64)
        for r in range(depth):
            np.add.at(mat[r], bucket(toks, r), n)
        r_idx, b_idx = np.nonzero(mat)
        return pa.table({
            "cell": pa.array(r_idx * width + b_idx, pa.int64()),
            "c": pa.array(mat[r_idx, b_idx], pa.int64()),
        })

    merged = (
        docs.map_batches(cells, batch_format="pyarrow",
                         batch_size=1 << 17)
        .sort("cell")
        .map_batches(cells, batch_format="pyarrow", batch_size=None)
    )
    # driver collect is O(depth*width) cells — the sketch, not the corpus
    mat = np.zeros(depth * width, np.int64)
    for r in merged.take_all():
        mat[r["cell"]] = r["c"]
    ests = []
    for tok in probe_tokens:
        ests.append(int(min(
            mat[r * width + int(bucket([tok], r)[0])]
            for r in range(depth))))
    return pa.table({
        "token": pa.array(list(probe_tokens), pa.string()),
        "est": pa.array(np.asarray(ests, np.int64), pa.int64()),
    })


def kmv_distinct_users(events: rd.Dataset, *, k: int = 64) -> pa.Table:
    """KMV (k minimum values) distinct-count sketch over user_id — the
    mergeable bottom-k sketch, with an EXACT SQL oracle: the sketch
    state is the k smallest md5 hashes of the distinct ids, a pure
    order statistic both engines compute identically
    (``dedup._hash64`` == DuckDB ``md5_number_upper``, CLAUDE.md).

    Estimator: ``est = ((k-1) << 64) // h_k`` (floor, non-negative) when
    >= k distinct hashes exist, else the exact count (the sketch holds
    everything).  Python bigints / HUGEINT keep the 128-bit product
    exact.

    Scale shape (the heavy_hitters two-pass precedent): each block
    emits its <= k smallest distinct hashes (partials are bottom-k
    MERGEABLE: global bottom-k is contained in the union), and
    ``agg_fold`` folds their O(k x blocks) distinct rows, sorted, on the
    driver.  Output: one row (n_kept, hk_hi, hk_lo,
    est_users) — the 64-bit k-th hash rides as two int32-range halves
    so no engine touches unsigned overflow."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def bottom_k(batch: pa.Table) -> pa.Table:
        uids = np.unique(batch.column("user_id").to_numpy(
            zero_copy_only=False))
        h = np.unique(_hash64([str(int(u)) for u in uids]))
        return pa.table({"hv": pa.array(h[:k], pa.uint64())})

    kept = agg_fold(
        events.map_batches(bottom_k, batch_format="pyarrow",
                           batch_size=1 << 19),
        ["hv"], [], op="kmv_distinct_users",
        empty=pa.table({"hv": pa.array([], pa.uint64())}),
    ).column("hv").to_numpy()[:k]
    n_kept = int(len(kept))
    if n_kept == 0:
        # mirror the SQL oracle on empty input: max(hv) over zero rows
        # is NULL, so the k-th-hash halves are NULL (est stays n_kept=0)
        est = 0
        hk = None
    elif n_kept < k:
        est = n_kept
        hk = int(kept[-1])
    else:
        hk = int(kept[-1])
        est = ((k - 1) << 64) // hk
    return pa.table({
        "n_kept": pa.array([n_kept], pa.int64()),
        "hk_hi": pa.array([None if hk is None else hk >> 32], pa.int64()),
        "hk_lo": pa.array([None if hk is None else hk & 0xFFFFFFFF],
                          pa.int64()),
        "est_users": pa.array([est], pa.int64()),
    })


#: Bloom geometry: 2^16 bits x 3 md5-derived hash functions — at the
#: synth's eval-split cardinality the false-positive rate is < 1e-6,
#: but any false positive is DETERMINISTIC and identical in the SQL
#: replica (both sides derive positions from md5_number_upper).
BLOOM_BITS = 1 << 16
BLOOM_K = 3


def bloom_membership(
    docs: rd.Dataset,
    *,
    ref_mod: int = 10,
) -> rd.Dataset:
    """Bloom-filter decontamination: build a Bloom filter over the
    reference split's text hashes (docs with ``doc_id % ref_mod == 0``
    — the synthetic eval split), then probe EVERY document.  The
    memory-bounded twin of the exact `dedup_decontaminate` anti-join:
    the filter is ``BLOOM_BITS`` bits regardless of reference size, so
    the reference side never shuffles — the classic sketch trade
    (false positives possible, false negatives impossible).

    Bit positions are md5-derived (`dedup._hash64(text + '#' + j)` %
    BLOOM_BITS — the md5_number_upper parity rule), so the SQL replica
    computes the identical filter and the identical probe answers,
    false positives included.

    Shape: one pass over the reference split emits per-block DISTINCT
    bit positions (<= BLOOM_BITS rows each); the driver folds them
    into a bitset (bounded by the sketch geometry, never the data) and
    broadcasts it into a stateless probe map.  Zero shuffles.

    Output: (doc_id, flagged) with flagged 1 iff all K positions are
    set."""
    import ray

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def positions(texts: list[str]) -> np.ndarray:
        """(n, BLOOM_K) md5-derived bit positions."""
        out = np.empty((len(texts), BLOOM_K), np.int64)
        for j in range(BLOOM_K):
            out[:, j] = (_hash64([f"{t}#{j}" for t in texts])
                         % np.uint64(BLOOM_BITS)).astype(np.int64)
        return out

    def ref_bits(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["doc_id"] % ref_mod == 0]
        if df.empty:
            return pa.table({"b": pa.array([], pa.int64())})
        pos = positions(df["text"].fillna("").tolist())
        return pa.table({
            "b": pa.array(np.unique(pos.ravel()), pa.int64())})

    bits = np.zeros(BLOOM_BITS, bool)
    for row in docs.map_batches(ref_bits, batch_format="pyarrow",
                                batch_size=1 << 17).take_all():
        bits[row["b"]] = True  # bounded by sketch geometry
    ref = ray.put(bits)

    def probe(batch: pa.Table) -> pa.Table:
        bits_ = ray.get(ref)
        df = batch.to_pandas()
        pos = positions(df["text"].fillna("").tolist())
        flagged = bits_[pos].all(axis=1).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "flagged": pa.array(flagged, pa.int64()),
        })

    return docs.map_batches(probe, batch_format="pyarrow")
