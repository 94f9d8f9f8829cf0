"""Lexical retrieval over the `documents` table: per-term BM25 top-k.

  bm25_topk  for each query term, the k highest-BM25 documents.

Two passes, both streaming:

1. CORPUS STATS — mergeable per-batch counters (`n_docs`, `sum_dl`,
   per-term document frequency), one tiny row per block; the driver
   sums them (`take_all` is O(blocks), the same mergeable-counter
   shape as `functions/eval_bio.py`).
2. SCORE + TOP-K — stats broadcast into a batch transform that
   explodes tokens with Arrow kernels, filters to the query terms,
   computes tf per (doc, term) via C++ grouped aggregation, scores,
   and keeps a LOCAL top-k per term (`grouped_topk`);
   `topk_complete` keeps the final top-k per query_term (the engine's
   `keyed_complete` shape: a driver fold under the cap, else a sort on
   query_term whose shuffle moves at most k * n_terms rows per batch,
   never the corpus).

Exactness: within a single term, BM25's idf factor is a positive
per-term constant, so the rank depends only on

    g(tf, dl) = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

a rational function of integer tf/dl and avgdl = sum_dl / n_docs.
Both engines evaluate the identical operation tree in float64, so the
ranks (ties broken by doc_id) are bit-exact against the SQL oracle —
no `ln` ULP concerns because idf never enters a comparison.
Multi-term queries compose as a union of per-term scores; a fused
multi-term scorer would need an order-fixed summation to stay
oracle-exact (documented trade, not needed here).

Reference parity note: the reference engine has no retrieval operator;
this is a beyond-reference training-data op (SURVEY.md §2.11) — BM25
per Robertson/Sparck-Jones as popularized by Lucene's practical form.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from clinicaltransformerner_ray.arrowutil import grouped_topk, topk_complete


def _corpus_stats(docs: rd.Dataset) -> dict:
    """One mergeable counter row per block: (n_docs, sum_dl).

    Per-term document frequencies are deliberately NOT computed: the
    per-term idf is a positive constant that never enters a rank
    comparison (module docstring), so the stats pass is two Arrow
    kernel sums per batch — no token explode."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.fill_null(batch.column("text"), "")
        n_docs = len(text)
        n_spaces = pc.sum(pc.count_substring(text, " ")).as_py() or 0
        sum_dl = int(n_spaces) + n_docs  # dl = spaces + 1 per doc
        return pa.table({
            "n_docs": pa.array([n_docs], pa.int64()),
            "sum_dl": pa.array([sum_dl], pa.int64()),
        })

    rows = docs.map_batches(
        partial, batch_format="pyarrow", batch_size=1 << 17,
    ).take_all()  # O(blocks) — one counter row per block
    return {"n_docs": int(sum(r["n_docs"] for r in rows)),
            "sum_dl": int(sum(r["sum_dl"] for r in rows))}


def bm25_topk(
    docs: rd.Dataset,
    terms: list[str],
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> rd.Dataset:
    """Top-``k`` documents per query term under BM25.

    Output: (query_term, doc_id, tf, rank) — rank 1..k by score
    descending, ties broken by ascending doc_id.  Documents with
    tf == 0 never appear."""
    terms = sorted(set(terms))
    stats = _corpus_stats(docs)
    avgdl = stats["sum_dl"] / max(stats["n_docs"], 1)

    term_arr = pa.array(terms, pa.string())

    order = [("g", "descending"), ("doc_id", "ascending")]

    def score_local(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.fill_null(batch.column("text"), "")
        dl = pc.add(pc.cast(pc.count_substring(text, " "),
                            pa.int64()), 1).to_numpy()
        ids = np.asarray(batch.column("doc_id").to_pylist(),
                         dtype=np.int64)
        toks = pc.split_pattern(text, " ")
        flat = pa.table({
            "i": pc.list_parent_indices(toks),
            "tok": pc.list_flatten(toks),
        })
        flat = flat.filter(pc.is_in(flat.column("tok"),
                                    value_set=term_arr))
        tf_tbl = (flat.group_by(["i", "tok"])
                  .aggregate([("tok", "count")]))
        i = tf_tbl.column("i").to_numpy()
        tf = tf_tbl.column("tok_count").to_numpy().astype(np.int64)
        # identical operation tree to the SQL oracle — see module
        # docstring; evaluation order matters for bit-exactness
        dli = dl[i].astype(np.float64)
        g = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dli / avgdl))
        # explicit types: an empty block must keep the sort schema
        return grouped_topk(pa.table({
            "query_term": tf_tbl.column("tok").cast(pa.string()),
            "doc_id": pa.array(ids[i], pa.int64()),
            "tf": pa.array(tf, pa.int64()),
            "g": pa.array(g, pa.float64()),
        }), ["query_term"], order, k)

    return topk_complete(
        docs.map_batches(score_local, batch_format="pyarrow",
                         batch_size=1 << 17),
        ["query_term"], order, k, rank="rank").drop_columns(["g"])


def hybrid_rerank(
    docs: rd.Dataset,
    vecs: rd.Dataset,
    terms: list[str],
    *,
    k: int = 10,
) -> pa.Table:
    """Two-stage hybrid retrieval: per query term, the BM25 top-``k``
    lexical candidates are RE-RANKED by embedding cosine similarity to
    the BM25 rank-1 document (a more-like-the-best-hit expansion — the
    classic candidate-generation -> dense-rerank pipeline shape).

    Exactness: like :func:`bm25_topk` and ann_topk, only RANKS are
    emitted — cosine margins on the synth embeddings are orders of
    magnitude above accumulation noise, and both engines order by
    (sim DESC, doc_id ASC).

    Scale shape: stage 1 is the streaming BM25 pipeline; stage 2
    fetches ONLY the candidate embeddings with a distributed pyarrow
    filter (the `load_queries` pattern — O(terms x k) rows reach the
    driver) and the rerank itself is a numpy matmul over that tiny
    candidate set (O(terms x k x dim), driver-side by design).

    Embedding coverage can be PARTIAL (at sf0.1 the synth embeddings
    table covers 2000 of 5000 docs): candidates without an embedding
    are excluded from the rerank, and the anchor is the best-BM25-rank
    candidate that HAS one — identical to the SQL oracle's inner joins
    against the embeddings table.  A term whose candidates have no
    embeddings at all emits no rows.

    Output: pa.Table (query_term, doc_id, bm25_rank, rerank)."""
    import pyarrow.compute as pc

    cand = bm25_topk(docs, terms, k=k).take_all()  # O(terms x k)
    by_term: dict[str, list] = {}
    for r in cand:
        by_term.setdefault(r["query_term"], []).append(
            (r["rank"], r["doc_id"]))
    need = sorted({r["doc_id"] for r in cand})
    need_arr = pa.array(need, pa.int64())

    emb_rows = vecs.map_batches(
        lambda b, _n=need_arr: b.filter(
            pc.is_in(pc.cast(b.column("vec_id"), pa.int64()), _n)),
        batch_format="pyarrow",
    ).take_all()  # O(terms x k) candidate embeddings only
    # zero-norm embeddings are excluded up front (same bucket as "no
    # embedding"): normalizing one would emit NaN cosine sims and
    # nondeterministic ranks where the SQL oracle's inner join +
    # NULL-propagating division never produces a row.  Synth vectors
    # are non-zero, so this guard is unreachable in the fixtures.
    E = {}
    for r in emb_rows:
        v = np.asarray(r["embedding"], np.float64)
        if np.linalg.norm(v) > 0.0:
            E[r["vec_id"]] = v

    o_term, o_doc, o_b, o_r = [], [], [], []
    for term in sorted(by_term):
        ranked = [rd_ for rd_ in sorted(by_term[term])
                  if rd_[1] in E]  # embedded candidates only
        if not ranked:
            continue
        anchor_id = ranked[0][1]
        q = E[anchor_id]
        q = q / np.linalg.norm(q)
        ids = np.asarray([d for _, d in ranked], np.int64)
        M = np.stack([E[d] for d in ids])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        sims = M @ q
        order = np.lexsort((ids, -sims))
        rr = np.empty(len(ids), np.int64)
        rr[order] = np.arange(1, len(ids) + 1)
        for (brank, did), r2 in zip(ranked, rr):
            o_term.append(term)
            o_doc.append(did)
            o_b.append(brank)
            o_r.append(int(r2))
    return pa.table({
        "query_term": pa.array(o_term, pa.string()),
        "doc_id": pa.array(o_doc, pa.int64()),
        "bm25_rank": pa.array(o_b, pa.int64()),
        "rerank": pa.array(o_r, pa.int64()),
    })
