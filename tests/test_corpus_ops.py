"""Training-data corpus operators: dedup family, similarity search,
text analysis — oracle parity for the exact ops, recall gates for the
approximate ones."""

from __future__ import annotations

import logging

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["documents", "embeddings", "events"]:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


SQL_CHECKED = [
    "dedup_exact", "dedup_ngram_jaccard", "dedup_embedding",
    "dedup_minhash", "dedup_simhash",
    "ann_topk", "ann_ivf", "kmeans",
    "text_stats", "corpus_curate", "doc_fingerprint", "token_vocab",
    "doc_quantiles", "corpus_sample", "bm25_topk", "top_tokens",
    "corpus_splits", "corpus_pack", "corpus_chunks", "dedup_ensemble", "dedup_incremental",
    "dedup_triangles", "corpus_ranks", "token_bigrams", "dedup_curate",
    "heavy_hitters", "token_cms", "corpus_mix", "ann_lsh",
    "dedup_decontaminate", "dedup_clustering_coeff", "docs_tfidf_topk",
    "corpus_weighted_sample", "hybrid_rerank", "dedup_containment",
    "corpus_shard_plan", "corpus_novelty", "ann_mips",
    "token_char_trigrams", "dedup_calibration",
    "pii_scrub", "doc_repetition", "dedup_semantic", "ann_pq",
    "lang_id", "bloom_decontaminate", "dedup_substring", "c4_filters",
    "ann_recall", "token_counts_bpe", "dedup_report",
    "corpus_dsir", "dedup_span_rewrite", "bpe_merges", "bpe_encode",
    "lm_quality", "ann_negatives", "corpus_curriculum",
    "corpus_mlm_plan", "corpus_t5_spans", "corpus_dsir_select",
    "corpus_fim_plan", "events_profile", "ann_mmr", "emb_covariance",
    "corpus_report", "events_k_anonymity", "doc_winnowing",
    "events_late", "bpe_fertility", "corpus_domain_report",
    "dedup_winnow_pairs", "lang_confusion", "events_session_paths",
    "corpus_vocab_growth", "events_ab_test", "dedup_source_losses",
    "emb_outliers", "events_ltv", "emb_coverage", "events_velocity",
    "events_l_diversity", "events_forecast", "corpus_coverage_select",
    "events_funnel3", "kg_link_ra", "events_pareto", "kg_modularity",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_oracle_parity(ray_session, con, name):
    import __ray_entry__ as E

    rdf = E.queries()[name](SF).to_pandas()
    odf = con.execute(E.oracle_sql_for(SF)[name]).df()
    a, b = _canon(rdf), _canon(odf)
    assert list(a.columns) == list(b.columns), name
    assert len(a) == len(b), name
    pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=name)


def test_curate_corpus_dedup_and_gate(ray_session):
    """curate_corpus keeps exactly one copy per surviving identical-text
    group (min doc_id, n_copies counts the group) and drops every doc
    failing the quality gate — planted duplicates + planted failures."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import curate_corpus

    good = "the cat sat on a mat with a hat and a bat near the door"
    short = "the a end"                       # fails min_tokens
    unk = " ".join(["tok%d" % i for i in range(20)])  # no stopwords
    tbl = pa.table({
        "doc_id": pa.array([5, 1, 3, 2, 4, 6], pa.int64()),
        "text": pa.array([good, good, good, short, unk, good + " extra"]),
    })
    out = (curate_corpus(rd.from_arrow(tbl), min_tokens=5,
                         require_lang="en")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # survivors: the `good` trio deduped to doc 1 (n_copies=3) and doc 6
    assert out["doc_id"].tolist() == [1, 6]
    assert out.loc[0, "n_copies"] == 3
    assert out.loc[1, "n_copies"] == 1
    assert (out["n_tokens"] >= 5).all()


def test_minhash_recall_vs_exact(ray_session):
    """LSH candidate generation + signature estimate must recover almost
    every exact-Jaccard>=0.8 pair (16 bands x 4 rows => ~99% recall at
    j=0.8) and introduce few false positives."""
    from clinicaltransformerner_ray.pipelines.dedup import (
        minhash_lsh_pairs, ngram_jaccard_pairs)
    from clinicaltransformerner_ray.sources.tables import read_documents

    docs = read_documents(SF)
    exact = {(r.doc_a, r.doc_b)
             for r in ngram_jaccard_pairs(docs, threshold=0.8)
             .to_pandas().itertuples()}
    approx = {(r.doc_a, r.doc_b)
              for r in minhash_lsh_pairs(docs, threshold=0.8)
              .to_pandas().itertuples()}
    assert exact, "fixture should contain near-duplicate documents"
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.9, (recall, len(exact), len(approx))
    # estimated-jaccard filter keeps precision reasonable
    assert len(approx - exact) <= max(2, len(exact))


def test_simhash_finds_planted_neardups(ray_session):
    """SimHash hamming<=3 pairs should substantially overlap the exact
    jaccard>=0.8 near-dup set (same planted duplicates)."""
    from clinicaltransformerner_ray.pipelines.dedup import (
        ngram_jaccard_pairs, simhash_pairs)
    from clinicaltransformerner_ray.sources.tables import read_documents

    docs = read_documents(SF)
    exact = {(r.doc_a, r.doc_b)
             for r in ngram_jaccard_pairs(docs, threshold=0.8)
             .to_pandas().itertuples()}
    sh = {(r.doc_a, r.doc_b)
          for r in simhash_pairs(docs, max_hamming=3).to_pandas().itertuples()}
    assert exact
    assert len(exact & sh) / len(exact) >= 0.5, (len(exact), len(sh))


def test_ivf_recall_vs_bruteforce(ray_session):
    from clinicaltransformerner_ray.pipelines.similarity import (
        knn_bruteforce, knn_ivf)
    from clinicaltransformerner_ray.sources.tables import read_embeddings

    vecs = read_embeddings(SF)
    exact = knn_bruteforce(vecs, n_queries=8, k=10).to_pandas()
    approx = knn_ivf(vecs, n_queries=8, k=10, n_centroids=8,
                     n_probe=4).to_pandas()
    e = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    a = {(r.query_id, r.neighbor_id) for r in approx.itertuples()}
    assert len(e & a) / len(e) >= 0.5, len(e & a) / len(e)


def test_ngram_hot_shingle_cap_bounds_pairs(ray_session):
    """A shingle shared by every doc would square the posting join; with
    max_df set, the hot shingle emits no pairs and the job completes
    with bounded output (only genuinely similar pairs remain)."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import ngram_jaccard_pairs

    hot = "the common header line"
    rows = [{"doc_id": i, "text": f"{hot} unique{i} body{i} tail{i}"}
            for i in range(60)]
    rows += [{"doc_id": 100, "text": "same near dup text here okay"},
             {"doc_id": 101, "text": "same near dup text here okay"}]
    docs = rd.from_items(rows)
    capped = ngram_jaccard_pairs(docs, n=3, threshold=0.5,
                                 max_df=10).to_pandas()
    # the 60 header-only docs share 2 of ~6 shingles -> jaccard < 0.5
    # anyway; the identical pair must survive the cap
    assert (100, 101) in {(r.doc_a, r.doc_b) for r in capped.itertuples()}
    # no pair may arise from the hot shingle alone
    assert len(capped) < 60


def test_minhash_bucket_cap_completes(ray_session):
    """An adversarial bucket (many identical docs) is truncated at
    max_bucket deterministically instead of squaring."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import minhash_lsh_pairs

    rows = [{"doc_id": i, "text": "identical text body for every doc"}
            for i in range(40)]
    docs = rd.from_items(rows)
    pairs = minhash_lsh_pairs(docs, threshold=0.8,
                              max_bucket=5).to_pandas()
    # first 5 doc_ids per bucket pair up: exactly C(5,2) distinct pairs
    assert len(pairs) == 10
    assert set(pairs["doc_a"]) <= set(range(5))


def test_exact_dedup_idempotent(ray_session):
    """Every doc survives exactly once across keep groups."""
    import __ray_entry__ as E

    df = E.queries()["dedup_exact"](SF).to_pandas()
    assert df["n_copies"].sum() == 500
    assert df["keep_doc_id"].is_unique


def _union_find_clusters(pairs):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def test_dup_clusters_matches_union_find(ray_session):
    """Distributed min-label propagation == sequential union-find on
    the fixture's real near-dup pairs."""
    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.dedup import (
        dup_clusters, ngram_jaccard_pairs)
    from clinicaltransformerner_ray.sources.tables import read_documents

    pairs_ds = ngram_jaccard_pairs(read_documents(SF), threshold=0.8)
    pairs = [(r.doc_a, r.doc_b)
             for r in pairs_ds.to_pandas().itertuples()]
    assert pairs
    want = _union_find_clusters(pairs)
    got = {r.doc_id: r.cluster_id
           for r in E.queries()["dedup_clusters"](SF)
           .to_pandas().itertuples()}
    assert got == want


def test_dup_clusters_long_chain(ray_session):
    """A 12-node path (diameter 11) needs many propagation rounds —
    exercises the iteration-until-converged loop, not just 1-hop."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import dup_clusters

    chain = [{"doc_a": i, "doc_b": i + 1} for i in range(100, 111)]
    ring = [{"doc_a": 200, "doc_b": 201}, {"doc_a": 201, "doc_b": 202},
            {"doc_a": 200, "doc_b": 202}]
    out = dup_clusters(rd.from_items(chain + ring)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert all(got[i] == 100 for i in range(100, 112))
    assert all(got[i] == 200 for i in (200, 201, 202))


def test_kmeans_matches_sequential_lloyds(ray_session):
    """Distributed spherical k-means == a sequential numpy replica of
    the identical deterministic algorithm (float64 throughout)."""
    import numpy as np
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.pipelines.similarity import kmeans
    from clinicaltransformerner_ray.sources.tables import read_embeddings

    tbl = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = np.asarray(tbl.column("vec_id").to_pylist())
    X = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, X = ids[order], X[order]
    k = 8

    def norm(C):
        return C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True),
                              1e-12)

    # sequential replica: same init (vec_id % k mean), same updates
    C = np.zeros((k, X.shape[1]))
    for c in range(k):
        C[c] = X[ids % k == c].mean(axis=0)
    C = norm(C)
    for _ in range(3):
        assign = np.argmax(X @ C.T, axis=1)
        newC = C.copy()
        for c in range(k):
            m = assign == c
            if m.any():
                newC[c] = X[m].sum(axis=0) / m.sum()
        C = norm(newC)
    want = np.argmax(X @ C.T, axis=1)

    Cd, assignments = kmeans(read_embeddings(SF), k=k, iters=3)
    df = assignments.to_pandas().sort_values("vec_id")
    assert np.allclose(Cd, C, atol=1e-9)
    assert (df["centroid"].to_numpy() == want).all()
    # clustering is non-trivial: more than one populated centroid
    assert df["centroid"].nunique() > 1


def test_dup_clusters_empty_input(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from clinicaltransformerner_ray.pipelines.dedup import dup_clusters

    empty = rd.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    }))
    ds = dup_clusters(empty)
    assert ds.count() == 0
    assert ds.schema().names == ["doc_id", "cluster_id"]


def test_embedding_dup_pairs_sparse_vec_ids(ray_session):
    """Regression (r2 advice): vec_ids occupying a single residue class
    mod n_chunks leave one side of every off-diagonal bucket empty —
    the emptiness guard must run before np.stack."""
    import numpy as np
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import embedding_dup_pairs

    rng = np.random.RandomState(0)
    ids = np.arange(1, 120 * 8, 8, dtype=np.int64)  # all ≡ 1 (mod 8)
    X = rng.randn(len(ids), 16)
    X[1] = X[0]
    vecs = rd.from_items(
        [{"vec_id": int(i), "embedding": list(map(float, x))}
         for i, x in zip(ids, X)])
    out = embedding_dup_pairs(vecs, threshold=0.99, n_chunks=8).to_pandas()
    assert len(out) == 1
    assert (int(out.iloc[0]["vec_a"]), int(out.iloc[0]["vec_b"])) == (1, 9)


def test_embedding_dup_auto_n_chunks_grows():
    """n_chunks=None auto-scales with input rows so per-bucket heap
    stays constant (judge r2 item 8)."""
    from clinicaltransformerner_ray.pipelines.dedup import _auto_n_chunks

    assert _auto_n_chunks(0) == 2
    assert _auto_n_chunks(100) == 2
    assert _auto_n_chunks(1_000_000) == 16
    assert _auto_n_chunks(10_000_000) > _auto_n_chunks(1_000_000)
    assert _auto_n_chunks(10**9) == 1024  # capped


def test_ngram_jaccard_max_df_default_off():
    """max_df defaults to None: the hot-shingle cap is NOT
    output-preserving (a mass-dup cluster larger than the cap emits
    zero pairs), so exact semantics must be the default (r2 advice)."""
    import inspect

    from clinicaltransformerner_ray.pipelines.dedup import ngram_jaccard_pairs

    assert inspect.signature(
        ngram_jaccard_pairs).parameters["max_df"].default is None


#: the fold-or-exchange cap of ``arrowutil.driver_table``: huge forces
#: ``dup_clusters``' driver fold, 0 its exchange
CAPS = pytest.mark.parametrize("cap", [1 << 40, 0], ids=["fold", "exchange"])


@CAPS
def test_dup_clusters_1000_node_path(ray_session, monkeypatch, caplog, cap):
    """Fused pointer jumping: a 1000-node path (diameter 999) converges
    within max_iters=16 (propagation alone would need ~999 rounds), on
    either path.  The fold runs no Ray Data execution per round; the
    exchange's label table keeps at most one block per CPU, round over
    round."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines.dedup import dup_clusters

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    caplog.set_level(logging.INFO, logger="ray_kg")
    a = np.arange(999, dtype=np.int64)
    chain = rd.from_arrow(pa.table({"doc_a": a, "doc_b": a + 1}))
    out = dup_clusters(chain, max_iters=16,
                       on_max_iters="raise").materialize()
    logged = [r.getMessage().split(" (")[0] for r in caplog.records
              if r.name == "ray_kg"]
    if cap:
        assert logged == ["dup_clusters: fold"]
    else:
        assert logged[0] == "dup_clusters: exchange"
        assert out.num_blocks() <= int(ray.cluster_resources()["CPU"])
    labs = out.to_pandas()
    assert len(labs) == 1000
    assert (labs["cluster_id"] == 0).all()


@CAPS
def test_dup_clusters_nonconvergence_is_loud(ray_session, monkeypatch, cap):
    """Exhausting max_iters warns (default) or raises — never a silent
    split-cluster result (no-silent-caps rule) — on either path, and the
    unconverged labels are the same on both."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    import clinicaltransformerner_ray.pipelines.dedup as D

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    a = np.arange(60, dtype=np.int64)
    chain = rd.from_arrow(pa.table({"doc_a": a, "doc_b": a + 1}))
    import logging
    records = []

    class _H(logging.Handler):
        def emit(self, r):
            records.append(r.getMessage())

    h = _H()
    D._LOG.addHandler(h)
    try:
        D.dup_clusters(chain, max_iters=1).to_pandas()
    finally:
        D._LOG.removeHandler(h)
    assert any("did NOT converge" in m for m in records)
    with _pytest.raises(RuntimeError, match="did NOT converge"):
        D.dup_clusters(chain, max_iters=1, on_max_iters="raise").to_pandas()

    def one_round(c):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", c)
        return pa.Table.from_pandas(
            D.dup_clusters(chain, max_iters=1).to_pandas()
            .sort_values("doc_id", ignore_index=True))

    assert one_round(1 << 40).equals(one_round(0))


def test_ann_merge_scales_to_many_queries(ray_session):
    """The top-k final merge is combine/sort/combine (no per-group
    pandas machinery), so n_queries can be a table: 1000 queries over
    2000 vectors must match a sequential numpy brute force exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import knn_bruteforce

    rng = np.random.RandomState(42)
    n, dim, nq, k = 2000, 16, 1000, 5
    X = rng.randn(n, dim)
    vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "embedding": pa.array([row.tolist() for row in X],
                              pa.list_(pa.float64())),
    })).repartition(8)
    got = (knn_bruteforce(vecs, n_queries=nq, k=k).to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    # sequential reference
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    sims = Xn @ Xn[:nq].T  # (n, nq)
    rows = []
    for q in range(nq):
        s = sims[:, q].copy()
        ids = np.arange(n)
        mask = ids != q
        order = np.lexsort((ids[mask], -s[mask]))[:k]
        for r, idx in enumerate(order, 1):
            rows.append((q, int(ids[mask][idx]), r))
    import pandas as pd
    want = pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_token_count_quantiles_semantics(ray_session):
    """CDF-position rule on a hand-built skewed distribution: 100 docs
    of 1 token, 1 doc of 1000 — p99 must land on the single outlier
    only when ceil(q*N/100) reaches position 101."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        token_count_quantiles)

    texts = ["x"] * 100 + [" ".join(["y"] * 1000)]
    tbl = pa.table({
        "doc_id": pa.array(range(101), pa.int64()),
        "text": pa.array(texts),
    })
    out = token_count_quantiles(
        rd.from_arrow(tbl), q_pct=(1, 50, 99, 100)).to_pandas()
    got = dict(zip(out["q_pct"], out["n_tokens"]))
    # N=101: pos(1)=2 -> 1, pos(50)=51 -> 1, pos(99)=100 -> 1,
    # pos(100)=101 -> 1000
    assert got == {1: 1, 50: 1, 99: 1, 100: 1000}


def test_hash_stratified_sample_deterministic(ray_session):
    """The sample is a pure function of doc_id: two runs agree exactly,
    every kept doc satisfies the md5 keep rule for its stratum, and a
    rate of 0/100 keeps none/all."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        hash_stratified_sample)

    en = "the quick fox"
    unk = "tok1 tok2 tok3"
    n = 400
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([en if i % 2 == 0 else unk for i in range(n)]),
    })
    ds = rd.from_arrow(tbl)
    a = (hash_stratified_sample(ds).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (hash_stratified_sample(ds).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)

    def mod100(i):
        return int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[:8], "little") % 100

    for _, row in a.iterrows():
        rate = 10 if row["lang_pred"] == "en" else 50
        assert mod100(row["doc_id"]) < rate
    want_n = sum(1 for i in range(n)
                 if mod100(i) < (10 if i % 2 == 0 else 50))
    assert len(a) == want_n
    none = hash_stratified_sample(ds, rates_pct={"en": 0, "unk": 0})
    assert none.count() == 0
    al = hash_stratified_sample(ds, rates_pct={"en": 100, "unk": 100})
    assert al.count() == n
    assert np.array_equal(
        np.sort(al.to_pandas()["doc_id"].to_numpy()), np.arange(n))


def test_bm25_topk_semantics(ray_session):
    """BM25 ordering on a hand-built corpus: higher tf wins at equal
    length, shorter doc wins at equal tf (length normalization), docs
    without the term never appear, and k truncates."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.retrieval import bm25_topk

    docs = [
        (0, "cat cat cat dog"),               # tf=3, dl=4
        (1, "cat dog dog dog"),               # tf=1, dl=4
        (2, "cat dog"),                       # tf=1, dl=2 (shorter)
        (3, "dog dog dog dog"),               # tf=0
        (4, "cat " * 19 + "cat"),             # tf=20, dl=20
    ]
    tbl = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs]),
    })
    out = (bm25_topk(rd.from_arrow(tbl).repartition(3), ["cat"], k=3)
           .to_pandas().sort_values("rank").reset_index(drop=True))
    assert (out["query_term"] == "cat").all()
    assert len(out) == 3                      # k truncates the 4 hits
    assert 3 not in set(out["doc_id"])        # tf=0 excluded
    # saturation: tf=20 still ranks first; tf=3 beats tf=1; at tf=1 the
    # shorter doc 2 beats doc 1
    assert out["doc_id"].tolist() == [4, 0, 2]
    assert out["tf"].tolist() == [20, 3, 1]
    assert out["rank"].tolist() == [1, 2, 3]


def test_hll_distinct_users_tolerance_and_determinism(ray_session):
    """HLL estimate within the 3-sigma bound (~5% at p=12) of the exact
    count on a 50k-cardinality synthetic stream split across blocks,
    and bit-identical across runs (md5 registers, order-free merge)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.sketches import (
        distinct_users, hll_distinct_users)

    rng = np.random.RandomState(7)
    n = 200_000
    uids = rng.randint(0, 50_000, n).astype(np.int64)
    types = np.where(np.arange(n) % 3 == 0, "click", "view")
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(uids, pa.int64()),
        "event_type": pa.array(types.tolist(), pa.string()),
    })).repartition(16)
    exact = (distinct_users(ds).to_pandas()
             .set_index("event_type")["n_users"])
    a = hll_distinct_users(ds)
    b = hll_distinct_users(ds)
    pd.testing.assert_frame_equal(a, b)
    assert set(a["event_type"]) == {"click", "view"}
    for _, row in a.iterrows():
        true = exact[row["event_type"]]
        assert abs(row["n_users_approx"] - true) / true < 0.05, (
            row["event_type"], row["n_users_approx"], true)


def test_assign_splits_stability_and_coverage(ray_session):
    """Splits are exhaustive, disjoint, roughly proportioned, and an
    existing doc's split never changes when the corpus grows."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        assign_splits)

    small = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(500), pa.int64()),
        "text": pa.array(["x"] * 500),
    }))
    grown = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(2000), pa.int64()),
        "text": pa.array(["x"] * 2000),
    }))
    a = (assign_splits(small).to_pandas()
         .set_index("doc_id")["split"])
    g = (assign_splits(grown).to_pandas()
         .set_index("doc_id")["split"])
    assert len(a) == 500 and set(a.unique()) <= {"train", "val", "test"}
    # growth stability: the original 500 keep their assignment
    assert (g.loc[a.index] == a).all()
    frac = (g == "train").mean()
    assert 0.7 < frac < 0.9, frac


def test_pack_sequences_prefix_sum(ray_session):
    """Distributed prefix-sum == sequential cumsum on a multi-shard,
    multi-block corpus; bins cover [0, total) contiguously."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        pack_sequences)

    rng = np.random.RandomState(3)
    n = 5000
    lens = rng.randint(1, 40, n)
    texts = [" ".join(["t"] * k) for k in lens]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts),
    })).repartition(16)
    out = (pack_sequences(docs, capacity=100, shard_size=128)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want_start = np.concatenate([[0], np.cumsum(lens)[:-1]])
    assert (out["n_tokens"].to_numpy() == lens).all()
    assert (out["start_tok"].to_numpy() == want_start).all()
    assert (out["bin_id"].to_numpy() == want_start // 100).all()
    # bins are contiguous from 0
    bins = np.sort(out["bin_id"].unique())
    assert bins[0] == 0 and (np.diff(bins) == 1).all()


def test_dedup_index_semantics(ray_session):
    """Sharded mutable-index dedup: a new doc repeating ANY base text
    is dropped (even across shards/blocks), unique docs survive,
    intra-new duplicates both survive (read-only phase — documented),
    and the result is identical across two runs."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.state.dedup_index import (
        build_index, filter_unseen)

    base = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(200), pa.int64()),
        "text": pa.array([f"base doc {i % 50}" for i in range(200)]),
    })).repartition(4)
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(1000, 1010), pa.int64()),
        "text": pa.array(
            ["base doc 7",        # seen in base -> dropped
             "base doc 49",       # seen in base -> dropped
             "fresh alpha",       # kept
             "fresh beta",        # kept
             "fresh alpha",       # intra-new dup: BOTH kept
             "base doc 7",        # dropped again
             "fresh gamma", "fresh delta", "fresh epsilon",
             "fresh zeta"]),
    })).repartition(3)
    shards = build_index(base, n_shards=4)
    a = (filter_unseen(new, shards).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (filter_unseen(new, shards).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert a["doc_id"].tolist() == [1002, 1003, 1004, 1006, 1007,
                                    1008, 1009]
    assert (a["text"].str.startswith("fresh")).all()
    # the index holds one digest per DISTINCT base text
    import ray as _ray

    assert sum(_ray.get([s.size.remote() for s in shards])) == 50


# property-based fuzzing (hypothesis): pure kernels, no Ray needed


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1,
                max_size=400),
       st.integers(min_value=1, max_value=100))
def test_quantile_position_rule_matches_inverted_cdf(counts, q):
    """The engine's integer CDF-position rule ((q*N+99)//100 over the
    value histogram) == numpy's 'inverted_cdf' quantile for every
    distribution and percentile."""
    import numpy as np

    vals = np.sort(np.asarray(counts, dtype=np.int64))
    uniq, n = np.unique(vals, return_counts=True)
    cum = np.cumsum(n)
    pos = (q * len(vals) + 99) // 100
    got = uniq[np.searchsorted(cum, pos, side="left")]
    want = np.quantile(vals, q / 100, method="inverted_cdf")
    assert got == want, (q, vals.tolist())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=32))
def test_chunk_windows_cover_every_token(n_toks, chunk):
    """chunk_documents' window arithmetic (the REAL `chunk_spans`
    helper it calls, not a re-derivation): with any stride <= chunk,
    the windows cover every token index, chunk 0 starts at 0, windows
    advance by exactly stride, and only the LAST window may be short."""
    from clinicaltransformerner_ray.pipelines.textstats import chunk_spans

    for stride in {1, max(1, chunk // 2), chunk}:
        spans = chunk_spans(n_toks, chunk, stride)
        covered = set()
        for i, (lo, hi) in enumerate(spans):
            assert lo == i * stride
            assert lo < n_toks, (n_toks, chunk, stride, i)
            if i < len(spans) - 1:
                assert hi - lo == chunk  # only the last may be short
            covered.update(range(lo, hi))
        assert covered == set(range(n_toks)), (n_toks, chunk, stride)


# ---------------------------------------------------------------------------
# triangle_counts: brute-force parity on constructed graphs (the synth
# near-dup graph has few triangles, so the oracle row is a weak signal)


def _brute_triangles(edges):
    from itertools import combinations

    es = set(map(tuple, edges))
    nodes = sorted({n for e in edges for n in e})
    counts = {}
    for a, b, c in combinations(nodes, 3):
        if (a, b) in es and (a, c) in es and (b, c) in es:
            for n in (a, b, c):
                counts[n] = counts.get(n, 0) + 1
    return counts


@pytest.mark.parametrize("case", ["random", "hub", "clique", "empty"])
def test_triangle_counts_brute_force(ray_session, monkeypatch, caplog, case):
    """triangle_counts == itertools brute force on: a seeded random
    graph, a hub star + one closing rim (exercises degree orientation —
    the hub must NOT anchor wedges), a 7-clique (C(7,3) triangles,
    every corner C(6,2)), and a triangle-free path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines.graph import triangle_counts

    if case == "random":
        rng = np.random.default_rng(7)
        n = 40
        edges = sorted({tuple(sorted(p)) for p in
                        rng.integers(0, n, size=(260, 2)).tolist()
                        if p[0] != p[1]})
    elif case == "hub":
        # hub 0 connects to 1..30; only one rim edge closes a triangle
        edges = [(0, i) for i in range(1, 31)] + [(5, 9)]
    elif case == "clique":
        edges = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    else:
        edges = [(i, i + 1) for i in range(10)]

    tbl = pa.table({
        "doc_a": pa.array([a for a, _ in edges], pa.int64()),
        "doc_b": pa.array([b for _, b in edges], pa.int64()),
    })
    want = _brute_triangles(edges)
    # several input blocks so combine/sort/per-block paths are real;
    # cap 0 forces the 6-sort distributed path, the default cap the
    # driver fold — both must match brute force (and hence each other)
    caplog.set_level(logging.INFO, logger="ray_kg")
    for cap in (arrowutil.FOLD_MAX_BYTES, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        got = triangle_counts(
            rd.from_arrow(tbl).repartition(4)).to_pandas()
        path = "exchange" if cap == 0 else "fold"
        assert any(r.getMessage().startswith(f"triangle_counts: {path} (")
                   for r in caplog.records), (cap, caplog.records)
        if case == "empty":
            # a triangle-free graph yields zero rows (the distributed
            # path drops the schema with it when every block is empty)
            assert len(got) == 0
            assert want == {}
            continue
        got = got.sort_values("node_id").reset_index(drop=True)
        assert dict(zip(got["node_id"], got["n_triangles"])) == want
        if case == "clique":
            assert set(got["n_triangles"]) == {15}  # C(6,2) per corner


def test_heavy_hitters_sketch_compression_exact(ray_session):
    """Force real Misra-Gries compression (wide alpha vocab, tiny
    width) across many blocks and assert the two-pass result is still
    EXACTLY the brute-force phi-frequent set — the mergeable-summary
    undercount bound is what guarantees no heavy hitter is lost."""
    import re

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        TOKEN_RE, heavy_hitters)

    rng = np.random.default_rng(11)
    # ~3k distinct alphabetic tokens (no digit/punct splitting), two
    # planted heavies; width k = 2*40-1 = 79 << vocab so every batch
    # summary compresses
    vocab = ["".join(chr(97 + c) for c in rng.integers(0, 26, 8))
             for _ in range(3000)]
    texts = []
    for i in range(1500):
        toks = [vocab[int(x)] for x in rng.integers(0, len(vocab), 40)]
        if i % 2 == 0:
            toks += ["hotword"] * 12
        if i % 5 == 0:
            toks += ["warmword"] * 9
        texts.append(" ".join(toks))
    ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(24)
    got = heavy_hitters(ds, phi_denom=40, width_mult=2).to_pandas()

    from collections import Counter
    c: Counter = Counter()
    for t in texts:
        c.update(TOKEN_RE.findall(t))
    tot = sum(c.values())
    exp = sorted((t, n) for t, n in c.items() if n * 40 > tot)
    assert exp, "planted heavies must exceed the phi threshold"
    assert list(zip(got["token"], got["n"])) == exp


def test_cms_overestimates_and_matches_replica(ray_session):
    """With vocab >> width every cell collides: the distributed CMS
    must (a) never underestimate any true count, and (b) equal a
    sequential numpy replica of the same sketch cell-for-cell — the
    mergeable-sum claim, independent of how blocks split the docs."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.sketches import (
        cms_token_estimates)
    from clinicaltransformerner_ray.pipelines.textstats import TOKEN_RE

    rng = np.random.default_rng(3)
    vocab = ["".join(chr(97 + c) for c in rng.integers(0, 26, 6))
             for _ in range(800)]
    texts = [" ".join(vocab[int(x)]
                      for x in rng.integers(0, len(vocab), 30))
             for _ in range(400)]
    ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(8)

    probes = vocab[:40] + ["notintexts"]
    depth, width = 4, 64  # heavy collisions on purpose
    got = cms_token_estimates(ds, probes, depth=depth,
                              width=width).to_pandas()

    from collections import Counter
    true = Counter()
    for t in texts:
        true.update(TOKEN_RE.findall(t))
    # sequential replica of the sketch.  NB: the modulus must stay
    # uint64 (CLAUDE.md: uint64 % python-int promotes to float64 and
    # garbles the buckets)
    w = np.uint64(width)
    mat = np.zeros((depth, width), np.int64)
    for tok, n in true.items():
        for r in range(depth):
            b = int(_hash64([f"{tok}#{r}"])[0] % w)
            mat[r][b] += n
    for tok, est in zip(got["token"], got["est"]):
        expect = min(int(mat[r][int(_hash64([f"{tok}#{r}"])[0] % w)])
                     for r in range(depth))
        assert est == expect, tok
        assert est >= true.get(tok, 0), tok


def test_mixture_sample_semantics(ray_session):
    """Replication rules: a 2.5x stratum gives every doc 2 or 3 copies
    (reps contiguous from 0), a 0x stratum vanishes, an unknown key
    falls back to default 1x, and the emitted (doc_id, rep) SET is
    invariant to block splits."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        mixture_sample)

    tbl = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "lang": pa.array((["up"] * 60) + (["zero"] * 20)
                         + (["mystery"] * 20), pa.string()),
    })
    rates = {"up": 25_000, "zero": 0}
    outs = []
    for parts in (1, 7):
        out = (mixture_sample(rd.from_arrow(tbl).repartition(parts),
                              rates)
               .to_pandas().sort_values(["doc_id", "rep"])
               .reset_index(drop=True))
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    out = outs[0]
    assert not (out["lang"] == "zero").any()
    up = out[out["lang"] == "up"].groupby("doc_id")["rep"].agg(
        ["count", "max"])
    assert set(up["count"]) <= {2, 3}
    # ~half the 2.5x docs get the 3rd copy (deterministic md5 split)
    assert 10 < (up["count"] == 3).sum() < 50
    assert (up["max"] == up["count"] - 1).all()  # reps contiguous
    myst = out[out["lang"] == "mystery"].groupby("doc_id")["rep"].count()
    assert (myst == 1).all() and len(myst) == 20


def test_lsh_recall_vs_bruteforce(ray_session):
    """Hamming-ball multiprobe at 8 planes / h<=3 probes ~14% of code
    space yet must recover >= half the exact top-10 set (clustered
    synth embeddings put true neighbors in nearby buckets)."""
    from clinicaltransformerner_ray.pipelines.similarity import (
        knn_bruteforce, knn_lsh)
    from clinicaltransformerner_ray.sources.tables import read_embeddings

    vecs = read_embeddings(SF)
    exact = knn_bruteforce(vecs, n_queries=8, k=10).to_pandas()
    approx = knn_lsh(vecs, n_queries=8, k=10).to_pandas()
    e = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    a = {(r.query_id, r.neighbor_id) for r in approx.itertuples()}
    assert len(e & a) / len(e) >= 0.5, len(e & a) / len(e)
    # probing must actually prune: fewer candidate rows than exact
    assert len(a) <= len(e)


def test_decontaminate_planted_overlap(ray_session):
    """A train doc quoting a 5-gram from the eval set is flagged with
    the exact distinct-shingle hit count; clean docs and sub-5-gram
    overlaps are not flagged."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import decontaminate

    bench = "alpha bravo charlie delta echo foxtrot golf"
    eval_docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([bench], pa.string()),
    }))
    train = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            # quotes tokens 1..6 of the benchmark -> shingles
            # (1..5) and (2..6): 2 distinct hits
            "intro bravo charlie delta echo foxtrot golf outro",
            # only a 4-gram overlap -> no 5-gram shingle hit
            "bravo charlie delta echo nothing else here at all",
            "completely unrelated text with no benchmark overlap x",
        ], pa.string()),
    })).repartition(3)
    out = (decontaminate(train, eval_docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1]
    assert out["n_hits"].tolist() == [2]


def test_knn_graph_chunk_invariance_and_parity(ray_session):
    """The kNN graph must be identical for any n_chunks (the
    union-of-bucket-local-top-ks containment argument) and must match
    the brute-force numpy replica exactly — integer dot weights
    included."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import knn_graph
    from clinicaltransformerner_ray.sources.tables import read_embeddings

    SF = "/root/testdata/sf0.001"
    base = None
    for nc in (2, 5):
        out = (knn_graph(read_embeddings(SF), k=5, n_chunks=nc)
               .to_pandas()
               .sort_values(["src_id", "rk"]).reset_index(drop=True))
        if base is None:
            base = out
        else:
            pd.testing.assert_frame_equal(base, out)

    # brute-force replica on quantized ints
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(tbl.column("vec_id").to_pylist(), dtype=np.int64)
    X = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float64)
    Q = np.floor(X * 1024.0)
    dots = (Q @ Q.T).astype(np.int64)
    rows = []
    for si in np.argsort(ids):
        order = np.lexsort((ids, -dots[si]))
        cnt = 0
        for j in order:
            if ids[j] == ids[si]:
                continue
            cnt += 1
            rows.append((ids[si], ids[j], cnt, int(dots[si, j])))
            if cnt == 5:
                break
    ref = (pd.DataFrame(rows, columns=["src_id", "dst_id", "rk", "dot_q"])
           .sort_values(["src_id", "rk"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(base, ref)


def test_token_collocations_lift_rule(ray_session):
    """Hand-built corpus: a pair that always co-occurs passes the
    lift gate; a pair at independence fails; min_count floors rare
    pairs; counts are exact integers."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        token_collocations)

    # 'x y' appears 6x (always together); fillers a..f each once per
    # doc arranged so no other adjacent pair repeats >= 5 times
    docs = ["x y a b", "x y b c", "x y c d", "x y d e", "x y e f",
            "x y f a"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
    }))
    out = (token_collocations(ds, min_count=5, lift_num=5, lift_den=4)
           .to_pandas().sort_values(["left", "right"])
           .reset_index(drop=True))
    # n_total=24, x:6 y:6, n_xy=6 -> lift = 6*24/(6*6) = 4 > 5/4
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["left"], r["right"]) == ("x", "y")
    assert (r.n_ab, r.n_left, r.n_right, r.n_tokens) == (6, 6, 6, 24)


def test_token_collocations_oracle_parity_small(ray_session):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    SF = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    rdf = E.queries()["token_collocations"](SF).to_pandas()
    odf = con.execute(E.oracle_sql_for(SF)["token_collocations"]).df()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    assert len(rdf) > 0
    pd.testing.assert_frame_equal(canon(rdf), canon(odf),
                                  check_dtype=False)


def test_clustering_coefficients_brute_force(ray_session, monkeypatch,
                                             caplog):
    """Square + diagonal + tail: coefficients 2/3, 1, 1/3 and an exact
    0 for a triangle-free degree-2 node; degree-1 nodes excluded; the
    driver fold and the distributed path agree."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines.graph import (
        clustering_coefficients)

    edges = pa.table({
        "doc_a": pa.array([1, 2, 3, 1, 1, 4, 5], pa.int64()),
        "doc_b": pa.array([2, 3, 4, 4, 3, 5, 6], pa.int64()),
    })
    want = {  # node -> (n_tri, degree, coeff_bp)
        1: (2, 3, 6666), 2: (1, 2, 10000), 3: (2, 3, 6666),
        4: (1, 3, 3333), 5: (0, 2, 0),
    }
    caplog.set_level(logging.INFO, logger="ray_kg")
    for cap in (arrowutil.FOLD_MAX_BYTES, 0):  # fold, then distributed path
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        out = clustering_coefficients(rd.from_arrow(edges)).to_pandas()
        path = "exchange" if cap == 0 else "fold"
        assert any(r.getMessage().startswith(
            f"clustering_coefficients: {path} (")
            for r in caplog.records), (cap, caplog.records)
        got = {int(r.node_id): (int(r.n_triangles), int(r.degree),
                                int(r.coeff_bp))
               for r in out.itertuples()}
        assert got == want, f"FOLD_MAX_BYTES={cap}"


def test_weighted_sample_size_bias(ray_session):
    """The integer-priority weighted sample is genuinely size-biased:
    with 100 long docs and 900 short ones, long docs are heavily
    overrepresented vs their 10% population share."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        weighted_sample)

    long_txt = " ".join(["w"] * 400)
    rows = [{"doc_id": i, "text": long_txt if i < 100 else "a b"}
            for i in range(1000)]
    out = weighted_sample(
        rd.from_items(rows).repartition(5), k=50).to_pandas()
    long_share = (out["doc_id"] < 100).mean()
    assert long_share > 0.5, long_share
    assert out["rk"].tolist() == list(range(1, 51))


def test_containment_catches_embedded_doc(ray_session):
    """A short doc fully embedded in a long one: containment 1.0 (pair
    found) while symmetric Jaccard stays below threshold (pair missed)
    — the reason the containment variant exists."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        ngram_containment_pairs, ngram_jaccard_pairs)

    small = "alpha beta gamma delta epsilon"
    big = small + " " + " ".join(f"w{i}" for i in range(50))
    rows = [{"doc_id": 1, "text": small}, {"doc_id": 2, "text": big}]
    c = ngram_containment_pairs(rd.from_items(rows),
                                threshold=0.9).to_pandas()
    assert len(c) == 1
    assert c.loc[0, "containment"] == 1.0
    assert (c.loc[0, "doc_a"], c.loc[0, "doc_b"]) == (1, 2)
    j = ngram_jaccard_pairs(rd.from_items(rows),
                            threshold=0.8).to_pandas()
    assert len(j) == 0


def test_hybrid_rerank_partial_embedding_coverage(ray_session):
    """Candidates without an embedding are excluded and the anchor
    falls back to the best-ranked EMBEDDED candidate (the sf0.1
    regime, where embeddings cover only part of the corpus); a term
    with zero embedded candidates emits no rows."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.retrieval import (
        hybrid_rerank)

    # docs 1..4 contain 'zap'; only docs 2 and 4 have embeddings, so
    # the anchor is doc 2 (best embedded bm25 rank) and docs 1,3 drop
    docs = rd.from_items([
        {"doc_id": 1, "text": "zap zap zap zap"},
        {"doc_id": 2, "text": "zap zap zap"},
        {"doc_id": 3, "text": "zap zap"},
        {"doc_id": 4, "text": "zap filler words here"},
        {"doc_id": 5, "text": "nothing relevant"},
    ])
    vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array([2, 4], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                              pa.list_(pa.float32())),
    }))
    out = hybrid_rerank(docs, vecs, ["zap", "absent"], k=10).to_pandas()
    assert set(out["doc_id"]) == {2, 4}
    assert set(out["query_term"]) == {"zap"}  # 'absent' has no cands
    row = out.set_index("doc_id")
    assert row.loc[2, "rerank"] == 1   # anchor ranks itself first
    assert row.loc[4, "rerank"] == 2


def test_mips_vs_cosine_norm_sensitivity(ray_session):
    """MIPS ranks the LONG vector first even when a unit vector points
    closer; cosine does the opposite — the semantic reason both
    operators exist.  (The synth embeddings are near-unit-norm, so the
    oracle fixture can't separate them; this fixture can.)"""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import (
        knn_bruteforce, mips_topk)

    # query 0 = e1; vec 10 = 10*(0.6, 0.8) (long, 53 deg off),
    # vec 11 = (0.99..., small) (unit, nearly parallel)
    tbl = pa.table({
        "vec_id": pa.array([0, 10, 11], pa.int64()),
        "embedding": pa.array(
            [[1.0, 0.0], [6.0, 8.0], [0.995, 0.0998]],
            pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    m = mips_topk(ds, n_queries=1, k=2).to_pandas().sort_values("rank")
    c = (knn_bruteforce(rd.from_arrow(tbl), n_queries=1, k=2)
         .to_pandas().sort_values("rank"))
    assert m["neighbor_id"].tolist() == [10, 11]  # dot: 6.0 > 0.995
    assert c["neighbor_id"].tolist() == [11, 10]  # cos: 0.995 > 0.6


def test_pii_redact_semantics(ray_session):
    """Real PII fixtures through the scrub kernels: every pattern class
    fires, replacement order prevents double counting, clean text is
    PII-free."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import pii_redact

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "reach a.b+c@mail.example.org or x@y.io today",
            "ssn 123-45-6789 phone 415-555-0042 ip 192.168.0.1",
            None,
            "no pii here at all",
        ], pa.string()),
    }))
    out = (pii_redact(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "n_email"] == 2
    assert out.loc[0, "clean_text"] == "reach <EMAIL> or <EMAIL> today"
    assert out.loc[1, ["n_phone", "n_ssn", "n_ip"]].tolist() == [1, 1, 1]
    assert out.loc[1, "clean_text"] == "ssn <SSN> phone <PHONE> ip <IP>"
    assert out.loc[2, "clean_text"] == ""  # null text -> empty, no crash
    assert out.loc[3, "clean_text"] == "no pii here at all"
    assert out[["n_email", "n_phone", "n_ssn", "n_ip"]].sum().sum() == 5


def test_doc_repetition_signals(ray_session):
    """Hand-computed Gopher repetition integers, including the
    single-token (zero-bigram) and empty-text edge docs."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        doc_repetition)

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([7, 8, 9], pa.int64()),
        "text": pa.array([
            "spam spam spam ham spam",  # top token 4x, top bigram 2x
            "one",                       # 1 token, 0 bigrams
            "",                          # ''.split(' ') == [''] rule
        ], pa.string()),
    }))
    out = (doc_repetition(docs).to_pandas()
           .set_index("doc_id").sort_index())
    r = out.loc[7]
    assert (r["n_tokens"], r["n_distinct"], r["top_token_n"]) == (5, 2, 4)
    # bigrams: (spam,spam)x2 (spam,ham) (ham,spam) -> 4 total 3 distinct
    assert (r["n_bigrams"], r["n_distinct_bigrams"],
            r["top_bigram_n"]) == (4, 3, 2)
    assert out.loc[8].tolist() == [1, 1, 1, 0, 0, 0]
    assert out.loc[9].tolist() == [1, 1, 1, 0, 0, 0]


def test_semantic_dup_pairs_subset_of_exact(ray_session):
    """SemDeDup output must be exactly the all-pairs cosine pairs whose
    BOTH endpoints share a kmeans cluster — no more, no fewer — and be
    invariant to the chunk count (pure co-location knob)."""
    from clinicaltransformerner_ray.pipelines.dedup import (
        embedding_dup_pairs, semantic_dup_pairs)
    from clinicaltransformerner_ray.pipelines.similarity import kmeans
    from clinicaltransformerner_ray.sources.tables import read_embeddings

    vecs = read_embeddings(SF)
    exact = {(r.vec_a, r.vec_b)
             for r in embedding_dup_pairs(vecs, threshold=0.45)
             .to_pandas().itertuples()}
    _, asn = kmeans(vecs, k=16, iters=5)
    cl = dict(zip(*[asn.to_pandas()[c] for c in ("vec_id", "centroid")]))
    expected = {(a, b) for a, b in exact if cl[a] == cl[b]}
    got = semantic_dup_pairs(vecs, k=16, iters=5,
                             threshold=0.45).to_pandas()
    assert {(r.vec_a, r.vec_b) for r in got.itertuples()} == expected
    got3 = semantic_dup_pairs(vecs, k=16, iters=5, threshold=0.45,
                              n_chunks=3).to_pandas()
    assert ({(r.vec_a, r.vec_b) for r in got3.itertuples()}
            == expected)  # chunk-count invariance
    # centroid column is consistent with the assignment
    for r in got.itertuples():
        assert cl[r.vec_a] == r.centroid == cl[r.vec_b]


def test_hard_negatives_planted(ray_session):
    """Planted geometry: the single nearest vector shares the query's
    label (a positive — must be EXCLUDED), the next-nearest carries a
    different label and must be rank 1; all returned neighbors carry a
    label different from the query's.  Split-invariant across
    repartition counts."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import (
        hard_negatives)

    # query = e0; same-label near-dup at angle ~0; hard negative at a
    # slightly wider angle; easy negatives near-orthogonal
    rows = [
        [10.0, 0.0, 0.0, 0.0],   # vec 0: query, label 0
        [10.0, 0.5, 0.0, 0.0],   # vec 1: positive (label 0) — excluded
        [10.0, 1.5, 0.0, 0.0],   # vec 2: hard negative (label 1)
        [0.0, 10.0, 0.0, 0.0],   # vec 3: easy negative (label 1)
        [0.0, 0.0, 10.0, 0.0],   # vec 4: easy negative (label 2)
        [1.0, 0.0, 0.0, 10.0],   # vec 5: easy negative (label 2)
    ]
    labels = [0, 0, 1, 1, 2, 2]
    tbl = pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array([r for r in rows], pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    outs = []
    for nparts in (1, 3):
        vecs = rd.from_arrow(tbl).repartition(nparts)
        out = (hard_negatives(vecs, n_queries=1, k=3).to_pandas()
               .sort_values("rank").reset_index(drop=True))
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert a["query_id"].tolist() == [0, 0, 0]
    assert 1 not in set(a["neighbor_id"])        # positive excluded
    assert a.loc[0, "neighbor_id"] == 2          # hard negative first
    assert set(a["neighbor_id"]) == {2, 5, 3}    # by descending cosine
    assert a["rank"].tolist() == [1, 2, 3]


def test_pq_retrieves_planted_clusters(ray_session):
    """On structured data (4 tight, well-separated clusters) PQ must
    rank every same-cluster vector above every other-cluster vector —
    quantization noise can't cross a large inter-cluster margin.  The
    sf0.001 embeddings are near-orthogonal noise where ANY coarse
    quantizer scores ~random, so recall is asserted on a planted
    fixture instead (the two-scale ORACLE parity test covers the synth
    table)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import pq_topk

    dim, per = 8, 10
    base = np.eye(4, dim) * 10.0            # 4 distant cluster centers
    ids, rows = [], []
    for cl in range(4):
        for j in range(per):
            v = base[cl].copy()
            v[4 + (j % 4)] += 0.1 * (j + 1)  # deterministic jitter
            rows.append(v)
            # id % k_sub == cluster: the vec_id % k_sub init starts
            # cluster-pure, so Lloyd's provably keeps the 4 codes on
            # the 4 centers (PQ codebook quality is data/init
            # dependent by nature; this test pins retrieval, not
            # codebook training robustness)
            ids.append(cl + 4 * j)
    X = np.asarray(rows)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([r.tolist() for r in X],
                              pa.list_(pa.float32())),
    })
    out = pq_topk(rd.from_arrow(tbl).repartition(3), n_queries=1,
                  k=per - 1, m=2, k_sub=4, iters=3).to_pandas()
    # query vec 0 (cluster 0): all 9 neighbors must be cluster 0,
    # i.e. ids congruent to 0 mod 4
    assert len(out) == per - 1
    assert set(out["neighbor_id"]) == {4 * j for j in range(1, per)}
    assert out["rank"].tolist() == sorted(out["rank"].tolist())


def test_lang_id_profiles_discriminates(ray_session):
    """Disjoint-vocabulary fixture: profile scoring must recover each
    doc's language, and a doc with no >= 3-char token is absent."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        lang_id_profiles)

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "hello world hello friend",
            "bonjour monde bonjour ami tout",
            "hello again world friend hello",
            "monde ami bonjour tout monde",
            "a an it",              # no >=3-char... 'an'/'it' 2 chars
        ], pa.string()),
        "lang": pa.array(["en", "fr", "en", "fr", "de"], pa.string()),
    })).repartition(2)
    out = (lang_id_profiles(docs).to_pandas()
           .set_index("doc_id").sort_index())
    assert out.loc[[0, 2], "lang_pred"].tolist() == ["en", "en"]
    assert out.loc[[1, 3], "lang_pred"].tolist() == ["fr", "fr"]
    assert 4 not in out.index  # inner-join semantics
    assert (out["score"] > 0).all()


def test_bpe_train_canonical_merges(ray_session):
    """Hand-checkable corpus: the most frequent adjacent pair wins
    each round with (count DESC, pair ASC) ties, a learned symbol
    participates in later merges, and back-to-back pair runs merge
    EVERY occurrence ('abab' -> [ab, ab], the 4-fold replace
    fixpoint, not the single-pass every-other artifact).  Also
    block-split invariant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import bpe_train

    # 'abab' x3 plants the run; 'abc' x2 feeds (ab,c) after round 0
    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([
            "abab abab abc", "abab abc xy",
        ], pa.string()),
    })
    outs = []
    for nparts in (1, 2):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = bpe_train(docs, n_merges=3, max_types=64).to_pandas()
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    # round 0: pair (a,b) appears 2x in each 'abab' (overlap-counted)
    # x3 docs' worth = 6, plus 1x in each 'abc' = 8 total
    assert a.loc[0, ["left", "right", "merged"]].tolist() == \
        ["a", "b", "ab"]
    assert a.loc[0, "pair_count"] == 8
    # round 1: 'abab' is now [ab, ab] (BOTH occurrences merged) ->
    # pair (ab,ab) count 3 beats (ab,c) count 2 and (x,y) count 1
    assert a.loc[1, ["left", "right", "merged"]].tolist() == \
        ["ab", "ab", "abab"]
    assert a.loc[1, "pair_count"] == 3
    # round 2: (ab,c) is the survivor — the learned symbol composes
    assert a.loc[2, ["left", "right", "merged"]].tolist() == \
        ["ab", "c", "abc"]
    assert a.loc[2, "pair_count"] == 2


def test_bpe_encode_counts_hand_checked(ray_session):
    """Encode with the corpus's own merges, hand-derived on the same
    planted corpus as the train test: after merges ab, abab, abc the
    word 'abab' is 1 symbol, 'abc' is 1, 'xy' stays 2 chars.  Docs
    with zero tokens are absent; block-split invariant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        bpe_encode_counts)

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "abab abab abc", "abab abc xy", "",
        ], pa.string()),
    })
    outs = []
    for nparts in (1, 2):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = (bpe_encode_counts(docs, n_merges=3, max_types=64)
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    assert set(a.index) == {0, 1}          # empty doc absent
    assert a.loc[0, "n_ws_tokens"] == 3    # abab abab abc
    assert a.loc[0, "n_bpe_tokens"] == 3   # 1 + 1 + 1
    assert a.loc[1, "n_ws_tokens"] == 3    # abab abc xy
    assert a.loc[1, "n_bpe_tokens"] == 4   # 1 + 1 + 2


def test_span_dedup_rewrite_planted(ray_session):
    """Planted repeated spans: the corpus-wide FIRST occurrence (by
    doc_id, span_idx) survives, later occurrences are cut from the
    rebuilt text, a doc made entirely of repeats survives with
    new_text='', and the output is block-split invariant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        span_dedup_rewrite)

    dup = "a b"                      # w=2 span planted in docs 0,1,2
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            f"{dup} c d",            # first occurrence of 'a b'
            f"x y {dup} z",          # 'a b' repeat at ci=1; 'z' tail
            dup,                      # all-repeat doc -> new_text ''
            "p q r",                  # untouched (trailing short span)
        ], pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = (span_dedup_rewrite(docs, w=2).to_pandas()
               .set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    assert a.loc[0, "new_text"] == "a b c d"
    assert a.loc[1, "new_text"] == "x y z"
    assert a.loc[2, "new_text"] == ""
    assert a.loc[3, "new_text"] == "p q r"
    assert a["n_spans"].tolist() == [2, 3, 1, 2]
    assert a["n_kept"].tolist() == [2, 2, 0, 2]


def test_dsir_importance_ranks_target_like_docs(ray_session):
    """Planted-vocabulary fixture: a raw doc written in the target
    slice's vocabulary must outscore a raw doc written in a disjoint
    vocabulary, target-side docs are absent from the output
    (scores cover the RAW side only), and an empty raw doc is absent
    (inner-join semantics).  Also asserts block-split invariance:
    integer partials folded on the driver are exactly associative."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        dsir_importance)

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            "alpha beta gamma alpha beta",   # target vocab
            "alpha gamma beta beta alpha",   # target vocab
            "alpha beta gamma beta",          # raw, target-like
            "zeta eta theta zeta eta",        # raw, off-target
            "",                                # raw, empty -> absent
            "beta zeta alpha theta",           # raw, mixed
        ], pa.string()),
        "source": pa.array(
            ["tgt", "tgt", "web", "web", "web", "web"], pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = (dsir_importance(docs, target_source="tgt",
                               n_buckets=1024).to_pandas()
               .set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert set(a.index) == {2, 3, 5}     # raw side only, no empty doc
    assert a.loc[2, "score"] > a.loc[3, "score"]
    assert a.loc[2, "score"] > a.loc[5, "score"] > a.loc[3, "score"]
    assert a["n_toks"].tolist() == [4, 5, 4]


def test_lm_quality_buckets_planted(ray_session):
    """Planted-bigram fixture: a raw doc whose adjacent pairs all
    appear in the reference slice gets the head bucket, an
    off-vocabulary doc the tail, a mixed doc the middle; docs with
    fewer than two tokens are absent (no bigram).  Also asserts
    block-split invariance (integer partials + driver fold are
    exactly associative)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import lm_quality

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            "alpha beta gamma alpha beta gamma alpha beta",  # ref
            "alpha beta gamma alpha beta",                    # raw fluent
            "zeta eta theta iota kappa",                      # raw off-LM
            "alpha beta zeta eta gamma",                      # raw mixed
            "alpha",                       # raw, 1 token -> absent
            "",                            # raw, empty -> absent
        ], pa.string()),
        "source": pa.array(
            ["wiki", "web", "web", "web", "web", "web"], pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = (lm_quality(docs, ref_source="wiki", n_buckets=1024)
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert set(a.index) == {1, 2, 3}     # raw side only, >= 1 bigram
    assert a.loc[1, "mean_fp"] > a.loc[3, "mean_fp"] > a.loc[2, "mean_fp"]
    assert a["bucket"].tolist() == ["head", "tail", "middle"]
    assert a["n_pairs"].tolist() == [4, 4, 4]
    assert (a["mean_fp"] == a["lm_score"] // a["n_pairs"]).all()


def test_table_profile_nulls_and_kinds(ray_session):
    """Profile a hand-built mixed-type table WITH nulls (the synth
    tables have none): exact null counts, typed min/max (int, string,
    floor-cents float), an all-null column yielding NULL min/max, and
    split invariance of the driver fold."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import table_profile

    tbl = pa.table({
        "k": pa.array([5, None, -3, 9], pa.int64()),
        "s": pa.array(["beta", "alpha", None, "Zulu"], pa.string()),
        "v": pa.array([1.25, -0.015, 3.999, None], pa.float64()),
        "dead": pa.array([None] * 4, pa.int64()),
    })
    specs = [("k", "int"), ("s", "str"), ("v", "cents"),
             ("dead", "int")]
    outs = []
    for nparts in (1, 3):
        out = (table_profile(rd.from_arrow(tbl).repartition(nparts),
                             specs)
               .to_pandas().set_index("col").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant fold
    assert (a["n_rows"] == 4).all()
    assert a.loc["k", "n_null"] == 1
    assert (a.loc["k", "min_v"], a.loc["k", "max_v"]) == ("-3", "9")
    # binary-codepoint string order: 'Zulu' < 'alpha' (upper < lower)
    assert (a.loc["s", "min_v"], a.loc["s", "max_v"]) == ("Zulu",
                                                          "beta")
    # floor-cents: floor(-0.015*100) = floor(-1.5...) = -2
    assert (a.loc["v", "min_v"], a.loc["v", "max_v"]) == ("-2", "399")
    assert a.loc["dead", "n_null"] == 4
    assert a.loc["dead", "min_v"] is None or pd.isna(
        a.loc["dead", "min_v"])


def test_fim_plan_hand_folded(ray_session):
    """Replicate the per-doc md5 draws in-test: apply bit, ascending
    cut pair in [0, n], PSM/SPM bit; non-FIM docs pin cut1=cut2=n and
    spm=0; token-less docs absent; split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.textstats import fim_plan

    tbl = pa.table({
        "doc_id": pa.array(list(range(20)) + [99], pa.int64()),
        "text": pa.array(
            [" ".join(f"t{j}" for j in range(5 + i))
             for i in range(20)] + [""], pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        out = (fim_plan(rd.from_arrow(tbl).repartition(nparts))
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    assert 99 not in a.index               # empty doc absent
    assert (a["cut1"] <= a["cut2"]).all()
    assert (a["cut2"] <= a["n_tokens"]).all()
    off = a["fim"] == 0
    assert (a.loc[off, "cut1"] == a.loc[off, "n_tokens"]).all()
    assert (a.loc[off, "cut2"] == a.loc[off, "n_tokens"]).all()
    assert (a.loc[off, "spm"] == 0).all()
    assert 0 < a["fim"].sum() < len(a)     # both branches exercised
    for d, r in a.iterrows():
        n = int(r["n_tokens"])
        fim = int(_hash64([f"fim:{d}"])[0] % np.uint64(1000) < 500)
        assert r["fim"] == fim
        if fim:
            c1 = int(_hash64([f"fimc1:{d}"])[0] % np.uint64(n + 1))
            c2 = int(_hash64([f"fimc2:{d}"])[0] % np.uint64(n + 1))
            assert r["cut1"] == min(c1, c2)
            assert r["cut2"] == max(c1, c2)
            assert r["spm"] == int(_hash64([f"fimm:{d}"])[0]
                                   % np.uint64(2))


def test_dsir_select_running_topm(ray_session):
    """The running top-m fold must equal a brute-force global sort of
    the full dsir_importance output — including a tie at the m
    boundary broken by doc_id asc — and be split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        dsir_importance, dsir_select)

    # target vocab alpha/beta/gamma; raw docs graded toward it, with
    # docs 10 and 11 IDENTICAL (score tie at the boundary when m=3)
    raws = ["alpha beta gamma", "alpha beta zeta", "alpha beta zeta",
            "alpha eta zeta", "zeta eta theta"]
    tbl = pa.table({
        "doc_id": pa.array([0, 1] + list(range(10, 15)), pa.int64()),
        "text": pa.array(["alpha beta gamma alpha",
                          "beta gamma alpha beta"] + raws, pa.string()),
        "source": pa.array(["tgt"] * 2 + ["web"] * 5, pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        docs = rd.from_arrow(tbl).repartition(nparts)
        out = (dsir_select(docs, target_source="tgt", n_buckets=512,
                           m=3).to_pandas())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    # brute force over the full scored table
    full = (dsir_importance(rd.from_arrow(tbl), target_source="tgt",
                            n_buckets=512).to_pandas())
    full = full.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(3)
    assert a["doc_id"].tolist() == full["doc_id"].tolist()
    assert a["score"].tolist() == full["score"].tolist()
    assert a["rank"].tolist() == [1, 2, 3]
    # the tie pair 10/11 has equal scores; doc 10 (lower id) wins the
    # boundary slot whenever exactly one of them fits
    sc = dict(zip(full["doc_id"], full["score"]))
    if 11 not in sc:
        assert 10 in sc


def test_mlm_mask_plan_deterministic(ray_session):
    """The masking plan must replicate the md5 position-draw rule
    exactly (hand-folded against _hash64 in-test), partition the
    masked set 80/10/10 consistently (n_masked = n_mask+n_rand+n_keep),
    drop token-less docs, and be split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.textstats import (
        mlm_mask_plan)

    texts = ["alpha beta gamma delta epsilon zeta eta theta",
             " spaced   out  tokens ",
             ""]
    tbl = pa.table({
        "doc_id": pa.array([7, 8, 9], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    outs = []
    for nparts in (1, 2):
        out = (mlm_mask_plan(rd.from_arrow(tbl).repartition(nparts))
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert set(a.index) == {7, 8}        # empty doc absent
    assert (a["n_masked"] ==
            a["n_mask"] + a["n_rand"] + a["n_keep"]).all()
    # hand-fold doc 7 with the same rule the engine documents
    toks = [t for t in texts[0].split(" ") if t]
    r = _hash64([f"mlm:7:{p}" for p in range(len(toks))]) % np.uint64(1000)
    assert a.loc[7, "n_tokens"] == len(toks)
    assert a.loc[7, "n_masked"] == int((r < 150).sum())
    assert a.loc[7, "masked_pos_sum"] == int(
        np.arange(len(toks))[r < 150].sum())
    assert a.loc[8, "n_tokens"] == 3     # '' artifacts dropped


def test_t5_span_plan_hand_folded(ray_session):
    """Replicate the md5 start/width draws in-test and fold the
    interval-union / merged-span-head scan by hand for each doc; the
    engine must match exactly, keep token-less docs absent, and be
    split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.textstats import (
        t5_span_plan)

    texts = [" ".join(f"w{i}" for i in range(60)),
             "a b c",
             ""]
    tbl = pa.table({
        "doc_id": pa.array([3, 4, 5], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    outs = []
    for nparts in (1, 2):
        out = (t5_span_plan(rd.from_arrow(tbl).repartition(nparts))
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    assert set(a.index) == {3, 4}

    def fold(doc_id, n):
        ks = [f"t5:{doc_id}:{p}" for p in range(n)]
        starts = np.flatnonzero(
            _hash64(ks) % np.uint64(1000) < np.uint64(50))
        n_spans = cov = 0
        pm = -1
        for p in starts:
            w = 2 + int(_hash64([f"t5w:{doc_id}:{p}"])[0]
                        % np.uint64(3))
            e = min(p + w, n)
            if p >= pm:
                n_spans += 1
            cov += max(0, e - max(p, pm))
            pm = max(pm, e)
        return len(starts), n_spans, cov

    for doc_id, n in ((3, 60), (4, 3)):
        ns, nsp, cov = fold(doc_id, n)
        assert a.loc[doc_id, "n_tokens"] == n
        assert a.loc[doc_id, "n_starts"] == ns
        assert a.loc[doc_id, "n_spans"] == nsp
        assert a.loc[doc_id, "n_corrupted"] == cov
        assert a.loc[doc_id, "n_corrupted"] <= n


def test_link_negatives_deterministic(ray_session):
    """Negative sampling over a hand-built triple table: every
    neg_obj differs from the true object, comes from the endpoint
    vocabulary, replicates the documented md5 pick rule exactly, and
    is split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import _hash64
    from clinicaltransformerner_ray.pipelines.graph import link_negatives

    tbl = pa.table({
        "subj": pa.array(["A", "A", "B", "C"], pa.string()),
        "pred": pa.array(["co_occurs"] * 4, pa.string()),
        "obj": pa.array(["B", "C", "D", "D"], pa.string()),
    })
    vocab = sorted({"A", "B", "C", "D"})
    outs = []
    for nparts in (1, 3):
        out = (link_negatives(rd.from_arrow(tbl).repartition(nparts))
               .to_pandas().sort_values(["subj", "obj"])
               .reset_index(drop=True))
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert (a["neg_obj"] != a["obj"]).all()
    assert set(a["neg_obj"]) <= set(vocab)
    # hand-fold the documented rule
    for _, r in a.iterrows():
        # NB: % must stay uint64 (a Python-int modulus promotes numpy
        # uint64 to float64 and corrupts the residue — CLAUDE.md r2#1)
        idx = int(_hash64([f"{r.subj}:{r.pred}:{r.obj}"])[0]
                  % np.uint64(4))
        if vocab[idx] == r.obj:
            idx = (idx + 1) % 4
        assert r.neg_obj == vocab[idx]


def test_curriculum_order_planted(ray_session):
    """Curriculum rank over a hand-built quality table: head docs
    precede middle precede tail, higher mean_fp first within a bucket,
    ties share n_ahead (rank() - 1 semantics), and the ordering is
    split-invariant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        curriculum_order)

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "mean_fp": pa.array([900, 700, 500, 500, 300, 100], pa.int64()),
        "bucket": pa.array(["head", "head", "middle", "middle",
                            "middle", "tail"], pa.string()),
    })
    outs = []
    for nparts in (1, 3):
        out = (curriculum_order(rd.from_arrow(tbl).repartition(nparts))
               .to_pandas().set_index("doc_id").sort_index())
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)  # split-invariant
    assert a["n_ahead"].tolist() == [0, 1, 2, 2, 4, 5]  # tie shares 2
    assert (a["n_docs"] == 6).all()


def test_bloom_membership_no_false_negatives(ray_session):
    """Every reference-split doc must flag itself (no false negatives —
    the Bloom guarantee); a text absent from the reference may flag
    only via an md5 collision, deterministic across runs."""
    import __ray_entry__ as E

    df = E.queries()["bloom_decontaminate"](SF).to_pandas()
    assert len(df) == 500
    ref = df["doc_id"] % 10 == 0
    assert (df.loc[ref, "flagged"] == 1).all()
    # exact duplicates of a reference text also flag: cross-check the
    # flag rate is sane (not everything flags)
    assert df["flagged"].sum() < len(df)


def test_substring_coverage_planted(ray_session):
    """Overlapping duplicated 3-grams merge into covered SPANS: two docs
    share a 5-token run (3 dup shingles -> 5 covered tokens, not 9), a
    third doc shares nothing, and a short doc pair (< 3 tokens) is
    whole-text dup-covered."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        substring_dup_coverage)

    shared = "alpha beta gamma delta epsilon"
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            shared + " zeta eta",          # dup run at pos 1..5
            "one two " + shared,           # dup run at pos 3..7
            "lonely words with no overlap at all",
            "hi there",                    # short pair: whole-text
            "hi there",
        ]),
    })
    out = (substring_dup_coverage(rd.from_arrow(tbl), n=3)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_dup"].tolist() == [3, 3, 0, 1, 1]
    assert out["covered_tokens"].tolist() == [5, 5, 0, 2, 2]
    assert out["n_tokens"].tolist() == [7, 7, 7, 2, 2]
    assert out.loc[3, "dup_bp"] == 10_000


def test_quality_gates_semantics(ray_session):
    """Each C4 gate fires on exactly its trigger; clean docs keep=1."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import quality_gates

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": pa.array([
            "a perfectly normal document with enough tokens here.",
            "contains lorem ipsum filler so it must be dropped",
            "code fragment { inside } the page",
            "short doc",                              # < 5 tokens
            "has a veryveryveryverylongtokenxxxxx inside it okay",
            "please click here to win a prize now",
        ]),
    })
    out = (quality_gates(rd.from_arrow(tbl), min_tokens=5,
                         max_tok_len=20)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["keep"].tolist() == [1, 0, 0, 0, 0, 0]
    assert out["ends_terminal"].tolist() == [1, 0, 0, 0, 0, 0]
    assert out["flag_0"].tolist() == [0, 1, 0, 0, 0, 0]
    assert out["flag_1"].tolist() == [0, 0, 1, 0, 0, 0]
    assert out["flag_2"].tolist() == [0, 0, 0, 0, 0, 1]
    assert out.loc[4, "max_tok_len"] == 30


def test_topk_recall_counts_overlap(ray_session):
    """Hand-built exact/approx top-k tables: overlap counted per query,
    queries missing from one side still emit a row (n_common=0)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import topk_recall

    exact = pa.table({
        "query_id": pa.array([1, 1, 1, 2, 2, 2], pa.int64()),
        "neighbor_id": pa.array([10, 11, 12, 20, 21, 22], pa.int64()),
    })
    approx = pa.table({
        "query_id": pa.array([1, 1, 1, 3, 3, 3], pa.int64()),
        "neighbor_id": pa.array([10, 12, 99, 30, 31, 32], pa.int64()),
    })
    out = (topk_recall(rd.from_arrow(exact), rd.from_arrow(approx), k=3)
           .to_pandas().sort_values("query_id").reset_index(drop=True))
    assert out["query_id"].tolist() == [1, 2, 3]
    assert out["n_common"].tolist() == [2, 0, 0]
    assert out["recall_bp"].tolist() == [6666, 0, 0]


def test_bpe_token_counts_semantics(ray_session):
    """The RE2 pre-tokenizer splits contractions, digit runs and
    punctuation runs the way a BPE pre-tokenizer would."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        bpe_token_counts)

    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        # "It's over 9000!!" -> It / 's / over / 9000 / !!
        "text": pa.array(["It's over 9000!!", "plain words here"]),
    })
    out = (bpe_token_counts(rd.from_arrow(tbl))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_bpe_tokens"].tolist() == [5, 3]
    assert out["n_ws_tokens"].tolist() == [3, 3]


def test_dedup_report_sections_match_standalone(ray_session):
    """dedup_report's shared-pairs path must reproduce the three
    standalone kernels row-for-row: same posting join, computed once."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        dedup_report, minhash_calibration, ngram_containment_pairs,
        ngram_jaccard_pairs)
    from clinicaltransformerner_ray.pipelines.graph import (
        clustering_coefficients)
    from clinicaltransformerner_ray.sources.tables import read_documents

    docs = read_documents(SF).materialize()
    rep = dedup_report(docs, n=3, jaccard_threshold=0.8,
                       containment_threshold=0.9).to_pandas()
    by = dict(tuple(rep.groupby("section")))

    cont = ngram_containment_pairs(docs, n=3, threshold=0.9).to_pandas()
    got = by.get("containment",
                 rep.iloc[0:0])[["k1", "k2", "v1", "v2", "v3"]]
    want = cont[["doc_a", "doc_b", "n_common", "size_a", "size_b"]]
    assert (got.to_numpy(dtype="int64").tolist()
            == want.sort_values(["doc_a", "doc_b"])
                   .to_numpy(dtype="int64").tolist())

    cc = clustering_coefficients(
        ngram_jaccard_pairs(docs, n=3, threshold=0.8),
        out_col="doc_id").to_pandas()
    got = by.get("clustering", rep.iloc[0:0])[["k1", "v1", "v2", "v3"]]
    want = cc[["doc_id", "n_triangles", "degree", "coeff_bp"]]
    assert (got.to_numpy(dtype="int64").tolist()
            == want.sort_values("doc_id")
                   .to_numpy(dtype="int64").tolist())

    cal = minhash_calibration(docs, threshold=0.8).to_pandas()
    got = by.get("calibration", rep.iloc[0:0])[["k1", "v1", "v2"]]
    want = cal[["est_64", "n_candidates", "n_confirmed"]]
    assert (got.to_numpy(dtype="int64").tolist()
            == want.sort_values("est_64")
                   .to_numpy(dtype="int64").tolist())


def test_pq_block_split_invariant(ray_session):
    """Regression (r05): ann_pq once produced a transient hash
    mismatch because Lloyd's centroid partials were block-order float
    sums — Ray's block splits vary run to run, 1-ulp drift flipped a
    near-tie code and the iterations amplified it.  With the
    floor(v*2^20) quantization every partial is a sum of exact
    integers, so ANY partitioning must give bitwise-identical
    rankings."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import pq_topk

    tbl = pq_.read_table(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    outs = []
    for parts in (1, 3, 7, 16):
        out = (pq_topk(rd.from_arrow(tbl).repartition(parts),
                       n_queries=4, k=5)
               .to_pandas().sort_values(["query_id", "rank"])
               .reset_index(drop=True))
        outs.append(out)
    for other in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], other)


def test_mmr_diversifies_over_plain_topk(ray_session):
    """Planted geometry where MMR and plain top-k DISAGREE: v2 is the
    second-most query-similar but nearly duplicates v1, so MMR's round
    2 picks the more diverse v3 instead.  All values dyadic, so the
    floor(v*2^20) quantization is exact and every expected score is a
    hand-computable integer (sim = dot * 2^40).  Split-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import mmr_topk

    rows = [
        [4.0, 0.0, 0.0, 0.0],    # vec 0: query
        [3.0, 1.0, 0.0, 0.0],    # vec 1: simq 12 -> rank 1
        [3.0, 1.25, 0.0, 0.0],   # vec 2: simq 12.25 but sim(v1)=10.25
        [2.0, 0.0, 2.0, 0.0],    # vec 3: simq 8, sim(v1)=6 -> diverse
        [0.0, 0.0, 0.0, 1.0],    # vec 4: simq 0, orthogonal
    ]
    tbl = pa.table({
        "vec_id": pa.array(range(5), pa.int64()),
        "embedding": pa.array(rows, pa.list_(pa.float32())),
    })
    S = 1 << 40  # quantized sim units per 1.0 of raw dot product

    # simq: v1 = v2 = 12 (tie -> v1 by id), v3 = 8, v4 = 0.
    # round 2: v2 scores 12 - sim(v1,v2) = 12 - 10.25 = 1.75 while the
    # diverse v3 scores 8 - sim(v1,v3) = 8 - 6 = 2 -> MMR picks v3
    # (plain top-2 by relevance would pick v2).
    # round 3: v2 with 12 - max(10.25, sim(v3,v2)=6) = 1.75.
    # round 4: v4 with 0 - max(0, 0, 0) = 0.
    for n_parts in (1, 2, 5):
        got = (mmr_topk(rd.from_arrow(tbl).repartition(n_parts),
                        query_id=0, n_candidates=10, k=4)
               .to_pandas())
        assert list(got["vec_id"]) == [1, 3, 2, 4]
        assert list(got["score"]) == [
            12 * S, 2 * S, int(1.75 * S), 0]


def test_embedding_covariance_hand_fold(ray_session):
    """Two dyadic vectors, every Gram/sum cell hand-computed; output
    must be bitwise identical across block splits (integer partials
    are exactly associative)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import (
        embedding_covariance)

    q = 1 << 20
    tbl = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[1.0, 2.0], [0.5, -1.0]],
                              pa.list_(pa.float32())),
    })
    expected = {
        (0, 0): q * q + (q // 2) * (q // 2),
        (0, 1): q * 2 * q + (q // 2) * (-q),
        (1, 1): 4 * q * q + q * q,
        (0, -1): q + q // 2,
        (1, -1): 2 * q - q,
        (-1, -1): 2,
    }
    for n_parts in (1, 2):
        got = (embedding_covariance(rd.from_arrow(tbl)
                                    .repartition(n_parts))
               .to_pandas())
        assert {(r.i, r.j): r.v for r in got.itertuples()} == expected


def test_winnowing_guarantee_and_conventions(ray_session):
    """The winnowing theorem: two docs sharing a word run of length
    >= w + n - 1 (= 6 here) must share at least one selected
    fingerprint HASH; plus the short-doc conventions (one whole-text
    shingle, one window) and the density bound (every window selects,
    so n_fingerprints <= n_windows and >= 1)."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        winnow_fingerprints)

    shared = "alpha beta gamma delta epsilon zeta"  # 6-word run
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "one two three " + shared + " four five six",
            "seven eight " + shared + " nine ten eleven twelve",
            "tiny",            # < n tokens: whole-text shingle
            "just two",        # < n tokens
        ], pa.string()),
    })
    out = (winnow_fingerprints(rd.from_arrow(tbl), n=3, w=4)
           .to_pandas().set_index("doc_id").sort_index())
    assert (out["n_fingerprints"] >= 1).all()
    assert (out["n_fingerprints"] <= out["n_windows"]).all()
    # short docs: one shingle, one window, one fingerprint
    for d in (2, 3):
        assert (out.loc[d, ["n_shingles", "n_windows",
                            "n_fingerprints"]] == 1).all()
    # the guarantee: docs 0 and 1 share >= 1 selected hash.  Re-derive
    # each doc's selected hash set with an independent scalar fold.
    def select(text: str, n=3, w=4) -> set:
        toks = text.split(" ")
        shingles = ([" ".join(toks[i:i + n])
                     for i in range(len(toks) - n + 1)]
                    if len(toks) >= n else [text])
        hr = [int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                             "little") % (1 << 20)
              for s in shingles]
        comp = [h * (1 << 32) + ((1 << 31) - (i + 1))
                for i, h in enumerate(hr)]
        sel = set()
        for e in range(min(w, len(comp)) - 1, len(comp)):
            sel.add(min(comp[max(0, e - w + 1):e + 1]))
        return {c >> 32 for c in sel}

    s0, s1 = select(tbl.column("text")[0].as_py()), select(
        tbl.column("text")[1].as_py())
    assert s0 & s1, "shared 6-word run must share a fingerprint hash"
    # and the engine agrees with the scalar fold on the counts
    for d in (0, 1):
        txt = tbl.column("text")[d].as_py()
        toks = txt.split(" ")
        hr = select(txt)  # noqa: F841 - fold exercised above
        assert out.loc[d, "n_shingles"] == len(toks) - 2
        assert out.loc[d, "n_windows"] == len(toks) - 2 - 4 + 1


def test_winnowing_block_split_invariance(ray_session):
    """Selection is per-document, so output is bitwise identical
    across block splits."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        winnow_fingerprints)

    words = "the quick brown fox jumps over a lazy dog again and then"
    tbl = pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
        "text": pa.array([" ".join((words + " ").split(" ")[:k + 1])
                          for k in range(12)], pa.string()),
    })
    ref = None
    for n_parts in (1, 3, 7):
        got = (winnow_fingerprints(rd.from_arrow(tbl)
                                   .repartition(n_parts))
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        if ref is None:
            ref = got
        else:
            pd.testing.assert_frame_equal(got, ref)


def test_out_of_order_stats_hand_fold(ray_session):
    """Per-user lateness vs a straightforward scalar replay of the
    md5 arrival permutation + running watermark."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        out_of_order_stats)

    US = 1_000_000
    rows = []
    eid = 0
    for u in range(4):
        for k in range(25):
            rows.append({"event_id": eid, "user_id": u,
                         "ts": (u * 1000 + k * 7) * US})
            eid += 1
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
        "ts": pa.array([r["ts"] for r in rows],
                       pa.timestamp("us")),
    })
    out = (out_of_order_stats(rd.from_arrow(tbl).repartition(3))
           .to_pandas().set_index("user_id").sort_index())

    def h(e: int) -> int:
        return int.from_bytes(
            hashlib.md5(f"arr:{e}".encode()).digest()[:8], "little")

    for u in range(4):
        evs = sorted((r for r in rows if r["user_id"] == u),
                     key=lambda r: h(r["event_id"]))
        wm, n_late, mx, sm = -1, 0, 0, 0
        for r in evs:
            if wm > r["ts"]:
                n_late += 1
                mx = max(mx, wm - r["ts"])
                sm += wm - r["ts"]
            wm = max(wm, r["ts"])
        assert out.loc[u, "n_events"] == len(evs)
        assert out.loc[u, "n_late"] == n_late
        assert out.loc[u, "max_late_us"] == mx
        assert out.loc[u, "sum_late_us"] == sm
    assert out["n_late"].sum() > 0  # the permutation creates lateness


def test_bpe_fertility_columns(ray_session):
    """Fertility columns are exact integer floors of the base encode
    counts (recomputed independently from the same output row)."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        bpe_encode_counts)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"]).limit(64)
    out = bpe_encode_counts(docs, n_merges=4, max_types=32,
                            with_fertility=True).to_pandas()
    assert len(out) > 0
    assert (out["fertility_bp"]
            == out["n_bpe_tokens"] * 10000
            // out["n_chars"].clip(lower=1)).all()
    assert (out["expansion_bp"]
            == out["n_bpe_tokens"] * 10000 // out["n_ws_tokens"]).all()
    assert (out["n_bpe_tokens"] >= out["n_ws_tokens"]).all()


def test_domain_report_sums_to_corpus_report(ray_session):
    """Slicing by (source, lang) must partition the corpus: summing
    the per-domain v over all domains reproduces the global
    corpus_report value for every (section, k)."""
    import __ray_entry__ as E

    dom = E.queries()["corpus_domain_report"](SF).to_pandas()
    glob = E.queries()["corpus_report"](SF).to_pandas()
    folded = (dom.groupby(["section", "k"])["v"].sum()
              .reset_index())
    m = glob.merge(folded, on=["section", "k"],
                   suffixes=("_glob", "_fold"))
    assert len(m) == len(glob)
    assert (m["v_glob"] == m["v_fold"]).all()
    assert dom["source"].nunique() > 1  # genuinely sliced


def test_entity_salience_recompute(ray_session):
    """salience_fp re-derived in pandas from the engine's own
    entity_daily output (independent decay fold) matches bit for
    bit, and ordering favors recent activity."""
    import numpy as np

    import __ray_entry__ as E

    sal = E.queries()["kg_salience"](SF).to_pandas()
    ed = E.queries()["kg_entity_daily"](SF).to_pandas()
    dmax = int(ed["day"].max())
    age = (dmax - ed["day"]).to_numpy(np.int64)
    w = np.where(age <= 20, np.int64(1) << np.minimum(
        np.maximum(20 - age, 0), 20), np.int64(0))
    exp = (ed.assign(s=ed["n_mentions"].to_numpy(np.int64) * w)
           .groupby("entity_id")
           .agg(n_days=("day", "size"),
                n_mentions=("n_mentions", "sum"),
                last_day=("day", "max"), salience_fp=("s", "sum"))
           .reset_index().sort_values("entity_id")
           .reset_index(drop=True))
    got = sal.sort_values("entity_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, exp[got.columns.tolist()], check_dtype=False)
    assert (sal["salience_fp"] > 0).any()


def test_winnow_pairs_recall_vs_jaccard(ray_session):
    """The winnowing guarantee in action: every planted near-dup pair
    the exact n-gram Jaccard kernel confirms (>= 0.8 on >= w+n-1-word
    overlaps) must also surface as a winnow candidate pair, at ~1/3
    the posting volume."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        ngram_jaccard_pairs, winnow_pairs)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    wp = winnow_pairs(docs, n=3, w=4, min_shared=3).to_pandas()
    jp = ngram_jaccard_pairs(
        rd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]),
        n=3, threshold=0.8).to_pandas()
    got = set(zip(wp["doc_a"], wp["doc_b"]))
    want = set(zip(jp["doc_a"], jp["doc_b"]))
    assert want, "synth plants near-dup pairs"
    assert want <= got, f"missed {want - got}"


def test_winnow_pairs_split_invariance(ray_session):
    """Pair counts are exact integers — bitwise identical across
    block splits."""
    import ray.data as rd

    ref = None
    from clinicaltransformerner_ray.pipelines.dedup import winnow_pairs
    for n_parts in (2, 5):
        got = (winnow_pairs(
            rd.read_parquet(f"{SF}/documents.parquet",
                            columns=["doc_id", "text"])
            .repartition(n_parts), min_shared=3)
            .to_pandas().sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True))
        if ref is None:
            ref = got
        else:
            pd.testing.assert_frame_equal(got, ref)


def test_lang_confusion_partitions_lang_id(ray_session):
    """The confusion matrix must partition the lang_id output: cell
    counts sum to the number of classified docs, and per-true-lang
    row sums match the stored label counts of classified docs."""
    import __ray_entry__ as E

    conf = E.queries()["lang_confusion"](SF).to_pandas()
    li = E.queries()["lang_id"](SF).to_pandas()
    assert conf["n"].sum() == len(li)
    assert ((conf["lang_true"] != conf["lang_pred"])
            == (conf["mismatch"] == 1)).all()


def test_entity_trend_recompute(ray_session):
    """trend_num re-derived in pandas from the engine's own
    entity_daily output matches bit for bit; single-day entities are
    exactly flat (numerator identically 0)."""
    import numpy as np

    import __ray_entry__ as E

    tr = E.queries()["kg_trend"](SF).to_pandas()
    ed = E.queries()["kg_entity_daily"](SF).to_pandas()
    g = (ed.assign(ty=ed["day"].to_numpy(np.int64)
                   * ed["n_mentions"].to_numpy(np.int64))
         .groupby("entity_id")
         .agg(n_days=("day", "size"), st=("day", "sum"),
              n_mentions=("n_mentions", "sum"), sty=("ty", "sum"))
         .reset_index())
    g["trend_num"] = (g["n_days"] * g["sty"]
                      - g["st"] * g["n_mentions"])
    m = tr.merge(g, on="entity_id", suffixes=("", "_x"))
    assert len(m) == len(tr) == len(g)
    assert (m["trend_num"] == m["trend_num_x"]).all()
    assert (m["trend"] == np.sign(m["trend_num"])).all()
    single = m[m["n_days"] == 1]
    assert (single["trend_num"] == 0).all()


def test_session_paths_consistency(ray_session):
    """Path table totals must reconcile with the sessionize kernel:
    Σ n_sessions == total sessions, Σ n_events == total events."""
    import ray.data as rd

    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.events import sessionize

    paths = E.queries()["events_session_paths"](SF).to_pandas()
    sess = sessionize(
        rd.read_parquet(f"{SF}/events.parquet",
                        columns=["event_id", "user_id", "ts"])
    ).to_pandas()
    assert paths["n_sessions"].sum() == len(sess)
    assert paths["n_events"].sum() == sess["n_events"].sum()
    assert (paths["path"].str.count(">") <= 7).all()  # 8-step cap


def test_vocab_growth_planted_curve(ray_session):
    """A corpus where each third of the docs introduces disjoint new
    types produces exactly the planted per-bucket counts (and repeats
    introduce nothing)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.textstats import (
        vocab_growth)

    # 9 docs, deciles with n_buckets=3: docs 0-2 / 3-5 / 6-8
    texts = ["a b c", "a b", "c a",          # 3 new types in bucket 0
             "d e", "d a", "e b",            # 2 new in bucket 1
             "f", "f f f", "a f"]            # 1 new in bucket 2
    tbl = pa.table({
        "doc_id": pa.array(list(range(9)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = vocab_growth(rd.from_arrow(tbl).repartition(4),
                       n_buckets=3).to_pandas()
    assert out["decile"].tolist() == [0, 1, 2]
    assert out["new_types"].tolist() == [3, 2, 1]
    assert out["cum_types"].tolist() == [3, 5, 6]


def test_ab_test_reconciles_with_funnel(ray_session):
    """Exposure counts partition the distinct-user set; converted
    counts partition the funnel output; per-mille floors recompute."""
    import ray.data as rd

    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.events import (
        funnel_conversions)

    ab = E.queries()["events_ab_test"](SF).to_pandas()
    ev = rd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    n_users = ev.map_batches(
        lambda b: b.select(["user_id"]),
        batch_format="pyarrow").to_pandas()["user_id"].nunique()
    f = funnel_conversions(
        rd.read_parquet(f"{SF}/events.parquet",
                        columns=["user_id", "ts", "event_type"])
    ).to_pandas()
    assert ab["n_users"].sum() == n_users
    assert ab["n_converted"].sum() == len(f)
    assert (ab["conv_per_mille"]
            == ab["n_converted"] * 1000
            // ab["n_users"].clip(lower=1)).all()


def test_assortativity_hand_fold(ray_session):
    """A planted star graph is maximally DISassortative (hub degree n
    meets leaf degree 1 on every stub): num < 0; a planted clique is
    degree-regular: num == 0."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import (
        degree_assortativity)

    def triples(pairs):
        return rd.from_arrow(pa.table({
            "subj": pa.array([a for a, _ in pairs], pa.string()),
            "pred": pa.array(["co_occurs"] * len(pairs), pa.string()),
            "obj": pa.array([b for _, b in pairs], pa.string()),
        }))

    star = [("hub", f"leaf{i}") for i in range(5)]
    out = degree_assortativity(triples(star)).to_pandas()
    assert out.loc[0, "assortative"] == -1
    assert out.loc[0, "n_stubs"] == 10
    clique = [(f"v{i}", f"v{j}")
              for i in range(4) for j in range(i + 1, 4)]
    out2 = degree_assortativity(triples(clique)).to_pandas()
    assert out2.loc[0, "assortative"] == 0  # regular graph


def test_source_losses_reconciles_with_curate(ray_session):
    """Per-source totals partition the corpus and the survivor set:
    Σ n_docs == corpus size, Σ n_survivors == curate rows,
    Σ n_represented == corpus size (every doc represented once)."""
    import __ray_entry__ as E

    sl = E.queries()["dedup_source_losses"](SF).to_pandas()
    cur = E.queries()["dedup_curate"](SF).to_pandas()
    docs = E.queries()["text_stats"](SF).to_pandas()
    assert sl["n_docs"].sum() == len(docs)
    assert sl["n_survivors"].sum() == len(cur)
    assert sl["n_represented"].sum() == len(docs)
    assert (sl["n_dropped"] == sl["n_docs"] - sl["n_survivors"]).all()


def test_emb_outliers_planted(ray_session):
    """A planted far-away vector must rank 1, and the ranking is
    block-split invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.similarity import (
        embedding_outliers)

    rng = [(i, [((i * 7 + j) % 13 - 6) / 100.0 for j in range(8)])
           for i in range(40)]
    rng.append((99, [5.0] * 8))  # the planted outlier
    tbl = pa.table({
        "vec_id": pa.array([i for i, _ in rng], pa.int64()),
        "embedding": pa.array([v for _, v in rng],
                              pa.list_(pa.float32())),
    })
    ref = None
    for parts in (1, 4):
        out = embedding_outliers(
            rd.from_arrow(tbl).repartition(parts), k=5).to_pandas()
        assert out.loc[0, "vec_id"] == 99
        if ref is None:
            ref = out
        else:
            pd.testing.assert_frame_equal(out, ref)
    # at q_bits=40 the planted spread squares past int64: a loud error
    with pytest.raises(OverflowError, match="int64"):
        embedding_outliers(rd.from_arrow(tbl), k=5, q_bits=40)


def test_hits_hand_fold(ray_session):
    """A star graph after 2 rounds: hand-derivable exact integers —
    hub(center)=..., computed both by the kernel and a scalar fold."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import hits_scores

    # directed star: hub -> leaf_i (i = 0..3)
    pairs = [("hub", f"l{i}") for i in range(4)]
    t = rd.from_arrow(pa.table({
        "subj": pa.array([a for a, _ in pairs], pa.string()),
        "pred": pa.array(["co_occurs"] * 4, pa.string()),
        "obj": pa.array([b for _, b in pairs], pa.string()),
    }))
    out = (hits_scores(t).to_pandas()
           .set_index("entity_id").sort_index())
    # round 1: a(leaf)=1, a(hub)=0; h(hub)=sum a(leaves)=4, h(leaf)=0
    # round 2: a(leaf)=h(hub)=4, a(hub)=0; h(hub)=sum a(leaves)=16
    assert out.loc["hub", "hub"] == 16
    assert out.loc["hub", "auth"] == 0
    for i in range(4):
        assert out.loc[f"l{i}", "auth"] == 4
        assert out.loc[f"l{i}", "hub"] == 0


def test_hits_int64_bound_is_loud(ray_session):
    """The star's hub score is 4^rounds: 31 rounds give 2^62 exactly,
    32 rounds pass 2^63 - 1 and raise instead of wrapping."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import hits_scores

    t = rd.from_arrow(pa.table({
        "subj": pa.array(["hub"] * 4, pa.string()),
        "pred": pa.array(["co_occurs"] * 4, pa.string()),
        "obj": pa.array([f"l{i}" for i in range(4)], pa.string()),
    })).materialize()
    out = hits_scores(t, rounds=31).to_pandas().set_index("entity_id")
    assert out.loc["hub", "hub"] == 1 << 62
    with pytest.raises(OverflowError, match="int64"):
        hits_scores(t, rounds=32)


def test_session_concurrency_reconciles(ray_session):
    """The curve's peak and integral reconcile with the session
    table: integral over hours == Σ per-session active-hour spans,
    and the curve is non-negative with zero net at the end."""
    import ray.data as rd

    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.events import sessionize

    HOUR_US = 3_600_000_000
    cur = E.queries()["events_concurrency"](SF).to_pandas()
    sess = sessionize(
        rd.read_parquet(f"{SF}/events.parquet",
                        columns=["event_id", "user_id", "ts"])
    ).to_pandas()
    spans = (sess["end_ts"].astype("int64") // HOUR_US
             - sess["start_ts"].astype("int64") // HOUR_US + 1)
    assert cur["n_active"].sum() == spans.sum()
    assert (cur["n_active"] >= 0).all()
    assert cur["n_active"].max() >= 1


def test_velocity_hand_fold(ray_session):
    """RANGE-frame peer semantics on a crafted sequence: equal
    timestamps count together; the 5-min boundary is inclusive."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        velocity_stats)

    M = 60 * 1_000_000
    ts = [0, 1 * M, 1 * M, 5 * M, 20 * M]  # peers at 1min; 5min edge
    tbl = pa.table({
        "user_id": pa.array([7] * len(ts), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    out = velocity_stats(rd.from_arrow(tbl)).to_pandas()
    # window ending at 5min includes 0 (inclusive), 1, 1, 5 -> 4
    assert out.loc[0, "max_window"] == 4
    assert out.loc[0, "n_events"] == 5


def test_random_walks_deterministic_and_valid(ray_session):
    """Every emitted step follows a real edge, starts cover all
    nodes, and two runs are bitwise identical."""
    import __ray_entry__ as E

    w1 = (E.queries()["kg_walks"](SF).to_pandas()
          .sort_values(["start", "step"]).reset_index(drop=True))
    w2 = (E.queries()["kg_walks"](SF).to_pandas()
          .sort_values(["start", "step"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(w1, w2)
    tr = E.queries()["kg_triples"](SF).to_pandas()
    co = tr[tr["pred"] == "co_occurs"]
    edges = set(zip(co["subj"], co["obj"])) \
        | set(zip(co["obj"], co["subj"]))
    # every hop follows a real edge: step 1 leaves the start node,
    # step k leaves the step-(k-1) node of the same walk
    pos = {(r.start, r.step): r.node for r in w1.itertuples()}
    for r in w1.itertuples():
        frm = r.start if r.step == 1 else pos[(r.start, r.step - 1)]
        assert (frm, r.node) in edges, (frm, r.node)


def test_ltv_reconciles_with_retention(ray_session):
    """The LTV triangle's user counts must equal the retention
    triangle cell for cell, and offset-0 revenue is positive."""
    import __ray_entry__ as E

    ltv = E.queries()["events_ltv"](SF).to_pandas()
    ret = E.queries()["events_retention"](SF).to_pandas()
    m = ltv.merge(ret, on=["cohort_week", "week_offset"], how="outer")
    assert len(m) == len(ltv) == len(ret)
    assert (m["n_active_users"] == m["n_users"]).all()
    assert ltv.loc[ltv["week_offset"] == 0, "revenue_cents"].sum() > 0


def test_emb_coverage_totals(ray_session):
    """Coverage totals: Σ n_with_vec == embeddings row count (vec ids
    are doc ids in the synth), Σ n_docs == corpus size."""
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    cov = E.queries()["emb_coverage"](SF).to_pandas()
    n_vec = pq.read_table(f"{SF}/embeddings.parquet",
                          columns=["vec_id"]).num_rows
    n_docs = pq.read_table(f"{SF}/documents.parquet",
                           columns=["doc_id"]).num_rows
    assert cov["n_docs"].sum() == n_docs
    assert cov["n_with_vec"].sum() == n_vec
    assert (cov["cov_per_mille"]
            == cov["n_with_vec"] * 1000
            // cov["n_docs"].clip(lower=1)).all()


def test_l_diversity_reconciles_with_k_anonymity(ray_session):
    """The l-diversity cells aggregate the k-anonymity cells: per
    (hour, band), n sums the per-type counts and n_types counts
    them."""
    import __ray_entry__ as E

    ld = E.queries()["events_l_diversity"](SF).to_pandas()
    ka = E.queries()["events_k_anonymity"](SF).to_pandas()
    g = (ka.groupby(["hour", "band"])
         .agg(n=("n", "sum"), n_types=("event_type", "nunique"))
         .reset_index())
    m = ld.merge(g, on=["hour", "band"], suffixes=("", "_k"))
    assert len(m) == len(ld) == len(g)
    assert (m["n"] == m["n_k"]).all()
    assert (m["n_types"] == m["n_types_k"]).all()
    assert (m["at_risk"] == (m["n_types"] < 3).astype(int)).all()


def test_seasonal_backtest_planted(ray_session):
    """A perfectly periodic series backtests to zero error; one
    perturbed hour contributes exactly its absolute deviation."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        seasonal_backtest)

    HOUR = 3_600_000_000
    rows = []
    # type 'p': 2 events every hour for 400 hours (period 168 exact)
    for h in range(400):
        rows += [("p", h * HOUR), ("p", h * HOUR + 1)]
    # type 'q': same but hour 300 has ONE extra event
    for h in range(400):
        rows += [("q", h * HOUR)]
    rows.append(("q", 300 * HOUR + 2))
    tbl = pa.table({
        "event_type": pa.array([t for t, _ in rows], pa.string()),
        "ts": pa.array([u for _, u in rows], pa.timestamp("us")),
    })
    out = (seasonal_backtest(rd.from_arrow(tbl).repartition(3))
           .to_pandas().set_index("event_type"))
    assert out.loc["p", "sum_abs_err"] == 0
    # q: hour 300 off by +1 vs hour 132, and hour 300+168=468 is out
    # of range (max hour 400) -> total abs err == 1
    assert out.loc["q", "sum_abs_err"] == 1
    assert (out["n_hours"] == 400 - 168).all()


def test_local_bridges_planted(ray_session):
    """A triangle edge is never a bridge; a pendant edge always is."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import local_bridges

    pairs = [("a", "b"), ("b", "c"), ("a", "c"),  # triangle
             ("c", "d")]                          # pendant
    t = rd.from_arrow(pa.table({
        "subj": pa.array([x for x, _ in pairs], pa.string()),
        "pred": pa.array(["co_occurs"] * 4, pa.string()),
        "obj": pa.array([y for _, y in pairs], pa.string()),
    }))
    out = local_bridges(t).to_pandas().set_index(["subj", "obj"])
    assert out.loc[("a", "b"), "is_bridge"] == 0
    assert out.loc[("c", "d"), "is_bridge"] == 1
    assert out.loc[("a", "b"), "n_common"] == 1


def test_coverage_select_planted_greedy(ray_session):
    """Greedy on a crafted corpus: the broadest doc goes first, then
    the doc with the most NEW shingles (not the second-broadest);
    marginal gains are exact and decreasing-coverage consistent."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.dedup import (
        coverage_select)

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "a b c d e f",        # shingles: abc bcd cde def (4)
            "a b c d e",          # abc bcd cde (3) — all covered by 0
            "x y z w",            # xyz yzw (2) — disjoint
        ], pa.string()),
    })
    out = (coverage_select(rd.from_arrow(tbl).repartition(2),
                           n=3, k=3).to_pandas())
    assert out["doc_id"].tolist() == [0, 2, 1]
    assert out["gain"].tolist() == [4, 2, 0]
    assert out["covered_total"].tolist() == [4, 6, 6]


def test_funnel3_planted_sequence(ray_session):
    """Strict-sequence semantics on a crafted user: a click BEFORE
    the first view does not count; stages reflect reachable depth."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import funnel3

    S = 1_000_000
    rows = [  # user 1: click(1s) view(2s) click(3s) purchase(4s) -> 3
        (1, 1 * S, "click"), (1, 2 * S, "view"),
        (1, 3 * S, "click"), (1, 4 * S, "purchase"),
        # user 2: view(1s) purchase(2s) -> stage 1 (no click between)
        (2, 1 * S, "view"), (2, 2 * S, "purchase"),
        # user 3: purchase only -> absent (never reached step 1)
        (3, 1 * S, "purchase"),
    ]
    tbl = pa.table({
        "event_id": pa.array(list(range(len(rows))), pa.int64()),
        "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
        "ts": pa.array([t for _, t, _ in rows], pa.timestamp("us")),
        "event_type": pa.array([e for _, _, e in rows], pa.string()),
    })
    out = (funnel3(rd.from_arrow(tbl).repartition(2)).to_pandas()
           .set_index("user_id").sort_index())
    assert out.loc[1, "stage"] == 3
    assert out.loc[1, ["t1_us", "t2_us", "t3_us"]].tolist() \
        == [2 * S, 3 * S, 4 * S]
    assert out.loc[2, "stage"] == 1
    assert 3 not in out.index


def test_link_ra_planted(ray_session):
    """A path a-z-b (deg(z)=2) scores the non-edge (a,b) exactly
    2^20 // 2; adjacent pairs never appear."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import (
        link_prediction_ra)

    pairs = [("a", "z"), ("z", "b"), ("a", "c"), ("c", "b")]
    t = rd.from_arrow(pa.table({
        "subj": pa.array([x for x, _ in pairs], pa.string()),
        "pred": pa.array(["co_occurs"] * 4, pa.string()),
        "obj": pa.array([y for _, y in pairs], pa.string()),
    }))
    out = (link_prediction_ra(t).to_pandas()
           .set_index(["a", "b"]))
    # (a, b) has common neighbors z and c, each degree 2
    assert out.loc[("a", "b"), "n_common"] == 2
    assert out.loc[("a", "b"), "ra_fp"] == 2 * ((1 << 20) // 2)
    # adjacent pairs are excluded
    assert ("a", "z") not in out.index and ("z", "b") not in out.index


def test_pareto_planted_concentration(ray_session):
    """20 users, one whale with 90% of revenue: top decile (2 users)
    carries whale + runner-up exactly; split-invariant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        revenue_concentration)

    rows = [(u, 1.0) for u in range(1, 20)]      # 19 x 100 cents
    rows += [(0, 171.0)]                          # whale: 17100
    tbl = pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "value": pa.array([v for _, v in rows], pa.float64()),
    })
    for parts in (1, 3):
        out = revenue_concentration(
            rd.from_arrow(tbl).repartition(parts)).to_pandas()
        assert out.loc[0, "n_users"] == 20
        assert out.loc[0, "total_cents"] == 17100 + 1900
        assert out.loc[0, "top_users"] == 2
        assert out.loc[0, "top_cents"] == 17100 + 100
        assert out.loc[0, "share_per_mille"] == \
            (17200 * 1000) // 19000


def test_multimodal_resize_query_runs(ray_session):
    """The resize query produces one output row per media payload
    with resized binary columns present."""
    import __ray_entry__ as E

    out = E.queries()["multimodal_resize_rowsonly"](SF)
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert len(df) > 0
    assert "payload" in df.columns or len(df.columns) >= 2


def test_modularity_planted_cliques(ray_session):
    """Two 3-cliques joined by one bridge edge: hand-derivable exact
    integers — m=7, each clique has in=3, deg_sum=7 (bridge endpoints
    have degree 3) -> q_num_part = 4*7*3 - 49 = 35 per community;
    Q = 70/196 > 0 (real structure)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import (
        modularity_report)

    edges = [("a1", "a2"), ("a1", "a3"), ("a2", "a3"),
             ("b1", "b2"), ("b1", "b3"), ("b2", "b3"),
             ("a1", "b1")]
    pairs = rd.from_arrow(pa.table({
        "subj": pa.array([x for x, _ in edges], pa.string()),
        "obj": pa.array([y for _, y in edges], pa.string()),
    }))
    comm = pa.table({
        "entity_id": pa.array(["a1", "a2", "a3", "b1", "b2", "b3"],
                              pa.string()),
        "community": pa.array(["A", "A", "A", "B", "B", "B"],
                              pa.string()),
    })
    out = (modularity_report(pairs.repartition(3), comm)
           .to_pandas().set_index("community"))
    for c in ("A", "B"):
        assert out.loc[c, "n_nodes"] == 3
        assert out.loc[c, "in_edges"] == 3
        assert out.loc[c, "deg_sum"] == 7
        assert out.loc[c, "q_num_part"] == 4 * 7 * 3 - 49


def test_modularity_block_with_no_mapped_endpoint(ray_session):
    """A block none of whose endpoints the community table maps still
    counts its edges in m: a 3-clique A in one block and a 2-edge path
    of unmapped nodes in the other give m=5, in=3, deg_sum=6, so
    q_num_part = 4*5*3 - 36.  x2's null community leaves it unmapped."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import (
        modularity_report)

    def block(edges):
        return pa.table({
            "subj": pa.array([x for x, _ in edges], pa.string()),
            "obj": pa.array([y for _, y in edges], pa.string()),
        })

    pairs = rd.from_arrow([
        block([("a1", "a2"), ("a1", "a3"), ("a2", "a3")]),
        block([("x1", "x2"), ("x2", "x3")]),
    ])
    assert pairs.num_blocks() == 2
    comm = pa.table({
        "entity_id": pa.array(["a1", "a2", "a3", "x2"], pa.string()),
        "community": pa.array(["A", "A", "A", None], pa.string()),
    })
    out = modularity_report(pairs, comm).to_pylist()
    assert out == [{"community": "A", "n_nodes": 3, "in_edges": 3,
                    "deg_sum": 6, "q_num_part": 4 * 5 * 3 - 36}]
