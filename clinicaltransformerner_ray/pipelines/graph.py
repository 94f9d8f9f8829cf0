"""Graph algorithms over edge tables (KG co-occurrence, near-dup pairs).

  pagerank         fixed-point (integer) PageRank — ``iters`` synchronous
                   rounds of r'_v = (15% of mass)/N + 85% * Σ r_u // deg_u
  triangle_counts  per-node triangle counts over an UNBOUNDED node id
                   space (degree-oriented wedge generation + closure
                   join) — subgraph enumeration, the op pagerank's
                   broadcast-node-state trick can't cover
  common_neighbors link prediction: non-adjacent pairs sharing >= m
                   neighbors, exact counts (per-center wedge counting
                   + a NOT-EXISTS drop in one sorted pass)
  jaccard_links    neighborhood-Jaccard refinement of common_neighbors:
                   exact integer (intersection, union) per surviving
                   pair via inclusion-exclusion over broadcast degrees

Why INTEGER fixed-point: float PageRank sums neighbor contributions in
engine-dependent order, so a SQL oracle could never hash-match.  With
ranks in units of 1e-12 of the total mass every operation is integer
(floor division for the per-neighbor share, integer percent damping),
sums commute exactly, and the unrolled-CTE DuckDB replica reproduces
the distributed result bit-for-bit — the same trick as the engine's
integer-cents aggregates, applied to an iterative algorithm (the
kmeans precedent: `similarity.py::_kmeans_sql` unrolls Lloyd's).

Scale shape (the kmeans pattern): the NODE state is tiny — entity
vocabulary is bounded by the lexicon, not the corpus — so ranks and
degrees broadcast into every map task, while the EDGE table streams
per iteration; each block emits integer partial sums per destination
(O(entities) rows per block) and the driver folds partials with
order-free integer addition.  Edges are materialized once (the
deduped pair list is far smaller than the corpus — iterative lineage,
the dup_clusters precedent).

Overflow: per-node sums are bounded by the total mass 1e12; the 85x
damping product peaks at 8.5e13 << 2^63.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

SCALE = 10 ** 12


def pagerank(
    triples: rd.Dataset,
    *,
    iters: int = 5,
    damping_pct: int = 85,
    broadcast_edges_max: int = 1 << 22,
):
    """PageRank over the undirected co-occurrence graph in the triple
    table (rows with ``pred == 'co_occurs'``; each pair is one
    undirected edge, walked in both directions).

    Two auto-selected paths with BIT-IDENTICAL integer outputs (the
    `_triangles_broadcast` precedent):

    - edge count <= ``broadcast_edges_max``: node state (degrees +
      ranks) folds on the driver and broadcasts into each map task —
      right for lexicon-bounded KG graphs, O(entities) driver memory.
      Returns a small pa.Table (entity_id, rank_e12 BIGINT), rank in
      units of 1e-12 of the total mass, bit-exact vs the unrolled SQL.
    - above the cap (unbounded node spaces — doc-pair graphs, open
      KGs): NO per-node driver state; degrees and ranks live as
      Datasets and every iteration is two sorts (attach rank/deg to
      edges by src via union-sort-merge, then per-dst integer partial
      sums + rejoin with degrees in one sorted pass).  Returns the
      rank Dataset (entity_id, rank_e12).  Integer arithmetic makes
      the two paths exactly equal (order-free sums; verified by
      tests/test_graph_distributed.py)."""

    def explode(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        co = df[df["pred"] == "co_occurs"]
        src = np.concatenate([co["subj"].to_numpy(),
                              co["obj"].to_numpy()])
        dst = np.concatenate([co["obj"].to_numpy(),
                              co["subj"].to_numpy()])
        return pa.table({
            "src": pa.array(src.tolist(), pa.string()),
            "dst": pa.array(dst.tolist(), pa.string()),
        })

    # deduped pair list << corpus; iterating over it justifies the one
    # materialize (dup_clusters precedent)
    edges = triples.map_batches(
        explode, batch_format="pyarrow", batch_size=1 << 19,
    ).materialize()
    if edges.count() > broadcast_edges_max:
        return _pagerank_distributed(edges, iters=iters,
                                     damping_pct=damping_pct)

    # node state is lexicon-bounded: collect degrees once (tiny)
    def deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("src", sort=False).size().reset_index(name="d")
        return pa.table({
            "entity_id": pa.array(g["src"].tolist(), pa.string()),
            "d": pa.array(np.asarray(g["d"], np.int64), pa.int64()),
        })

    deg: dict[str, int] = {}
    for r in edges.map_batches(deg_partial, batch_format="pyarrow",
                               batch_size=1 << 19).take_all():
        deg[r["entity_id"]] = deg.get(r["entity_id"], 0) + r["d"]
    nodes = sorted(deg)
    n = len(nodes)
    if n == 0:
        return pa.table({"entity_id": pa.array([], pa.string()),
                         "rank_e12": pa.array([], pa.int64())})

    base = (SCALE * (100 - damping_pct) // 100) // n
    ranks = {v: SCALE // n for v in nodes}

    for _ in range(iters):
        r_now = dict(ranks)  # rebind for the closure

        def contrib(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            share = np.asarray(
                [r_now[s] // deg[s] for s in df["src"]],
                dtype=np.int64)
            g = (pd.DataFrame({"dst": df["dst"].to_numpy(),
                               "s": share})
                 .groupby("dst", sort=False)["s"].sum().reset_index())
            return pa.table({
                "dst": pa.array(g["dst"].tolist(), pa.string()),
                "s": pa.array(np.asarray(g["s"], np.int64),
                              pa.int64()),
            })

        sums = {v: 0 for v in nodes}
        # integer partial sums commute — take_all order is irrelevant
        for r in edges.map_batches(contrib, batch_format="pyarrow",
                                   batch_size=1 << 19).take_all():
            sums[r["dst"]] += r["s"]
        ranks = {v: base + damping_pct * sums[v] // 100 for v in nodes}

    return pa.table({
        "entity_id": pa.array(nodes, pa.string()),
        "rank_e12": pa.array([ranks[v] for v in nodes], pa.int64()),
    })


def _pagerank_distributed(
    edges: rd.Dataset,
    *,
    iters: int,
    damping_pct: int,
) -> rd.Dataset:
    """Large-graph PageRank: NO per-node driver state (the
    kg_components sorted-completion shape applied to iterative rank).

    ``edges`` is the materialized bidirectional (src, dst) table.  Node
    state lives as a Dataset (node, deg, rank); each iteration is two
    sorts on the high-cardinality node key:

      1. ATTACH — union(edge rows, state rows) sorted on node: equal
         keys land whole per block (the range-partitioner invariant),
         so each block holds every edge of its nodes AND their one
         state row; a vectorized merge computes rank // deg shares and
         emits per-block (dst, partial_sum) rows — O(distinct dst per
         block), never O(edges).
      2. SUM+REJOIN — union(share partials, degree rows) sorted on
         node: per block, integer partial sums total per node (sums
         commute exactly — the integer fixed-point contract) and the
         new rank = base + damping * total // 100 rebuilds the state
         row in the same pass.

    Each iteration's state is materialized (iterative lineage
    truncation, the dup_clusters precedent).  Output: Dataset
    (entity_id, rank_e12), bit-identical to the broadcast path."""
    empty = pa.table({"entity_id": pa.array([], pa.string()),
                      "rank_e12": pa.array([], pa.int64())})

    def deg_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "d" not in df.columns:
            df = pd.DataFrame({"node": df["src"].to_numpy(),
                               "d": np.int64(1)})
        g = df.groupby("node", sort=False)["d"].sum().reset_index()
        return pa.table({
            "node": pa.array(g["node"].tolist(), pa.string()),
            "d": pa.array(np.asarray(g["d"], np.int64), pa.int64()),
        })

    deg = (edges.map_batches(deg_combine, batch_format="pyarrow",
                             batch_size=1 << 19)
           .sort("node")
           .map_batches(deg_combine, batch_format="pyarrow",
                        batch_size=None)
           .materialize())
    n = deg.count()
    if n == 0:
        return rd.from_arrow(empty)
    base = (SCALE * (100 - damping_pct) // 100) // n
    r0 = SCALE // n

    def init_state(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch.column("node"),
            "deg": batch.column("d"),
            "rank": pa.array(np.full(batch.num_rows, r0, np.int64),
                             pa.int64()),
        })

    state = deg.map_batches(init_state,
                            batch_format="pyarrow").materialize()

    def edge_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "node": batch.column("src"),
            "dst": batch.column("dst"),
            "deg": pa.array(np.zeros(m, np.int64), pa.int64()),
            "rank": pa.array(np.zeros(m, np.int64), pa.int64()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def state_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "node": batch.column("node"),
            "dst": pa.array([""] * m, pa.string()),
            "deg": batch.column("deg"),
            "rank": batch.column("rank"),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def emit_shares(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        st = df[df["side"] == 0][["node", "deg", "rank"]]
        ed = df[df["side"] == 1][["node", "dst"]]
        if ed.empty:
            return pa.table({"node": pa.array([], pa.string()),
                             "s": pa.array([], pa.int64())})
        m = ed.merge(st, on="node")  # every src's state row is in-block
        share = (m["rank"].to_numpy(dtype=np.int64)
                 // m["deg"].to_numpy(dtype=np.int64))
        g = (pd.DataFrame({"node": m["dst"].to_numpy(), "s": share})
             .groupby("node", sort=False)["s"].sum().reset_index())
        return pa.table({
            "node": pa.array(g["node"].tolist(), pa.string()),
            "s": pa.array(np.asarray(g["s"], np.int64), pa.int64()),
        })

    def share_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "node": batch.column("node"),
            "s": batch.column("s"),
            "deg": pa.array(np.zeros(m, np.int64), pa.int64()),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def deg_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "node": batch.column("node"),
            "s": pa.array(np.zeros(m, np.int64), pa.int64()),
            "deg": batch.column("deg"),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def rebuild(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        st = df[df["side"] == 1]
        if st.empty:
            return pa.table({
                "node": pa.array([], pa.string()),
                "deg": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            })
        sums = (df[df["side"] == 0].groupby("node", sort=False)["s"]
                .sum())
        total = (st["node"].map(sums).fillna(0)
                 .to_numpy(dtype=np.int64))
        return pa.table({
            "node": pa.array(st["node"].tolist(), pa.string()),
            "deg": pa.array(st["deg"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "rank": pa.array(base + damping_pct * total // 100,
                             pa.int64()),
        })

    for _ in range(iters):
        shares = (edges.map_batches(edge_rows, batch_format="pyarrow")
                  .union(state.map_batches(state_rows,
                                           batch_format="pyarrow"))
                  .sort("node")
                  .map_batches(emit_shares, batch_format="pyarrow",
                               batch_size=None))
        state = (shares.map_batches(share_rows, batch_format="pyarrow")
                 .union(state.map_batches(deg_rows,
                                          batch_format="pyarrow"))
                 .sort("node")
                 .map_batches(rebuild, batch_format="pyarrow",
                              batch_size=None)
                 .materialize())

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "entity_id": batch.column("node"),
            "rank_e12": batch.column("rank"),
        })

    return state.map_batches(final, batch_format="pyarrow")


def _orient_fwd(a: np.ndarray, b: np.ndarray,
                da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Degree-orientation predicate shared by BOTH triangle paths
    (keeping them contractually output-identical): edge (a, b) points
    a -> b iff (deg(a), a) < (deg(b), b)."""
    return (da < db) | ((da == db) & (a < b))


def _wedge_arrays(df: pd.DataFrame):
    """Per-src out-neighbor pair emission shared by BOTH triangle
    paths: (p, q, anchor) int64 arrays, p < q in canonical id order,
    one row per unordered out-neighbor pair of each src."""
    o_p, o_q, o_s = [], [], []
    for s, g in df.groupby("src", sort=False):
        nb = np.sort(g["dst"].to_numpy())  # canonical id order
        if len(nb) < 2:
            continue
        i, j = np.triu_indices(len(nb), k=1)
        o_p.append(nb[i])
        o_q.append(nb[j])
        o_s.append(np.full(len(i), s, np.int64))
    if not o_p:
        z = np.array([], np.int64)
        return z, z, z
    return (np.concatenate(o_p), np.concatenate(o_q),
            np.concatenate(o_s))


def _triangles_broadcast(ed: rd.Dataset, out_col: str) -> rd.Dataset:
    """Broadcast-small-side triangle path (see :func:`triangle_counts`):
    the caller guarantees the edge table fits driver/worker memory.
    Degrees, orientation and src-grouping are vectorized on the
    collected edges (blocks cut only at src boundaries, so NO wide op
    remains), the canonical pair table ships once via ``ray.put``, and
    each block does wedge emission with IMMEDIATE closure against the
    broadcast pairs — the O(sum out-deg^2) wedge work is the only
    distributed stage, which is exactly the part that grows past any
    single machine."""
    import ray

    pdf = ed.to_pandas()  # small side by contract (broadcast_edges_max)
    empty = pa.table({out_col: pa.array([], pa.int64()),
                      "n_triangles": pa.array([], pa.int64())})
    if pdf.empty:
        return rd.from_arrow(empty)

    deg = pd.concat([pdf["a"], pdf["b"]]).value_counts()
    a = pdf["a"].to_numpy()
    b = pdf["b"].to_numpy()
    da = pdf["a"].map(deg).to_numpy(dtype=np.int64)
    db = pdf["b"].map(deg).to_numpy(dtype=np.int64)
    fwd = _orient_fwd(a, b, da, db)
    src = np.where(fwd, a, b)
    dst = np.where(fwd, b, a)
    # pre-group by src ON THE DRIVER (it already holds the edges by
    # contract), cutting blocks only at src boundaries — no Dataset
    # sort needed at all, the one remaining wide op disappears
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    n_blocks = max(1, min(64, len(src) // 4096))
    cuts = [0]
    for pos in range(1, n_blocks):
        c = np.searchsorted(src, src[min(pos * len(src) // n_blocks,
                                         len(src) - 1)], side="left")
        if c > cuts[-1]:
            cuts.append(int(c))
    cuts.append(len(src))
    blocks = [pa.table({"src": pa.array(src[lo:hi], pa.int64()),
                        "dst": pa.array(dst[lo:hi], pa.int64())})
              for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    pairs_ref = ray.put(pdf)

    def wedge_close(batch: pa.Table) -> pa.Table:
        w_p, w_q, w_s = _wedge_arrays(batch.to_pandas())
        if not len(w_p):
            return pa.table({"node": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        wdf = pd.DataFrame({"a": w_p, "b": w_q, "s": w_s})
        # one merge per block against the broadcast pair table
        hit = wdf.merge(ray.get(pairs_ref), on=["a", "b"])
        nodes = np.concatenate([hit["s"].to_numpy(),
                                hit["a"].to_numpy(),
                                hit["b"].to_numpy()])
        g = (pd.DataFrame({"node": nodes, "n": np.int64(1)})
             .groupby("node", sort=False)["n"].sum().reset_index())
        return pa.table({
            "node": pa.array(g["node"].to_numpy(), pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    counts: dict[int, int] = {}
    # O(triangle-nodes x blocks) partials; node count <= 2E fits the
    # driver by the same contract that allowed the broadcast
    for r in (rd.from_arrow(blocks)
              .map_batches(wedge_close, batch_format="pyarrow",
                           batch_size=None)
              .take_all()):
        counts[r["node"]] = counts.get(r["node"], 0) + r["n"]
    nodes = sorted(counts)
    return rd.from_arrow(pa.table({
        out_col: pa.array(nodes, pa.int64()),
        "n_triangles": pa.array([counts[n] for n in nodes], pa.int64()),
    }))


def triangle_counts(
    edges: rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    out_col: str = "node_id",
    broadcast_edges_max: int = 1 << 22,
) -> rd.Dataset:
    """Per-node triangle counts over DISTINCT undirected edges
    (``a_col < b_col``, int64 node ids) — e.g. the near-dup pair graph,
    whose node ids scale with the CORPUS (the opposite regime from
    :func:`pagerank`'s lexicon-bounded vocabulary).

    Classic distributed triangle enumeration (Cohen's MR scheme) in the
    engine's union -> sort(key) -> per-block-merge join shape (no
    Dataset.join, per CLAUDE.md rule 5).  The edge table is normalized
    and materialized ONCE — it is read three times downstream and is
    the dedup output, far smaller than the corpus (the dup_clusters
    iterative-lineage precedent) — then one of two paths runs:

    BROADCAST path (edge count <= ``broadcast_edges_max``): the engine's
    broadcast-small-side join rule.  Degrees, orientation and
    src-grouped block cuts happen on the driver (which holds the edges
    by contract), the (p, q) pair table ships once via ``ray.put``,
    and each block runs wedge emission + immediate closure against the
    broadcast pairs — ZERO wide ops.  The distributed work is the part
    that cannot fit anywhere: the wedge explosion (sum of out-deg^2,
    up to ~E^1.5).

    DISTRIBUTED path (bigger graphs): nothing broadcasts —
      1. degrees        combine/sort/combine endpoint counts
      2. annotate       two sort-merge passes attach deg(a), deg(b) to
                        every edge (union with the degree table, sort on
                        the SINGLE node key — equal keys never split)
      3. orient         u -> v iff (deg(u), u) < (deg(v), v); acyclic,
                        and every out-degree is bounded by O(sqrt(E)),
                        so hub nodes cannot square the wedge emission
      4. wedges         sort oriented edges on src; per src emit each
                        unordered out-neighbor pair (canonical id order)
      5. closure        union(edges, wedges), sort on the FULL (p, q)
                        composite (both kinds share exact keys), count
                        wedges whose pair is an edge; each triangle is
                        found exactly once (its unique out-degree-2
                        node anchors it) and credits all 3 corners
      6. counts         combine/sort/combine per-node partials

    Both paths are output-identical (asserted in tests).  Output:
    (``out_col``, n_triangles) — only nodes in >= 1 triangle, matching
    the SQL oracle's GROUP BY."""

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(a_col).cast(pa.int64()),
            "b": batch.column(b_col).cast(pa.int64()),
        })

    # read 3x downstream (degrees / wedges / closure): materialize so
    # an expensive upstream (e.g. the ngram-Jaccard join) runs once
    ed = edges.map_batches(norm, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()

    if ed.count() <= broadcast_edges_max:
        return _triangles_broadcast(ed, out_col)

    # -- 1. degrees: one row per (node, partial) per block ------------
    def deg_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "deg" not in df.columns:
            df = pd.DataFrame({
                "node": np.concatenate([df["a"].to_numpy(),
                                        df["b"].to_numpy()]),
                "deg": np.int64(1),
            })
        g = df.groupby("node", sort=False)["deg"].sum().reset_index()
        return pa.table({
            "node": pa.array(g["node"].to_numpy(), pa.int64()),
            "deg": pa.array(np.asarray(g["deg"], np.int64), pa.int64()),
        })

    deg = (ed.map_batches(deg_combine, batch_format="pyarrow",
                          batch_size=1 << 19)
           .sort("node")
           .map_batches(deg_combine, batch_format="pyarrow",
                        batch_size=None))

    # -- 2. annotate: sort-merge the degree table onto each endpoint --
    def _tag(src: rd.Dataset, key: str, other: str) -> rd.Dataset:
        def t(batch: pa.Table) -> pa.Table:
            z = pa.array([0] * batch.num_rows, pa.int64())
            return pa.table({
                "key": batch.column(key).cast(pa.int64()),
                "other": batch.column(other).cast(pa.int64()),
                "dcarry": z,
                "deg": z,
                "kind": pa.array([1] * batch.num_rows, pa.int64()),
            })
        return src.map_batches(t, batch_format="pyarrow",
                               batch_size=1 << 19)

    def _deg_rows(batch: pa.Table) -> pa.Table:
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({
            "key": batch.column("node"), "other": z, "dcarry": z,
            "deg": batch.column("deg"),
            "kind": z,
        })

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dm = dict(zip(df.loc[df["kind"] == 0, "key"],
                      df.loc[df["kind"] == 0, "deg"]))
        e = df[df["kind"] == 1]
        return pa.table({
            # key flips to the OTHER endpoint for the next pass; the
            # just-attached degree rides in dcarry
            "key": pa.array(e["other"].to_numpy(), pa.int64()),
            "other": pa.array(e["key"].to_numpy(), pa.int64()),
            "dcarry": pa.array(
                e["key"].map(dm).to_numpy(dtype=np.int64), pa.int64()),
            "deg": pa.array(e["dcarry"].to_numpy(), pa.int64()),
            "kind": pa.array(np.ones(len(e), np.int64), pa.int64()),
        })

    # degt feeds BOTH annotate unions; Ray does no common-subexpression
    # elimination, so without this materialize the degree shuffle would
    # execute twice (the same rule that materialized `ed`)
    degt = deg.map_batches(_deg_rows, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()
    # pass A keys on a (other=b); attach() flips so pass B keys on b
    p1 = (degt.union(_tag(ed, "a", "b"))
          .sort("key")
          .map_batches(attach, batch_format="pyarrow", batch_size=None))
    p2 = (degt.union(p1)
          .sort("key")
          .map_batches(attach, batch_format="pyarrow", batch_size=None))
    # p2 rows: key=a, other=b, dcarry=deg(b), deg=deg(a)  (kind=1)

    # -- 3+4. orient and emit wedges ----------------------------------
    def orient(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        a = df["key"].to_numpy()
        b = df["other"].to_numpy()
        fwd = _orient_fwd(a, b, df["deg"].to_numpy(),
                          df["dcarry"].to_numpy())
        return pa.table({
            "src": pa.array(np.where(fwd, a, b), pa.int64()),
            "dst": pa.array(np.where(fwd, b, a), pa.int64()),
        })

    def wedges(batch: pa.Table) -> pa.Table:
        p, q, anchor = _wedge_arrays(batch.to_pandas())
        return pa.table({
            "p": pa.array(p, pa.int64()),
            "q": pa.array(q, pa.int64()),
            "anchor": pa.array(anchor, pa.int64()),
            "kind": pa.array(np.ones(len(p), np.int64), pa.int64()),
        })

    wed = (p2.map_batches(orient, batch_format="pyarrow",
                          batch_size=1 << 19)
           .sort("src")
           .map_batches(wedges, batch_format="pyarrow",
                        batch_size=None))

    def edge_keys(batch: pa.Table) -> pa.Table:
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({"p": batch.column("a"), "q": batch.column("b"),
                         "anchor": z, "kind": z})

    # -- 5. closure join + per-corner credit --------------------------
    def close(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        hit = df[df["kind"] == 1].merge(
            df.loc[df["kind"] == 0, ["p", "q"]], on=["p", "q"])
        nodes = np.concatenate([hit["anchor"].to_numpy(),
                                hit["p"].to_numpy(),
                                hit["q"].to_numpy()])
        g = (pd.DataFrame({"node": nodes, "n": np.int64(1)})
             .groupby("node", sort=False)["n"].sum().reset_index())
        return pa.table({
            "node": pa.array(g["node"].to_numpy(), pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    def count_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("node", sort=False)["n"].sum().reset_index()
        return pa.table({
            out_col: pa.array(g["node"].to_numpy(), pa.int64()),
            "n_triangles": pa.array(np.asarray(g["n"], np.int64),
                                    pa.int64()),
        })

    return (ed.map_batches(edge_keys, batch_format="pyarrow",
                           batch_size=1 << 19)
            .union(wed)
            .sort(["p", "q"])
            .map_batches(close, batch_format="pyarrow", batch_size=None)
            .sort("node")
            .map_batches(count_combine, batch_format="pyarrow",
                         batch_size=None))


def common_neighbors(
    edges: rd.Dataset,
    *,
    a_col: str = "subj",
    b_col: str = "obj",
    min_common: int = 2,
    node_type: pa.DataType = pa.string(),
    broadcast_edges_max: int = 1 << 22,
) -> rd.Dataset:
    """Common-neighbor link prediction: pairs of nodes NOT directly
    connected that share >= ``min_common`` neighbors, with the exact
    count — the classic related-entities suggestion over the
    co-occurrence graph.

    Input: DISTINCT undirected edges (``a_col < b_col``).  Unlike
    :func:`triangle_counts`, wedges here must be counted per CENTER
    over its FULL neighbor set (degree orientation would split a
    center's wedges across endpoints), so hub centers cost deg^2 —
    bounded for lexicon-bounded entity graphs; for corpus-scale use a
    pre-filter on degree (the ngram max_df precedent: an opt-in cap
    diverges from the exact oracle, so it is not a default here).

    The normalized edge table is MATERIALIZED once — it feeds both the
    wedge and the direct-pair branches, and Ray does no common-
    subexpression elimination (the triangle_counts rule), so without
    it an expensive upstream (the flagship triple dedup) would run
    twice.  Small edge tables (<= ``broadcast_edges_max``, e.g. the
    lexicon-bounded KG) then take a pre-grouped path: the driver cuts
    wedge blocks at center boundaries itself, removing the sort on the
    low-cardinality center key (the kg_degrees pathology).  The second
    exchange keys on the much-wider (x, y) wedge pairs in both paths.

    Shape (distributed path): two sorts.  (1) both-direction rows
    sorted on the center (equal keys land whole) -> per-block
    wedge-pair partial counts; (2) partials UNIONED with the
    direct-edge rows, sorted on the full (x, y) composite (equal
    composites land whole) -> per-block final sum + NOT-EXISTS drop of
    directly-connected pairs.  The (x, y) exchange stays distributed
    in BOTH paths: wedge-pair counts are bounded by sum deg^2, which
    no driver may hold (a 4M-edge star is 10^12 wedges).

    Output: (``a_col``, ``b_col``, n_common) for surviving pairs."""

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(a_col).cast(node_type),
            "b": batch.column(b_col).cast(node_type),
        })

    # read twice (wedge + direct branches): materialize once
    ed = edges.map_batches(norm, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()

    def both(batch: pa.Table) -> pa.Table:
        a, b = batch.column("a"), batch.column("b")
        return pa.table({
            "u": pa.concat_arrays([a.combine_chunks(),
                                   b.combine_chunks()]),
            "v": pa.concat_arrays([b.combine_chunks(),
                                   a.combine_chunks()]),
        })

    def wedge_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        o_x, o_y = [], []
        for _, g in df.groupby("u", sort=False):
            nb = np.sort(g["v"].to_numpy())
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            o_x.append(nb[i])
            o_y.append(nb[j])
        if o_x:
            g = (pd.DataFrame({"x": np.concatenate(o_x),
                               "y": np.concatenate(o_y),
                               "n": np.int64(1)})
                 .groupby(["x", "y"], sort=False)["n"].sum()
                 .reset_index())
        else:
            g = pd.DataFrame({"x": [], "y": [], "n": []})
        return pa.table({
            "x": pa.array(g["x"].tolist(), node_type),
            "y": pa.array(g["y"].tolist(), node_type),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    def direct(batch: pa.Table) -> pa.Table:
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({
            # already cast to node_type by norm — both union sides
            # carry identical x/y schemas
            "x": batch.column("a"), "y": batch.column("b"),
            "n": z, "kind": z,
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        w = df[df["kind"] == 1]
        g = (w.groupby(["x", "y"], sort=False)["n"].sum()
             .reset_index())
        d = df.loc[df["kind"] == 0, ["x", "y"]]
        g = g.merge(d, on=["x", "y"], how="left", indicator=True)
        g = g[(g["_merge"] == "left_only") & (g["n"] >= min_common)]
        return pa.table({
            a_col: pa.array(g["x"].tolist(), node_type),
            b_col: pa.array(g["y"].tolist(), node_type),
            "n_common": pa.array(np.asarray(g["n"], np.int64),
                                 pa.int64()),
        })

    if ed.count() <= broadcast_edges_max:
        # pre-group on the driver (it can hold the edges by contract):
        # blocks cut only at center boundaries — no center sort at all
        pdf = ed.to_pandas()
        if pdf.empty:
            return rd.from_arrow(pa.table({
                a_col: pa.array([], node_type),
                b_col: pa.array([], node_type),
                "n_common": pa.array([], pa.int64()),
            }))
        u = np.concatenate([pdf["a"].to_numpy(), pdf["b"].to_numpy()])
        v = np.concatenate([pdf["b"].to_numpy(), pdf["a"].to_numpy()])
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        n_blocks = max(1, min(64, len(u) // 4096))
        cuts = [0]
        for pos in range(1, n_blocks):
            c = int(np.searchsorted(
                u, u[min(pos * len(u) // n_blocks, len(u) - 1)],
                side="left"))
            if c > cuts[-1]:
                cuts.append(c)
        cuts.append(len(u))
        blocks = [pa.table({"u": pa.array(u[lo:hi].tolist(), node_type),
                            "v": pa.array(v[lo:hi].tolist(), node_type)})
                  for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
        centered = rd.from_arrow(blocks)
    else:
        centered = (ed.map_batches(both, batch_format="pyarrow",
                                   batch_size=1 << 19)
                    .sort("u"))

    partials = centered.map_batches(wedge_partials,
                                    batch_format="pyarrow",
                                    batch_size=None)
    return (partials.union(ed.map_batches(
                direct, batch_format="pyarrow", batch_size=1 << 19))
            .sort(["x", "y"])
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


def jaccard_links(
    edges: rd.Dataset,
    *,
    a_col: str = "subj",
    b_col: str = "obj",
    min_common: int = 2,
    node_type: pa.DataType = pa.string(),
    broadcast_edges_max: int = 1 << 22,
) -> rd.Dataset:
    """Neighborhood-Jaccard link scoring: :func:`common_neighbors`
    survivors annotated with both endpoint degrees and the exact
    INTEGER (intersection, union) of their neighbor sets — the
    similarity-join refinement of plain common-neighbor counting
    (jaccard = n_common / union_size, left to the consumer: ratios of
    exact int64 is the repo's oracle-exactness invariant).

    Input: DISTINCT undirected edges (a < b), like common_neighbors.
    union_size = deg_a + deg_b - n_common by inclusion-exclusion over
    distinct neighbor sets.

    Two auto-selected degree paths with identical outputs (the
    `_triangles_broadcast` precedent): at or below
    ``broadcast_edges_max`` edge rows, degrees fold on the driver and
    broadcast into one stateless annotation map (right for
    lexicon-bounded node spaces); above it, NO per-node driver state —
    degrees are computed combine/sort/combine and attached to the
    surviving pairs by two union-sort-merge passes (sort on a, fill
    deg_a per block; sort on b, fill deg_b), exactly the
    kg_components sorted-completion shape.

    Output: (a_col, b_col, n_common, deg_a, deg_b, union_size)."""

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            a_col: batch.column(a_col).cast(node_type),
            b_col: batch.column(b_col).cast(node_type),
        })

    # feeds BOTH the wedge pipeline and the degree fold: materialize
    # once (Ray does no CSE — the triangle_counts rule)
    ed = edges.map_batches(norm, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()
    cn = common_neighbors(ed, a_col=a_col, b_col=b_col,
                          min_common=min_common, node_type=node_type,
                          broadcast_edges_max=broadcast_edges_max)

    def deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (pd.DataFrame({
                "e": np.concatenate([df[a_col].to_numpy(),
                                     df[b_col].to_numpy()]),
                "d": np.int64(1)})
             .groupby("e", sort=False)["d"].sum().reset_index())
        return pa.table({
            "e": pa.array(g["e"].tolist(), node_type),
            "d": pa.array(np.asarray(g["d"], np.int64), pa.int64()),
        })

    if ed.count() > broadcast_edges_max:
        return _jaccard_annotate_distributed(
            ed, cn, a_col=a_col, b_col=b_col, node_type=node_type,
            deg_partial=deg_partial)

    deg: dict = {}
    for r in ed.map_batches(deg_partial, batch_format="pyarrow",
                            batch_size=1 << 19).take_all():
        deg[r["e"]] = deg.get(r["e"], 0) + r["d"]

    def annotate(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        da = df[a_col].map(deg).to_numpy(dtype=np.int64) \
            if len(df) else np.array([], np.int64)
        db = df[b_col].map(deg).to_numpy(dtype=np.int64) \
            if len(df) else np.array([], np.int64)
        nc = np.asarray(df["n_common"], np.int64)
        return pa.table({
            a_col: pa.array(df[a_col].tolist(), node_type),
            b_col: pa.array(df[b_col].tolist(), node_type),
            "n_common": pa.array(nc, pa.int64()),
            "deg_a": pa.array(da, pa.int64()),
            "deg_b": pa.array(db, pa.int64()),
            "union_size": pa.array(da + db - nc, pa.int64()),
        })

    return cn.map_batches(annotate, batch_format="pyarrow",
                          batch_size=1 << 19)


def _jaccard_annotate_distributed(
    ed: rd.Dataset,
    cn: rd.Dataset,
    *,
    a_col: str,
    b_col: str,
    node_type: pa.DataType,
    deg_partial,
) -> rd.Dataset:
    """Large-graph degree annotation for :func:`jaccard_links`: NO
    per-node driver state.  Degrees become a Dataset
    (combine/sort/combine, the _pagerank_distributed shape) and are
    attached to the surviving (a, b, n_common) pairs by two
    union-sort-merge passes — sort on the a endpoint filling deg_a per
    block, then sort on the b endpoint filling deg_b — relying only on
    Ray's equal-keys-land-whole range-partitioner invariant.  Every
    pair endpoint is a wedge leaf, hence a graph node with a degree
    row, so the per-block merges are total."""

    def deg_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("e", sort=False)["d"].sum().reset_index()
        return pa.table({
            "e": pa.array(g["e"].tolist(), node_type),
            "d": pa.array(np.asarray(g["d"], np.int64), pa.int64()),
        })

    deg = (ed.map_batches(deg_partial, batch_format="pyarrow",
                          batch_size=1 << 19)
           .sort("e")
           .map_batches(deg_combine, batch_format="pyarrow",
                        batch_size=None)
           .materialize())  # consumed by BOTH fill passes (no CSE)

    def pair_rows_a(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "k": batch.column(a_col),
            "o": batch.column(b_col),
            "n": batch.column("n_common"),
            "dk": pa.array(np.zeros(m, np.int64), pa.int64()),
            "d": pa.array(np.zeros(m, np.int64), pa.int64()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def deg_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        z = pa.array(np.zeros(m, np.int64), pa.int64())
        return pa.table({
            "k": batch.column("e"),
            "o": pa.nulls(m, node_type),
            "n": z, "dk": z,
            "d": batch.column("d"),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def fill(batch: pa.Table) -> pa.Table:
        """Per-block: map side==0 degree rows onto side==1 pair rows
        by k, emitting the pair re-keyed on its OTHER endpoint with
        the just-resolved degree carried in dk."""
        df = batch.to_pandas()
        pr = df[df["side"] == 1]
        if pr.empty:
            z = pa.array([], pa.int64())
            return pa.table({
                "k": pa.array([], node_type),
                "o": pa.array([], node_type),
                "n": z, "dk": z, "d": z,
                "side": pa.array([], pa.int8()),
            })
        st = df[df["side"] == 0]
        dmap = pd.Series(st["d"].to_numpy(dtype=np.int64),
                         index=st["k"])
        got = pr["k"].map(dmap).to_numpy(dtype=np.int64)
        m = len(pr)
        return pa.table({
            "k": pa.array(pr["o"].tolist(), node_type),  # re-key on other
            "o": pa.array(pr["k"].tolist(), node_type),
            "n": pa.array(pr["n"].to_numpy(dtype=np.int64),
                          pa.int64()),
            "dk": pa.array(got, pa.int64()),
            "d": pa.array(np.zeros(m, np.int64), pa.int64()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    # pass 1: key = a endpoint, resolves deg_a (carried in dk), output
    # re-keyed on b; pass 2: key = b endpoint, resolves deg_b.
    pass1 = (cn.map_batches(pair_rows_a, batch_format="pyarrow",
                            batch_size=1 << 19)
             .union(deg.map_batches(deg_rows, batch_format="pyarrow"))
             .sort("k")
             .map_batches(fill, batch_format="pyarrow",
                          batch_size=None))

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        pr = df[df["side"] == 1]
        if pr.empty:
            z = pa.array([], pa.int64())
            return pa.table({
                a_col: pa.array([], node_type),
                b_col: pa.array([], node_type),
                "n_common": z, "deg_a": z, "deg_b": z,
                "union_size": z,
            })
        st = df[df["side"] == 0]
        dmap = pd.Series(st["d"].to_numpy(dtype=np.int64),
                         index=st["k"])
        db = pr["k"].map(dmap).to_numpy(dtype=np.int64)
        da = pr["dk"].to_numpy(dtype=np.int64)
        nc = pr["n"].to_numpy(dtype=np.int64)
        return pa.table({
            a_col: pa.array(pr["o"].tolist(), node_type),
            b_col: pa.array(pr["k"].tolist(), node_type),
            "n_common": pa.array(nc, pa.int64()),
            "deg_a": pa.array(da, pa.int64()),
            "deg_b": pa.array(db, pa.int64()),
            "union_size": pa.array(da + db - nc, pa.int64()),
        })

    return (pass1
            .union(deg.map_batches(deg_rows, batch_format="pyarrow"))
            .sort("k")
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


def khop_reachability(
    pairs: rd.Dataset,
    *,
    max_hops: int = 3,
    seed_suffix: str = "0",
) -> pa.Table:
    """Bounded multi-hop BFS over the undirected co-occurrence graph:
    the hop distance (0..``max_hops``) from the SEED set — entities
    whose id ends with ``seed_suffix`` — to every entity it reaches.
    This is the k-hop neighborhood query a KG serves ("everything
    within 3 hops of these nodes"), the traversal shape the
    components/pagerank family doesn't cover.

    Scale shape (the pagerank precedent): node STATE is
    lexicon-bounded — visited/frontier sets broadcast into each map
    task — while the EDGE table streams once per round; each block
    emits its DISTINCT frontier-adjacent targets (O(entities) per
    block, never O(edges)), and the driver folds set unions.  Edges
    are materialized once because the lazy lineage is consumed
    ``max_hops + 1`` times (the engine's no-CSE rule).

    Output: small pa.Table (entity_id, hops BIGINT), unreached
    entities omitted.

    Precondition: ``pairs`` must be DISTINCT (subj, obj) rows — the
    flagship triple table guarantees this per (subj, pred, obj) dedup.
    Reachability itself is duplicate-insensitive, but the shared
    oracle applies SELECT DISTINCT; route any non-distinct edge source
    through a dedup first (same rule as kcore / label_propagation)."""

    def bidir(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "a": pa.array(df["subj"].tolist() + df["obj"].tolist(),
                          pa.string()),
            "b": pa.array(df["obj"].tolist() + df["subj"].tolist(),
                          pa.string()),
        })

    ed = pairs.map_batches(bidir, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()

    def seed_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nodes = pd.unique(df["a"])
        keep = [n for n in nodes if n.endswith(seed_suffix)]
        return pa.table({"v": pa.array(keep, pa.string())})

    seeds = set()
    for row in ed.map_batches(seed_partial, batch_format="pyarrow",
                              batch_size=1 << 19).take_all():
        seeds.add(row["v"])  # O(entities) driver fold

    hops: dict[str, int] = {v: 0 for v in sorted(seeds)}
    frontier = set(seeds)
    for d in range(1, max_hops + 1):
        if not frontier:
            break
        fr = frontier  # captured (lexicon-bounded) broadcast

        def expand(batch: pa.Table, _fr=fr) -> pa.Table:
            df = batch.to_pandas()
            hit = df[df["a"].isin(_fr)]
            return pa.table({
                "v": pa.array(pd.unique(hit["b"]), pa.string())})

        reached = set()
        for row in ed.map_batches(expand, batch_format="pyarrow",
                                  batch_size=1 << 19).take_all():
            reached.add(row["v"])
        frontier = reached - hops.keys()
        for v in sorted(frontier):
            hops[v] = d

    items = sorted(hops.items())
    return pa.table({
        "entity_id": pa.array([k for k, _ in items], pa.string()),
        "hops": pa.array([v for _, v in items], pa.int64()),
    })


def kcore(
    pairs: rd.Dataset,
    *,
    k: int = 2,
    rounds: int = 12,
) -> pa.Table:
    """k-core peeling over the undirected co-occurrence graph: run
    exactly ``rounds`` synchronous peel rounds (drop every node whose
    degree within the surviving subgraph is < ``k``), then report each
    survivor's core-subgraph degree.  The dense-subgraph filter a KG
    uses to separate structurally-supported entities from stragglers.

    Determinism contract with the SQL oracle: BOTH engines run the
    same fixed round count (the kmeans/pagerank fixed-unroll trick),
    so outputs are equal even on a pathological graph that hasn't
    converged — and once a round removes nothing the state is a fixed
    point, so the engine may break early without diverging (the
    remaining SQL rounds are no-ops).

    Precondition: ``pairs`` must be DISTINCT (subj, obj) rows — the
    flagship triple table guarantees this per (subj, pred, obj) dedup.
    Degrees are counted over the raw rows (the oracle applies SELECT
    DISTINCT), so a duplicated edge would silently inflate them; route
    any non-distinct edge source through a dedup first.

    Scale shape (the pagerank/khop precedent): node state — the alive
    set — is lexicon-bounded and broadcast per round; the edge table
    streams once per round emitting per-block partial degree counts
    (O(entities) rows per block), folded on the driver.  Edges
    materialize once (consumed up to rounds+1 times; no-CSE rule).

    Output: small pa.Table (entity_id, core_degree BIGINT)."""

    def bidir(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "a": pa.array(df["subj"].tolist() + df["obj"].tolist(),
                          pa.string()),
            "b": pa.array(df["obj"].tolist() + df["subj"].tolist(),
                          pa.string()),
        })

    ed = pairs.map_batches(bidir, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()

    def fold_degrees(alive: set | None) -> dict[str, int]:
        def partial(batch: pa.Table, _al=alive) -> pa.Table:
            df = batch.to_pandas()
            if _al is not None:
                df = df[df["a"].isin(_al) & df["b"].isin(_al)]
            g = df.groupby("a", sort=False).size().reset_index(name="c")
            return pa.table({
                "v": pa.array(g["a"].tolist(), pa.string()),
                "c": pa.array(np.asarray(g["c"], np.int64), pa.int64()),
            })

        deg: dict[str, int] = {}
        for row in ed.map_batches(partial, batch_format="pyarrow",
                                  batch_size=1 << 19).take_all():
            deg[row["v"]] = deg.get(row["v"], 0) + row["c"]
        return deg

    alive: set | None = None
    for _ in range(rounds):
        deg = fold_degrees(alive)
        new_alive = {v for v, c in deg.items() if c >= k}
        if alive is not None and new_alive == alive:
            break  # fixed point — remaining rounds are no-ops
        alive = new_alive

    final_deg = fold_degrees(alive)
    items = sorted(final_deg.items())
    return pa.table({
        "entity_id": pa.array([v for v, _ in items], pa.string()),
        "core_degree": pa.array([c for _, c in items], pa.int64()),
    })


def clustering_coefficients(
    edges: rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    out_col: str = "node_id",
    scale_bp: int = 10_000,
    broadcast_edges_max: int = 1 << 22,
) -> rd.Dataset:
    """Local clustering coefficient per node of degree >= 2 over the
    DISTINCT undirected edge table: ``coeff = 2*T(v) / (d(v)*(d(v)-1))``.

    Exactness contract: the output is (n_triangles, degree) as exact
    integers plus ``coeff_bp = (2*scale_bp*T) // (d*(d-1))`` — operands
    are non-negative, so numpy floor division == DuckDB ``//``
    truncation (CLAUDE.md round-3 rule) and the SQL oracle matches
    bitwise.  No float ever enters the pipeline.

    Shape: the normalized edge table is materialized ONCE (it feeds
    both the triangle enumeration and the degree count — Ray does no
    common-subexpression elimination, so an unmaterialized lineage
    would run the upstream pair join twice); triangles come from
    :func:`triangle_counts` (degree-oriented wedges), degrees from a
    combine/sort/combine, and the two small per-node tables meet in a
    final sort-merge on the single node key where the per-block pandas
    left-merge fills triangle-free nodes with 0."""

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(a_col).cast(pa.int64()),
            "b": batch.column(b_col).cast(pa.int64()),
        })

    ed = edges.map_batches(norm, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()

    tri = triangle_counts(ed, a_col="a", b_col="b", out_col="node",
                          broadcast_edges_max=broadcast_edges_max)

    def deg_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "deg" not in df.columns:
            df = pd.DataFrame({
                "node": np.concatenate([df["a"].to_numpy(),
                                        df["b"].to_numpy()]),
                "deg": np.int64(1),
            })
        g = df.groupby("node", sort=False)["deg"].sum().reset_index()
        return pa.table({
            "node": pa.array(g["node"].to_numpy(), pa.int64()),
            "deg": pa.array(np.asarray(g["deg"], np.int64), pa.int64()),
        })

    deg = (ed.map_batches(deg_combine, batch_format="pyarrow",
                          batch_size=1 << 19)
           .sort("node")
           .map_batches(deg_combine, batch_format="pyarrow",
                        batch_size=None))

    def tag_deg(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "node": batch.column("node"),
            "val": batch.column("deg"),
            "side": pa.array(np.zeros(n, np.int8), pa.int8()),
        })

    def tag_tri(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "node": batch.column("node").cast(pa.int64()),
            "val": batch.column("n_triangles").cast(pa.int64()),
            "side": pa.array(np.ones(n, np.int8), pa.int8()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df[df["side"] == 0][["node", "val"]].rename(
            columns={"val": "degree"})
        t = df[df["side"] == 1][["node", "val"]].rename(
            columns={"val": "n_triangles"})
        j = d.merge(t, on="node", how="left")
        j["n_triangles"] = (j["n_triangles"].fillna(0)
                            .to_numpy(dtype=np.int64))
        j = j[j["degree"] >= 2]
        dg = j["degree"].to_numpy(dtype=np.int64)
        nt = j["n_triangles"].to_numpy(dtype=np.int64)
        bp = (2 * scale_bp * nt) // (dg * (dg - 1))
        return pa.table({
            out_col: pa.array(j["node"].to_numpy(dtype=np.int64),
                              pa.int64()),
            "n_triangles": pa.array(nt, pa.int64()),
            "degree": pa.array(dg, pa.int64()),
            "coeff_bp": pa.array(bp, pa.int64()),
        })

    return (deg.map_batches(tag_deg, batch_format="pyarrow")
            .union(tri.map_batches(tag_tri, batch_format="pyarrow"))
            .sort("node")
            .map_batches(finish, batch_format="pyarrow", batch_size=None))


def label_propagation(
    pairs: rd.Dataset,
    *,
    rounds: int = 4,
    broadcast_edges_max: int = 1 << 22,
):
    """Synchronous label-propagation community detection over the
    undirected co-occurrence graph, ``rounds`` fixed iterations.

    Update rule (deterministic on BOTH engines): every node starts
    labeled with its own id; each round, node v adopts the label most
    frequent among its neighbors' CURRENT labels, ties broken by
    lexicographically smallest label (binary codepoint order — ASCII
    ids are engine-safe per CLAUDE.md).  Fixed round count + the
    all-synchronous update make the result exactly replicable by
    ``rounds`` unrolled MATERIALIZED CTEs (the kcore/pagerank
    fixed-unroll trick); isolated fixed points mean extra SQL rounds
    are harmless.

    Two auto-selected paths with BIT-IDENTICAL outputs (the pagerank
    precedent — integer votes + lexicographic tie-break are order-free):

    - edge count <= ``broadcast_edges_max``: node state is
      lexicon-bounded — the label map broadcasts into each map task —
      while the EDGE table streams once per round; each block emits
      per-(node, neighbor-label) COUNT partials (O(entities x labels
      seen) per block, never O(edges)) and the driver folds integer
      counts then takes the per-node (count DESC, label ASC) argmax.
      Returns a small pa.Table (entity_id, community).  The broadcast
      path may early-exit at a fixed point, where extra rounds are
      no-ops on both paths.
    - above the cap: NO per-node driver state — labels live as a
      Dataset and each round is two sorts (attach each neighbor's
      current label to edges by the label-owner endpoint, then
      per-node vote sum + argmax in a second sorted pass).  Returns
      the community Dataset (entity_id, community).

    Precondition: ``pairs`` must be DISTINCT (subj, obj) rows — the
    flagship triple table guarantees this per (subj, pred, obj) dedup.
    Neighbor-label counts are taken over the raw rows (the oracle
    applies SELECT DISTINCT), so a duplicated edge would skew the
    per-node vote; route any non-distinct edge source through a dedup
    first."""

    def bidir(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "a": pa.array(df["subj"].tolist() + df["obj"].tolist(),
                          pa.string()),
            "b": pa.array(df["obj"].tolist() + df["subj"].tolist(),
                          pa.string()),
        })

    # consumed once per round + once for the node set: materialize
    ed = pairs.map_batches(bidir, batch_format="pyarrow",
                           batch_size=1 << 19).materialize()
    if ed.count() > broadcast_edges_max:
        return _lpa_distributed(ed, rounds=rounds)

    def node_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": pa.array(pd.unique(batch.to_pandas()["a"]),
                          pa.string())})

    labels: dict[str, str] = {}
    for row in ed.map_batches(node_partial, batch_format="pyarrow",
                              batch_size=1 << 19).take_all():
        labels[row["v"]] = row["v"]  # O(entities) driver fold

    for _ in range(rounds):
        lab = labels  # captured (lexicon-bounded) broadcast

        def count_partial(batch: pa.Table, _lab=lab) -> pa.Table:
            df = batch.to_pandas()
            g = (pd.DataFrame({
                    "v": df["a"].to_numpy(),
                    "nl": df["b"].map(_lab).to_numpy(),
                 })
                 .groupby(["v", "nl"], sort=False)
                 .size().reset_index(name="c"))
            return pa.table({
                "v": pa.array(g["v"].tolist(), pa.string()),
                "nl": pa.array(g["nl"].tolist(), pa.string()),
                "c": pa.array(g["c"].to_numpy(dtype=np.int64),
                              pa.int64()),
            })

        acc: dict[str, dict[str, int]] = {}
        for row in ed.map_batches(count_partial, batch_format="pyarrow",
                                  batch_size=1 << 19).take_all():
            d = acc.setdefault(row["v"], {})
            d[row["nl"]] = d.get(row["nl"], 0) + row["c"]
        new = {}
        for v, d in acc.items():
            # (count DESC, label ASC) argmax
            new[v] = min(d.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if new == labels:
            break  # fixed point: extra SQL rounds are no-ops
        labels = new

    items = sorted(labels.items())
    return pa.table({
        "entity_id": pa.array([k for k, _ in items], pa.string()),
        "community": pa.array([v for _, v in items], pa.string()),
    })


def _lpa_distributed(ed: rd.Dataset, *, rounds: int) -> rd.Dataset:
    """Large-graph label propagation: NO per-node driver state (the
    _pagerank_distributed shape applied to label votes).

    ``ed`` is the materialized bidirectional (a, b) edge table.  Label
    state is a Dataset (node, lab); each round:

      1. ATTACH — union(edge rows keyed on the label-owner endpoint b,
         state rows) sorted on the key: equal keys land whole per
         block, so a vectorized merge tags every edge with its
         neighbor's CURRENT label and emits per-block
         (voter, neighbor-label, count) partials.
      2. VOTE — partials sorted on the voter: per block, integer sums
         per (voter, label) then the (count DESC, label ASC) argmax
         rebuilds the state row.  Integer votes + lexicographic
         tie-break are order-free, so the result is bit-identical to
         the broadcast fold (no early exit here: the broadcast path
         exits only at a fixed point, where extra rounds are no-ops).

    Output: Dataset (entity_id, community)."""

    def init_state(batch: pa.Table) -> pa.Table:
        v = pd.unique(batch.to_pandas()["a"])
        return pa.table({
            "node": pa.array(v, pa.string()),
            "lab": pa.array(v, pa.string()),
        })

    def state_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates("node")
        return pa.table({
            "node": pa.array(df["node"].tolist(), pa.string()),
            "lab": pa.array(df["lab"].tolist(), pa.string()),
        })

    state = (ed.map_batches(init_state, batch_format="pyarrow",
                            batch_size=1 << 19)
             .sort("node")
             .map_batches(state_combine, batch_format="pyarrow",
                          batch_size=None)
             .materialize())

    def edge_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "k": batch.column("b"),       # label-owner endpoint
            "voter": batch.column("a"),
            "lab": pa.array([""] * m, pa.string()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def state_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            "k": batch.column("node"),
            "voter": pa.array([""] * m, pa.string()),
            "lab": batch.column("lab"),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        edges = df[df["side"] == 1]
        if edges.empty:
            return pa.table({
                "k": pa.array([], pa.string()),
                "nl": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            })
        st = df[df["side"] == 0]
        lmap = pd.Series(st["lab"].to_numpy(), index=st["k"])
        g = (pd.DataFrame({
                "k": edges["voter"].to_numpy(),
                "nl": edges["k"].map(lmap).to_numpy(),
             })
             .groupby(["k", "nl"], sort=False)
             .size().reset_index(name="c"))
        return pa.table({
            "k": pa.array(g["k"].tolist(), pa.string()),
            "nl": pa.array(g["nl"].tolist(), pa.string()),
            "c": pa.array(g["c"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def vote(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "node": pa.array([], pa.string()),
                "lab": pa.array([], pa.string()),
            })
        g = (df.groupby(["k", "nl"], sort=False)["c"].sum()
             .reset_index()
             .sort_values(["k", "c", "nl"],
                          ascending=[True, False, True],
                          kind="mergesort")
             .drop_duplicates("k"))
        return pa.table({
            "node": pa.array(g["k"].tolist(), pa.string()),
            "lab": pa.array(g["nl"].tolist(), pa.string()),
        })

    for _ in range(rounds):
        state = (ed.map_batches(edge_rows, batch_format="pyarrow")
                 .union(state.map_batches(state_rows,
                                          batch_format="pyarrow"))
                 .sort("k")
                 .map_batches(attach, batch_format="pyarrow",
                              batch_size=None)
                 .sort("k")
                 .map_batches(vote, batch_format="pyarrow",
                              batch_size=None)
                 .materialize())

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "entity_id": batch.column("node"),
            "community": batch.column("lab"),
        })

    return state.map_batches(final, batch_format="pyarrow")


def ktruss(
    edges: rd.Dataset,
    *,
    k: int = 3,
    rounds: int = 3,
    a_col: str = "subj",
    b_col: str = "obj",
    node_type: pa.DataType = pa.string(),
    broadcast_edges_max: int = 1 << 22,
) -> rd.Dataset:
    """k-truss peel over DISTINCT undirected edges (``a < b``): keep
    edges supported by >= k-2 triangles, recompute support on the
    surviving subgraph, ``rounds`` fixed iterations (the LPA/kcore
    fixed-unroll contract: at a fixed point extra rounds are no-ops on
    both engines, and before convergence both report the same
    partially-peeled set for the same round count).

    Two auto-selected paths with BIT-IDENTICAL outputs (integer
    supports — the _triangles_broadcast precedent): at or below
    ``broadcast_edges_max`` edges the peel runs on the driver (six
    wide ops per call are pure overhead on a lexicon-bounded graph);
    above it, per round, the common_neighbors wedge machinery with
    INNER (not anti) edge semantics: both-direction rows sorted on the
    center -> per-block wedge-pair partials; partials UNIONED with the
    current edge rows sorted on the (x, y) composite -> per-block
    support sum, keep edges present with support >= k-2.  Each round's
    survivor set is materialized (iterative lineage truncation).
    Integer supports make the SQL unroll bit-exact.

    Per-center wedge cost is deg^2 (full neighbor set, like
    common_neighbors); pre-filter hub degrees before calling this on
    corpus-scale graphs.

    Output: (``a_col``, ``b_col``, support) for the final survivors."""
    thr = k - 2

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(a_col).cast(node_type),
            "b": batch.column(b_col).cast(node_type),
        })

    cur = edges.map_batches(norm, batch_format="pyarrow",
                            batch_size=1 << 19).materialize()
    if cur.count() <= broadcast_edges_max:
        # lexicon-bounded graph (the _triangles_broadcast contract):
        # six wide ops per call are pure overhead when the edges fit
        # on the driver — run the identical integer peel locally.
        pdf = cur.to_pandas()
        cur_set = list(zip(pdf["a"].tolist(), pdf["b"].tolist()))
        sup: dict = {}
        for _ in range(rounds):
            adj: dict = {}
            for a, b in cur_set:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            sup = {(a, b): len(adj[a] & adj[b]) for a, b in cur_set}
            cur_set = [e for e, s_ in sup.items() if s_ >= thr]
        cur_set.sort()
        return rd.from_arrow(pa.table({
            a_col: pa.array([a for a, _ in cur_set], node_type),
            b_col: pa.array([b for _, b in cur_set], node_type),
            "support": pa.array([sup[e] for e in cur_set], pa.int64()),
        }))

    def both(batch: pa.Table) -> pa.Table:
        a, b = batch.column("a"), batch.column("b")
        return pa.table({
            "u": pa.concat_arrays([a.combine_chunks(),
                                   b.combine_chunks()]),
            "v": pa.concat_arrays([b.combine_chunks(),
                                   a.combine_chunks()]),
        })

    def wedge_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        o_x, o_y = [], []
        for _, g in df.groupby("u", sort=False):
            nb = np.sort(g["v"].to_numpy())
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            o_x.append(nb[i])
            o_y.append(nb[j])
        if o_x:
            g = (pd.DataFrame({"x": np.concatenate(o_x),
                               "y": np.concatenate(o_y),
                               "n": np.int64(1)})
                 .groupby(["x", "y"], sort=False)["n"].sum()
                 .reset_index())
        else:
            g = pd.DataFrame({"x": [], "y": [], "n": []})
        return pa.table({
            "x": pa.array(g["x"].tolist(), node_type),
            "y": pa.array(g["y"].tolist(), node_type),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    def direct(batch: pa.Table) -> pa.Table:
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({
            "x": batch.column("a"), "y": batch.column("b"),
            "n": z, "kind": z,
        })

    def keep_supported(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.loc[df["kind"] == 0, ["x", "y"]]
        if d.empty:
            z = pa.array([], pa.int64())
            return pa.table({"a": pa.array([], node_type),
                             "b": pa.array([], node_type),
                             "support": z})
        w = (df[df["kind"] == 1].groupby(["x", "y"], sort=False)
             ["n"].sum().reset_index())
        g = d.merge(w, on=["x", "y"], how="left").fillna({"n": 0})
        g = g[g["n"] >= thr]
        return pa.table({
            "a": pa.array(g["x"].tolist(), node_type),
            "b": pa.array(g["y"].tolist(), node_type),
            "support": pa.array(g["n"].to_numpy(dtype=np.int64),
                                pa.int64()),
        })

    last = None
    for r in range(rounds):
        sup = (cur.map_batches(both, batch_format="pyarrow",
                               batch_size=1 << 19)
               .sort("u")
               .map_batches(wedge_partials, batch_format="pyarrow",
                            batch_size=None))
        last = (sup.union(cur.map_batches(direct,
                                          batch_format="pyarrow"))
                .sort(["x", "y"])
                .map_batches(keep_supported, batch_format="pyarrow",
                             batch_size=None)
                .materialize())
        if r < rounds - 1:
            cur = last.map_batches(
                lambda t: pa.table({"a": t.column("a"),
                                    "b": t.column("b")}),
                batch_format="pyarrow").materialize()

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            a_col: batch.column("a"),
            b_col: batch.column("b"),
            "support": batch.column("support"),
        })

    return last.map_batches(rename, batch_format="pyarrow")


def link_negatives(triples: rd.Dataset) -> rd.Dataset:
    """Link-prediction negative sampling (TransE-family training prep,
    Bordes et al. 2013): for every positive triple (s, p, o) emit ONE
    corrupted object ``neg_obj != o`` drawn deterministically from the
    triple table's own endpoint vocabulary — the per-positive negative
    a margin-ranking KG-embedding trainer consumes.

    Determinism: the pick is ``vocab[md5_hash64(f"{s}:{p}:{o}") % n]``
    over the SORTED endpoint vocabulary (ASCII ids — Python/DuckDB
    string order agree), stepping to the next slot (mod n) iff the
    draw equals the true object, so the plan is reproducible across
    runs and engines with no RNG state (the `mlm_mask_plan` rule).
    Requires n >= 2 endpoints for neg_obj != obj to be guaranteed.

    Shape: the vocabulary is LEXICON-BOUNDED (the degrees/pagerank
    driver-fold precedent) — one streaming pass folds per-block
    distinct endpoints on the driver, ``ray.put`` broadcasts the
    sorted array, and one stateless pass corrupts every triple
    block-locally.  Zero wide ops.

    Output: (subj, pred, obj, neg_obj)."""
    import ray

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def ends(batch: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            np.asarray(batch.column("subj").to_pylist(), object),
            np.asarray(batch.column("obj").to_pylist(), object)]))
        return pa.table({"e": pa.array(u.tolist(), pa.string())})

    vocab: set[str] = set()
    for r in triples.map_batches(ends, batch_format="pyarrow",
                                 batch_size=1 << 19).take_all():
        vocab.add(r["e"])
    arr = np.asarray(sorted(vocab), dtype=object)
    n = len(arr)
    vref = ray.put(arr)

    def corrupt(batch: pa.Table) -> pa.Table:
        v = ray.get(vref)
        s = batch.column("subj").to_pylist()
        p = batch.column("pred").to_pylist()
        o = batch.column("obj").to_pylist()
        if not s:
            z = pa.array([], pa.string())
            return pa.table({"subj": z, "pred": z, "obj": z,
                             "neg_obj": z})
        idx = (_hash64([f"{a}:{b}:{c}" for a, b, c in zip(s, p, o)])
               % np.uint64(n)).astype(np.int64)
        neg = v[idx]
        hit = neg == np.asarray(o, dtype=object)
        idx[hit] = (idx[hit] + 1) % n
        neg = v[idx]
        return pa.table({
            "subj": pa.array(s, pa.string()),
            "pred": pa.array(p, pa.string()),
            "obj": pa.array(o, pa.string()),
            "neg_obj": pa.array(neg.tolist(), pa.string()),
        })

    return triples.map_batches(corrupt, batch_format="pyarrow")


def degree_assortativity(triples: rd.Dataset,
                         *, pred: str = "co_occurs") -> pa.Table:
    """Degree assortativity sufficient statistics: do high-degree
    entities co-occur with other high-degree entities?  The Pearson
    correlation of endpoint degrees over all edge STUBS (each
    undirected edge contributes both orientations), reported as the
    exact INTEGER sufficient statistics plus the correlation's sign —
    numerator ``num = n*Σxy - Σx*Σy`` and denominator factor
    ``den = n*Σxx - (Σx)²`` (symmetric in x/y over stubs), so no
    float ever enters and the verdict (assortative / neutral /
    disassortative) is deterministic on both engines.

    Shape: one lexicon-bounded degree fold on the driver (the
    kg_degrees shape), ``ray.put`` broadcast, then ONE streaming pass
    over the edge stream folding five integers per block — zero wide
    ops.

    Output pa.Table, one row: (n_stubs, s_x, s_xy, s_xx, num, den,
    assortative)."""
    import ray

    def deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        d = pd.DataFrame({
            "entity_id": np.concatenate([df["subj"].to_numpy(),
                                         df["obj"].to_numpy()]),
            "degree": np.int64(1),
        })
        g = (d.groupby("entity_id", sort=False)["degree"]
             .sum().reset_index())
        return pa.table({
            "entity_id": pa.array(g["entity_id"].tolist(),
                                  pa.string()),
            "degree": pa.array(g["degree"].to_numpy(np.int64),
                               pa.int64()),
        })

    tm = triples.materialize()  # consumed twice; no CSE in Ray
    deg: dict[str, int] = {}
    for r in tm.map_batches(deg_partial, batch_format="pyarrow",
                            batch_size=1 << 19).take_all():
        deg[r["entity_id"]] = deg.get(r["entity_id"], 0) \
            + int(r["degree"])
    dref = ray.put(deg)

    def stub_partials(batch: pa.Table) -> pa.Table:
        dd = ray.get(dref)
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"n": z, "sx": z, "sxy": z, "sxx": z})
        da = df["subj"].map(dd).to_numpy(np.int64)
        db = df["obj"].map(dd).to_numpy(np.int64)
        # both orientations: Σ over stubs
        n = 2 * len(df)
        sx = int((da + db).sum())
        sxy = int(2 * (da * db).sum())
        sxx = int((da * da + db * db).sum())
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sxy": pa.array([sxy], pa.int64()),
            "sxx": pa.array([sxx], pa.int64()),
        })

    n = sx = sxy = sxx = 0
    for r in tm.map_batches(stub_partials, batch_format="pyarrow",
                            batch_size=None).take_all():
        n += int(r["n"])
        sx += int(r["sx"])
        sxy += int(r["sxy"])
        sxx += int(r["sxx"])
    # over stubs Σy == Σx, so num = n*Σxy - (Σx)²
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    return pa.table({
        "n_stubs": pa.array([n], pa.int64()),
        "s_x": pa.array([sx], pa.int64()),
        "s_xy": pa.array([sxy], pa.int64()),
        "s_xx": pa.array([sxx], pa.int64()),
        "num": pa.array([num], pa.int64()),
        "den": pa.array([den], pa.int64()),
        "assortative": pa.array([(num > 0) - (num < 0)], pa.int64()),
    })


def hits_scores(triples: rd.Dataset, *, pred: str = "co_occurs",
                rounds: int = 2) -> pa.Table:
    """HITS hubs/authorities, UNNORMALIZED fixed-round variant: with
    the adjacency A of the (directed as stored) edge set, iterate
    ``a <- A^T h; h <- A a`` from all-ones — every intermediate is an
    exact non-negative integer (normalization only rescales, so the
    unnormalized fixed-round scores carry the same ranking and are
    bit-replicable in SQL as chained join-aggregates).  On the
    co-occurrence graph A is symmetric, so hubs == authorities — the
    stored subj->obj orientation is used as-is, mirroring the oracle.

    Shape: the graph is lexicon-bounded (the kg node-state rule), so
    edges fold to a driver edge list once and the ``rounds``
    iterations are two tiny driver matvecs; the distributed part is
    the single streaming edge fold.  For bigger-than-lexicon graphs
    the same recurrence runs as the pagerank-style distributed
    gather (sort on endpoint), auto-selection left to the caller.

    Scores are exact Python ints until output.  Unnormalized HITS grows
    about as (max weighted degree)^(2 * rounds), and the output columns
    are int64, so a score above 2^63 - 1 raises OverflowError naming
    the bound (lower ``rounds``) instead of wrapping or failing in the
    cast.

    Output pa.Table (entity_id, hub, auth), sorted by entity_id."""

    def edge_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        g = (df.groupby(["subj", "obj"], sort=False)
             .size().reset_index(name="m"))
        return pa.table({
            "subj": pa.array(g["subj"].tolist(), pa.string()),
            "obj": pa.array(g["obj"].tolist(), pa.string()),
            "m": pa.array(g["m"].to_numpy(np.int64), pa.int64()),
        })

    edges: dict[tuple, int] = {}
    for r in triples.map_batches(edge_partial, batch_format="pyarrow",
                                 batch_size=1 << 19).take_all():
        k = (r["subj"], r["obj"])
        edges[k] = edges.get(k, 0) + int(r["m"])
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    idx = {e: i for i, e in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        z = pa.array([], pa.int64())
        return pa.table({"entity_id": pa.array([], pa.string()),
                         "hub": z, "auth": z})
    src = np.asarray([idx[a] for a, _ in edges], np.int64)
    dst = np.asarray([idx[b] for _, b in edges], np.int64)
    mult = np.asarray(list(edges.values()), np.int64)
    h = np.ones(n, dtype=object)  # python ints: no overflow ever
    a = np.zeros(n, dtype=object)
    for _ in range(rounds):
        a = np.zeros(n, dtype=object)
        np.add.at(a, dst, mult * h[src])
        h = np.zeros(n, dtype=object)
        np.add.at(h, src, mult * a[dst])
    top = max(max(h), max(a))
    if top > (1 << 63) - 1:
        raise OverflowError(
            f"hits_scores: a score reached {top} after {rounds} rounds, "
            "past the int64 output bound 2^63 - 1; lower rounds")
    return pa.table({
        "entity_id": pa.array(nodes, pa.string()),
        "hub": pa.array([int(v) for v in h], pa.int64()),
        "auth": pa.array([int(v) for v in a], pa.int64()),
    })


def random_walks(triples: rd.Dataset, *, pred: str = "co_occurs",
                 walk_len: int = 3,
                 salt: str = "walk") -> rd.Dataset:
    """DeepWalk/node2vec-prep random-walk corpus, DETERMINISTIC: one
    walk of ``walk_len`` steps from every node of the co-occurrence
    graph, each step picking ``sorted_neighbors[md5_64(f"{salt}:
    {start}:{step}") % degree]`` — the engine's md5 draw convention
    (kg_negatives precedent), so the walk corpus is reproducible
    across runs, engines and resumes, and the SQL replica picks the
    identical list index.  Walks stop early at sink nodes (absent
    steps, inner-join semantics).

    Shape: the adjacency is lexicon-bounded -> ONE streaming edge
    fold builds sorted neighbor lists on the driver, ``ray.put``
    broadcasts them, and walk emission is a ``map_batches`` over the
    node list (embarrassingly parallel; at web scale the same
    recurrence runs as ``walk_len`` sort-merge self-joins, the
    documented fallback family).

    Output: (start, step, node) with step 1-based."""
    import ray

    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    def edge_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        g = pd.DataFrame({
            "a": np.concatenate([df["subj"].to_numpy(),
                                 df["obj"].to_numpy()]),
            "b": np.concatenate([df["obj"].to_numpy(),
                                 df["subj"].to_numpy()]),
        }).drop_duplicates()
        return pa.table({
            "a": pa.array(g["a"].tolist(), pa.string()),
            "b": pa.array(g["b"].tolist(), pa.string()),
        })

    adj: dict[str, set] = {}
    for r in triples.map_batches(edge_partial, batch_format="pyarrow",
                                 batch_size=1 << 19).take_all():
        adj.setdefault(r["a"], set()).add(r["b"])
    nbrs = {k: sorted(v) for k, v in adj.items()}
    aref = ray.put(nbrs)
    nodes = sorted(nbrs)
    if not nodes:
        return rd.from_arrow(pa.table({
            "start": pa.array([], pa.string()),
            "step": pa.array([], pa.int64()),
            "node": pa.array([], pa.string()),
        }))

    def walk(batch: pa.Table) -> pa.Table:
        nb = ray.get(aref)
        out_s, out_i, out_n = [], [], []
        for start in batch.column("start").to_pylist():
            cur = start
            for step in range(1, walk_len + 1):
                cand = nb.get(cur)
                if not cand:
                    break
                h = int(_hash64([f"{salt}:{start}:{step}"])[0]
                        % np.uint64(len(cand)))
                cur = cand[h]
                out_s.append(start)
                out_i.append(step)
                out_n.append(cur)
        return pa.table({
            "start": pa.array(out_s, pa.string()),
            "step": pa.array(out_i, pa.int64()),
            "node": pa.array(out_n, pa.string()),
        })

    starts = rd.from_arrow(pa.table({
        "start": pa.array(nodes, pa.string())}))
    return starts.map_batches(walk, batch_format="pyarrow")


def local_bridges(triples: rd.Dataset,
                  *, pred: str = "co_occurs") -> rd.Dataset:
    """Local bridges: edges whose endpoints share NO common neighbor
    (span > 2) — removing one disconnects its endpoints' local
    neighborhoods, the classic weak-tie / community-boundary signal
    (Granovetter via Easley-Kleinberg ch. 3).  Reported per edge with
    the exact common-neighbor count.

    Shape: the adjacency is lexicon-bounded -> one streaming edge
    fold + ``ray.put`` broadcast, then ONE map_batches pass over the
    edge stream computing set intersections per edge (C-speed set
    ops, the postings-loop pattern).  Zero wide ops.

    Output: (subj, obj, n_common, is_bridge)."""
    import ray

    def edge_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        g = pd.DataFrame({
            "a": np.concatenate([df["subj"].to_numpy(),
                                 df["obj"].to_numpy()]),
            "b": np.concatenate([df["obj"].to_numpy(),
                                 df["subj"].to_numpy()]),
        }).drop_duplicates()
        return pa.table({
            "a": pa.array(g["a"].tolist(), pa.string()),
            "b": pa.array(g["b"].tolist(), pa.string()),
        })

    tm = triples.materialize()  # adjacency fold + edge pass, no CSE
    adj: dict[str, set] = {}
    for r in tm.map_batches(edge_partial, batch_format="pyarrow",
                            batch_size=1 << 19).take_all():
        adj.setdefault(r["a"], set()).add(r["b"])
    aref = ray.put(adj)

    def per_edge(batch: pa.Table) -> pa.Table:
        nb = ray.get(aref)
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        subj = df["subj"].tolist()
        obj = df["obj"].tolist()
        n_common = np.asarray(
            [len((nb.get(a, set()) & nb.get(b, set()))
                 - {a, b}) for a, b in zip(subj, obj)], np.int64)
        return pa.table({
            "subj": pa.array(subj, pa.string()),
            "obj": pa.array(obj, pa.string()),
            "n_common": pa.array(n_common, pa.int64()),
            "is_bridge": pa.array((n_common == 0).astype(np.int64),
                                  pa.int64()),
        })

    return tm.map_batches(per_edge, batch_format="pyarrow")


def link_prediction_ra(triples: rd.Dataset, *,
                       pred: str = "co_occurs") -> rd.Dataset:
    """Resource-Allocation link prediction (Zhou, Lü, Zhang 2009 —
    the common-neighbor index that beats Adamic-Adar on most
    benchmarks): for every NON-adjacent pair with at least one common
    neighbor, ``ra_fp = Σ_z 2^20 // deg(z)`` over common neighbors z
    — the fixed-point integer form of Σ 1/deg(z), exact on both
    engines (non-negative floor division, no logs or floats).

    Shape: adjacency + degrees fold once (lexicon-bounded, the kg
    node-state rule) and broadcast; wedge pairs emit per-center from
    a map over the node list, combine, ONE pair sort, per-block sum +
    non-adjacency filter.

    Output: (a, b, n_common, ra_fp) with a < b, sorted."""
    import ray

    def edge_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pred"] == pred]
        g = pd.DataFrame({
            "a": np.concatenate([df["subj"].to_numpy(),
                                 df["obj"].to_numpy()]),
            "b": np.concatenate([df["obj"].to_numpy(),
                                 df["subj"].to_numpy()]),
        }).drop_duplicates()
        return pa.table({
            "a": pa.array(g["a"].tolist(), pa.string()),
            "b": pa.array(g["b"].tolist(), pa.string()),
        })

    adj: dict[str, set] = {}
    for r in triples.map_batches(edge_partial, batch_format="pyarrow",
                                 batch_size=1 << 19).take_all():
        adj.setdefault(r["a"], set()).add(r["b"])
    nbrs = {k: sorted(v) for k, v in adj.items()}
    aref = ray.put(nbrs)
    centers = rd.from_arrow(pa.table({
        "z": pa.array(sorted(nbrs), pa.string())}))

    def wedge_pairs(batch: pa.Table) -> pa.Table:
        nb = ray.get(aref)
        out_a, out_b, out_s = [], [], []
        for z in batch.column("z").to_pylist():
            ns = nb[z]
            if len(ns) < 2:
                continue
            w = (1 << 20) // len(ns)
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    u, v = ns[i], ns[j]
                    if v in nb.get(u, ()):  # adjacent: not a candidate
                        continue
                    out_a.append(u)
                    out_b.append(v)
                    out_s.append(w)
        return pa.table({
            "a": pa.array(out_a, pa.string()),
            "b": pa.array(out_b, pa.string()),
            "w": pa.array(np.asarray(out_s, np.int64), pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "n_common": z, "ra_fp": z})
        g = (df.groupby(["a", "b"], sort=False)["w"]
             .agg(["size", "sum"]).reset_index())
        return pa.table({
            "a": pa.array(g["a"].tolist(), pa.string()),
            "b": pa.array(g["b"].tolist(), pa.string()),
            "n_common": pa.array(g["size"].to_numpy(np.int64),
                                 pa.int64()),
            "ra_fp": pa.array(g["sum"].to_numpy(np.int64),
                              pa.int64()),
        })

    pairs = centers.map_batches(wedge_pairs, batch_format="pyarrow")
    return pairs.sort(["a", "b"]).map_batches(
        complete, batch_format="pyarrow", batch_size=None)


def modularity_report(pairs: rd.Dataset,
                      communities: pa.Table) -> pa.Table:
    """Partition-quality report: Newman modularity of a community
    assignment over the undirected edge set, as EXACT integers —
    per community ``q_num_part = 4*m*in_c - deg_sum_c²`` so that
    ``Q = Σ q_num_part / (4m²)`` with no float ever computed (the
    kg_trend integer-sufficient-statistics trick applied to the
    partition-quality functional).  The number that says whether the
    LPA communities are real structure or noise.

    Shape: the community map is lexicon-bounded -> ``ray.put``
    broadcast; ONE streaming pass over the distinct edge stream folds
    per-community (in-edge, endpoint-degree) integer partials on the
    driver.  Zero wide ops.

    Output pa.Table (community, n_nodes, in_edges, deg_sum,
    q_num_part), sorted by community."""
    import ray

    lab = dict(zip(communities.column("entity_id").to_pylist(),
                   communities.column("community").to_pylist()))
    lref = ray.put(lab)

    def partials(batch: pa.Table) -> pa.Table:
        lb = ray.get(lref)
        df = batch.to_pandas()
        if df.empty:
            z = pa.array([], pa.int64())
            return pa.table({"community": pa.array([], pa.string()),
                             "in_edges": z, "deg_sum": z, "m": z})
        ca = df["subj"].map(lb)
        cb = df["obj"].map(lb)
        in_counts = ca[(ca == cb).to_numpy()].value_counts()
        deg_counts = pd.concat([ca, cb]).value_counts()
        ks = sorted(deg_counts.index)
        # the block's edge count rides on a null-community sentinel row
        # (the association_stats "" idiom): it exists even when no
        # endpoint maps to a community, and no real community is null
        return pa.table({
            "community": pa.array(ks + [None], pa.string()),
            "in_edges": pa.array(
                [int(in_counts.get(k, 0)) for k in ks] + [0], pa.int64()),
            "deg_sum": pa.array(
                [int(deg_counts[k]) for k in ks] + [0], pa.int64()),
            "m": pa.array([0] * len(ks) + [len(df)], pa.int64()),
        })

    acc: dict[str, list] = {}
    m = 0
    for r in pairs.map_batches(partials, batch_format="pyarrow",
                               batch_size=None).take_all():
        if r["community"] is None:
            m += int(r["m"])
            continue
        a = acc.setdefault(r["community"], [0, 0])
        a[0] += int(r["in_edges"])
        a[1] += int(r["deg_sum"])
    n_nodes: dict[str, int] = {}
    for c in communities.column("community").to_pylist():
        # a null community leaves its node unmapped, as in the partials
        if c is not None:
            n_nodes[c] = n_nodes.get(c, 0) + 1
    # communities with no incident edge still appear (all-zero row)
    for c in n_nodes:
        acc.setdefault(c, [0, 0])
    ks = sorted(acc)
    return pa.table({
        "community": pa.array(ks, pa.string()),
        "n_nodes": pa.array([n_nodes.get(k, 0) for k in ks],
                            pa.int64()),
        "in_edges": pa.array([acc[k][0] for k in ks], pa.int64()),
        "deg_sum": pa.array([acc[k][1] for k in ks], pa.int64()),
        "q_num_part": pa.array(
            [4 * m * acc[k][0] - acc[k][1] * acc[k][1] for k in ks],
            pa.int64()),
    })
