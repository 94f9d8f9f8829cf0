"""Graph analytics over edge tables (KG co-occurrence, near-dup pairs).

Functions, by what they read:

  triple table (subj, pred, obj; ``pred`` selects the edges):
    pagerank, hits_scores, random_walks, local_bridges,
    link_prediction_ra, degree_assortativity, link_negatives
  distinct undirected pairs (``a < b``):
    common_neighbors, jaccard_links, ktruss, label_propagation,
    kcore, khop_reachability, modularity_report, and, over int64 node
    ids, triangle_counts and clustering_coefficients

One fold-or-exchange rule covers all sixteen.  Each materializes its
input once and asks ``arrowutil.driver_table`` for it under the one cap,
``arrowutil.FOLD_MAX_BYTES`` (the KG build's cap).  At or below the cap
the edges come back as one driver-side Arrow table, and node state
(degrees, adjacency, ranks, labels, alive sets, frontiers, stub sums) is
computed on it with ``grouped_agg``, ``grouped_topk`` and numpy over
sorted integer node codes: no per-round Ray tasks, no ``take_all``
folds.  Above the cap:

  - pagerank, triangle_counts, common_neighbors, jaccard_links,
    clustering_coefficients, label_propagation and ktruss take their
    distributed paths, which hold no per-node driver state (sorts on
    the node or pair key), with outputs bit-identical to the fold
    (``tests/test_graph_distributed.py`` forces both paths);
  - the other nine have no distributed path and raise ValueError
    naming the op, the input size and the cap.

An empty input folds (its schema's empty table, or an empty table of
the op's columns when it has no schema) and gives a typed empty result.
Work that grows with wedges or walks rather than edges stays
distributed on both paths: the (x, y) pair exchange of common_neighbors
and ktruss, triangle wedge-close, walk emission and the per-edge map of
local_bridges; link_prediction_ra folds its wedges on the driver, over
int64 node codes.  Every choice is logged through the
``ray_kg`` logger.

Why INTEGER fixed-point: float PageRank sums neighbor contributions in
engine-dependent order, so a SQL oracle could never hash-match.  With
ranks in units of 1e-12 of the total mass every operation is integer
(floor division for the per-neighbor share, integer percent damping),
sums commute exactly, and the unrolled-CTE DuckDB replica reproduces
either path bit-for-bit (the kmeans precedent:
`similarity.py::_kmeans_sql` unrolls Lloyd's).  The same holds for every
other function here: integer counts and lexicographic tie-breaks only.

Overflow: per-node rank sums are bounded by the total mass 1e12; the
85x damping product peaks at 8.5e13 << 2^63.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from clinicaltransformerner_ray.arrowutil import (
    FOLD_MAX_BYTES, driver_table, grouped_agg, grouped_topk, sorted_codes,
    triu_pairs)

SCALE = 10 ** 12

#: the columns a triple-table op reads, and a pair-table op
_TRIPLE_COLS = ["subj", "pred", "obj"]
_PAIR_COLS = ["subj", "obj"]


# -- shared kernels ----------------------------------------------------------

def _fold_edges(src, op: str, cols: list[str]) -> pa.Table | None:
    """``cols`` of the materialized input ``src`` as one driver table
    (``driver_table`` under ``FOLD_MAX_BYTES``), or None above the cap.
    An input with no rows always folds: with no schema (a map over no
    rows has none) it gives an empty string table of ``cols``, which
    every caller casts or filters."""
    tbl = driver_table(src, FOLD_MAX_BYTES, op=op)
    if tbl is not None:
        return tbl.select(cols)
    if src.count():
        return None
    return pa.table({c: pa.array([], pa.string()) for c in cols})


def _edge_table(ds: rd.Dataset, op: str, cols: list[str]) -> pa.Table:
    """The driver edge table of an op with no distributed path: ``ds``
    materialized, then :func:`_fold_edges`.  Above ``FOLD_MAX_BYTES``
    raises ValueError naming the op, the input size and the cap, so the
    driver never holds an unbounded fold."""
    src = ds.materialize()
    tbl = _fold_edges(src, op, cols)
    if tbl is None:
        raise ValueError(
            f"{op}: the edge input is {src.size_bytes()} bytes, above the "
            f"driver fold cap FOLD_MAX_BYTES={FOLD_MAX_BYTES}, and {op} "
            "has no distributed path")
    return tbl


def _norm(batch: pa.Table, a_col: str, b_col: str, typ: pa.DataType,
          names: tuple[str, str] = ("a", "b")) -> pa.Table:
    """The (``a_col``, ``b_col``) edge columns cast to ``typ``, named
    ``names``."""
    return pa.table({names[0]: batch.column(a_col).cast(typ),
                     names[1]: batch.column(b_col).cast(typ)})


def _bidir(batch: pa.Table, names: tuple[str, str] = ("a", "b"), *,
           pred: str | None = None, a: str = "subj",
           b: str = "obj") -> pa.Table:
    """Both orientations of every (``a``, ``b``) row, named ``names``:
    the rows as given, then reversed.  ``pred`` keeps only the rows of
    that predicate first."""
    if pred is not None:
        batch = batch.filter(pc.equal(batch.column("pred"), pred))
    x = batch.column(a).combine_chunks()
    y = batch.column(b).combine_chunks()
    return pa.table({names[0]: pa.concat_arrays([x, y]),
                     names[1]: pa.concat_arrays([y, x])})


def _ones(n: int) -> pa.Array:
    return pa.array(np.ones(n, np.int64))


def _degrees(batch: pa.Table, ends: tuple[str, ...] = ("a",),
             node: str = "node", d: str = "d") -> pa.Table:
    """(``node``, ``d``) occurrence counts of the values of the ``ends``
    columns; a batch that already has ``d`` is a set of such partials,
    summed per node.  One kernel for the degree partial and combine."""
    if d not in batch.column_names:
        x = pa.concat_arrays([batch.column(c).combine_chunks()
                              for c in ends])
        batch = pa.table({node: x, d: _ones(len(x))})
    return grouped_agg(batch, [node], [(d, "sum")])


def _degrees_ds(ds: rd.Dataset, ends: tuple[str, ...], node: str,
                d: str) -> rd.Dataset:
    """:func:`_degrees` as combine -> sort(node) -> combine: the
    distributed paths' degree table, with no per-node driver state."""
    kw = {"ends": ends, "node": node, "d": d}
    return (ds.map_batches(_degrees, fn_kwargs=kw, batch_format="pyarrow",
                           batch_size=1 << 19)
            .sort(node)
            .map_batches(_degrees, fn_kwargs=kw, batch_format="pyarrow",
                         batch_size=None))


def _run_starts(col) -> np.ndarray:
    """True at the first row of each run of equal values of ``col``."""
    n = len(col)
    starts = np.ones(n, dtype=bool)
    if n > 1:
        starts[1:] = pc.not_equal(col.slice(1), col.slice(0, n - 1)
                                  ).to_numpy(zero_copy_only=False)
    return starts


def _wedges(batch: pa.Table, u: str = "u", v: str = "v") -> pa.Table:
    """Every unordered pair of ``v`` neighbors of each ``u`` center, as
    (c, p, q) rows with p < q in binary order: one ``sort_by`` and
    :func:`arrowutil.triu_pairs` over the center runs.  Each center's
    rows must all be in ``batch`` (a center-sorted block or cut)."""
    t = batch.select([u, v]).sort_by([(u, "ascending"), (v, "ascending")])
    starts = np.flatnonzero(_run_starts(t.column(u)))
    i, j = triu_pairs(starts, np.diff(np.append(starts, t.num_rows)))
    i, j = pa.array(i), pa.array(j)
    return pa.table({"c": t.column(u).take(i), "p": t.column(v).take(i),
                     "q": t.column(v).take(j)})


def _wedge_counts(batch: pa.Table) -> pa.Table:
    """Per-block (x, y, n, kind=1) wedge-pair counts over a block of
    (u, v) rows holding each center whole: the first exchange's output
    in common_neighbors and ktruss."""
    w = _wedges(batch)
    g = grouped_agg(pa.table({"x": w.column("p"), "y": w.column("q"),
                              "n": _ones(w.num_rows)}),
                    ["x", "y"], [("n", "sum")])
    return g.append_column("kind", _ones(g.num_rows))


def _direct_rows(batch: pa.Table) -> pa.Table:
    """Edge (a, b) rows as (x, y, n=0, kind=0), to union with
    :func:`_wedge_counts` output on the (x, y) composite."""
    z = pa.array(np.zeros(batch.num_rows, np.int64))
    return pa.table({"x": batch.column("a"), "y": batch.column("b"),
                     "n": z, "kind": z})


def _center_blocks(t: pa.Table, key: str) -> list[pa.Table]:
    """``t`` sorted on ``key`` and cut into at most 64 blocks of about
    4096 rows, only at ``key`` boundaries, so each block holds every
    row of its centers and a per-center map needs no Sort (CLAUDE.md
    round-3 #2)."""
    t = t.sort_by([(key, "ascending")])
    n = t.num_rows
    first = np.maximum.accumulate(
        np.where(_run_starts(t.column(key)), np.arange(n), 0))
    n_blocks = max(1, min(64, n // 4096))
    cuts = sorted({0, n} | {int(first[k * n // n_blocks])
                            for k in range(1, n_blocks)})
    return [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])
            if hi > lo]


def _adjacency(tbl: pa.Table, pred: str) -> dict[str, list[str]]:
    """Each node's sorted distinct neighbors over the ``pred`` rows of a
    triple table, both orientations, keyed in sorted node order."""
    e = grouped_agg(_bidir(tbl, pred=pred), ["a", "b"], []).sort_by(
        [("a", "ascending"), ("b", "ascending")])
    a, b = e.column("a").to_pylist(), e.column("b").to_pylist()
    starts = np.flatnonzero(_run_starts(e.column("a"))).tolist()
    return {a[s]: b[s:t] for s, t in zip(starts, starts[1:] + [len(a)])}


def _empty(**cols: pa.DataType) -> pa.Table:
    return pa.table({c: pa.array([], t) for c, t in cols.items()})


# -- ranks -------------------------------------------------------------------

def pagerank(triples: rd.Dataset, *, iters: int = 5,
             damping_pct: int = 85):
    """PageRank over the undirected co-occurrence graph in the triple
    table (rows with ``pred == 'co_occurs'``; each pair is one
    undirected edge, walked in both directions): ``iters`` synchronous
    rounds of r'_v = (15% of mass)/N + 85% * sum r_u // deg_u, in units
    of 1e-12 of the total mass.

    Fold (the module rule): degrees and ranks are numpy arrays over
    sorted node codes, each round one ``np.add.at`` of integer shares;
    returns a pa.Table (entity_id, rank_e12 BIGINT).  Exchange: NO
    per-node driver state, every round two sorts
    (:func:`_pagerank_distributed`); returns the rank Dataset.  Integer
    arithmetic makes the two paths exactly equal."""
    src = triples.materialize()
    tbl = _fold_edges(src, "pagerank", _TRIPLE_COLS)
    if tbl is None:
        edges = src.map_batches(
            _bidir, fn_args=(("src", "dst"),), fn_kwargs={"pred": "co_occurs"},
            batch_format="pyarrow", batch_size=1 << 19).materialize()
        return _pagerank_distributed(edges, iters=iters,
                                     damping_pct=damping_pct)

    ed = _bidir(tbl, pred="co_occurs")
    nodes, (s, d) = sorted_codes(ed.column("a"), ed.column("b"))
    n = len(nodes)
    if n == 0:
        return _empty(entity_id=pa.string(), rank_e12=pa.int64())
    deg = np.bincount(s, minlength=n)
    base = (SCALE * (100 - damping_pct) // 100) // n
    rank = np.full(n, SCALE // n, np.int64)
    for _ in range(iters):
        sums = np.zeros(n, np.int64)
        np.add.at(sums, d, rank[s] // deg[s])  # integer: order-free
        rank = base + damping_pct * sums // 100
    return pa.table({"entity_id": nodes,
                     "rank_e12": pa.array(rank, pa.int64())})


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
    (entity_id, rank_e12), bit-identical to the fold."""
    deg = _degrees_ds(edges, ("src",), "node", "d").materialize()
    n = deg.count()
    if n == 0:
        return rd.from_arrow(_empty(entity_id=pa.string(),
                                    rank_e12=pa.int64()))
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


# -- triangles and clustering ------------------------------------------------

def _orient_fwd(a: np.ndarray, b: np.ndarray,
                da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Degree-orientation predicate shared by BOTH triangle paths
    (keeping them contractually output-identical): edge (a, b) points
    a -> b iff (deg(a), a) < (deg(b), b)."""
    return (da < db) | ((da == db) & (a < b))


def _corner_counts(hit: pa.Table) -> pa.Table:
    """(node, n) triangle credits from closed (c, p, q) wedges: each
    closed wedge is one triangle and credits all three corners."""
    nodes = pa.concat_arrays([hit.column(c).combine_chunks()
                              for c in ("c", "p", "q")])
    return grouped_agg(pa.table({"node": nodes, "n": _ones(len(nodes))}),
                       ["node"], [("n", "sum")])


def _triangles_fold(ed: pa.Table, out_col: str) -> pa.Table:
    """Triangle counts of the distinct int64 (a, b) edge table ``ed``
    held on the driver (see :func:`triangle_counts`).  Degrees,
    orientation and src-grouped block cuts are numpy on the driver, the
    edge table ships once via ``ray.put``, and each block runs wedge
    emission with IMMEDIATE closure against it: the O(sum out-deg^2)
    wedge work is the only distributed stage, which is exactly the part
    that grows past any single machine."""
    m = ed.num_rows
    if m == 0:
        return _empty(**{out_col: pa.int64(), "n_triangles": pa.int64()})
    a = ed.column("a").to_numpy()
    b = ed.column("b").to_numpy()
    _, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    deg = np.bincount(inv)
    fwd = _orient_fwd(a, b, deg[inv[:m]], deg[inv[m:]])
    oriented = pa.table({"src": np.where(fwd, a, b),
                         "dst": np.where(fwd, b, a)})
    pairs_ref = ray.put(ed)

    def wedge_close(batch: pa.Table) -> pa.Table:
        hit = _wedges(batch, "src", "dst").join(
            ray.get(pairs_ref), keys=["p", "q"], right_keys=["a", "b"],
            join_type="inner")
        return _corner_counts(hit)

    parts = (rd.from_arrow(_center_blocks(oriented, "src"))
             .map_batches(wedge_close, batch_format="pyarrow",
                          batch_size=None))
    # O(triangle nodes x blocks) partials, bounded by the folded edges
    blocks = [t for t in ray.get(parts.to_arrow_refs()) if t.num_columns]
    counts = grouped_agg(
        pa.concat_tables(blocks) if blocks
        else _empty(node=pa.int64(), n=pa.int64()),
        ["node"], [("n", "sum")]).sort_by("node")
    return pa.table({out_col: counts.column("node"),
                     "n_triangles": counts.column("n")})


def triangle_counts(
    edges: rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    out_col: str = "node_id",
) -> rd.Dataset:
    """Per-node triangle counts over DISTINCT undirected edges
    (``a_col < b_col``, int64 node ids) — e.g. the near-dup pair graph,
    whose node ids scale with the CORPUS (the opposite regime from
    :func:`pagerank`'s lexicon-bounded vocabulary).

    Classic distributed triangle enumeration (Cohen's MR scheme) in the
    engine's union -> sort(key) -> per-block-merge join shape (no
    Dataset.join, per CLAUDE.md rule 5).  The input is materialized
    ONCE (the edge table is read three times downstream and is the
    dedup output, far smaller than the corpus — the dup_clusters
    iterative-lineage precedent).

    Fold (the module rule): :func:`_triangles_fold` — degrees,
    orientation and block cuts on the driver, wedge-close against the
    broadcast edge table in parallel, ZERO wide ops.

    Exchange: nothing broadcasts —
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
    src = edges.materialize()
    tbl = _fold_edges(src, "triangle_counts", [a_col, b_col])
    if tbl is not None:
        return rd.from_arrow(_triangles_fold(
            _norm(tbl, a_col, b_col, pa.int64()), out_col))

    ed = src.map_batches(_norm, fn_args=(a_col, b_col, pa.int64()),
                         batch_format="pyarrow",
                         batch_size=1 << 19).materialize()

    # -- 1. degrees: one row per (node, partial) per block ------------
    deg = _degrees_ds(ed, ("a", "b"), "node", "deg")

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
        w = _wedges(batch, "src", "dst")
        return pa.table({"p": w.column("p"), "q": w.column("q"),
                         "anchor": w.column("c"),
                         "kind": _ones(w.num_rows)})

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
        kind = batch.column("kind")
        hit = batch.filter(pc.equal(kind, 1)).join(
            batch.filter(pc.equal(kind, 0)).select(["p", "q"]),
            keys=["p", "q"], join_type="inner")
        return _corner_counts(hit.rename_columns(
            ["c" if c == "anchor" else c for c in hit.column_names]))

    def count_combine(batch: pa.Table) -> pa.Table:
        g = grouped_agg(batch, ["node"], [("n", "sum")])
        return pa.table({out_col: g.column("node"),
                         "n_triangles": g.column("n")})

    return (ed.map_batches(edge_keys, batch_format="pyarrow",
                           batch_size=1 << 19)
            .union(wed)
            .sort(["p", "q"])
            .map_batches(close, batch_format="pyarrow", batch_size=None)
            .sort("node")
            .map_batches(count_combine, batch_format="pyarrow",
                         batch_size=None))


def clustering_coefficients(
    edges: rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    out_col: str = "node_id",
    scale_bp: int = 10_000,
) -> rd.Dataset:
    """Local clustering coefficient per node of degree >= 2 over the
    DISTINCT undirected edge table: ``coeff = 2*T(v) / (d(v)*(d(v)-1))``.

    Exactness contract: the output is (n_triangles, degree) as exact
    integers plus ``coeff_bp = (2*scale_bp*T) // (d*(d-1))`` — operands
    are non-negative, so numpy floor division == DuckDB ``//``
    truncation (CLAUDE.md round-3 rule) and the SQL oracle matches
    bitwise.  No float ever enters the pipeline.

    Fold (the module rule): :func:`_triangles_fold` and numpy degrees on
    the one driver table.  Exchange: the normalized edge table is
    materialized ONCE (it feeds both the triangle enumeration and the
    degree count — Ray does no common-subexpression elimination);
    triangles come from :func:`triangle_counts`, degrees from a
    combine/sort/combine, and the two per-node tables meet in a final
    sort-merge on the single node key where the per-block pandas
    left-merge fills triangle-free nodes with 0."""

    def coefficients(node, dg, nt) -> pa.Table:
        keep = dg >= 2
        node, dg, nt = node[keep], dg[keep], nt[keep]
        return pa.table({
            out_col: pa.array(node, pa.int64()),
            "n_triangles": pa.array(nt, pa.int64()),
            "degree": pa.array(dg, pa.int64()),
            "coeff_bp": pa.array((2 * scale_bp * nt) // (dg * (dg - 1)),
                                 pa.int64()),
        })

    src = edges.materialize()
    tbl = _fold_edges(src, "clustering_coefficients", [a_col, b_col])
    if tbl is not None:
        ed = _norm(tbl, a_col, b_col, pa.int64())
        tri = _triangles_fold(ed, "node")
        node, dg = np.unique(np.concatenate(
            [ed.column("a").to_numpy(), ed.column("b").to_numpy()]),
            return_counts=True)
        nt = (tri.column("n_triangles")
              .take(pc.index_in(pa.array(node), value_set=tri.column("node")
                                .combine_chunks()))
              .fill_null(0).to_numpy(zero_copy_only=False))
        return rd.from_arrow(coefficients(node, dg.astype(np.int64),
                                          nt.astype(np.int64)))

    ed = src.map_batches(_norm, fn_args=(a_col, b_col, pa.int64()),
                         batch_format="pyarrow",
                         batch_size=1 << 19).materialize()
    tri = triangle_counts(ed, a_col="a", b_col="b", out_col="node")
    deg = _degrees_ds(ed, ("a", "b"), "node", "deg")

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
        return coefficients(
            j["node"].to_numpy(dtype=np.int64),
            j["degree"].to_numpy(dtype=np.int64),
            j["n_triangles"].fillna(0).to_numpy(dtype=np.int64))

    return (deg.map_batches(tag_deg, batch_format="pyarrow")
            .union(tri.map_batches(tag_tri, batch_format="pyarrow"))
            .sort("node")
            .map_batches(finish, batch_format="pyarrow", batch_size=None))


# -- common neighbors --------------------------------------------------------

def common_neighbors(
    edges: rd.Dataset,
    *,
    a_col: str = "subj",
    b_col: str = "obj",
    min_common: int = 2,
    node_type: pa.DataType = pa.string(),
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

    Shape: two exchanges.  (1) both-direction (u, v) rows grouped by
    center -> per-block wedge-pair partial counts (:func:`_wedge_counts`);
    (2) partials UNIONED with the direct-edge rows, sorted on the full
    (x, y) composite (equal composites land whole) -> per-block final
    sum + NOT-EXISTS drop of directly-connected pairs.  On the fold
    path the driver cuts the center blocks itself
    (:func:`_center_blocks`), removing the sort on the low-cardinality
    center key (the kg_degrees pathology); the exchange path sorts on
    the center.  The (x, y) exchange stays distributed on BOTH paths:
    wedge-pair counts are bounded by sum deg^2, which no driver may
    hold (a 4M-edge star is 10^12 wedges).

    Output: (``a_col``, ``b_col``, n_common) for surviving pairs."""

    def finish(batch: pa.Table) -> pa.Table:
        kind = batch.column("kind")
        g = grouped_agg(batch.filter(pc.equal(kind, 1)),
                        ["x", "y"], [("n", "sum")])
        g = g.join(batch.filter(pc.equal(kind, 0)).select(["x", "y"]),
                   keys=["x", "y"], join_type="left anti")
        g = g.filter(pc.greater_equal(g.column("n"), min_common))
        return pa.table({a_col: g.column("x"), b_col: g.column("y"),
                         "n_common": g.column("n")})

    src = edges.materialize()
    tbl = _fold_edges(src, "common_neighbors", [a_col, b_col])
    if tbl is not None:
        ed = _norm(tbl, a_col, b_col, node_type)
        if ed.num_rows == 0:
            return rd.from_arrow(_empty(**{a_col: node_type,
                                           b_col: node_type,
                                           "n_common": pa.int64()}))
        centered = rd.from_arrow(
            _center_blocks(_bidir(ed, ("u", "v"), a="a", b="b"), "u"))
        direct = rd.from_arrow(_direct_rows(ed))
    else:
        # read twice (wedge + direct branches): materialize once
        ed = src.map_batches(_norm, fn_args=(a_col, b_col, node_type),
                             batch_format="pyarrow",
                             batch_size=1 << 19).materialize()
        centered = ed.map_batches(
            _bidir, fn_args=(("u", "v"),), fn_kwargs={"a": "a", "b": "b"},
            batch_format="pyarrow", batch_size=1 << 19).sort("u")
        direct = ed.map_batches(_direct_rows, batch_format="pyarrow",
                                batch_size=1 << 19)

    # materialized before the exchange, which is a barrier anyway: fed by
    # the lazy map, the union -> Sort stalled about 10 s under a 768 MiB
    # object store (kg_dense: 1.3M partial rows, 47 MB) against 0.4 s
    partials = centered.map_batches(_wedge_counts, batch_format="pyarrow",
                                    batch_size=None).materialize()
    return (partials.union(direct)
            .sort(["x", "y"])
            .map_batches(finish, batch_format="pyarrow", batch_size=None))


def jaccard_links(
    edges: rd.Dataset,
    *,
    a_col: str = "subj",
    b_col: str = "obj",
    min_common: int = 2,
    node_type: pa.DataType = pa.string(),
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

    Fold (the module rule): degrees are one ``grouped_agg`` over the
    driver table, looked up per surviving pair in one stateless map.
    Exchange: NO per-node driver state — degrees are computed
    combine/sort/combine and attached to the surviving pairs by two
    union-sort-merge passes (:func:`_jaccard_annotate_distributed`).

    Output: (a_col, b_col, n_common, deg_a, deg_b, union_size)."""
    src = edges.materialize()
    tbl = _fold_edges(src, "jaccard_links", [a_col, b_col])
    cn = common_neighbors(src, a_col=a_col, b_col=b_col,
                          min_common=min_common, node_type=node_type)
    if tbl is None:
        ed = src.map_batches(_norm,
                             fn_args=(a_col, b_col, node_type, (a_col, b_col)),
                             batch_format="pyarrow",
                             batch_size=1 << 19).materialize()
        return _jaccard_annotate_distributed(
            ed, cn, a_col=a_col, b_col=b_col, node_type=node_type)

    deg = _degrees(_norm(tbl, a_col, b_col, node_type), ("a", "b"))
    nodes = deg.column("node").combine_chunks()
    dvals = deg.column("d")
    if not len(nodes):  # no pairs: a map over them would drop the schema
        return rd.from_arrow(_empty(**{
            a_col: node_type, b_col: node_type, "n_common": pa.int64(),
            "deg_a": pa.int64(), "deg_b": pa.int64(),
            "union_size": pa.int64()}))

    def annotate(batch: pa.Table) -> pa.Table:
        da = dvals.take(pc.index_in(batch.column(a_col), value_set=nodes))
        db = dvals.take(pc.index_in(batch.column(b_col), value_set=nodes))
        nc = batch.column("n_common")
        return pa.table({
            a_col: batch.column(a_col), b_col: batch.column(b_col),
            "n_common": nc, "deg_a": da, "deg_b": db,
            "union_size": pc.subtract(pc.add(da, db), nc),
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
) -> rd.Dataset:
    """Large-graph degree annotation for :func:`jaccard_links`: NO
    per-node driver state.  Degrees become a Dataset
    (:func:`_degrees_ds`) and are attached to the surviving
    (a, b, n_common) pairs by two union-sort-merge passes — sort on the
    a endpoint filling deg_a per block, then sort on the b endpoint
    filling deg_b — relying only on Ray's equal-keys-land-whole
    range-partitioner invariant.  Every pair endpoint is a wedge leaf,
    hence a graph node with a degree row, so the per-block merges are
    total."""
    # consumed by BOTH fill passes (no CSE)
    deg = _degrees_ds(ed, (a_col, b_col), "e", "d").materialize()

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


# -- traversal and peeling ---------------------------------------------------

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

    Fold only (the module rule; ValueError above the cap): hop
    distances and the frontier are numpy arrays over sorted node codes,
    each round one boolean gather over the edge codes.

    Output: small pa.Table (entity_id, hops BIGINT), unreached
    entities omitted.

    Precondition: ``pairs`` must be DISTINCT (subj, obj) rows — the
    flagship triple table guarantees this per (subj, pred, obj) dedup.
    Reachability itself is duplicate-insensitive, but the shared
    oracle applies SELECT DISTINCT; route any non-distinct edge source
    through a dedup first (same rule as kcore / label_propagation)."""
    ed = _bidir(_edge_table(pairs, "khop_reachability", _PAIR_COLS))
    nodes, (a, b) = sorted_codes(ed.column("a"), ed.column("b"))
    frontier = pc.ends_with(nodes, pattern=seed_suffix).to_numpy(
        zero_copy_only=False)
    hops = np.where(frontier, 0, -1)
    for d in range(1, max_hops + 1):
        if not frontier.any():
            break
        reached = np.zeros(len(nodes), dtype=bool)
        reached[b[frontier[a]]] = True
        frontier = reached & (hops < 0)
        hops[frontier] = d
    keep = np.flatnonzero(hops >= 0)
    return pa.table({"entity_id": nodes.take(pa.array(keep)),
                     "hops": pa.array(hops[keep], pa.int64())})


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

    Fold only (the module rule; ValueError above the cap): the alive
    set is a boolean array over sorted node codes and each round's
    degrees one ``np.bincount`` over the edges with both ends alive.

    Output: small pa.Table (entity_id, core_degree BIGINT)."""
    ed = _bidir(_edge_table(pairs, "kcore", _PAIR_COLS))
    nodes, (a, b) = sorted_codes(ed.column("a"), ed.column("b"))
    n = len(nodes)

    def degrees(alive: np.ndarray | None) -> np.ndarray:
        keep = slice(None) if alive is None else alive[a] & alive[b]
        return np.bincount(a[keep], minlength=n)

    alive = None
    for _ in range(rounds):
        deg = degrees(alive)
        new_alive = (deg >= k) & (deg > 0)
        if alive is not None and (new_alive == alive).all():
            break  # fixed point — remaining rounds are no-ops
        alive = new_alive

    deg = degrees(alive)
    keep = np.flatnonzero(deg > 0)
    return pa.table({"entity_id": nodes.take(pa.array(keep)),
                     "core_degree": pa.array(deg[keep], pa.int64())})


def label_propagation(pairs: rd.Dataset, *, rounds: int = 4):
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

    Fold (the module rule): labels are sorted node codes, so code order
    is label order; each round is one ``grouped_agg`` of
    (voter, neighbor label) votes and a k=1 ``grouped_topk`` cut under
    (count DESC, label ASC).  Returns a small pa.Table (entity_id,
    community); it may exit early at a fixed point, where extra rounds
    are no-ops on both paths.  Exchange: NO per-node driver state
    (:func:`_lpa_distributed`); returns the community Dataset.
    Integer votes and a lexicographic tie-break make the two paths
    bit-identical.

    Precondition: ``pairs`` must be DISTINCT (subj, obj) rows — the
    flagship triple table guarantees this per (subj, pred, obj) dedup.
    Neighbor-label counts are taken over the raw rows (the oracle
    applies SELECT DISTINCT), so a duplicated edge would skew the
    per-node vote; route any non-distinct edge source through a dedup
    first."""
    src = pairs.materialize()
    tbl = _fold_edges(src, "label_propagation", _PAIR_COLS)
    if tbl is None:
        # consumed once per round + once for the node set: materialize
        ed = src.map_batches(_bidir, batch_format="pyarrow",
                             batch_size=1 << 19).materialize()
        return _lpa_distributed(ed, rounds=rounds)

    ed = _bidir(tbl)
    nodes, (a, b) = sorted_codes(ed.column("a"), ed.column("b"))
    voter = pa.array(a)
    lab = np.arange(len(nodes))
    for _ in range(rounds):
        votes = grouped_agg(pa.table({"v": voter, "nl": lab[b],
                                      "c": _ones(len(a))}),
                            ["v", "nl"], [("c", "sum")])
        best = grouped_topk(votes, ["v"], [("c", "descending"),
                                           ("nl", "ascending")], 1)
        new = lab.copy()
        new[best.column("v").to_numpy()] = best.column("nl").to_numpy()
        if (new == lab).all():
            break  # fixed point: extra SQL rounds are no-ops
        lab = new
    return pa.table({"entity_id": nodes,
                     "community": nodes.take(pa.array(lab))})


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
         the driver fold (no early exit here: the fold exits only at a
         fixed point, where extra rounds are no-ops).

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
) -> rd.Dataset:
    """k-truss peel over DISTINCT undirected edges (``a < b``): keep
    edges supported by >= k-2 triangles, recompute support on the
    surviving subgraph, ``rounds`` fixed iterations (the LPA/kcore
    fixed-unroll contract: at a fixed point extra rounds are no-ops on
    both engines, and before convergence both report the same
    partially-peeled set for the same round count).

    Fold (the module rule): the peel runs on the driver table with
    per-edge neighbor-set intersections (six wide ops per call are pure
    overhead on a lexicon-bounded graph).  Exchange, per round, the
    common_neighbors wedge machinery with INNER (not anti) edge
    semantics: both-direction rows sorted on the center -> per-block
    wedge-pair partials; partials UNIONED with the current edge rows
    sorted on the (x, y) composite -> per-block support sum, keep edges
    present with support >= k-2.  Each round's survivor set is
    materialized (iterative lineage truncation).  Integer supports make
    the two paths and the SQL unroll bit-exact.

    Per-center wedge cost is deg^2 (full neighbor set, like
    common_neighbors); pre-filter hub degrees before calling this on
    corpus-scale graphs.

    Output: (``a_col``, ``b_col``, support) for the final survivors."""
    thr = k - 2
    src = edges.materialize()
    tbl = _fold_edges(src, "ktruss", [a_col, b_col])
    if tbl is not None:
        ed = _norm(tbl, a_col, b_col, node_type)
        cur_set = list(zip(ed.column("a").to_pylist(),
                           ed.column("b").to_pylist()))
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

    def keep_supported(batch: pa.Table) -> pa.Table:
        kind = batch.column("kind")
        w = grouped_agg(batch.filter(pc.equal(kind, 1)),
                        ["x", "y"], [("n", "sum")])
        g = batch.filter(pc.equal(kind, 0)).select(["x", "y"]).join(
            w, keys=["x", "y"], join_type="left outer")
        n = g.column("n").fill_null(0)
        g = g.filter(pc.greater_equal(n, thr))
        return pa.table({"a": g.column("x"), "b": g.column("y"),
                         "support": g.column("n").fill_null(0)})

    cur = src.map_batches(_norm, fn_args=(a_col, b_col, node_type),
                          batch_format="pyarrow",
                          batch_size=1 << 19).materialize()
    last = None
    for r in range(rounds):
        sup = (cur.map_batches(_bidir, fn_args=(("u", "v"),),
                               fn_kwargs={"a": "a", "b": "b"},
                               batch_format="pyarrow", batch_size=1 << 19)
               .sort("u")
               .map_batches(_wedge_counts, batch_format="pyarrow",
                            batch_size=None))
        last = (sup.union(cur.map_batches(_direct_rows,
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


# -- fold-only analytics -----------------------------------------------------

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

    Shape: the vocabulary comes from the driver edge table (fold only,
    the module rule; ValueError above the cap), ``ray.put`` broadcasts
    the sorted array, and one stateless pass corrupts every triple
    block-locally.  Zero wide ops.

    Output: (subj, pred, obj, neg_obj)."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    tm = triples.materialize()  # vocabulary + corrupt pass, no CSE
    tbl = _edge_table(tm, "link_negatives", _PAIR_COLS)
    arr = np.asarray(sorted_codes(tbl.column("subj"), tbl.column("obj"))[0]
                     .to_pylist(), dtype=object)
    n = len(arr)
    if n == 0:
        return rd.from_arrow(_empty(subj=pa.string(), pred=pa.string(),
                                    obj=pa.string(), neg_obj=pa.string()))
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

    return tm.map_batches(corrupt, batch_format="pyarrow")


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

    Fold only (the module rule; ValueError above the cap): degrees are
    one ``np.bincount`` over node codes, the stub sums numpy int64
    sums over the edges.

    Output pa.Table, one row: (n_stubs, s_x, s_xy, s_xx, num, den,
    assortative)."""
    co = _edge_table(triples, "degree_assortativity", _TRIPLE_COLS)
    co = co.filter(pc.equal(co.column("pred"), pred))
    _, (s, o) = sorted_codes(co.column("subj"), co.column("obj"))
    deg = np.bincount(np.concatenate([s, o]))
    da, db = deg[s], deg[o]
    # both orientations: Σ over stubs
    n = 2 * co.num_rows
    sx = int((da + db).sum())
    sxy = int(2 * (da * db).sum())
    sxx = int((da * da + db * db).sum())
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

    Fold only (the module rule): edge multiplicities are one
    ``grouped_agg`` over the driver table and the ``rounds``
    iterations two driver matvecs each.  There is no distributed path:
    above ``FOLD_MAX_BYTES`` it raises ValueError naming the size and
    the cap.

    Scores are exact Python ints until output.  Unnormalized HITS grows
    about as (max weighted degree)^(2 * rounds), and the output columns
    are int64, so a score above 2^63 - 1 raises OverflowError naming
    the bound (lower ``rounds``) instead of wrapping or failing in the
    cast.

    Output pa.Table (entity_id, hub, auth), sorted by entity_id."""
    co = _edge_table(triples, "hits_scores", _TRIPLE_COLS)
    co = co.filter(pc.equal(co.column("pred"), pred))
    m = grouped_agg(pa.table({"subj": co.column("subj"),
                              "obj": co.column("obj"),
                              "m": _ones(co.num_rows)}),
                    ["subj", "obj"], [("m", "sum")])
    nodes, (src, dst) = sorted_codes(m.column("subj"), m.column("obj"))
    n = len(nodes)
    if n == 0:
        z = pa.array([], pa.int64())
        return pa.table({"entity_id": pa.array([], pa.string()),
                         "hub": z, "auth": z})
    mult = m.column("m").to_numpy()
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
        "entity_id": nodes,
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

    Shape: sorted neighbor lists come from the driver edge table (fold
    only, the module rule; ValueError above the cap), ``ray.put``
    broadcasts them, and walk emission is a ``map_batches`` over the
    node list (embarrassingly parallel).

    Output: (start, step, node) with step 1-based."""
    from clinicaltransformerner_ray.pipelines.dedup import _hash64

    nbrs = _adjacency(_edge_table(triples, "random_walks", _TRIPLE_COLS),
                      pred)
    if not nbrs:
        return rd.from_arrow(_empty(start=pa.string(), step=pa.int64(),
                                    node=pa.string()))
    aref = ray.put(nbrs)

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
        "start": pa.array(list(nbrs), pa.string())}))
    return starts.map_batches(walk, batch_format="pyarrow")


def local_bridges(triples: rd.Dataset,
                  *, pred: str = "co_occurs") -> rd.Dataset:
    """Local bridges: edges whose endpoints share NO common neighbor
    (span > 2) — removing one disconnects its endpoints' local
    neighborhoods, the classic weak-tie / community-boundary signal
    (Granovetter via Easley-Kleinberg ch. 3).  Reported per edge with
    the exact common-neighbor count.

    Shape: the adjacency comes from the driver edge table (fold only,
    the module rule; ValueError above the cap) and ships once via
    ``ray.put``; ONE map_batches pass over the edge stream computes set
    intersections per edge (C-speed set ops, the postings-loop
    pattern).  Zero wide ops.

    Output: (subj, obj, n_common, is_bridge)."""
    tm = triples.materialize()  # adjacency + edge pass, no CSE
    adj = {v: set(nb) for v, nb in _adjacency(
        _edge_table(tm, "local_bridges", _TRIPLE_COLS), pred).items()}
    if not adj:
        return rd.from_arrow(_empty(subj=pa.string(), obj=pa.string(),
                                    n_common=pa.int64(),
                                    is_bridge=pa.int64()))
    aref = ray.put(adj)

    def per_edge(batch: pa.Table) -> pa.Table:
        nb = ray.get(aref)
        batch = batch.filter(pc.equal(batch.column("pred"), pred))
        subj = batch.column("subj").to_pylist()
        obj = batch.column("obj").to_pylist()
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

    Fold only (the module rule; ValueError above the cap), all on the
    driver edge table over sorted node codes: the distinct bidirected
    edges give each center's degree and, through :func:`_wedges`, its
    (p, q) neighbor pairs, each weighted ``2^20 // deg(center)``; one
    ``grouped_agg`` on (p, q) sums them, and a left-anti join against
    the edges drops adjacent pairs.  The driver holds all sum C(deg, 2)
    wedges at once, three int64 codes each: the cap bounds the edges,
    not the wedges (kg_dense: 18k edges, 1.6M wedges, 0.2-0.3 s).

    Output: (a, b, n_common, ra_fp) with a < b, sorted."""
    e = grouped_agg(_bidir(_edge_table(triples, "link_prediction_ra",
                                       _TRIPLE_COLS), ("u", "v"), pred=pred),
                    ["u", "v"], [])
    nodes, (u, v) = sorted_codes(e.column("u"), e.column("v"))
    e = pa.table({"u": u, "v": v})
    w = _wedges(e)
    c = w.column("c").to_numpy()
    g = grouped_agg(pa.table({
        "a": w.column("p"), "b": w.column("q"), "n_common": _ones(len(c)),
        "ra_fp": (1 << 20) // np.bincount(u, minlength=len(nodes))[c],
    }), ["a", "b"], [("n_common", "sum"), ("ra_fp", "sum")])
    g = g.join(e, ["a", "b"], right_keys=["u", "v"],
               join_type="left anti").sort_by(
        [("a", "ascending"), ("b", "ascending")])
    return rd.from_arrow(pa.table({
        "a": nodes.take(g.column("a")), "b": nodes.take(g.column("b")),
        "n_common": g.column("n_common"), "ra_fp": g.column("ra_fp")}))


def modularity_report(pairs: rd.Dataset,
                      communities: pa.Table) -> pa.Table:
    """Partition-quality report: Newman modularity of a community
    assignment over the undirected edge set, as EXACT integers —
    per community ``q_num_part = 4*m*in_c - deg_sum_c²`` so that
    ``Q = Σ q_num_part / (4m²)`` with no float ever computed (the
    kg_trend integer-sufficient-statistics trick applied to the
    partition-quality functional).  The number that says whether the
    LPA communities are real structure or noise.

    Fold only (the module rule; ValueError above the cap): the
    community map and per-community (in-edge, endpoint-degree) counts
    are computed once over the driver edge table.

    Output pa.Table (community, n_nodes, in_edges, deg_sum,
    q_num_part), sorted by community."""
    df = _edge_table(pairs, "modularity_report", _PAIR_COLS).to_pandas()
    lab = dict(zip(communities.column("entity_id").to_pylist(),
                   communities.column("community").to_pylist()))
    ca = df["subj"].map(lab)
    cb = df["obj"].map(lab)
    in_counts = ca[(ca == cb).to_numpy()].value_counts()
    deg_counts = pd.concat([ca, cb]).value_counts()
    m = len(df)
    n_nodes: dict[str, int] = {}
    for c in communities.column("community").to_pylist():
        # a null community leaves its node unmapped, as in the edge map
        if c is not None:
            n_nodes[c] = n_nodes.get(c, 0) + 1
    # communities with no incident edge still appear (all-zero row)
    ks = sorted(set(deg_counts.index) | set(n_nodes))
    in_e = [int(in_counts.get(k, 0)) for k in ks]
    deg_s = [int(deg_counts.get(k, 0)) for k in ks]
    return pa.table({
        "community": pa.array(ks, pa.string()),
        "n_nodes": pa.array([n_nodes.get(k, 0) for k in ks], pa.int64()),
        "in_edges": pa.array(in_e, pa.int64()),
        "deg_sum": pa.array(deg_s, pa.int64()),
        "q_num_part": pa.array(
            [4 * m * i - d * d for i, d in zip(in_e, deg_s)], pa.int64()),
    })
