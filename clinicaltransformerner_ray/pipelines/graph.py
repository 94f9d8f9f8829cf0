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
``arrowutil.FOLD_MAX_BYTES`` (the KG build's cap, read when the op is
called, so no alias of it lives here).  At or below the cap
the edges come back as one driver-side Arrow table, and node state
(degrees, adjacency, ranks, labels, alive sets, frontiers, stub sums) is
computed on it with ``grouped_agg``, ``grouped_topk`` and numpy over
sorted integer node codes: no per-round Ray tasks, no ``take_all``
folds.  Above the cap:

  - pagerank, triangle_counts, common_neighbors, jaccard_links,
    clustering_coefficients, label_propagation, ktruss, local_bridges
    and link_prediction_ra take their distributed paths, which hold no
    per-node driver state, with outputs bit-identical to the fold
    (``tests/test_graph_distributed.py`` forces both paths).  Each of
    their keyed steps (degrees, pair completions, the degree joins) is
    one ``arrowutil.keyed_complete`` on the node or pair key, which
    folds that step on its own when its input is under the cap; the
    wedge emissions, whose wedges outgrew the cap, never fold
    (``arrowutil.keyed_exchange``); each pagerank and label propagation
    round is one ``arrowutil.attach_state`` exchange (edges meet their
    node's state row) and one ``keyed_complete`` fold of its messages
    on the receiver, the round ``dedup.dup_clusters`` also runs;
  - the other seven have no distributed path and raise ValueError
    naming the op, the input size and the cap.

Every wedge fold (common_neighbors, jaccard_links, link_prediction_ra,
ktruss, local_bridges, triangle_counts, clustering_coefficients)
enumerates wedges over sorted int64 node codes one budgeted chunk of
whole centers at a time (:func:`_wedge_chunks`), after
:func:`_wedge_fold_ok` has checked the accumulator's and the largest
center's bounds against the cap; the one pair kernel,
:func:`_wedge_fold`, merges the chunks into a running (p, q) ->
(count, weight sum) accumulator.  The driver's peak is at most about
3.5x the cap.  The exchanges' per-block wedge maps run the
same chunks.
An empty input folds (its schema's empty table, or an empty table of
the op's columns when it has no schema) and gives a typed empty result.
Every choice is logged through the ``ray_kg`` logger.

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
import pyarrow as pa
import pyarrow.compute as pc

import functools

import ray
import ray.data as rd

from clinicaltransformerner_ray import arrowutil
from clinicaltransformerner_ray.arrowutil import (
    LOG, attach_state, cogroup, driver_table, grouped_agg, grouped_topk,
    keyed_complete, keyed_exchange, sorted_codes, triu_pairs)

SCALE = 10 ** 12

#: the columns a triple-table op reads, and a pair-table op
_TRIPLE_COLS = ["subj", "pred", "obj"]
_PAIR_COLS = ["subj", "obj"]


# -- shared kernels ----------------------------------------------------------

def _fold_edges(src, op: str, cols: list[str]) -> pa.Table | None:
    """``cols`` of the materialized input ``src`` as one driver table
    (``driver_table``), or None above the cap.
    An input with no rows always folds: with no schema (a map over no
    rows has none) it gives an empty string table of ``cols``, which
    every caller casts or filters."""
    tbl = driver_table(src, op=op, empty=_empty(
        **{c: pa.string() for c in cols}))
    return None if tbl is None else tbl.select(cols)


def _edge_table(ds: rd.Dataset, op: str, cols: list[str]) -> pa.Table:
    """The driver edge table of an op with no distributed path: ``ds``
    materialized, then :func:`_fold_edges`.  Above the cap raises
    ValueError naming the op, the input size and the cap, so the driver
    never holds an unbounded fold."""
    src = ds.materialize()
    tbl = _fold_edges(src, op, cols)
    if tbl is None:
        raise ValueError(
            f"{op}: the edge input is {src.size_bytes()} bytes, above the "
            f"driver fold cap FOLD_MAX_BYTES={arrowutil.FOLD_MAX_BYTES}, "
            f"and {op} has no distributed path")
    return tbl


def _norm(batch: pa.Table, a_col: str, b_col: str,
          typ: pa.DataType) -> pa.Table:
    """The (``a_col``, ``b_col``) edge columns cast to ``typ``, as
    (a, b)."""
    return pa.table({"a": batch.column(a_col).cast(typ),
                     "b": batch.column(b_col).cast(typ)})


def _norm_ds(src: rd.Dataset, a_col: str, b_col: str,
             typ: pa.DataType) -> rd.Dataset:
    """:func:`_norm` over every block of ``src``, materialized: the
    exchange paths read the normalized (a, b) edges more than once."""
    return src.map_batches(_norm, fn_args=(a_col, b_col, typ),
                           batch_format="pyarrow",
                           batch_size=1 << 19).materialize()


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


def _zeros(n: int) -> pa.Array:
    return pa.array(np.zeros(n, np.int64))


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
    deg = functools.partial(_degrees, ends=ends, node=node, d=d)
    return keyed_complete(ds, [node], deg, combine=deg, op="degrees")


# -- the wedge kernel --------------------------------------------------------

#: bytes of one wedge-pair accumulator row: an int64 pair key, count and
#: weight sum.  The accumulator's bound is counted in these rows.
_WEDGE_ROW_BYTES = 24
#: bytes one enumerated wedge costs the driver until its chunk is merged:
#: ``triu_pairs``' index lists, (c, p, q), the key and weight columns and
#: the merge's copies of them (89 B measured with ``tracemalloc``).  A
#: chunk holds at most FOLD_MAX_BYTES // this wedges.
_WEDGE_BYTES = 100


def _wedge_fold_ok(op: str, u: np.ndarray, n: int) -> bool:
    """Whether ``op`` folds the wedges of the ``u``-centered code rows on
    the driver, decided from the degree vector before anything is
    enumerated and logged: the pair accumulator's bound,
    min(sum C(deg, 2), C(n, 2)) rows of ``_WEDGE_ROW_BYTES``, and the
    largest center's C(deg, 2) wedges of ``_WEDGE_BYTES`` (a chunk holds
    whole centers) are each at most ``FOLD_MAX_BYTES``."""
    d = np.bincount(u, minlength=n)
    c2 = d * (d - 1) // 2
    bound = min(int(c2.sum()), n * (n - 1) // 2)
    top = int(c2.max(initial=0))
    cap = arrowutil.FOLD_MAX_BYTES
    fold = max(bound * _WEDGE_ROW_BYTES, top * _WEDGE_BYTES) <= cap
    LOG.info("%s: %s (wedge bound %d rows x %d B, largest center %d "
             "wedges x %d B, cap=%d)", op, "fold" if fold else "exchange",
             bound, _WEDGE_ROW_BYTES, top, _WEDGE_BYTES, cap)
    return fold


def _wedge_chunks(u: np.ndarray, v: np.ndarray):
    """The wedges of distinct int64 code rows sorted by (u, v), as
    (c, p, q) arrays chunk by chunk: each pair of ``v`` neighbors of a
    ``u`` center, p < q.  A chunk holds whole centers and at most
    ``FOLD_MAX_BYTES // _WEDGE_BYTES`` wedges, cut from the centers'
    C(deg, 2) counts before anything is enumerated; only a center above
    that budget on its own (never on a path :func:`_wedge_fold_ok`
    chose) makes a larger chunk.  :func:`arrowutil.triu_pairs` groups
    its pairs by run length, not by center, so the center of pair
    (i, j) is ``u[i]``."""
    starts = np.flatnonzero(np.diff(u, prepend=-1))
    counts = np.diff(np.append(starts, len(u)))
    starts, counts = starts[counts > 1], counts[counts > 1]
    ends = np.cumsum(counts * (counts - 1) // 2)
    budget = arrowutil.FOLD_MAX_BYTES // _WEDGE_BYTES
    lo = 0
    while lo < len(starts):
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + budget, "right")))
        i, j = triu_pairs(starts[lo:hi], counts[lo:hi])
        yield u[i], v[i], v[j]
        lo = hi


def _wedge_fold(u: np.ndarray, v: np.ndarray, n: int, *,
                weight: np.ndarray | None = None,
                edges: np.ndarray | None = None) -> pa.Table:
    """The one wedge kernel: :func:`_wedge_chunks` of distinct code rows
    sorted by (u, v) over ``n`` nodes, each chunk merged into one running
    pair accumulator, a table (key, n, w) sorted by key, where
    key = p * n + q (exact for n < 3e9), n counts the wedges and w sums
    the ``weight`` of their centers (0 without one).  Given ``edges``
    (int64 keys of that form), only the wedges whose pair is an edge
    are kept, so the accumulator holds at most one row per edge: the
    per-edge supports.  The merge is one stable sort of the
    accumulator's keys (a single sorted run) and the chunk's, then sums
    over the runs of equal keys (a running ``grouped_agg`` took 3-5x as
    long); it holds about 58 B per accumulator row."""
    key = cnt = wsum = np.zeros(0, np.int64)
    edges = None if edges is None else pa.array(edges)
    for c, p, q in _wedge_chunks(u, v):
        new = p * n + q
        del p, q  # the chunk's working set stays within _WEDGE_BYTES
        if edges is not None:
            hit = pc.is_in(new, value_set=edges).to_numpy(
                zero_copy_only=False)
            c, new = c[hit], new[hit]
        w = weight[c] if weight is not None else np.zeros(len(c), np.int64)
        key = np.concatenate([key, new])
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key = key[first]
        cnt = np.add.reduceat(np.concatenate(
            [cnt, np.ones(len(c), np.int64)])[order], first)
        wsum = np.add.reduceat(np.concatenate([wsum, w])[order], first)
    return pa.table({"key": key, "n": cnt, "w": wsum})


def _support(acc: pa.Table, edge: np.ndarray) -> np.ndarray:
    """The wedge count of each ``edge`` key in the pair accumulator
    ``acc``, 0 where it has none."""
    key = np.append(acc.column("key").to_numpy(), np.iinfo(np.int64).max)
    cnt = np.append(acc.column("n").to_numpy(), 0)
    pos = np.searchsorted(key, edge)
    return np.where(key[pos] == edge, cnt[pos], 0)


def _distinct(a: np.ndarray, b: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (a, b) rows of codes below ``n``, sorted by (a, b)."""
    key = np.unique(a * n + b)
    return key // n, key % n


def _adjacency_codes(a: np.ndarray, b: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (u, v) code rows of both orientations of the
    (a, b) edges, sorted by (u, v): the kernel's input."""
    return _distinct(np.concatenate([a, b]), np.concatenate([b, a]), n)


def _decode_pairs(nodes: pa.Array, acc: pa.Table,
                  cols: list[str]) -> pa.Table:
    """A pair accumulator's (p, q, n, w) rows as ``cols`` (the first
    ``len(cols)`` of them), with p and q decoded to ``nodes``' values."""
    key = acc.column("key").to_numpy()
    return pa.table([nodes.take(pa.array(key // len(nodes))),
                     nodes.take(pa.array(key % len(nodes))),
                     acc.column("n"), acc.column("w")][:len(cols)],
                    names=cols)


def _wedges(batch: pa.Table, u: str = "u", v: str = "v") -> pa.Table:
    """Every wedge of a block of (``u``, ``v``) value rows that holds
    each center whole, as (c, p, q) value rows: :func:`_wedge_chunks`
    over the block's own codes.  The triangle exchange's wedge
    emission."""
    nodes, (uc, vc) = sorted_codes(batch.column(u), batch.column(v))
    parts = list(_wedge_chunks(*_distinct(uc, vc, len(nodes)))) or [
        3 * (np.zeros(0, np.int64),)]
    return pa.table({name: nodes.take(pa.array(np.concatenate(x)))
                     for name, x in zip("cpq", zip(*parts))})


# -- the (x, y) pair exchange ------------------------------------------------

def _wedge_counts(batch: pa.Table, *, weighted: bool = False,
                  diagonal: bool = False) -> pa.Table:
    """Per-block (x, y, n, w, kind=1) wedge-pair partials of a block of
    (u, v) rows holding each center whole: :func:`_wedge_fold` over the
    block's own codes, after dropping repeated rows.  ``weighted`` sums
    2^20 // deg(center) into w (resource allocation), else w is 0.
    ``diagonal`` drops self-loops and adds one (c, c, deg(c)) row per
    center: the common neighbors of a self-loop row (c, c), which never
    count the endpoints themselves (local bridges)."""
    nodes, (u, v) = sorted_codes(batch.column("u"), batch.column("v"))
    n = len(nodes)
    u, v = _distinct(u, v, n)
    if diagonal:
        u, v = u[u != v], v[u != v]
    deg = np.bincount(u, minlength=n)
    acc = _wedge_fold(u, v, n, weight=(1 << 20) // np.maximum(deg, 1)
                      if weighted else None)
    if diagonal:
        c = np.flatnonzero(deg)
        acc = pa.concat_tables([acc, pa.table({
            "key": c * n + c, "n": deg[c], "w": np.zeros(len(c), np.int64)})])
    g = _decode_pairs(nodes, acc, ["x", "y", "n", "w"])
    return g.append_column("kind", _ones(g.num_rows))


def _direct_rows(batch: pa.Table, *, pred: str | None = None,
                 a: str = "a", b: str = "b") -> pa.Table:
    """Edge (``a``, ``b``) rows as (x, y, n=0, w=0, kind), x <= y, to
    union with :func:`_wedge_counts` output on the (x, y) composite:
    kind 0 for a row given as (x, y), 2 for one given as (y, x).
    ``pred`` keeps only the rows of that predicate first."""
    if pred is not None:
        batch = batch.filter(pc.equal(batch.column("pred"), pred))
    x, y = batch.column(a), batch.column(b)
    z = _zeros(batch.num_rows)
    return pa.table({"x": pc.min_element_wise(x, y),
                     "y": pc.max_element_wise(x, y), "n": z, "w": z,
                     "kind": pc.if_else(pc.greater(x, y), 2, 0)
                     .cast(pa.int64())})


def _pair_exchange(rows: rd.Dataset, finish, fn_kwargs: dict, *,
                   pred: str | None = None, a: str = "a", b: str = "b",
                   **wedge_kw) -> rd.Dataset:
    """The (x, y) exchange over the (``a``, ``b``) edge ``rows`` (of
    ``pred`` only, when given): both orientations as (u, v) rows sorted
    on the center -> per-block :func:`_wedge_counts` partials (with
    ``wedge_kw``), UNIONED with the rows' :func:`_direct_rows` and
    sorted on the full (x, y) composite (equal composites land whole)
    -> ``finish`` per block.  The wedge step never folds: this runs
    when the wedges outgrow the cap, however few the edges."""
    kw = {"pred": pred, "a": a, "b": b}
    partials = keyed_exchange(
        rows.map_batches(_bidir, fn_args=(("u", "v"),), fn_kwargs=kw,
                         batch_format="pyarrow", batch_size=1 << 19),
        ["u"], functools.partial(_wedge_counts, **wedge_kw))
    direct = rows.map_batches(_direct_rows, fn_kwargs=kw,
                              batch_format="pyarrow", batch_size=1 << 19)
    return keyed_complete(partials.union(direct), ["x", "y"],
                          functools.partial(finish, **fn_kwargs),
                          op="wedge_pairs")


def _open_pairs(batch: pa.Table, min_common: int,
                cols: list[str]) -> pa.Table:
    """Per (x, y)-sorted block: the wedge pairs that are NOT edges, with
    at least ``min_common`` wedges, as ``cols`` of (x, y, n, w)."""
    kind = batch.column("kind")
    g = grouped_agg(batch.filter(pc.equal(kind, 1)), ["x", "y"],
                    [("n", "sum"), ("w", "sum")])
    g = g.join(batch.filter(pc.not_equal(kind, 1)).select(["x", "y"]),
               keys=["x", "y"], join_type="left anti")
    g = g.filter(pc.greater_equal(g.column("n"), min_common))
    return pa.table(g.select(["x", "y", "n", "w"]).columns[:len(cols)],
                    names=cols)


def _supported(batch: pa.Table, thr: int) -> pa.Table:
    """Per (x, y)-sorted block: every direct row with its wedge support
    (0 when none), kept at support >= ``thr``, as (a, b, support) in the
    row's own orientation."""
    kind = batch.column("kind")
    w = grouped_agg(batch.filter(pc.equal(kind, 1)), ["x", "y"],
                    [("n", "sum")])
    g = batch.filter(pc.not_equal(kind, 1)).select(["x", "y", "kind"]).join(
        w, keys=["x", "y"], join_type="left outer")
    g = g.set_column(3, "n", g.column("n").fill_null(0))
    g = g.filter(pc.greater_equal(g.column("n"), thr))
    flip = pc.equal(g.column("kind"), 2)
    return pa.table({"a": pc.if_else(flip, g.column("y"), g.column("x")),
                     "b": pc.if_else(flip, g.column("x"), g.column("y")),
                     "support": g.column("n")})


def _adjacency(tbl: pa.Table, pred: str) -> dict[str, list[str]]:
    """Each node's sorted distinct neighbors over the ``pred`` rows of a
    triple table, both orientations, keyed in sorted node order."""
    co = tbl.filter(pc.equal(tbl.column("pred"), pred))
    nodes, (s, o) = sorted_codes(co.column("subj"), co.column("obj"))
    u, v = _adjacency_codes(s, o, len(nodes))
    starts = np.flatnonzero(np.diff(u, prepend=-1)).tolist()
    names, nb = nodes.to_pylist(), nodes.take(pa.array(v)).to_pylist()
    return {names[u[s]]: nb[s:t]
            for s, t in zip(starts, starts[1:] + [len(u)])}


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
    per-node driver state, every round one state exchange and one fold
    of the shares (:func:`_pagerank_distributed`); returns the rank
    Dataset.  Integer arithmetic makes the two paths exactly equal."""
    src = triples.materialize()
    tbl = _fold_edges(src, "pagerank", _TRIPLE_COLS)
    if tbl is None:
        edges = src.map_batches(
            _bidir, fn_args=(("node", "dst"),), fn_kwargs={"pred": "co_occurs"},
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


def _pagerank_distributed(edges: rd.Dataset, *, iters: int,
                          damping_pct: int) -> rd.Dataset:
    """Large-graph PageRank with NO per-node driver state, over the
    materialized bidirectional (node, dst) ``edges``.  Node state is a
    Dataset (node, deg, rank); each round is one
    ``arrowutil.attach_state`` exchange, whose messages are each edge's
    integer share rank // deg for its dst plus each node's own row
    carrying ``deg``, and one ``keyed_complete`` on the receiver that
    sums the shares, keeps the max ``deg`` and rebuilds the rank.  Each
    round's state is materialized (iterative lineage truncation).
    Output: Dataset (entity_id, rank_e12), bit-identical to the fold."""
    deg = _degrees_ds(edges, ("node",), "node", "deg").materialize()
    n = deg.count()
    if n == 0:
        return rd.from_arrow(_empty(entity_id=pa.string(),
                                    rank_e12=pa.int64()))
    base = (SCALE * (100 - damping_pct) // 100) // n
    aggs = [("s", "sum"), ("deg", "max")]

    def shares(s: pa.Table, e: pa.Table) -> pa.Table:
        share = e.column("rank").to_numpy() // e.column("deg").to_numpy()
        return grouped_agg(pa.table({
            "node": pa.concat_arrays([e.column("dst").combine_chunks(),
                                      s.column("node").combine_chunks()]),
            "s": np.concatenate([share, np.zeros(s.num_rows, np.int64)]),
            "deg": pa.concat_arrays([_zeros(e.num_rows),
                                     s.column("deg").combine_chunks()])}),
            ["node"], aggs)

    def rebuild(t: pa.Table) -> pa.Table:
        g = grouped_agg(t, ["node"], aggs)
        rank = base + damping_pct * g.column("s").to_numpy() // 100
        return pa.table({"node": g.column("node"), "deg": g.column("deg"),
                         "rank": pa.array(rank, pa.int64())})

    state = deg.map_batches(
        lambda b: b.append_column("rank", pa.array(
            np.full(b.num_rows, SCALE // n, np.int64))),
        batch_format="pyarrow").materialize()
    for _ in range(iters):
        state = keyed_complete(
            attach_state(state, edges, shares, op="pagerank.shares"),
            ["node"], rebuild, op="pagerank.rank").materialize()
    return state.map_batches(
        lambda b: pa.table({"entity_id": b.column("node"),
                            "rank_e12": b.column("rank")}),
        batch_format="pyarrow")


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


def _triangles_fold(src: rd.Dataset, a_col: str, b_col: str, op: str):
    """(nodes, degrees, triangle credits) of the distinct int64 edges
    of ``src`` on the driver, or None for the exchange: the input above
    the cap, or its wedge bound (:func:`_wedge_fold_ok`) above it.
    Degrees, the orientation and the closure test run over sorted node
    codes, and each :func:`_wedge_chunks` chunk credits the corners of
    its oriented wedges whose pair is an edge."""
    tbl = _fold_edges(src, op, [a_col, b_col])
    if tbl is None:
        return None
    nodes, (a, b) = sorted_codes(tbl.column(a_col).cast(pa.int64()),
                                 tbl.column(b_col).cast(pa.int64()))
    n = len(nodes)
    deg = np.bincount(np.concatenate([a, b]), minlength=n)  # rows
    a, b = _distinct(a, b, n)
    fwd = _orient_fwd(a, b, deg[a], deg[b])
    u, v = _distinct(np.where(fwd, a, b), np.where(fwd, b, a), n)
    if not _wedge_fold_ok(op, u, n):
        return None
    closed, credits = pa.array(a * n + b), np.zeros(n, np.int64)
    for c, p, q in _wedge_chunks(u, v):
        hit = pc.is_in(p * n + q, value_set=closed).to_numpy(
            zero_copy_only=False)
        for x in (c, p, q):
            credits += np.bincount(x[hit], minlength=n)
    return nodes, deg, credits


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

    Fold (the module rule, and a wedge bound under the cap):
    :func:`_triangles_fold` — degrees, orientation and the corner
    credits of closed wedges, chunk by chunk, on the driver, ZERO wide
    ops.

    Exchange: nothing broadcasts —
      1. degrees        combine/sort/combine endpoint counts
      2. annotate       two cogroup passes with the degree table on the
                        SINGLE node key attach deg(a), deg(b) to every
                        edge
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
    fold = _triangles_fold(src, a_col, b_col, "triangle_counts")
    if fold is not None:
        nodes, _, credits = fold
        hit = np.flatnonzero(credits)
        return rd.from_arrow(pa.table({
            out_col: nodes.take(pa.array(hit)),
            "n_triangles": pa.array(credits[hit], pa.int64())}))

    ed = _norm_ds(src, a_col, b_col, pa.int64())

    # -- 1-4. degrees on both ends, orient, wedges per sorted src -----
    def orient(batch: pa.Table) -> pa.Table:
        a, b = batch.column("k").to_numpy(), batch.column("o").to_numpy()
        fwd = _orient_fwd(a, b, batch.column("d2").to_numpy(),
                          batch.column("d1").to_numpy())
        return pa.table({"src": np.where(fwd, a, b),
                         "dst": np.where(fwd, b, a)})

    def wedges(batch: pa.Table) -> pa.Table:
        w = _wedges(batch, "src", "dst")
        return w.append_column("kind", _ones(w.num_rows))

    def edge_keys(batch: pa.Table) -> pa.Table:
        z = _zeros(batch.num_rows)
        return pa.table({"c": z, "p": batch.column("a"),
                         "q": batch.column("b"), "kind": z})

    # -- 5. closure join + per-corner credit --------------------------
    def close(batch: pa.Table) -> pa.Table:
        kind = batch.column("kind")
        return _corner_counts(batch.filter(pc.equal(kind, 1)).join(
            grouped_agg(batch.filter(pc.equal(kind, 0)), ["p", "q"], []),
            keys=["p", "q"], join_type="inner"))

    def count_combine(batch: pa.Table) -> pa.Table:
        g = grouped_agg(batch, ["node"], [("n", "sum")])
        return pa.table({out_col: g.column("node"),
                         "n_triangles": g.column("n")})

    wed = keyed_exchange(_with_degrees(ed, ed, "a", "b", None)
                         .map_batches(orient, batch_format="pyarrow",
                                      batch_size=1 << 19), ["src"], wedges)
    credits = keyed_complete(ed.map_batches(
        edge_keys, batch_format="pyarrow", batch_size=1 << 19).union(wed),
        ["p", "q"], close, op="triangles.close")
    return keyed_complete(credits, ["node"], count_combine,
                          op="triangles.count")


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

    Fold (the module rule, and a wedge bound under the cap):
    :func:`_triangles_fold` gives the degrees and the triangle credits
    together.  Exchange: the normalized edge table is materialized ONCE
    (it feeds both the triangle enumeration and the degree count — Ray
    does no common-subexpression elimination); triangles come from
    :func:`triangle_counts`, degrees from a combine/sort/combine, and
    the two per-node tables meet in one :func:`arrowutil.cogroup` on
    the node, whose Arrow left join fills triangle-free nodes with
    0."""

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
    fold = _triangles_fold(src, a_col, b_col, "clustering_coefficients")
    if fold is not None:
        nodes, dg, nt = fold
        return rd.from_arrow(coefficients(nodes.to_numpy(), dg, nt))

    ed = _norm_ds(src, a_col, b_col, pa.int64())

    def finish(d: pa.Table, t: pa.Table) -> pa.Table:
        j = d.join(t, "node", join_type="left outer")
        return coefficients(j.column("node").to_numpy(),
                            j.column("deg").to_numpy(),
                            j.column("n_triangles").fill_null(0).to_numpy())

    return cogroup([_degrees_ds(ed, ("a", "b"), "node", "deg"),
                    triangle_counts(ed, a_col="a", b_col="b", out_col="node")],
                   ["node"], finish, op="clustering_coefficients.join")


# -- common neighbors --------------------------------------------------------

def _cn_fold(src: rd.Dataset, op: str, a_col: str, b_col: str,
             node_type: pa.DataType):
    """The fold of :func:`common_neighbors` over the materialized
    ``src``: (nodes, a and b edge codes, pair accumulator of the
    NON-adjacent wedge pairs), or None for the exchange
    (:func:`_fold_edges`, then :func:`_wedge_fold_ok`)."""
    tbl = _fold_edges(src, op, [a_col, b_col])
    if tbl is None:
        return None
    nodes, (a, b) = sorted_codes(tbl.column(a_col).cast(node_type),
                                 tbl.column(b_col).cast(node_type))
    n = len(nodes)
    u, v = _adjacency_codes(a, b, n)
    if not _wedge_fold_ok(op, u, n):
        return None
    acc = _wedge_fold(u, v, n)
    return nodes, a, b, acc.filter(pc.invert(pc.is_in(
        acc.column("key"), value_set=pa.array(u * n + v))))


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

    Fold (the module rule, and a wedge bound under the cap): the wedge
    kernel :func:`_wedge_fold` counts every (p, q) neighbor pair in
    budgeted chunks of centers; adjacent pairs drop by key.  Exchange:
    (1) both-direction (u, v) rows sorted on the center -> per-block
    wedge-pair partial counts (:func:`_wedge_counts`); (2) partials
    UNIONED with the direct-edge rows, sorted on the full (x, y)
    composite (equal composites land whole) -> per-block final sum +
    NOT-EXISTS drop of directly-connected pairs.  No driver holds the
    wedges: the fold holds at most its bound of pair rows plus one
    chunk, and above that bound the wedges stay distributed (a 4M-edge
    star is 10^12 wedges).

    Output: (``a_col``, ``b_col``, n_common) for surviving pairs."""
    cols = [a_col, b_col, "n_common"]
    src = edges.materialize()
    fold = _cn_fold(src, "common_neighbors", a_col, b_col, node_type)
    if fold is None:
        return _pair_exchange(_norm_ds(src, a_col, b_col, node_type),
                              _open_pairs, {"min_common": min_common,
                                            "cols": cols})
    nodes, _, _, acc = fold
    acc = acc.filter(pc.greater_equal(acc.column("n"), min_common))
    return rd.from_arrow(_decode_pairs(nodes, acc, cols))


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

    Fold: common_neighbors' fold, and degrees as one ``np.bincount``
    over the edge codes.  Exchange: NO per-node driver state —
    common_neighbors' exchange, then both degrees attached by
    :func:`_with_degrees`.

    Output: (a_col, b_col, n_common, deg_a, deg_b, union_size)."""
    cols = [a_col, b_col, "n_common"]
    src = edges.materialize()
    fold = _cn_fold(src, "jaccard_links", a_col, b_col, node_type)
    if fold is None:
        ed = _norm_ds(src, a_col, b_col, node_type)

        def finish(batch: pa.Table) -> pa.Table:
            da, db, nc = (batch.column(c) for c in ("d2", "d1", "n"))
            return pa.table({
                a_col: batch.column("k"), b_col: batch.column("o"),
                "n_common": nc, "deg_a": da, "deg_b": db,
                "union_size": pc.subtract(pc.add(da, db), nc)})

        cn = _pair_exchange(ed, _open_pairs, {"min_common": min_common,
                                              "cols": cols})
        return _with_degrees(cn, ed, a_col, b_col, "n_common").map_batches(
            finish, batch_format="pyarrow")
    nodes, a, b, acc = fold
    acc = acc.filter(pc.greater_equal(acc.column("n"), min_common))
    n = len(nodes)
    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    key = acc.column("key").to_numpy()
    da, db = deg[key // n], deg[key % n]
    out = _decode_pairs(nodes, acc, cols)
    return rd.from_arrow(out.append_column("deg_a", pa.array(da))
                         .append_column("deg_b", pa.array(db))
                         .append_column("union_size", pa.array(
                             da + db - acc.column("n").to_numpy())))


def _with_degrees(rows: rd.Dataset, ed: rd.Dataset, a: str, b: str,
                  n: str | None) -> rd.Dataset:
    """The (``a``, ``b``) ``rows`` (with an int64 payload column ``n``,
    or 0) as (k=a, o=b, n, d1=deg(b), d2=deg(a)), the degrees counted
    over the normalized (a, b) edges ``ed``, with NO per-node driver
    state.  The degrees become a Dataset (:func:`_degrees_ds`) and meet
    the rows in two :func:`arrowutil.cogroup` Arrow left joins, on a and
    then on b.  Every endpoint must be a node of ``ed``."""
    def attach(p: pa.Table, d: pa.Table) -> pa.Table:
        """The degree of each row's k endpoint into d1 (the one found
        before moves to d2), re-keyed on the other."""
        p = p.select(["k", "o", "n", "d1"]).rename_columns(
            ["k", "o", "n", "d2"]).join(d, "k", join_type="left outer")
        return pa.table({"k": p.column("o"), "o": p.column("k"),
                         "n": p.column("n"), "d1": p.column("d1"),
                         "d2": p.column("d2")})

    # read by both passes (Ray does no common-subexpression elimination)
    degs = _degrees_ds(ed, ("a", "b"), "k", "d1").materialize()
    p1 = cogroup([rows.map_batches(lambda t: pa.table({
        "k": t.column(a), "o": t.column(b),
        "n": t.column(n) if n else _zeros(t.num_rows),
        "d1": _zeros(t.num_rows)}), batch_format="pyarrow"), degs],
        ["k"], attach, op="with_degrees")
    return cogroup([p1, degs], ["k"], attach, op="with_degrees")


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
    is label order; each round is one :func:`_vote` over the (voter,
    neighbor label) votes, the ``grouped_agg`` and k=1 ``grouped_topk``
    cut under (count DESC, label ASC) that the exchange also runs.
    Returns a small pa.Table (entity_id, community); it may exit early
    at a fixed point, where extra rounds are no-ops on both paths.  Exchange: NO per-node driver state
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
        ed = src.map_batches(_bidir, fn_args=(("node", "dst"),),
                             batch_format="pyarrow",
                             batch_size=1 << 19).materialize()
        return _lpa_distributed(ed, rounds=rounds)

    ed = _bidir(tbl)
    nodes, (a, b) = sorted_codes(ed.column("a"), ed.column("b"))
    voter = pa.array(a)
    lab = np.arange(len(nodes))
    for _ in range(rounds):
        best = _vote(pa.table({"v": voter, "nl": lab[b],
                               "c": _ones(len(a))}))
        new = lab.copy()
        new[best.column("v").to_numpy()] = best.column("nl").to_numpy()
        if (new == lab).all():
            break  # fixed point: extra SQL rounds are no-ops
        lab = new
    return pa.table({"entity_id": nodes,
                     "community": nodes.take(pa.array(lab))})


def _vote(votes: pa.Table) -> pa.Table:
    """Each voter's new label from (v, nl, c) vote rows: the counts
    summed per (voter, label), then the k=1 cut under (count DESC,
    label ASC), as (v, nl).  Both label propagation paths call it."""
    g = grouped_agg(votes, ["v", "nl"], [("c", "sum")])
    return grouped_topk(g, ["v"], [("c", "descending"),
                                   ("nl", "ascending")], 1).select(["v", "nl"])


def _lpa_distributed(ed: rd.Dataset, *, rounds: int) -> rd.Dataset:
    """Large-graph label propagation with NO per-node driver state,
    over the materialized bidirectional (node, dst) edges ``ed``.  Label
    state is a Dataset (node, lab); each round is one
    ``arrowutil.attach_state`` exchange, whose messages are per-block
    (voter, neighbor label, count) partials, and one ``keyed_complete``
    on the voter running :func:`_vote`.  Integer votes and the
    lexicographic tie-break are order-free, so the result is
    bit-identical to the fold (no early exit here: the fold exits only
    at a fixed point, where extra rounds are no-ops).

    Output: Dataset (entity_id, community)."""

    def votes(s: pa.Table, e: pa.Table) -> pa.Table:
        return grouped_agg(pa.table({"v": e.column("dst"),
                                     "nl": e.column("lab"),
                                     "c": _ones(e.num_rows)}),
                           ["v", "nl"], [("c", "sum")])

    distinct = functools.partial(grouped_agg, keys=["node", "lab"], aggs=[])
    state = keyed_complete(
        ed.map_batches(lambda b: pa.table({"node": b.column("node"),
                                           "lab": b.column("node")}),
                       batch_format="pyarrow", batch_size=1 << 19),
        ["node"], distinct, combine=distinct,
        op="label_propagation.nodes").materialize()
    for _ in range(rounds):
        state = keyed_complete(
            attach_state(state, ed, votes, op="label_propagation.votes"),
            ["v"], lambda t: _vote(t).rename_columns(["node", "lab"]),
            op="label_propagation.vote").materialize()
    return state.map_batches(
        lambda b: pa.table({"entity_id": b.column("node"),
                            "community": b.column("lab")}),
        batch_format="pyarrow")


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

    Fold (the module rule, and a wedge bound under the cap): each
    round's supports are the wedge kernel's pair counts
    (:func:`_wedge_fold`) at the surviving edges, over sorted node
    codes, and a round that peels nothing ends the loop (a fixed
    point).  Exchange, per round, the common_neighbors (x, y)
    exchange with INNER (not anti) edge semantics
    (:func:`_pair_exchange` with :func:`_supported`): per-block
    wedge-pair partials UNIONED with the current edge rows, sorted on
    the (x, y) composite -> per-block support sum, keep edges present
    with support >= k-2.  Each round's survivor set is materialized
    (iterative lineage truncation).  Integer supports make
    the two paths and the SQL unroll bit-exact.

    Per-center wedge cost is deg^2 (full neighbor set, like
    common_neighbors); pre-filter hub degrees before calling this on
    corpus-scale graphs.

    Output: (``a_col``, ``b_col``, support) for the final survivors."""
    thr = k - 2
    src = edges.materialize()
    tbl = _fold_edges(src, "ktruss", [a_col, b_col])
    if tbl is not None:
        nodes, (a, b) = sorted_codes(tbl.column(a_col).cast(node_type),
                                     tbl.column(b_col).cast(node_type))
        n = len(nodes)
        if _wedge_fold_ok("ktruss", _adjacency_codes(a, b, n)[0], n):
            a, b = _distinct(a, b, n)  # the rows, sorted on (a, b)
            for _ in range(rounds):
                edge = np.minimum(a, b) * n + np.maximum(a, b)
                sup = _support(_wedge_fold(*_adjacency_codes(a, b, n), n,
                                           edges=edge), edge)
                keep = sup >= thr
                a, b, sup = a[keep], b[keep], sup[keep]
                if keep.all():
                    break  # fixed point: extra rounds are no-ops
            return rd.from_arrow(pa.table({
                a_col: nodes.take(pa.array(a)),
                b_col: nodes.take(pa.array(b)),
                "support": pa.array(sup, pa.int64())}))

    cur = _norm_ds(src, a_col, b_col, node_type)
    for _ in range(rounds):
        cur = _pair_exchange(cur, _supported, {"thr": thr}).materialize()

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            a_col: batch.column("a"),
            b_col: batch.column("b"),
            "support": batch.column("support"),
        })

    return cur.map_batches(rename, batch_format="pyarrow")


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
    (Granovetter via Easley-Kleinberg ch. 3).  Reported per ``pred``
    row with the exact common-neighbor count over the distinct
    undirected adjacency, the endpoints themselves never counted (a
    self-loop row (s, s) counts the other neighbors of s).

    Fold (the module rule, and a wedge bound under the cap): the wedge
    kernel's pair counts (:func:`_wedge_fold`) over sorted node codes
    are each edge's common neighbors; each row looks its edge up.
    Exchange: one :func:`ktruss` support round with threshold 0
    (:func:`_pair_exchange` with :func:`_supported`) over the rows.

    Output: (subj, obj, n_common, is_bridge)."""
    src = triples.materialize()
    tbl = _fold_edges(src, "local_bridges", _TRIPLE_COLS)
    if tbl is not None:
        co = tbl.filter(pc.equal(tbl.column("pred"), pred))
        nodes, (s, o) = sorted_codes(co.column("subj"), co.column("obj"))
        n = len(nodes)
        lo, hi = np.minimum(s, o), np.maximum(s, o)
        ne = lo != hi
        u, v = _adjacency_codes(lo[ne], hi[ne], n)
        if _wedge_fold_ok("local_bridges", u, n):
            edge = lo * n + hi
            sup = _support(_wedge_fold(u, v, n, edges=edge), edge)
            sup = np.where(ne, sup, np.bincount(u, minlength=n)[lo])
            return rd.from_arrow(pa.table({
                "subj": co.column("subj"), "obj": co.column("obj"),
                "n_common": pa.array(sup, pa.int64()),
                "is_bridge": pa.array((sup == 0).astype(np.int64))}))

    def bridges(batch: pa.Table) -> pa.Table:
        sup = batch.column("support")
        return pa.table({"subj": batch.column("a"), "obj": batch.column("b"),
                         "n_common": sup, "is_bridge": pc.equal(sup, 0)
                         .cast(pa.int64())})

    return _pair_exchange(src, _supported, {"thr": 0}, pred=pred,
                          a="subj", b="obj", diagonal=True).map_batches(
        bridges, batch_format="pyarrow")


def link_prediction_ra(triples: rd.Dataset, *,
                       pred: str = "co_occurs") -> rd.Dataset:
    """Resource-Allocation link prediction (Zhou, Lü, Zhang 2009 —
    the common-neighbor index that beats Adamic-Adar on most
    benchmarks): for every NON-adjacent pair with at least one common
    neighbor, ``ra_fp = Σ_z 2^20 // deg(z)`` over common neighbors z
    — the fixed-point integer form of Σ 1/deg(z), exact on both
    engines (non-negative floor division, no logs or floats).

    Fold (the module rule, and a wedge bound under the cap): over the
    distinct bidirected ``pred`` edges as sorted node codes, the wedge
    kernel sums each (p, q) neighbor pair's count and its centers'
    weights ``2^20 // deg(center)`` (:func:`_wedge_fold`), and adjacent
    pairs drop by key.  Exchange: common_neighbors' (x, y) exchange
    with the per-center weight column (:func:`_pair_exchange`, weighted
    :func:`_wedge_counts`).

    Output: (a, b, n_common, ra_fp) with a < b."""
    cols = ["a", "b", "n_common", "ra_fp"]
    src = triples.materialize()
    tbl = _fold_edges(src, "link_prediction_ra", _TRIPLE_COLS)
    if tbl is not None:
        co = tbl.filter(pc.equal(tbl.column("pred"), pred))
        nodes, (s, o) = sorted_codes(co.column("subj"), co.column("obj"))
        n = len(nodes)
        u, v = _adjacency_codes(s, o, n)
        if _wedge_fold_ok("link_prediction_ra", u, n):
            deg = np.bincount(u, minlength=n)
            acc = _wedge_fold(u, v, n, weight=(1 << 20) // deg)
            acc = acc.filter(pc.invert(pc.is_in(
                acc.column("key"), value_set=pa.array(u * n + v))))
            return rd.from_arrow(_decode_pairs(nodes, acc, cols))
    return _pair_exchange(src, _open_pairs, {"min_common": 1, "cols": cols},
                          pred=pred, a="subj", b="obj", weighted=True)


def modularity_report(pairs: rd.Dataset,
                      communities: pa.Table) -> pa.Table:
    """Partition-quality report: Newman modularity of a community
    assignment over the undirected edge set, as EXACT integers —
    per community ``q_num_part = 4*m*in_c - deg_sum_c²`` so that
    ``Q = Σ q_num_part / (4m²)`` with no float ever computed (the
    kg_trend integer-sufficient-statistics trick applied to the
    partition-quality functional).  The number that says whether the
    LPA communities are real structure or noise.

    Fold only (the module rule; ValueError above the cap): each edge
    end's community is one ``index_in`` lookup (the LAST row of an
    entity listed twice wins), and one ``grouped_agg`` counts, per
    community, its in-edges, endpoint degrees and nodes.  A null
    community, or an entity with none, counts toward nothing.

    Output pa.Table (community, n_nodes, in_edges, deg_sum,
    q_num_part), sorted by community."""
    ed = _edge_table(pairs, "modularity_report", _PAIR_COLS)
    last = communities.take(pa.array(np.arange(communities.num_rows)[::-1]))
    ids = last.column("entity_id").combine_chunks()
    com = last.column("community").cast(pa.string()).combine_chunks()
    ca, cb = (com.take(pc.index_in(ed.column(c).combine_chunks(),
                                   value_set=ids)) for c in ("subj", "obj"))
    ins = ca.filter(pc.equal(ca, cb))
    parts = {"in_edges": ins, "deg_sum": pa.concat_arrays([ca, cb]),
             "n_nodes": com}
    g = grouped_agg(pa.table({
        "community": pa.concat_arrays(list(parts.values())),
        **{c: pa.array(np.concatenate([np.full(len(x), c == k, np.int64)
                                       for k, x in parts.items()]))
           for c in parts}}),
        ["community"], [(c, "sum") for c in parts]).sort_by("community")
    m = ed.num_rows
    in_e, deg = g.column("in_edges"), g.column("deg_sum")
    return pa.table({
        "community": g.column("community"), "n_nodes": g.column("n_nodes"),
        "in_edges": in_e, "deg_sum": deg,
        "q_num_part": pc.subtract_checked(pc.multiply_checked(4 * m, in_e),
                                          pc.multiply_checked(deg, deg))})
