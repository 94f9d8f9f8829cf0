"""The graph family's fold-or-exchange choice (``arrowutil.driver_table``
under ``arrowutil.FOLD_MAX_BYTES``): distributed (no-driver-node-state)
paths vs the driver folds.

VERDICT r03 §What's-wrong-3: the degree/pagerank driver folds are
scale-killers on unbounded node spaces (doc-pair graphs).  These tests
force the distributed paths by monkeypatching the cap to 0 and assert
BIT-IDENTICAL outputs vs the fold under a huge cap — the integer
fixed-point contract makes the comparison exact, not approximate.  The
ops with no distributed path raise above the cap, and every op logs its
choice through the ``ray_kg`` logger."""

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from clinicaltransformerner_ray import arrowutil
from clinicaltransformerner_ray.pipelines import dedup, graph
from clinicaltransformerner_ray.pipelines.graph import (
    SCALE, jaccard_links, label_propagation, pagerank)

HUGE = 1 << 40


def _took(caplog, op: str, path: str) -> None:
    """``op`` logged ``path`` (``fold`` or ``exchange``) through
    ``ray_kg`` since the last ``caplog.clear()``; then clear."""
    msgs = [r.getMessage() for r in caplog.records if r.name == "ray_kg"]
    assert any(m.startswith(f"{op}: {path} (") for m in msgs), (op, msgs)
    caplog.clear()


def _dense_triples() -> pa.Table:
    """Deterministic multi-component co-occurrence graph: 30 nodes,
    formula-generated distinct edges (no RNG — the repo's
    reproducibility rule), plus a 'follows' triple that pagerank must
    ignore."""
    n = 30
    seen = set()
    subj, obj = [], []
    for i in range(n):
        for k in (3, 7, 11):
            j = (i * k + k) % n
            a, b = min(i, j), max(i, j)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            subj.append(f"E{a:02d}")
            obj.append(f"E{b:02d}")
    pred = ["co_occurs"] * len(subj) + ["follows"]
    subj.append("E00")
    obj.append("E01")
    return pa.table({
        "subj": pa.array(subj, pa.string()),
        "pred": pa.array(pred, pa.string()),
        "obj": pa.array(obj, pa.string()),
    })


def test_pagerank_distributed_bitwise_matches_broadcast(ray_session,
                                                        monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="ray_kg")
    triples = rd.from_arrow(_dense_triples()).repartition(4)
    ref = pagerank(triples, iters=4)
    assert isinstance(ref, pa.Table)  # fold path
    _took(caplog, "pagerank", "fold")
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    out = pagerank(triples, iters=4)
    assert isinstance(out, rd.Dataset)  # distributed path exercised
    _took(caplog, "pagerank", "exchange")
    a = (ref.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    b = (out.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    total = int(a["rank_e12"].sum())
    assert SCALE * 0.999 < total <= SCALE  # mass conserved minus floor dust


def test_pagerank_distributed_empty_graph(ray_session, monkeypatch):
    triples = rd.from_arrow(pa.table({
        "subj": pa.array([], pa.string()),
        "pred": pa.array([], pa.string()),
        "obj": pa.array([], pa.string()),
    }))
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    out = pagerank(triples, iters=3)
    # an input with no rows folds on any cap (a typed empty table)
    df = out.to_pandas()  # both pa.Table and Dataset expose to_pandas
    assert len(df) == 0
    assert set(df.columns) == {"entity_id", "rank_e12"}


def test_jaccard_links_distributed_bitwise_matches_broadcast(ray_session,
                                                            monkeypatch,
                                                            caplog):
    caplog.set_level(logging.INFO, logger="ray_kg")
    pairs = _dense_triples().filter(
        pa.compute.equal(pa.compute.field("pred"), "co_occurs"))
    edges = rd.from_arrow(pa.table({
        "subj": pairs.column("subj"),
        "obj": pairs.column("obj"),
    })).repartition(4)
    ref = (jaccard_links(edges, min_common=2)
           .to_pandas().sort_values(["subj", "obj"])
           .reset_index(drop=True))
    assert len(ref) > 0  # the formula graph must produce survivors
    _took(caplog, "jaccard_links", "fold")
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    out = (jaccard_links(edges, min_common=2)
           .to_pandas().sort_values(["subj", "obj"])
           .reset_index(drop=True))
    _took(caplog, "jaccard_links", "exchange")
    pd.testing.assert_frame_equal(ref, out)
    # inclusion-exclusion invariant holds row-wise
    assert (out["union_size"]
            == out["deg_a"] + out["deg_b"] - out["n_common"]).all()


def test_lpa_distributed_bitwise_matches_broadcast(ray_session,
                                                   monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="ray_kg")
    pairs = _dense_triples().filter(
        pa.compute.equal(pa.compute.field("pred"), "co_occurs"))
    edges = rd.from_arrow(pa.table({
        "subj": pairs.column("subj"),
        "obj": pairs.column("obj"),
    })).repartition(4)
    ref = label_propagation(edges, rounds=4)
    assert isinstance(ref, pa.Table)  # fold path
    _took(caplog, "label_propagation", "fold")
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    out = label_propagation(edges, rounds=4)
    assert isinstance(out, rd.Dataset)  # distributed path exercised
    _took(caplog, "label_propagation", "exchange")
    a = (ref.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    b = (out.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert a["community"].nunique() < len(a)  # labels actually spread


def test_ktruss_matches_bruteforce(ray_session, monkeypatch, caplog):
    """Fixed-round k-truss vs a plain-Python peel on the formula
    graph, for k=3 and k=4."""
    from clinicaltransformerner_ray.pipelines.graph import ktruss

    # K5 clique (edge support 3: survives k<=5) + a triangle fan off
    # node A00 (support 1: peeled at k=4, kept at k=3) + a dangling
    # chain (support 0: always peeled)
    clique = [f"A{i:02d}" for i in range(5)]
    E = sorted(
        {(a, b) for i, a in enumerate(clique)
         for b in clique[i + 1:]}
        | {("A00", "B01"), ("A00", "B02"), ("B01", "B02")}  # fan tri
        | {("B02", "C01"), ("C01", "C02")})                 # chain
    assert all(a < b for a, b in E)

    def brute(k, rounds):
        cur = set(E)
        sup = {}
        for _ in range(rounds):
            adj = {}
            for a, b in cur:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            sup = {(a, b): len(adj[a] & adj[b]) for a, b in cur}
            cur = {e for e, s in sup.items() if s >= k - 2}
        return {(a, b): sup[(a, b)] for a, b in cur}

    edges = rd.from_arrow(pa.table({
        "subj": pa.array([a for a, _ in E], pa.string()),
        "obj": pa.array([b for _, b in E], pa.string()),
    })).repartition(4)
    caplog.set_level(logging.INFO, logger="ray_kg")
    for k in (3, 4):
        want = brute(k, 3)
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
        got = ktruss(edges, k=k, rounds=3).to_pandas()  # fold
        _took(caplog, "ktruss", "fold")
        assert {(r.subj, r.obj): r.support
                for r in got.itertuples()} == want, k
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
        dist = ktruss(edges, k=k, rounds=3).to_pandas()  # distributed
        _took(caplog, "ktruss", "exchange")
        assert {(r.subj, r.obj): r.support
                for r in dist.itertuples()} == want, k
    assert brute(4, 3) != brute(3, 3)  # k actually bites


# -- forced-path parity: every op that has an exchange path ----------------

def _hub_triples() -> pa.Table:
    """The kg_dense shape: a hub entity tied to 40 leaves, an 8-clique,
    hub-to-clique edges and a rim triangle among the leaves, so hub
    wedges dominate and triangles close through the hub."""
    edges = ({(0, i) for i in range(1, 41)}
             | {(a, b) for a in range(41, 49) for b in range(a + 1, 49)}
             | {(0, 41), (0, 42), (5, 6), (6, 7), (5, 7)})
    subj = [f"E{a:02d}" for a, _ in sorted(edges)]
    obj = [f"E{b:02d}" for _, b in sorted(edges)]
    return pa.table({
        "subj": pa.array(subj + ["E01"], pa.string()),
        "pred": pa.array(["co_occurs"] * len(subj) + ["follows"],
                         pa.string()),
        "obj": pa.array(obj + ["E02"], pa.string()),
    })


def _graph(name: str) -> pa.Table:
    if name == "formula":
        return _dense_triples()
    if name == "hub":
        return _hub_triples()
    return _dense_triples().slice(0, 0)


def _pairs(t: pa.Table) -> pa.Table:
    co = t.filter(pa.compute.equal(t.column("pred"), "co_occurs"))
    return pa.table({"subj": co.column("subj"), "obj": co.column("obj")})


def _int_pairs(t: pa.Table) -> pa.Table:
    p = _pairs(t)
    return pa.table({
        c: pa.compute.cast(pa.compute.utf8_slice_codeunits(
            p.column(s), 1), pa.int64())
        for c, s in (("doc_a", "subj"), ("doc_b", "obj"))})


#: op -> (input shape, call); the nine graph ops with an exchange path,
#: and the dedup family's connected components
EXCHANGE_OPS = {
    "dup_clusters": (_int_pairs, dedup.dup_clusters),
    "pagerank": (lambda t: t, lambda d: pagerank(d, iters=4)),
    "triangle_counts": (_int_pairs, graph.triangle_counts),
    "common_neighbors": (_pairs, lambda d: graph.common_neighbors(
        d, min_common=1)),
    "jaccard_links": (_pairs, lambda d: jaccard_links(d, min_common=1)),
    "clustering_coefficients": (_int_pairs,
                                graph.clustering_coefficients),
    "label_propagation": (_pairs, lambda d: label_propagation(d, rounds=4)),
    "ktruss": (_pairs, lambda d: graph.ktruss(d, k=3, rounds=3)),
    "local_bridges": (lambda t: t, graph.local_bridges),
    "link_prediction_ra": (lambda t: t, graph.link_prediction_ra),
}


def _rows(out):
    """(schema or None, row-sorted table or None) of a pa.Table or of a
    Dataset's blocks."""
    import ray

    tables = ([out] if isinstance(out, pa.Table) else
              [t for t in ray.get(out.to_arrow_refs()) if t.num_columns])
    if not tables:
        return None, None
    t = pa.concat_tables(tables)
    return t.schema, t.sort_by([(c, "ascending") for c in t.schema.names])


def _run(monkeypatch, caplog, op: str, graph_name: str, cap: int):
    """``op`` on ``graph_name`` at ``cap``; on a graph with edges it
    must log ``fold`` at a huge cap and ``exchange`` at cap 0, and on
    the empty graph (whose repartitioned blocks carry no schema) only
    ``fold``, at either cap."""
    shape, call = EXCHANGE_OPS[op]
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    caplog.set_level(logging.INFO, logger="ray_kg")
    caplog.clear()
    out = call(rd.from_arrow(shape(_graph(graph_name))).repartition(3))
    if graph_name == "empty":
        assert not any(r.getMessage().startswith(f"{op}: exchange (")
                       for r in caplog.records), op
    _took(caplog, op, "fold" if graph_name == "empty" or cap else
          "exchange")
    return out


@pytest.mark.parametrize("graph_name", ["formula", "hub", "empty"])
@pytest.mark.parametrize("op", sorted(EXCHANGE_OPS))
def test_fold_equals_exchange(ray_session, monkeypatch, caplog, op,
                              graph_name):
    """Cap 0 forces the exchange path, a huge cap the fold: same rows;
    same schema whenever the exchange's blocks carry one (its empty
    blocks may not); the fold's return type is the op's documented
    one.  An input with no rows folds on either cap and gives a typed
    empty result with the non-empty fold's schema."""
    fold = _run(monkeypatch, caplog, op, graph_name, HUGE)
    exch = _run(monkeypatch, caplog, op, graph_name, 0)
    table_ops = {"pagerank", "label_propagation"}
    assert isinstance(fold, pa.Table) == (op in table_ops)
    fs, ft = _rows(fold)
    es, et = _rows(exch)
    assert fs is not None  # the fold always has a schema
    if graph_name == "empty":
        assert ft.num_rows == 0 and isinstance(exch, type(fold))
        ref_schema, _ = _rows(_run(monkeypatch, caplog, op, "hub", HUGE))
        assert fs.equals(ref_schema), (fs, ref_schema)
        return
    if op in table_ops:
        assert isinstance(exch, rd.Dataset)
    if es is None:
        assert ft.num_rows == 0
    else:
        assert fs.equals(es), (fs, es)
        assert ft.equals(et)
    if graph_name == "hub":
        assert ft.num_rows > 0


#: op -> (input shape, call) for the seven ops with no exchange path
FOLD_ONLY_OPS = {
    "khop_reachability": (_pairs, graph.khop_reachability),
    "kcore": (_pairs, graph.kcore),
    "link_negatives": (lambda t: t, graph.link_negatives),
    "degree_assortativity": (lambda t: t, graph.degree_assortativity),
    "hits_scores": (lambda t: t, graph.hits_scores),
    "random_walks": (lambda t: t, graph.random_walks),
    "modularity_report": (_pairs, lambda d: graph.modularity_report(
        d, pa.table({"entity_id": pa.array(["E00", "E05"]),
                     "community": pa.array(["C0", "C1"])}))),
}


def test_each_op_logs_its_path(ray_session, monkeypatch, caplog):
    """Every graph op logs ``fold`` or ``exchange`` through ``ray_kg``:
    under the default cap each folds; at cap 0 the ten with an
    exchange path log it and the other seven raise ValueError."""
    caplog.set_level(logging.INFO, logger="ray_kg")
    t = _hub_triples()
    default = arrowutil.FOLD_MAX_BYTES
    for op, (shape, call) in {**EXCHANGE_OPS, **FOLD_ONLY_OPS}.items():
        for cap, path in ((default, "fold"), (0, "exchange")):
            caplog.clear()
            monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
            ds = rd.from_arrow(shape(t))
            if path == "exchange" and op in FOLD_ONLY_OPS:
                with pytest.raises(ValueError):
                    call(ds)
            else:
                call(ds)
            msgs = [r.getMessage() for r in caplog.records
                    if r.name == "ray_kg"]
            assert any(m.startswith(f"{op}: {path} (") and
                       m.endswith(f"cap={cap})") for m in msgs), (op, msgs)


def test_fold_only_op_raises_above_cap(ray_session, monkeypatch):
    """An op with no distributed path names itself, the input's size and
    the cap when the input is above the cap."""
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 100)
    ds = rd.from_arrow(_hub_triples()).materialize()
    size = ds.size_bytes()
    assert size > 100
    with pytest.raises(ValueError) as err:
        graph.hits_scores(ds)
    msg = str(err.value)
    assert msg.startswith("hits_scores: ")
    assert f"{size} bytes" in msg and "FOLD_MAX_BYTES=100" in msg


@pytest.mark.parametrize("op", sorted(FOLD_ONLY_OPS))
def test_fold_only_empty_graph_typed(ray_session, op):
    """An empty input gives the op's typed result: the hub graph's
    schema, with no rows (one all-zero row for the assortativity
    statistics)."""
    shape, call = FOLD_ONLY_OPS[op]
    empty, _ = _rows(call(rd.from_arrow(shape(_graph("empty")))))
    ref, _ = _rows(call(rd.from_arrow(shape(_hub_triples()))))
    assert empty is not None and empty.equals(ref), (empty, ref)


# -- the wedge kernel ------------------------------------------------------

def _random_edges(seed: int, n: int) -> set:
    """Distinct (a, b) code edges, a < b, of a seeded random graph over
    ``n`` nodes: node 0 is a hub tied to half of them, and the top
    fifth of the codes are isolated nodes with no edge."""
    rng = np.random.default_rng(seed)
    live = n - n // 5
    E = {(0, int(i)) for i in rng.choice(np.arange(1, live), live // 2,
                                         replace=False)}
    for a, b in rng.integers(0, live, (3 * live, 2)):
        if a != b:
            E.add((int(min(a, b)), int(max(a, b))))
    return E


def _brute(E: set, n: int):
    """Python-set references: common-neighbor counts and resource-
    allocation sums per pair with a common neighbor, and triangles per
    node."""
    nb = {x: set() for x in range(n)}
    for a, b in E:
        nb[a].add(b)
        nb[b].add(a)
    cn, ra = {}, {}
    for p in range(n):
        for q in range(p + 1, n):
            common = nb[p] & nb[q]
            if common:
                cn[p, q] = len(common)
                ra[p, q] = sum((1 << 20) // len(nb[z]) for z in common)
    tri = {x: sum(len(nb[x] & nb[y]) for y in nb[x]) // 2 for x in nb}
    return cn, ra, tri


@pytest.mark.parametrize("budget", [None, 20])
@pytest.mark.parametrize("seed,n", [(1, 30), (2, 60), (3, 9), (4, 0)])
def test_wedge_kernel_matches_bruteforce(ray_session, monkeypatch, seed, n,
                                         budget):
    """The kernel's pair accumulator (counts, weight sums, per-edge
    supports, also with the accumulator restricted to the edges) and
    the triangle fold's corner credits equal Python-set brute force on
    random graphs with a hub and isolated nodes, and on a graph with no
    edges; a ``budget`` of 20 wedges per chunk (the fold forced) merges
    several chunks, None enumerates one."""
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
    if budget:
        monkeypatch.setattr(graph, "_WEDGE_BYTES", HUGE // budget)
        monkeypatch.setattr(graph, "_wedge_fold_ok", lambda *a: True)
    E = _random_edges(seed, n) if n else set()
    cn, ra, tri = _brute(E, n)
    a = np.array([a for a, _ in sorted(E)], np.int64)
    b = np.array([b for _, b in sorted(E)], np.int64)
    u, v = graph._adjacency_codes(a, b, n)
    deg = np.bincount(u, minlength=n)
    chunks = sum(1 for _ in graph._wedge_chunks(u, v))
    if budget is None:
        assert chunks <= 1
    elif n > 9:
        assert chunks > 3
    acc = graph._wedge_fold(u, v, n, weight=(1 << 20) // np.maximum(deg, 1))
    key = acc.column("key").to_numpy()
    got = {(int(k // n), int(k % n)): (c, w) for k, c, w in zip(
        key, acc.column("n").to_pylist(), acc.column("w").to_pylist())}
    assert got == {k: (cn[k], ra[k]) for k in cn}
    assert (np.diff(key) > 0).all()
    sup = graph._support(acc, a * n + b)
    assert sup.tolist() == [cn.get(e, 0) for e in sorted(E)]
    cut = graph._wedge_fold(u, v, n, edges=a * n + b)
    assert set(cut.column("key").to_pylist()) <= set((a * n + b).tolist())
    assert graph._support(cut, a * n + b).tolist() == sup.tolist()
    src = rd.from_arrow(pa.table({"a": a, "b": b})).materialize()
    nodes, _, credits = graph._triangles_fold(src, "a", "b", "tri")
    assert dict(zip(nodes.to_pylist(), credits.tolist())) == {
        x: tri[x] for x in nodes.to_pylist()}
    assert all(tri[x] == 0 for x in set(range(n)) - set(nodes.to_pylist()))


def _traced_peak(fn, *args, **kwargs) -> int:
    """The ``tracemalloc`` peak of ``fn(*args, **kwargs)`` above the
    bytes traced when it starts: numpy's allocations, which hold every
    array the pair kernel builds."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kw", ["plain", "weight", "edges"])
def test_wedge_fold_bytes_within_budget(monkeypatch, kw):
    """In bytes, not wedges: a star's wedges are one chunk, so its whole
    fold (enumeration, key and weight columns, merge and accumulator)
    fits the cap at ``_WEDGE_BYTES`` per wedge; a sparse random graph,
    whose accumulator bound sets its tightest cap, folds there in
    several chunks and peaks within the stated 3.5x the cap (the
    accumulator's merge plus one chunk)."""
    def fold(u, v, n):
        deg = np.bincount(u, minlength=n)
        arg = {"plain": {},
               "weight": {"weight": (1 << 20) // np.maximum(deg, 1)},
               "edges": {"edges": u[u < v] * n + v[u < v]}}[kw]
        return _traced_peak(graph._wedge_fold, u, v, n, **arg)

    leaves = 400
    u, v = graph._adjacency_codes(np.zeros(leaves, np.int64),
                                  np.arange(1, leaves + 1), leaves + 1)
    cap = leaves * (leaves - 1) // 2 * graph._WEDGE_BYTES
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    assert fold(u, v, leaves + 1) <= cap

    n = 3000
    x = np.random.default_rng(6).integers(0, n, (12000, 2))
    x = x[x[:, 0] != x[:, 1]]
    u, v = graph._adjacency_codes(x.min(1), x.max(1), n)
    d = np.bincount(u, minlength=n)
    c2 = d * (d - 1) // 2
    cap = max(min(int(c2.sum()), n * (n - 1) // 2) * 24,
              int(c2.max()) * graph._WEDGE_BYTES)
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
    assert graph._wedge_fold_ok("t", u, n)
    assert sum(1 for _ in graph._wedge_chunks(u, v)) > 4
    assert fold(u, v, n) <= 3.5 * cap


def _star_ring(leaves: int = 40) -> pa.Table:
    """A hub tied to ``leaves`` leaves that also form a ring, ten of
    them a clique: the hub's C(leaves, 2) wedges alone nearly fill the
    wedge bound, and the clique closes triangles under any
    orientation."""
    E = sorted({(0, i) for i in range(1, leaves + 1)}
               | {(min(i, i % leaves + 1), max(i, i % leaves + 1))
                  for i in range(1, leaves + 1)}
               | {(i, j) for i in range(1, 11) for j in range(i + 1, 11)})
    return pa.table({"subj": [f"E{a:02d}" for a, _ in E],
                     "pred": ["co_occurs"] * len(E),
                     "obj": [f"E{b:02d}" for _, b in E]})


WEDGE_OPS = ["clustering_coefficients", "common_neighbors", "jaccard_links",
             "ktruss", "link_prediction_ra", "local_bridges",
             "triangle_counts"]


@pytest.mark.parametrize("op", WEDGE_OPS)
def test_wedge_budget_hub_star(ray_session, monkeypatch, caplog, op):
    """At the tightest fold cap (the larger of the wedge bound's bytes
    and the largest center's), the op folds and every chunk the kernel
    builds stays within the budget FOLD_MAX_BYTES // _WEDGE_BYTES; one
    byte lower, the op logs ``exchange``, enumerates no wedge on the
    driver and gives the same rows."""
    import re

    caplog.set_level(logging.INFO, logger="ray_kg")
    shape, call = EXCHANGE_OPS[op]
    ds = rd.from_arrow(shape(_star_ring())).materialize()
    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
    def log() -> str:
        return "\n".join(r.getMessage() for r in caplog.records)

    call(ds)
    why = (r"wedge bound (\d+) rows x 24 B, largest center (\d+) wedges "
           r"x 100 B")
    bound, top = map(int, re.search(rf"^{op}: fold \({why}", log(),
                                    re.M).groups())
    tight = max(bound * 24, top * 100)
    chunks = []
    real = graph._wedge_chunks

    def spy(u, v):
        for c, p, q in real(u, v):
            chunks.append(len(c))
            yield c, p, q

    monkeypatch.setattr(graph, "_wedge_chunks", spy)
    runs = {}
    for cap, path in ((tight, "fold"), (tight - 1, "exchange")):
        caplog.clear()
        n_driver = len(chunks)
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        runs[path] = _rows(call(ds))
        assert re.search(
            rf"^{op}: {path} \(wedge bound {bound} rows x 24 B, largest "
            rf"center {top} wedges x 100 B, cap={cap}\)", log(), re.M), log()
        if path == "fold":
            assert chunks and max(chunks) <= cap // 100, (chunks, cap)
        else:  # the wedges outgrew the cap, not the edges: none is
            # enumerated on the driver
            assert len(chunks) == n_driver, chunks
            assert not re.search(r"^(triangles\.)?wedges: fold", log(),
                                 re.M), log()
    if op not in ("triangle_counts", "clustering_coefficients"):
        assert len(chunks) > 1  # the hub and the ring took two chunks
    assert runs["fold"][0].equals(runs["exchange"][0])
    assert runs["fold"][1].equals(runs["exchange"][1])


def test_local_bridges_self_loop_and_reversed_rows(ray_session,
                                                   monkeypatch):
    """Rows in either orientation, an undirected edge given twice and a
    self-loop row: on both paths each row gets its common neighbors
    over the distinct adjacency, the endpoints never counted."""
    subj = ["A", "B", "A", "C", "B", "D", "A"]
    obj = ["B", "A", "C", "C", "C", "A", "A"]
    nb: dict = {}
    for s, o in zip(subj, obj):
        nb.setdefault(s, set()).add(o)
        nb.setdefault(o, set()).add(s)
    want = sorted((s, o, len((nb[s] & nb[o]) - {s, o}))
                  for s, o in zip(subj, obj))
    assert any(n == 0 for *_, n in want) and ("A", "A", 3) in want
    t = pa.table({"subj": subj, "pred": ["co_occurs"] * len(subj),
                  "obj": obj})
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        _, got = _rows(graph.local_bridges(rd.from_arrow(t)))
        rows = got.to_pylist()
        assert sorted((r["subj"], r["obj"], r["n_common"])
                      for r in rows) == want, cap
        assert all(r["is_bridge"] == (r["n_common"] == 0) for r in rows)
