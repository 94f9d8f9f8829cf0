"""The graph family's fold-or-exchange choice (``arrowutil.driver_table``
under ``graph.FOLD_MAX_BYTES``): distributed (no-driver-node-state)
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

from clinicaltransformerner_ray.pipelines import graph
from clinicaltransformerner_ray.pipelines.graph import (
    SCALE, jaccard_links, label_propagation, pagerank)

HUGE = 1 << 40


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
                                                        monkeypatch):
    triples = rd.from_arrow(_dense_triples()).repartition(4)
    ref = pagerank(triples, iters=4)
    assert isinstance(ref, pa.Table)  # fold path
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 0)
    out = pagerank(triples, iters=4)
    assert isinstance(out, rd.Dataset)  # distributed path exercised
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
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 0)
    out = pagerank(triples, iters=3)
    # an input with no rows folds on any cap (a typed empty table)
    df = out.to_pandas()  # both pa.Table and Dataset expose to_pandas
    assert len(df) == 0
    assert set(df.columns) == {"entity_id", "rank_e12"}


def test_jaccard_links_distributed_bitwise_matches_broadcast(ray_session,
                                                            monkeypatch):
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
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 0)
    out = (jaccard_links(edges, min_common=2)
           .to_pandas().sort_values(["subj", "obj"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(ref, out)
    # inclusion-exclusion invariant holds row-wise
    assert (out["union_size"]
            == out["deg_a"] + out["deg_b"] - out["n_common"]).all()


def test_lpa_distributed_bitwise_matches_broadcast(ray_session,
                                                   monkeypatch):
    pairs = _dense_triples().filter(
        pa.compute.equal(pa.compute.field("pred"), "co_occurs"))
    edges = rd.from_arrow(pa.table({
        "subj": pairs.column("subj"),
        "obj": pairs.column("obj"),
    })).repartition(4)
    ref = label_propagation(edges, rounds=4)
    assert isinstance(ref, pa.Table)  # fold path
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 0)
    out = label_propagation(edges, rounds=4)
    assert isinstance(out, rd.Dataset)  # distributed path exercised
    a = (ref.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    b = (out.to_pandas().sort_values("entity_id")
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert a["community"].nunique() < len(a)  # labels actually spread


def test_ktruss_matches_bruteforce(ray_session, monkeypatch):
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
    for k in (3, 4):
        want = brute(k, 3)
        monkeypatch.setattr(graph, "FOLD_MAX_BYTES", HUGE)
        got = ktruss(edges, k=k, rounds=3).to_pandas()  # fold
        assert {(r.subj, r.obj): r.support
                for r in got.itertuples()} == want, k
        monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 0)
        dist = ktruss(edges, k=k, rounds=3).to_pandas()  # distributed
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


#: op -> (input shape, call); the seven ops with an exchange path
EXCHANGE_OPS = {
    "pagerank": (lambda t: t, lambda d: pagerank(d, iters=4)),
    "triangle_counts": (_int_pairs, graph.triangle_counts),
    "common_neighbors": (_pairs, lambda d: graph.common_neighbors(
        d, min_common=1)),
    "jaccard_links": (_pairs, lambda d: jaccard_links(d, min_common=1)),
    "clustering_coefficients": (_int_pairs,
                                graph.clustering_coefficients),
    "label_propagation": (_pairs, lambda d: label_propagation(d, rounds=4)),
    "ktruss": (_pairs, lambda d: graph.ktruss(d, k=3, rounds=3)),
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


def _run(monkeypatch, op: str, graph_name: str, cap: int):
    shape, call = EXCHANGE_OPS[op]
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", cap)
    return call(rd.from_arrow(shape(_graph(graph_name))).repartition(3))


@pytest.mark.parametrize("graph_name", ["formula", "hub", "empty"])
@pytest.mark.parametrize("op", sorted(EXCHANGE_OPS))
def test_fold_equals_exchange(ray_session, monkeypatch, op, graph_name):
    """Cap 0 forces the exchange path, a huge cap the fold: same rows;
    same schema whenever the exchange's blocks carry one (its empty
    blocks may not); the fold's return type is the op's documented
    one.  An input with no rows folds on either cap and gives a typed
    empty result with the non-empty fold's schema."""
    fold = _run(monkeypatch, op, graph_name, HUGE)
    exch = _run(monkeypatch, op, graph_name, 0)
    table_ops = {"pagerank", "label_propagation"}
    assert isinstance(fold, pa.Table) == (op in table_ops)
    fs, ft = _rows(fold)
    es, et = _rows(exch)
    assert fs is not None  # the fold always has a schema
    if graph_name == "empty":
        assert ft.num_rows == 0 and isinstance(exch, type(fold))
        ref_schema, _ = _rows(_run(monkeypatch, op, "hub", HUGE))
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


#: op -> (input shape, call) for the nine ops with no exchange path
FOLD_ONLY_OPS = {
    "khop_reachability": (_pairs, graph.khop_reachability),
    "kcore": (_pairs, graph.kcore),
    "link_negatives": (lambda t: t, graph.link_negatives),
    "degree_assortativity": (lambda t: t, graph.degree_assortativity),
    "hits_scores": (lambda t: t, graph.hits_scores),
    "random_walks": (lambda t: t, graph.random_walks),
    "local_bridges": (lambda t: t, graph.local_bridges),
    "link_prediction_ra": (lambda t: t, graph.link_prediction_ra),
    "modularity_report": (_pairs, lambda d: graph.modularity_report(
        d, pa.table({"entity_id": pa.array(["E00", "E05"]),
                     "community": pa.array(["C0", "C1"])}))),
}


def test_each_op_logs_its_path(ray_session, monkeypatch, caplog):
    """Every graph op logs ``fold`` or ``exchange`` through ``ray_kg``:
    under the default cap each folds; at cap 0 the seven with an
    exchange path log it and the other nine raise ValueError."""
    caplog.set_level(logging.INFO, logger="ray_kg")
    t = _hub_triples()
    default = graph.FOLD_MAX_BYTES
    for op, (shape, call) in {**EXCHANGE_OPS, **FOLD_ONLY_OPS}.items():
        for cap, path in ((default, "fold"), (0, "exchange")):
            caplog.clear()
            monkeypatch.setattr(graph, "FOLD_MAX_BYTES", cap)
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
    monkeypatch.setattr(graph, "FOLD_MAX_BYTES", 100)
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
