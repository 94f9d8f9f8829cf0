"""The benchmark's operations, untraced and traced layer by layer.

An untraced operation is one call to the workload's public entry point with
its outputs materialized.  A traced operation calls the same layers one at
a time, materializes each output, and records a span around each call plus
the numbers ``Dataset.stats()`` holds for the materialized output.  Spans
are recorded here, around calls into the engine; the engine is not edited.
"""

from __future__ import annotations

import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from __ray_entry__ import _co_pairs
from clinicaltransformerner_ray.pipelines import graph
from clinicaltransformerner_ray.pipelines.kg import (
    canonical_entities,
    detect_mentions,
    emit_triples,
    kg_pipeline,
    link_mentions,
)
from clinicaltransformerner_ray.sources.turns import load_alias_rows, read_turns
from clinicaltransformerner_ray.stages.tagger import read_quarantine


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus named
    counts.  Times are seconds from the tracer's creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value

    def children_seconds(self, name: str) -> float:
        """Summed duration of the direct children of the latest span
        called ``name``."""
        parent = next(s["id"] for s in reversed(self.spans)
                      if s["name"] == name)
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == parent)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.rec = {"id": len(tr.spans), "name": self.name,
                    "parent": tr._stack[-1] if tr._stack else None,
                    "start": time.perf_counter() - tr.t0, "end": None}
        tr.spans.append(self.rec)
        tr._stack.append(self.rec["id"])
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter() - self.tracer.t0
        self.tracer._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.rec["end"] - self.rec["start"]


def to_arrow(out) -> pa.Table:
    """A Dataset's or a table's rows as one Arrow table (driver side)."""
    if isinstance(out, pa.Table):
        return out
    tables = ray.get(out.to_arrow_refs())
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def _materialize(out):
    return out if isinstance(out, pa.Table) else out.materialize()


# -- build workloads -------------------------------------------------------

def build_op(sf_dir: str) -> dict:
    """One untraced build: ``kg_pipeline`` with both outputs computed."""
    out = kg_pipeline(sf_dir)
    return {"triples": out["triples"].materialize(),
            "entities": out["entities"].materialize()}


def _op_stats(ds: rd.Dataset, since: rd.Dataset | None = None) -> list:
    """Per-operator stats of a materialized Dataset, oldest first, without
    the operators that produced ``since`` (its input)."""
    ops = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        ops.extend(summary.operators_stats)

    walk(ds._get_stats_summary())
    return ops[len(_op_stats(since)):] if since is not None else ops


def _udf_s(ops, needle: str) -> float:
    return sum(o.udf_time["sum"] for o in ops
               if needle in o.operator_name and o.udf_time)


def _sort_split(ops) -> tuple[float, float]:
    """(wait, work) seconds over every Sort.  Work is the Sort tasks'
    summed run time; wait is the rest of the gap from the end of the
    operator before the Sort to the start of the one after it (a Sort
    is a barrier, so that gap is on the critical path)."""
    wait = work = 0.0
    i = 0
    while i < len(ops):
        if not ops[i].operator_name.startswith("Sort"):
            i += 1
            continue
        j = i
        while j < len(ops) and ops[j].operator_name.startswith("Sort"):
            j += 1
        w = sum(o.wall_time["sum"] for o in ops[i:j] if o.wall_time)
        before = ops[i - 1].latest_end_time if i else ops[i].earliest_start_time
        after = (ops[j].earliest_start_time if j < len(ops)
                 else ops[j - 1].latest_end_time)
        work += w
        wait += max(0.0, after - before - w)
        i = j
    return wait, work


def traced_build(sf_dir: str, tr: Tracer, quarantine_dir: str) -> dict:
    """The layers ``kg_pipeline`` composes, called one at a time.  Turns
    the tagger fails on are written under ``quarantine_dir`` (emptied
    first) and counted."""
    with tr.span("read") as s:
        alias_rows = load_alias_rows(sf_dir)
        turns = read_turns(sf_dir, columns=["conv_id", "turn_idx", "text"]
                           ).materialize()
    tr.set("read.s", s.seconds)
    tr.set("read.rows", turns.count())
    tr.set("read.bytes", turns.size_bytes())

    with tr.span("tagger") as s:
        shutil.rmtree(quarantine_dir, ignore_errors=True)
        mentions = detect_mentions(turns, alias_rows,
                                   quarantine_dir=quarantine_dir
                                   ).materialize()
    ops = _op_stats(mentions, turns)
    tr.set("tagger.s", s.seconds)
    tr.set("tagger.udf_s", _udf_s(ops, "MentionTagger"))
    tr.set("tagger.rows_in", tr.values["read.rows"])
    tr.set("tagger.mentions_out", mentions.count())
    tr.set("tagger.quarantined",
           to_arrow(read_quarantine(quarantine_dir)).num_rows)

    with tr.span("linker") as s:
        linked = link_mentions(mentions, alias_rows).materialize()
    ops = _op_stats(linked, mentions)
    tr.set("linker.s", s.seconds)
    tr.set("linker.udf_s", _udf_s(ops, "EntityLinker"))
    tr.set("linker.rows", linked.count())
    eid = to_arrow(linked.select_columns(["entity_id"])).column("entity_id")
    nil = pc.sum(pc.starts_with(eid, "ent:")).as_py() or 0
    tr.set("linker.lexicon_hit_frac",
           1.0 - nil / len(eid) if len(eid) else 1.0)

    with tr.span("entities") as s:
        entities = canonical_entities(linked).materialize()
    ops = _op_stats(entities, linked)
    tr.set("entities.s", s.seconds)
    tr.set("entities.rows_in", linked.count())
    tr.set("entities.rows_out", entities.count())
    wait, work = _sort_split(ops)
    tr.set("entities.sort_wait_s", wait)
    tr.set("entities.sort_work_s", work)

    with tr.span("triples") as s:
        triples = emit_triples(linked).materialize()
    ops = _op_stats(triples, linked)
    tr.set("triples.s", s.seconds)
    tr.set("triples.rows_out", triples.count())
    ev = to_arrow(triples.select_columns(["n_evidence"])).column("n_evidence")
    tr.set("triples.evidence", pc.sum(ev).as_py() or 0)
    wait, work = _sort_split(ops)
    tr.set("triples.sort_wait_s", wait)
    tr.set("triples.sort_work_s", work)
    return {"triples": triples, "entities": entities}


# -- graph layer -----------------------------------------------------------

#: the suite, in call order: (function name, input, call)
GRAPH_SUITE = [
    ("pagerank", "triples", lambda t: graph.pagerank(t, iters=5)),
    ("label_propagation", "pairs",
     lambda p: graph.label_propagation(p, rounds=4)),
    ("kcore", "pairs", lambda p: graph.kcore(p, k=2, rounds=12)),
    ("ktruss", "pairs", lambda p: graph.ktruss(p, k=3, rounds=3)),
    ("hits_scores", "triples", graph.hits_scores),
    ("random_walks", "triples", graph.random_walks),
    ("local_bridges", "triples", graph.local_bridges),
    ("link_prediction_ra", "triples", graph.link_prediction_ra),
    ("degree_assortativity", "triples", graph.degree_assortativity),
    ("jaccard_links", "pairs",
     lambda p: graph.jaccard_links(p, min_common=2)),
]


def traced_graph(triples: rd.Dataset, tr: Tracer) -> dict:
    """The suite over a built triple table, with a span per function."""
    with tr.span("graph.pairs") as s:
        pairs = triples.map_batches(_co_pairs, batch_format="pyarrow",
                                    batch_size=1 << 19).materialize()
    tr.set("graph.pairs.s", s.seconds)
    tr.set("graph.edges_in", pairs.count())
    inputs = {"triples": triples, "pairs": pairs}
    out = {}
    for name, src, call in GRAPH_SUITE:
        with tr.span(f"graph.{name}") as s:
            out[name] = _materialize(call(inputs[src]))
        tr.set(f"graph.{name}.s", s.seconds)
    return out
