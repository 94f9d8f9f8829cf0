"""KG construction benchmark: one command, closed-loop build workloads.

    python3 kgbench/run.py --workload kg_flagship --seed 1 --seconds 20 --trace 0

Generates the workload's transcript tables from ``--seed`` (cached under
``.kgbench_data/`` in the checkout).  Set-up starts a local Ray session and
runs one untimed warm-up operation; it does so ``SETUPS`` times, each in a
fresh Ray session, and ``setup_s`` is the median.  Then one client runs
operations back to back for ``--seconds`` seconds, checking every output
against an expected answer that does not come from the engine.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The full result record, in one
versioned schema, and the traced run's spans go to ``.kgbench_out/``.

With ``--trace 1`` the first half of the window runs untraced operations
and the second half traced ones, which call each layer on its own; the
per-layer values are medians over the traced operations, and
``trace.overhead_s`` is the traced median minus the untraced median.  Then
one more operation runs the ``pipelines.graph`` suite over the last traced
build's triples and is checked like the builds.

Workloads (BENCHMARK.json says why each exists):

- ``kg_flagship``: ``kg_pipeline`` on the synthetic corpus's shape;
- ``kg_dense``: ``kg_pipeline`` on short, entity-packed turns over a
  large, skewed lexicon.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, ".kgbench_data")
OUT = os.path.join(ROOT, ".kgbench_out")
SCHEMA = "kgbench.result/1"
#: logical CPUs of the Ray session, whatever the host has: the engine sizes
#: its actor pools from this, so it fixes the plan the benchmark measures
RAY_CPUS = 4
OBJECT_STORE_BYTES = 768 << 20
#: an operation running longer than this counts as failed
OP_LIMIT_S = 60.0
#: cold set-ups per run, each in a fresh Ray session; setup_s is their median
SETUPS = 3
#: AF_UNIX socket paths are limited to 107 bytes and Ray puts its sockets
#: up to 64 characters below its temp dir; a longer checkout path falls
#: back to Ray's default temp dir
MAX_RAY_TMP = 42

# the package under test and this package both import from the checkout
# root, here and (through PYTHONPATH) in Ray's worker processes
sys.path.insert(0, ROOT)
from kgbench import gen, harness  # noqa: E402

FLAGSHIP = gen.Shape(n_turns=12_000, n_entities=120, zipf=0.0,
                     mega_frac=0.05, conv_mu=2.2, conv_sigma=0.8,
                     long_frac=0.01, fill_lo=3, fill_hi=39,
                     ent_base=0, ent_lam=1.2)
DENSE = gen.Shape(n_turns=2_000, n_entities=1_500, zipf=0.7,
                  mega_frac=0.05, conv_mu=3.5, conv_sigma=0.6,
                  long_frac=0.0, fill_lo=3, fill_hi=6,
                  ent_base=4, ent_lam=2.0)
WORKLOADS = {"kg_flagship": FLAGSHIP, "kg_dense": DENSE}


def _start_ray() -> None:
    import ray

    # workers start from a fresh interpreter: give them the package path
    # explicitly, whatever directory the benchmark was started from
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {}
    tmp = os.path.join(ROOT, ".kgbench_ray")
    if len(tmp) <= MAX_RAY_TMP:
        kw["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", **kw)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _checker(expected: dict):
    """check(outputs) -> None, or a message naming each output whose
    canonical hash differs from the expected answer."""
    from kgbench.expected import canon_hash
    from kgbench.layers import to_arrow

    def check(out: dict) -> str | None:
        bad = []
        for name, want in expected.items():
            got = canon_hash(to_arrow(out[name]))
            if got != want:
                bad.append(f"{name}: got {got}, want {want}")
        return "; ".join(bad) or None

    return check


def _prepare(workload: str, seed: int, trace: bool) -> tuple[str, dict]:
    """Generated inputs and expected answers for (workload, seed), cached
    under DATA; returns (input dir, expected canonical hashes).  The
    graph suite's answers are needed only by the traced run."""
    from clinicaltransformerner_ray import synth

    from kgbench import expected

    shape = WORKLOADS[workload]
    # the engine reads `synth.CACHE_ROOT/<name>`, and <name> must start
    # with "sf"; this prefix never collides with the engine's own sf0.* dirs
    synth.CACHE_ROOT = DATA
    sf_dir = os.path.join(DATA, gen.input_name(shape, seed))
    gen.write_inputs(sf_dir, shape, seed)
    outputs = dict(expected.BUILD_QUERIES)
    if trace:
        outputs.update(expected.GRAPH_QUERIES)
    return sf_dir, expected.ensure_expected(sf_dir, outputs)


def _input_sizes(sf_dir: str) -> dict:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    turns = pq.read_table(os.path.join(sf_dir, "turns"), columns=["text"])
    words = pc.list_value_length(pc.utf8_split_whitespace(turns["text"]))
    return {
        "turns": turns.num_rows,
        "tokens": pc.sum(words).as_py() or 0,
        "lexicon_entries": pq.read_metadata(
            os.path.join(sf_dir, "aliases.parquet")).num_rows,
        "mention_rows": pq.read_metadata(
            os.path.join(sf_dir, "mentions.parquet")).num_rows,
    }


def _stop_ray(rss: harness.RssSampler) -> None:
    import ray

    ray.shutdown()
    harness.reap(set(rss.procs))  # the sampler still adds to it


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    import pyarrow as pa
    import ray

    from kgbench import expected, layers

    t_start = time.perf_counter()
    sf_dir, expect = _prepare(workload, seed, trace)
    phases = {"prepare_s": time.perf_counter() - t_start}
    check = _checker({k: expect[k] for k in expected.BUILD_QUERIES})
    qdir = os.path.join(OUT, "quarantine")
    tr = layers.Tracer()
    window = seconds / 2 if trace else seconds
    setups: list[float] = []
    records: list[dict] = []
    traced: list[dict] = []
    graph_records: list[dict] = []
    layer_values: list[dict] = []
    graph_values: dict = {}
    last_triples = []  # the latest traced build whose answer was right

    def op():
        return layers.build_op(sf_dir)

    def traced_op():
        tr.values = {}
        with tr.span("op"):
            return layers.traced_build(sf_dir, tr, qdir)

    def traced_check(out):
        err = check(out)
        if err is None:
            layer_values.append(
                {**tr.values, "layer_sum": tr.children_seconds("op")})
            last_triples[:] = [out["triples"]]
        return err

    def graph_op():
        tr.values = {}
        with tr.span("graph"):
            return layers.traced_graph(last_triples[0], tr)

    with harness.RssSampler() as rss:
        t0 = time.perf_counter()
        try:
            for i in range(SETUPS):
                if i:
                    _stop_ray(rss)
                t_ray = time.perf_counter()
                _start_ray()
                t_warm = time.perf_counter()
                warm = harness.run_op(op, check, OP_LIMIT_S)
                if warm["error"]:
                    raise RuntimeError(
                        f"warm-up operation failed: {warm['error']}")
                setups.append(t_warm - t_ray + warm["s"])
            t_loop = time.perf_counter()
            phases["setup_wall_s"] = t_loop - t0
            records = harness.closed_loop(op, check, window, OP_LIMIT_S)
            phases["loop_s"] = time.perf_counter() - t_loop
            if trace:
                traced = harness.closed_loop(traced_op, traced_check,
                                             window, OP_LIMIT_S)
                if last_triples:
                    graph_records.append(harness.run_op(
                        graph_op,
                        _checker({k: expect[k]
                                  for k in expected.GRAPH_QUERIES}),
                        OP_LIMIT_S))
                    if graph_records[0]["error"] is None:
                        graph_values = dict(tr.values)
                    last_triples.clear()
        finally:
            t_end = time.perf_counter()
            _stop_ray(rss)
            phases["shutdown_s"] = time.perf_counter() - t_end

    op_s = harness.median_ok(records)
    n_triples = expect["triples"]["rows"]
    everything = records + traced + graph_records
    failed = sum(r["error"] is not None for r in everything)
    result = {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "cpu_count": os.cpu_count(), "ray_cpus": RAY_CPUS,
                 "python": platform.python_version(),
                 "ray": ray.__version__, "pyarrow": pa.__version__},
        "inputs": {**_input_sizes(sf_dir), "triples": n_triples},
        "phases": phases,
        "operations": {
            "attempted": len(everything),
            "failed": failed,
            "failed_frac": failed / len(everything),
            "setup_s": setups,
            "op_s": [r["s"] for r in records],
            "traced_op_s": [r["s"] for r in traced],
            "graph_op_s": [r["s"] for r in graph_records],
            "errors": [r["error"] for r in everything if r["error"]],
        },
        "end_to_end": _metrics({
            "op_s": op_s,
            "triples_per_s": n_triples / op_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss.peak / 2**20,
        }),
    }
    if trace:
        per_layer = {k: statistics.median(v[k] for v in layer_values)
                     for k in layer_values[0]} if layer_values else {}
        per_layer.update(graph_values)
        # calling the layers one at a time, each output materialized,
        # against one untraced call of the entry point
        per_layer["trace.overhead_s"] = per_layer.pop("layer_sum", op_s) - op_s
        result["per_layer"] = _metrics(per_layer)
        result["spans"] = tr.spans
    return result


def _unit(name: str) -> str:
    if name in ("triples_per_s", "peak_rss_mb"):
        return {"triples_per_s": "1/s", "peak_rss_mb": "MB"}[name]
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import clinicaltransformerner_ray  # noqa: F401
        import __ray_entry__  # noqa: F401
    except ImportError as exc:
        print(f"kgbench: engine not importable from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    spans = result.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.json", "w") as f:
            json.dump({"schema": SCHEMA, "spans": spans}, f)
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)

    ops = result["operations"]
    table = dict(result["end_to_end"])
    table["failed_frac"] = {"value": ops["failed_frac"], "unit": "frac"}
    table.update(result.get("per_layer", {}))
    for k, v in table.items():
        print(f"{args.workload:13s} {k:30s} {v['value']:16.4f} {v['unit']}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": ops["failed"] == 0,
                      "attempted": ops["attempted"],
                      "failed": ops["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
