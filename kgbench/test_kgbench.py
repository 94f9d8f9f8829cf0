"""The benchmark's own tests: ``python -m pytest kgbench -q``.

None of them starts Ray; the oracle comparison runs DuckDB at a small size.
"""

from __future__ import annotations

import json
import os
import time

import duckdb
import pyarrow as pa

from kgbench import expected, gen, harness, run

SMALL = gen.Shape(n_turns=400, n_entities=40, zipf=0.8, mega_frac=0.05,
                  conv_mu=2.5, conv_sigma=0.6, long_frac=0.01, fill_lo=2,
                  fill_hi=12, ent_base=1, ent_lam=1.5)


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    a, b, c = gen.generate(SMALL, 3), gen.generate(SMALL, 3), \
        gen.generate(SMALL, 4)
    for x, y in zip(a, b):
        assert x.equals(y)
    assert not a[0].equals(c[0])
    assert not a[2].equals(c[2])


def test_generator_keeps_the_tagging_invariants():
    turns, aliases, mentions = gen.generate(SMALL, 5)
    alias_words = [a.split(" ") for a in aliases.column("alias").to_pylist()]
    flat = [w for ws in alias_words for w in ws]
    assert len(flat) == len(set(flat)), "an alias word is reused"
    by_word = {w: i for i, ws in enumerate(alias_words) for w in ws}
    injected = {}
    for row in mentions.to_pylist():
        key = (row["conv_id"], row["turn_idx"])
        injected.setdefault(key, []).append(row)
    for row in turns.to_pylist():
        words = row["text"].lower().split()
        # an alias word occurs only as part of its whole alias, and no two
        # aliases touch: every alias-word run is exactly one alias
        i, found = 0, {}
        while i < len(words):
            if words[i] not in by_word:
                i += 1
                continue
            a = by_word[words[i]]
            n = len(alias_words[a])
            assert words[i:i + n] == alias_words[a]
            assert i + n == len(words) or words[i + n] not in by_word
            found[a] = found.get(a, 0) + 1
            i += n
        want = {by_word[m["surface_norm"].split(" ")[0]]: m["n"]
                for m in injected.get((row["conv_id"], row["turn_idx"]), [])}
        assert found == want


def test_expected_answers_equal_the_full_oracle(tmp_path, monkeypatch):
    """The generator's mention record stands in for the oracle's
    turns x aliases mention CTE without changing any answer."""
    from clinicaltransformerner_ray import synth

    import __ray_entry__ as entry

    monkeypatch.setattr(synth, "CACHE_ROOT", str(tmp_path))
    sf_dir = str(tmp_path / gen.input_name(SMALL, 9))
    gen.write_inputs(sf_dir, SMALL, 9)
    outputs = {**expected.BUILD_QUERIES, **expected.GRAPH_QUERIES}
    got = expected.ensure_expected(sf_dir, outputs)
    full = entry.oracle_sql_for(sf_dir)
    con = duckdb.connect()
    for name, query in outputs.items():
        want = expected.canon_hash(con.execute(full[query]).arrow())
        assert got[name] == want, name
    assert got["triples"]["rows"] > 0


def test_canon_hash_ignores_row_and_column_order_and_int_width():
    t = pa.table({"b": pa.array([2, 1], pa.int32()), "a": ["y", "x"]})
    u = pa.table({"a": ["x", "y"], "b": pa.array([1, 2], pa.int64())})
    assert expected.canon_hash(t) == expected.canon_hash(u)
    v = pa.table({"a": ["x", "y"], "b": pa.array([1, 3], pa.int64())})
    assert expected.canon_hash(v) != expected.canon_hash(u)


def test_a_planted_wrong_answer_counts_as_failed():
    right = pa.table({"x": [1, 2, 3]})
    check = run._checker({"out": expected.canon_hash(right)})
    records = harness.closed_loop(
        lambda: {"out": pa.table({"x": [1, 2, 4]})}, check, 0, 5)
    assert len(records) == 1 and "out: got" in records[0]["error"]
    ok = harness.closed_loop(lambda: {"out": right}, check, 0, 5)
    assert ok[0]["error"] is None


def test_a_planted_timeout_counts_as_failed():
    t0 = time.perf_counter()
    rec = harness.run_op(lambda: time.sleep(30), lambda out: None, 0.3)
    assert time.perf_counter() - t0 < 5
    assert "time limit" in rec["error"]


def test_an_operation_that_raises_counts_as_failed():
    def boom():
        raise ValueError("engine failure")

    rec = harness.run_op(boom, lambda out: None, 5)
    assert "engine failure" in rec["error"]


def _load_benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_every_workload_and_metric():
    spec = _load_benchmark_json()
    assert spec["command"] == ["python3", "kgbench/run.py"]
    assert spec["paths"] == ["kgbench"]
    assert {w["name"] for w in spec["workloads"]} == {"kg_flagship",
                                                      "kg_dense"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {"op_s", "triples_per_s", "setup_s", "peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"] for m in spec["per_layer"]}
    named = {
        "read.s", "read.rows", "read.bytes",
        "tagger.s", "tagger.udf_s", "tagger.rows_in",
        "tagger.mentions_out", "tagger.quarantined",
        "linker.s", "linker.udf_s", "linker.rows",
        "linker.lexicon_hit_frac",
        "entities.s", "entities.rows_in", "entities.rows_out",
        "entities.sort_wait_s", "entities.sort_work_s",
        "triples.s", "triples.evidence", "triples.rows_out",
        "triples.sort_wait_s", "triples.sort_work_s",
        "graph.edges_in", "trace.overhead_s",
    } | {f"graph.{f}.s" for f in expected.GRAPH_QUERIES}
    assert named <= layers
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"]), m["name"]

