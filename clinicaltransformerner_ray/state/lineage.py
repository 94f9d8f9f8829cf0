"""Per-partition lineage records + checkpoint-resume (north rule).

Layout under ``out_dir``::

    part-0000/                 one output partition DIR per INPUT shard
        <worker-written>.parquet ...
    ...
    _lineage/part-0000.json    {input, fingerprint, rows_in, rows_out,
                                n_quarantined, wall_s, status}

Resume = anti-join against finished lineage records: a partition whose
lineage says ``status == "done"`` AND whose input fingerprint still
matches is skipped; everything else is (re)computed.  This is the
reference's per-file try/except-skip fault isolation
(`src/run_transformer_batch_prediction.py:57-72`) upgraded to durable,
restart-safe bookkeeping.

The checkpoint boundary is the *linked mentions* table — the map-only
prefix of the KG build (read -> tag -> link) that is embarrassingly
shard-parallel.  The wide suffix (entities groupby, triple emission +
dedup) is cheap relative to extraction and recomputes from the
checkpoint, which is how a 100 TB run restarts without re-running the
model stage.

Scale shape: shards run CONCURRENTLY (a driver thread per in-flight
shard, each owning its own streaming Dataset execution), and partition
bytes are written by the WORKERS via ``write_parquet`` — the driver
never holds a partition in memory.  Partition directories appear
atomically (tmp dir + rename) so a crash mid-write never yields a
partition that lineage considers done.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor

import pyarrow.fs as pafs
import pyarrow.parquet as pq

import ray.data as rd

from clinicaltransformerner_ray.sources.turns import (
    ParquetFilesDatasource, read_parquet_files)

#: explicit local filesystem for every read/write in this module —
#: pinning the filesystem skips most of Ray's fsspec probing
_LOCAL_FS = pafs.LocalFileSystem()


def _stabilize_fsspec_http() -> None:
    """Ray's path resolution re-imports ``fsspec.implementations.http``
    on EVERY call, catching only ModuleNotFoundError (aiohttp absent in
    this environment).  Two shard threads racing that always-failing
    import can observe a partially-initialized module and raise a plain
    ImportError Ray does NOT catch, randomly failing shards.  Install a
    sentinel module with an inert HTTPFileSystem class so the import
    succeeds deterministically; it is only ever isinstance-checked for
    local-path workloads, never instantiated."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        stub = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel — never instantiated
            pass

        stub.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = stub


_stabilize_fsspec_http()


def shard_fingerprint(path: str) -> str:
    st = os.stat(path)
    return f"{st.st_size}:{int(st.st_mtime)}"


def _lineage_path(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, "_lineage", f"part-{idx:04d}.json")


def _part_path(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, f"part-{idx:04d}")


def load_lineage(out_dir: str) -> dict[int, dict]:
    """All lineage records currently on disk, keyed by partition index."""
    ldir = os.path.join(out_dir, "_lineage")
    out: dict[int, dict] = {}
    if not os.path.isdir(ldir):
        return out
    for name in os.listdir(ldir):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(ldir, name)) as f:
                rec = json.load(f)
            out[int(name[5:-5])] = rec
    return out


def pending_shards(shards: list[str], out_dir: str) -> list[int]:
    """Indices still to process: no lineage, failed, or stale fingerprint."""
    done = load_lineage(out_dir)
    todo = []
    for i, shard in enumerate(shards):
        rec = done.get(i)
        if (rec is None or rec.get("status") != "done"
                or rec.get("fingerprint") != shard_fingerprint(shard)
                or not os.path.isdir(_part_path(out_dir, i))):
            todo.append(i)
    return todo


def _default_shard_concurrency() -> int:
    """How many shard pipelines to fly at once: one per cluster CPU.
    A shard's read fuses into the task-map tagger as ONE task (the
    footer-planned reader never splits a file), so each in-flight shard
    keeps one CPU busy, and the tagger reserves none between tasks (no
    actor-pool starvation, CLAUDE.md #3).  sf0.01, 4 shards, 4 CPUs:
    0.22 s at one shard at a time (the old one-per-8-CPUs rule),
    0.086 s at four."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(1, cpus)


def _write_part(out: rd.Dataset, part_dir: str) -> int:
    """Workers write the partition parquet; the driver only renames.
    Returns rows_out (from file metadata, never loading the data)."""
    tmp = part_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    out.write_parquet(tmp, filesystem=_LOCAL_FS)
    files = [f for f in os.listdir(tmp) if f.endswith(".parquet")]
    if not files:  # empty partition: keep the schema so readers still work
        schema = out.schema().base_schema
        pq.write_table(schema.empty_table(),
                       os.path.join(tmp, "empty-0.parquet"))
        files = ["empty-0.parquet"]
    rows_out = sum(
        pq.ParquetFile(os.path.join(tmp, f)).metadata.num_rows
        for f in files)
    if os.path.isdir(part_dir):
        shutil.rmtree(part_dir)
    os.replace(tmp, part_dir)
    return rows_out


def run_resumable(
    shards: list[str],
    build,                      # Callable[[rd.Dataset], rd.Dataset]
    out_dir: str,
    *,
    metrics_fn=None,            # Callable[[pa.Table], dict] extra metrics
    max_concurrent: int | None = None,
) -> dict:
    """Process every not-yet-done input shard through ``build`` and write
    one output partition + lineage record each.  Returns a summary.

    Shards are processed ``max_concurrent`` at a time (driver threads,
    each running its own streaming Dataset; default scales with cluster
    CPUs).  Partition bytes stream from the workers straight to parquet.

    Per-shard failures are quarantined in the lineage record (status
    "failed") and do NOT abort the run — the reference's skip-but-report
    semantics; a later invocation retries exactly the failed shards.
    """
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    todo = pending_shards(shards, out_dir)
    n_done_prior = len(shards) - len(todo)
    results = {"skipped": n_done_prior, "processed": 0, "failed": 0}

    def run_one(i: int) -> bool:
        shard = shards[i]
        rec = {
            "input": shard,
            "fingerprint": shard_fingerprint(shard),
            "status": "running",
        }
        t0 = time.perf_counter()
        ok = False
        try:
            source = ParquetFilesDatasource([shard], None)
            rows_in = source.num_rows  # parquet footer only
            ds = read_parquet_files(source)
            out = build(ds)
            rows_out = _write_part(out, _part_path(out_dir, i))
            rec.update({
                "status": "done",
                "rows_in": rows_in,
                "rows_out": rows_out,
                "wall_s": round(time.perf_counter() - t0, 3),
            })
            if metrics_fn is not None:
                # metrics read the written partition back (O(shard
                # output), column-pruned by the metrics fn if it cares);
                # for huge shards compute metrics inside `build` instead
                rec["metrics"] = metrics_fn(
                    pq.read_table(_part_path(out_dir, i)))
            ok = True
        except Exception as ex:  # quarantine, don't abort the job
            rec.update({
                "status": "failed",
                "error": repr(ex)[:500],
                "wall_s": round(time.perf_counter() - t0, 3),
            })
        tmp = _lineage_path(out_dir, i) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(rec, f)
        os.replace(tmp, _lineage_path(out_dir, i))
        return ok

    workers = max(1, min(max_concurrent or _default_shard_concurrency(),
                         len(todo) or 1))
    if workers == 1:
        outcomes = [run_one(i) for i in todo]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, todo))
    results["processed"] = sum(outcomes)
    results["failed"] = len(outcomes) - sum(outcomes)
    return results


def read_checkpoint(out_dir: str) -> rd.Dataset:
    """Dataset over all done partitions of a checkpointed stage."""
    done = load_lineage(out_dir)
    files = []
    for i, rec in sorted(done.items()):
        if rec.get("status") != "done":
            continue
        part = _part_path(out_dir, i)
        files.extend(sorted(
            os.path.join(part, f) for f in os.listdir(part)
            if f.endswith(".parquet")))
    return rd.read_parquet(files, filesystem=_LOCAL_FS)
