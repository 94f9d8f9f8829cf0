"""Run a load-once inference stage as a stateless task map.

``map_stage(ds, MentionTagger, {...}, batch_size=1024)`` runs the stage
class over Ray *tasks* (``map_batches`` with ``num_cpus=1``), not over an
actor pool.  The stage is built once per worker process and kept in a
small process-wide cache keyed by a hash of the class and its
constructor arguments.  The driver hashes the arguments and ``ray.put``s
them once; a task that finds its key cached never fetches them, and one
that misses fetches them and builds the stage.  Ray reuses worker
processes across tasks and across Datasets, so a later build over the
same arguments starts warm.

Tasks hold a CPU only while they run, so a stage reserves nothing for
its lifetime and needs no pool size that leaves room for the readers
feeding it (the actor-pool deadlock of CLAUDE.md perf rule 3).
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict

import ray
import ray.data as rd

from clinicaltransformerner_ray.arrowutil import FOLD_MAX_BYTES

#: built stages kept per worker process; the least recently used goes
#: first.  A process rarely sees more than the flagship's one stage, so
#: the bound only stops argument sets that come and go from piling up.
STAGE_CACHE_MAX = 4

#: key -> built stage, per process
_STAGES: OrderedDict = OrderedDict()


def stage_key(stage_cls: type, kwargs: dict) -> str:
    """Content hash of a stage class and its constructor arguments: two
    calls share a cached stage only when both are equal.  An Arrow table
    argument (the alias table) pickles as its buffers, so two reads of
    one file share a key."""
    blob = pickle.dumps((stage_cls.__module__, stage_cls.__qualname__,
                         sorted(kwargs.items())), protocol=5)
    return hashlib.sha256(blob).hexdigest()


def cached_stage(key: str, stage_cls: type, kwargs_ref):
    """This process's stage for ``key``, built from ``ray.get(kwargs_ref)``
    on a miss."""
    stage = _STAGES.get(key)
    if stage is None:
        stage = stage_cls(**ray.get(kwargs_ref))
        _STAGES[key] = stage
        while len(_STAGES) > STAGE_CACHE_MAX:
            _STAGES.popitem(last=False)
    else:
        _STAGES.move_to_end(key)
    return stage


def map_stage(ds: rd.Dataset, stage_cls: type, kwargs: dict, *,
              batch_size: int | None, num_gpus: float = 0.0) -> rd.Dataset:
    """``ds.map_batches`` over ``stage_cls(**kwargs)`` as a task map with
    Arrow batches.  The operator keeps the stage's name
    (``MapBatches(MentionTagger)``).

    Ray maps whole blocks (``batch_size=None``); inside the task the
    stage is called on slices of at most ``batch_size`` rows and each
    result is yielded, so the stage sees the same bound as a Ray
    ``batch_size`` would give it (memory and quarantine granularity)
    while the map stays fusable with a read: Ray Data refuses to fuse a
    read into a map that asks for a minimum number of rows per bundle.
    A task holds one input block, so a read fused into the map gives
    one task per read task (``sources/turns.read_turns``).

    The returned Dataset's ``context.target_max_block_size`` is
    ``FOLD_MAX_BYTES``.  Before a task's first output arrives, Ray
    Data budgets each task's pending output at that size times its
    generator buffer (2 blocks); at the default 128 MiB a 768 MiB
    object store admits one task and the rest start only when it ends.
    Output blocks are cut at that size, so the estimate holds.  The
    context object is shared along the Dataset's lineage, so the
    Datasets it was built from and those built from it see the same
    cap."""
    key = stage_key(stage_cls, kwargs)
    # captured in the closure, not passed as a task argument, so Ray does
    # not resolve the ref before the task runs: a cache hit never fetches
    ref = ray.put(kwargs)

    def run(block):
        stage = cached_stage(key, stage_cls, ref)
        step = batch_size or max(block.num_rows, 1)
        # range(0, 1) on an empty block: the stage still types its output
        for start in range(0, max(block.num_rows, 1), step):
            yield stage(block.slice(start, step))

    run.__name__ = stage_cls.__name__
    extra = {"num_gpus": num_gpus} if num_gpus else {}
    out = ds.map_batches(run, batch_format="pyarrow", batch_size=None,
                         num_cpus=1, **extra)
    out.context.target_max_block_size = FOLD_MAX_BYTES
    return out
