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

#: built stages kept per worker process; the least recently used goes
#: first.  A process rarely sees more than the flagship's one stage, so
#: the bound only stops argument sets that come and go from piling up.
STAGE_CACHE_MAX = 4

#: key -> built stage, per process
_STAGES: OrderedDict = OrderedDict()


def stage_key(stage_cls: type, kwargs: dict) -> str:
    """Content hash of a stage class and its constructor arguments: two
    calls share a cached stage only when both are equal."""
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
    (``MapBatches(MentionTagger)``)."""
    key = stage_key(stage_cls, kwargs)
    # captured in the closure, not passed as a task argument, so Ray does
    # not resolve the ref before the task runs: a cache hit never fetches
    ref = ray.put(kwargs)

    def run(batch):
        return cached_stage(key, stage_cls, ref)(batch)

    run.__name__ = stage_cls.__name__
    extra = {"num_gpus": num_gpus} if num_gpus else {}
    return ds.map_batches(run, batch_format="pyarrow", batch_size=batch_size,
                          num_cpus=1, **extra)
