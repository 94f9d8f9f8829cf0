"""Checkpoint-resumable KG build (north rule: per-partition lineage +
metrics enabling checkpoint-resume of any stage).

``checkpointed_mentions`` runs the map-only extraction prefix
(read -> tagger task map, linking in the tagger) shard-by-shard through
``state.lineage.run_resumable`` — each input turn shard becomes one
output mention partition with a lineage record.  A second invocation
skips every finished partition (anti-join on lineage) and retries only
failed/stale ones.

``kg_from_checkpoint`` recomputes the wide suffix (canonical entities +
triples) from the checkpointed mention table — restart never re-runs the
model stage.
"""

from __future__ import annotations

import glob
import os

import ray.data as rd

from clinicaltransformerner_ray.pipelines.kg import (
    canonical_entities,
    detect_mentions,
    emit_triples,
)
from clinicaltransformerner_ray.sources.turns import load_alias_rows
from clinicaltransformerner_ray.state.lineage import (
    read_checkpoint,
    run_resumable,
)
from clinicaltransformerner_ray.synth import ensure_synth


def turn_shards(sf_dir: str) -> list[str]:
    paths = ensure_synth(sf_dir)
    return sorted(glob.glob(os.path.join(paths["turns"], "*.parquet")))


def checkpointed_mentions(sf_dir: str, out_dir: str) -> dict:
    """Resumable extraction: one linked-mention partition per turn shard.
    The concurrent shard pipelines (state/lineage runs several at once)
    share the cluster's CPUs task by task; the tagger is a task map, so
    no shard holds CPUs between batches."""
    alias_rows = load_alias_rows(sf_dir)

    def build(ds: rd.Dataset) -> rd.Dataset:
        ds = ds.select_columns(["conv_id", "turn_idx", "text"])
        return detect_mentions(ds, alias_rows, emit="linked")

    def metrics(tbl) -> dict:
        import pyarrow.compute as pc

        return {
            "n_mentions": tbl.num_rows,
            "n_turns_with_mentions": len(
                pc.unique(tbl.column("turn_idx"))) if tbl.num_rows else 0,
        }

    return run_resumable(turn_shards(sf_dir), build, out_dir,
                         metrics_fn=metrics)


def kg_from_checkpoint(out_dir: str) -> dict[str, rd.Dataset]:
    """Entities + triples recomputed from the mention checkpoint."""
    linked = read_checkpoint(out_dir)
    return {
        "linked": linked,
        "entities": canonical_entities(linked),
        "triples": emit_triples(linked),
    }
