"""Transcript table source.

Reads the synthesized `turns` Parquet (schema per BASELINE.json
input_hint) with column pruning at the read — only the columns a stage
needs leave storage.  Alias broadcast rows load driver-side once.

The read starts one task per file, or one per :data:`READ_TASK_TURNS`
turns when that is fewer, so it fuses with the stage that maps it
(``stages/stage_map.map_stage``): Ray Data refuses to fuse a read that
it splits further (``SplitBlocks``), and left to choose it would split
the files into 2 x CPUs blocks.
"""

from __future__ import annotations

import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd

from clinicaltransformerner_ray.arrowutil import LOG
from clinicaltransformerner_ray.synth import ensure_synth

TURN_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

#: turns per read task when the files hold few: ``read_turns`` starts
#: ``min(files, ceil(turns / READ_TASK_TURNS))`` tasks.  It is the
#: MentionTagger's batch size, so a fused read -> tagger task tags about
#: a full batch or more.  Without this floor kg_dense's 2,000 turns in
#: 4 files ran as 4 tasks, each in a worker that imports ray.data, and
#: peak RSS rose by 20% for no gain in time.
READ_TASK_TURNS = 1024


def read_turns(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    """The turns table as a Dataset of ``min(files, ceil(turns /
    READ_TASK_TURNS))`` read tasks (turn count from the Parquet footers),
    so each task reads whole files and Ray adds no ``SplitBlocks``.
    Logs the file, turn and task counts and ``READ_TASK_TURNS`` (as
    ``batch_size``) through ``arrowutil.LOG``."""
    path = ensure_synth(sf_dir)["turns"]
    meta = pads.dataset(path, format="parquet")
    n_files, n_turns = len(meta.files), meta.count_rows()
    tasks = max(1, min(n_files, -(-n_turns // READ_TASK_TURNS)))
    LOG.info("read_turns: %d tasks (files=%d, turns=%d, batch_size=%d)",
             tasks, n_files, n_turns, READ_TASK_TURNS)
    return rd.read_parquet(path, columns=columns or TURN_COLUMNS,
                           override_num_blocks=tasks)


def load_alias_rows(sf_dir: str) -> list[dict]:
    """Small side table (the linker broadcast) — loaded driver-side,
    shipped to actors via one ray.put."""
    paths = ensure_synth(sf_dir)
    return pq.read_table(paths["aliases"]).to_pylist()
