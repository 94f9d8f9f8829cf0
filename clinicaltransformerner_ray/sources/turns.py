"""Transcript table source.

Reads the synthesized `turns` Parquet (schema per BASELINE.json
input_hint) with column pruning at the read — only the columns a stage
needs leave storage.  The alias table loads driver-side once, as one
Arrow table.

The read starts one task per file, or one per :data:`READ_TASK_TURNS`
turns when that is fewer, so it fuses with the stage that maps it
(``stages/stage_map.map_stage``): Ray Data refuses to fuse a read that
it splits further (``SplitBlocks``), and left to choose it would split
the files into 2 x CPUs blocks.  The tasks come from
:class:`ParquetFilesDatasource`, which plans from the Parquet footers
alone: ``rd.read_parquet`` samples files in remote tasks on every call
to estimate their in-memory size, and that sampling was most of the
read's time on small inputs.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

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


class ParquetFilesDatasource(Datasource):
    """Whole Parquet files, in the given order, split into consecutive
    groups of one read task each (``np.array_split`` of the file list):
    one task per file, or ``ceil(rows / rows_per_task)`` tasks when that
    is fewer.  Each task reads its files with pyarrow and yields them as
    one block.  Row counts and in-memory sizes come from the footers,
    read once here, so planning runs no task and reads no data."""

    def __init__(self, files: list[str], columns: list[str] | None,
                 rows_per_task: int | None = None):
        self._columns = columns
        metas = [pq.read_metadata(f) for f in files]
        self.num_rows = sum(m.num_rows for m in metas)
        self.num_tasks = max(1, min(len(files), -(-self.num_rows
                                                  // rows_per_task)
                                    if rows_per_task else len(files)))
        schema = metas[0].schema.to_arrow_schema() if metas else pa.schema([])
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns],
                               metadata=schema.metadata)
        self._schema = schema
        self._groups = []
        for idx in np.array_split(np.arange(len(files)), self.num_tasks):
            group = [files[i] for i in idx.tolist()]
            self._groups.append((group, BlockMetadata(
                num_rows=sum(metas[i].num_rows for i in idx.tolist()),
                size_bytes=sum(_column_bytes(metas[i], columns)
                               for i in idx.tolist()),
                input_files=group, exec_stats=None)))

    def get_name(self) -> str:
        return "ParquetFiles"

    def estimate_inmemory_data_size(self) -> int:
        return sum(meta.size_bytes for _, meta in self._groups)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        columns = self._columns

        def read(group):
            yield pa.concat_tables(
                [pq.ParquetFile(f).read(columns=columns) for f in group])

        return [ReadTask(lambda g=group: read(g), meta, schema=self._schema)
                for group, meta in self._groups if group]


def _column_bytes(meta: pq.FileMetaData, columns: list[str] | None) -> int:
    """Uncompressed bytes of ``columns`` (all when None) in one file."""
    total = 0
    for r in range(meta.num_row_groups):
        rg = meta.row_group(r)
        for c in range(rg.num_columns):
            col = rg.column(c)
            if columns is None or col.path_in_schema.split(".")[0] in columns:
                total += col.total_uncompressed_size
    return total


def parquet_files(path: str) -> list[str]:
    """A Parquet file, or the sorted ``*.parquet`` files of a directory."""
    if os.path.isdir(path):
        return sorted(os.path.join(path, f) for f in os.listdir(path)
                      if f.endswith(".parquet"))
    return [path]


def read_parquet_files(source: ParquetFilesDatasource) -> "rd.Dataset":
    """The Dataset of ``source``'s read tasks, and no more: Ray gets
    exactly that many blocks to ask for, so it adds no ``SplitBlocks``."""
    return rd.read_datasource(source, override_num_blocks=source.num_tasks)


def read_turns(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    """The turns table as a Dataset of ``min(files, ceil(turns /
    READ_TASK_TURNS))`` read tasks (turn count from the Parquet footers),
    so each task reads whole files and Ray adds no ``SplitBlocks``.
    Logs the file, turn and task counts and ``READ_TASK_TURNS`` (as
    ``batch_size``) through ``arrowutil.LOG``."""
    files = parquet_files(ensure_synth(sf_dir)["turns"])
    source = ParquetFilesDatasource(files, columns or TURN_COLUMNS,
                                    READ_TASK_TURNS)
    LOG.info("read_turns: %d tasks (files=%d, turns=%d, batch_size=%d)",
             source.num_tasks, len(files), source.num_rows, READ_TASK_TURNS)
    return read_parquet_files(source)


def load_alias_rows(sf_dir: str) -> pa.Table:
    """The alias table (alias, type, entity_id, embedding) — loaded
    driver-side as one Arrow table and shipped to the stages through
    one ray.put; each stage builds its state from the columns."""
    return pq.read_table(ensure_synth(sf_dir)["aliases"])
