"""The fused read -> tagger task map (``sources/turns.read_turns`` and
``stages/stage_map.map_stage``): the read runs one task per file, or
one per ``READ_TASK_TURNS`` turns if fewer, and fuses with the stage, the
stage never sees more than ``batch_size`` rows per call, the task count
does not change the answer, and the read logs what it chose."""

from __future__ import annotations

import hashlib
import logging

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clinicaltransformerner_ray.sources import turns as turns_src
from clinicaltransformerner_ray.stages.stage_map import map_stage

SF = "/root/testdata/sf0.001"
COLS = ["conv_id", "turn_idx", "text"]


@pytest.fixture(scope="module")
def synth():
    from clinicaltransformerner_ray.synth import ensure_synth

    p = ensure_synth(SF)
    return (pq.read_table(p["aliases"]).to_pylist(),
            pq.read_table(p["turns"], columns=COLS))


def _ops(ds) -> list[str]:
    return [line for line in ds.stats().splitlines()
            if line.startswith("Operator")]


def _to_table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _canon_hash(tbl: pa.Table) -> str:
    cols = sorted(tbl.column_names)
    rows = tbl.select(cols).sort_by([(c, "ascending") for c in cols])
    return hashlib.md5(repr(rows.to_pylist()).encode()).hexdigest()


def test_flagship_read_fuses_into_the_tagger(ray_session):
    """``kg_pipeline``'s linked table comes from one fused
    ``ReadParquetFiles->MapBatches(MentionTagger)`` operator; no
    SplitBlocks."""
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    ops = _ops(kg_pipeline(SF)["linked"])
    assert len(ops) == 1, ops
    assert "ReadParquetFiles->MapBatches(MentionTagger)" in ops[0]
    assert not any("SplitBlocks" in op for op in ops)


def test_read_turns_logs_and_floors_tasks(ray_session, synth, caplog,
                                          monkeypatch):
    """One ``ray_kg`` record names the file, turn and task counts and the
    floor; the task count is ``min(files, ceil(turns / floor))``, and a
    smaller floor gives one fused task per file."""

    class Identity:
        def __call__(self, batch: pa.Table) -> pa.Table:
            return batch

    _, turns = synth
    n_files = len(pq.ParquetDataset(turns_src.ensure_synth(SF)["turns"])
                  .files)
    n = turns.num_rows
    floor = turns_src.READ_TASK_TURNS
    want = min(n_files, -(-n // floor))
    caplog.set_level(logging.INFO, logger="ray_kg")
    ds = turns_src.read_turns(SF, columns=COLS).materialize()
    msgs = [r.getMessage() for r in caplog.records if r.name == "ray_kg"]
    assert msgs == [f"read_turns: {want} tasks (files={n_files}, "
                    f"turns={n}, batch_size={floor})"]
    assert ds.count() == n

    monkeypatch.setattr(turns_src, "READ_TASK_TURNS", 1)
    caplog.clear()
    ds = turns_src.read_turns(SF, columns=COLS)
    out = map_stage(ds, Identity, {}, batch_size=1024).materialize()
    ops = _ops(out)
    assert len(ops) == 1 and "ReadParquetFiles->MapBatches(Identity)" in ops[0]
    assert f"{n_files} tasks executed" in ops[0]
    assert out.count() == n
    assert caplog.records[-1].getMessage().startswith(
        f"read_turns: {n_files} tasks")


def test_stage_sees_at_most_batch_size_rows(ray_session):
    """One block of 2.5 x ``batch_size`` rows runs as one task whose
    stage is called on slices of at most ``batch_size`` rows, and every
    row is seen exactly once."""
    import ray.data as rd

    class Seen:
        def __call__(self, batch: pa.Table) -> pa.Table:
            return pa.table({"id": batch.column("id"),
                             "seen": [batch.num_rows] * batch.num_rows})

    bs = 100
    n = bs * 5 // 2
    ds = rd.from_arrow(pa.table({"id": pa.array(range(n), pa.int64())}))
    out = map_stage(ds, Seen, {}, batch_size=bs).materialize()
    assert "1 tasks executed" in _ops(out)[-1]
    got = _to_table(out)
    assert sorted(got.column("id").to_pylist()) == list(range(n))
    assert sorted(set(got.column("seen").to_pylist())) == [bs // 2, bs]


def test_task_count_does_not_change_the_tagger_output(ray_session, synth,
                                                      tmp_path):
    """The linked mentions and the quarantine table of one task equal
    those of four, with one poisoned turn quarantined in both."""
    import ray.data as rd

    from clinicaltransformerner_ray.stages.tagger import (
        MentionTagger, read_quarantine)

    class PoisonTagger(MentionTagger):
        """Fails featurize on any batch holding a POISON turn."""

        def _featurize(self, texts):
            if any(t is not None and t.startswith("POISON")
                   for t in texts.to_pylist()):
                raise ValueError("poisoned turn")
            return super()._featurize(texts)

    rows, turns = synth
    text = turns.column("text").to_pylist()
    text[len(text) // 2] = "POISON " + text[len(text) // 2]
    turns = turns.set_column(2, "text", pa.array(text, pa.string()))
    n = turns.num_rows
    per = -(-n // 4)
    outs, quarantines = [], []
    for name, blocks in (("one", [turns]),
                         ("four", [turns.slice(i * per, per)
                                   for i in range(4)])):
        qdir = str(tmp_path / name)
        ds = map_stage(rd.from_arrow(blocks), PoisonTagger, {
            "alias_rows": rows, "quarantine_dir": qdir, "emit": "linked"},
            batch_size=300).materialize()
        assert f"{len(blocks)} tasks executed" in _ops(ds)[-1]
        assert ds.count() > 0
        outs.append(_canon_hash(_to_table(ds)))
        q = _to_table(read_quarantine(qdir))
        assert q.num_rows == 1
        quarantines.append(_canon_hash(q.select(["conv_id", "turn_idx",
                                                 "stage"])))
    assert outs[0] == outs[1]
    assert quarantines[0] == quarantines[1]


def test_resume_shard_read_fuses_into_the_tagger(ray_session, tmp_path,
                                                 monkeypatch):
    """``state/lineage.run_resumable`` reads each turn shard through the
    footer-planned reader, so a shard's linked build is one fused
    operator of one task, with no SplitBlocks."""
    from clinicaltransformerner_ray.pipelines import resume
    from clinicaltransformerner_ray.state import lineage

    shards = resume.turn_shards(SF)
    monkeypatch.setattr(resume, "turn_shards", lambda sf_dir: shards[:1])
    seen = []
    real = lineage._write_part

    def write_part(out, part_dir):
        out = out.materialize()
        seen.append(_ops(out))
        return real(out, part_dir)

    monkeypatch.setattr(lineage, "_write_part", write_part)
    r = resume.checkpointed_mentions(SF, str(tmp_path / "ckpt"))
    assert r == {"skipped": 0, "processed": 1, "failed": 0}
    (ops,) = seen
    assert len(ops) == 1, ops
    assert "ReadParquetFiles->" in ops[0]
    assert "MapBatches(MentionTagger)" in ops[0]
    assert "1 tasks executed" in ops[0]
    assert not any("SplitBlocks" in op for op in ops)
