"""The task-map stage runner (``stages/stage_map.py``): each argument set
gets its own cached stage in every worker process, the per-process cache
stays within its bound, and the Ray path's output and quarantine table
equal direct construction of the stage."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clinicaltransformerner_ray.stages import stage_map
from clinicaltransformerner_ray.stages.linker import EntityLinker
from clinicaltransformerner_ray.stages.tagger import (
    MentionTagger, read_quarantine)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def inputs():
    from clinicaltransformerner_ray.synth import ensure_synth

    p = ensure_synth(SF)
    rows = pq.read_table(p["aliases"]).to_pylist()
    turns = pq.read_table(p["turns"],
                          columns=["conv_id", "turn_idx", "text"])
    # B drops every other entity, so A and B tag and link differently
    keep = sorted({r["entity_id"] for r in rows})[::2]
    rows_b = [r for r in rows if r["entity_id"] in keep]
    return rows, rows_b, turns


def _rows(tbl: pa.Table) -> list[dict]:
    out = tbl.to_pylist()
    return sorted(out, key=lambda r: sorted((k, str(v))
                                            for k, v in r.items()))


def _to_table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.parametrize("emit", ["linked", "labels"])
def test_alias_sets_never_share_a_cached_tagger(ray_session, inputs, emit):
    """A, then B, then A again in one session: every run equals direct
    construction over its own alias rows."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import detect_mentions

    rows_a, rows_b, turns = inputs
    ds = rd.from_arrow(turns).repartition(4).materialize()
    want = {name: _rows(MentionTagger(rows, emit=emit)(turns))
            for name, rows in (("a", rows_a), ("b", rows_b))}
    assert want["a"] != want["b"]
    for name, rows in (("a", rows_a), ("b", rows_b), ("a", rows_a)):
        got = _to_table(detect_mentions(ds, rows, emit=emit))
        assert _rows(got) == want[name], name


def test_alias_sets_never_share_a_cached_linker(ray_session, inputs):
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import link_mentions

    rows_a, rows_b, turns = inputs
    mentions = MentionTagger(rows_a)(turns)
    ds = rd.from_arrow(mentions).repartition(4).materialize()
    want = {name: _rows(EntityLinker(rows)(mentions))
            for name, rows in (("a", rows_a), ("b", rows_b))}
    assert want["a"] != want["b"]
    for name, rows in (("a", rows_a), ("b", rows_b), ("a", rows_a)):
        got = _to_table(link_mentions(ds, rows))
        assert _rows(got) == want[name], name


class _Stage:
    builds = 0

    def __init__(self, n: int):
        _Stage.builds += 1
        self.n = n


def test_cache_keeps_at_most_its_bound(ray_session, monkeypatch):
    """Driver-side: more distinct keys than the bound leave the bound's
    most recent stages; a hit reuses the built stage without fetching."""
    import ray

    monkeypatch.setattr(stage_map, "_STAGES", type(stage_map._STAGES)())
    bound = stage_map.STAGE_CACHE_MAX
    keys = [stage_map.stage_key(_Stage, {"n": n}) for n in range(bound + 3)]
    assert len(set(keys)) == len(keys)
    assert keys[0] == stage_map.stage_key(_Stage, {"n": 0})
    for n, key in enumerate(keys):
        stage = stage_map.cached_stage(key, _Stage, ray.put({"n": n}))
        assert stage.n == n
        assert len(stage_map._STAGES) <= bound
    assert list(stage_map._STAGES) == keys[-bound:]
    builds = _Stage.builds
    # a hit never looks at the ref: this one would build n=-1
    hit = stage_map.cached_stage(keys[-1], _Stage, ray.put({"n": -1}))
    assert hit.n == bound + 2 and _Stage.builds == builds


def test_worker_caches_stay_within_bound(ray_session, inputs):
    """Worker-side: after more distinct linker argument sets than the
    bound, no worker process holds more than the bound."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import link_mentions

    rows_a, _, turns = inputs
    mentions = MentionTagger(rows_a)(turns)
    ds = rd.from_arrow(mentions).repartition(8).materialize()
    for i in range(stage_map.STAGE_CACHE_MAX + 2):
        link_mentions(ds, rows_a[i:]).materialize()

    def cache_size(batch: pa.Table) -> pa.Table:
        from clinicaltransformerner_ray.stages import stage_map as sm

        return pa.table({"n": [len(sm._STAGES)]})

    sizes = ds.map_batches(cache_size, batch_format="pyarrow",
                           batch_size=None).take_all()
    assert sizes and max(r["n"] for r in sizes) <= stage_map.STAGE_CACHE_MAX
    assert max(r["n"] for r in sizes) > 0


def test_ray_path_quarantine_equals_direct(ray_session, inputs, tmp_path):
    """A poison turn batch (binary text fails featurize) quarantines the
    same rows through the task map as through a directly built tagger."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import detect_mentions

    rows_a, _, _ = inputs
    poison = pa.table({
        "conv_id": pa.array(["c1", "c2", "c3"], pa.string()),
        "turn_idx": pa.array([0, 4, 7], pa.int32()),
        "text": pa.array([b"\xff\xfegarbage", b"ok text", b"\x00bad"],
                         pa.binary()),
    })
    q_ray, q_direct = str(tmp_path / "ray"), str(tmp_path / "direct")
    out = detect_mentions(rd.from_arrow(poison), rows_a,
                          quarantine_dir=q_ray).materialize()
    assert out.count() == 0
    MentionTagger(rows_a, quarantine_dir=q_direct)(poison)
    got = _to_table(read_quarantine(q_ray))
    want = _to_table(read_quarantine(q_direct))
    assert got.num_rows == 3
    assert _rows(got) == _rows(want)
