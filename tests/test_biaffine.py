"""Biaffine span-grid route (M13-M17/T4): grid decode fidelity and
cross-model agreement with the BIO tagger route."""

from __future__ import annotations

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def alias_rows():
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.synth import ensure_synth

    return pq.read_table(ensure_synth(SF)["aliases"]).to_pylist()


def test_biaffine_matches_bio_route(ray_session, alias_rows):
    """Both model families must recover the same lexicon-planted spans:
    the grid decode (argmax/log_softmax/mask/argwhere + word remap) is a
    different lifecycle arriving at the same mentions, modulo the
    biaffine max-length truncation (no windowing in the reference's
    biaffine path)."""
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.stages.biaffine import BiaffineTagger
    from clinicaltransformerner_ray.stages.tagger import MentionTagger
    from clinicaltransformerner_ray.synth import ensure_synth

    turns = pq.read_table(ensure_synth(SF)["turns"]).slice(0, 400)
    turns = turns.select(["conv_id", "turn_idx", "text"])
    bio = MentionTagger(alias_rows, noise_mod=0)(turns)
    bia = BiaffineTagger(alias_rows, max_sub_len=4096)(turns)
    key = ["conv_id", "turn_idx", "surface_norm", "start", "end", "type"]
    a = sorted(map(tuple, bio.select(key).to_pandas().values.tolist()))
    b = sorted(map(tuple, bia.select(key).to_pandas().values.tolist()))
    assert a == b
    assert len(a) > 0


def test_biaffine_truncation_drops_tail_spans(ray_session, alias_rows):
    from clinicaltransformerner_ray.stages.biaffine import BiaffineTagger

    first_alias = alias_rows[0]["alias"]
    text = ("filler " * 100) + first_alias  # alias far beyond 32 subtokens
    batch = pa.table({
        "conv_id": ["c"], "turn_idx": pa.array([0], pa.int32()),
        "text": [text],
    })
    short = BiaffineTagger(alias_rows, max_sub_len=32)(batch)
    full = BiaffineTagger(alias_rows, max_sub_len=8192)(batch)
    assert short.num_rows == 0      # span outside the truncated window
    assert full.num_rows == 1


def test_biaffine_grid_decode_unit(alias_rows):
    """The decode path really runs grid math: a planted span survives
    argmax/log_softmax + mask + argwhere + remap exactly once."""
    from clinicaltransformerner_ray.stages.biaffine import BiaffineTagger

    bt = BiaffineTagger(alias_rows)
    sub_idx = [1, 1, 2, 3, 3, 3]  # 3 words over 6 subtokens
    preds = bt._score_and_decode(sub_idx, [(1, 3, 2)])  # word 1-2 sub 1..3
    assert preds == [(1, 3, 2)]
    words = bt._remap(sub_idx, preds)
    assert words == [(0, 1, 2)]
    # CLS row/col masked: a fake span at grid 0 never decodes
    assert bt._score_and_decode(sub_idx, [(0, 2, 1)]) == []


def test_binary_span_prf_reference_semantics(ray_session):
    """A9: set-intersection binary F1 with the reference's 1e-10
    smoothing (task_utils.py:73-89) on a hand-checked case."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.eval_pipeline import (
        binary_span_prf)

    gold = rd.from_items([
        {"conv_id": "c", "turn_idx": 0, "type": "drug", "start": 1, "end": 2},
        {"conv_id": "c", "turn_idx": 0, "type": "sym", "start": 4, "end": 6},
        {"conv_id": "c", "turn_idx": 1, "type": "drug", "start": 0, "end": 1},
    ])
    pred = rd.from_items([
        {"conv_id": "c", "turn_idx": 0, "type": "drug", "start": 1, "end": 2},
        {"conv_id": "c", "turn_idx": 0, "type": "sym", "start": 4, "end": 7},
        {"conv_id": "c", "turn_idx": 1, "type": "drug", "start": 0, "end": 1},
        {"conv_id": "c", "turn_idx": 1, "type": "sym", "start": 3, "end": 4},
    ])
    r = binary_span_prf(gold, pred)
    assert (r["tp"], r["fp"], r["fn"]) == (2, 2, 1)
    assert abs(r["precision"] - 2 / (4 + 1e-10)) < 1e-12
    assert abs(r["recall"] - 2 / (3 + 1e-10)) < 1e-12


def test_binary_span_prf_biaffine_vs_bio_routes(ray_session):
    """Cross-model parity, scored with the reference's own dev metric:
    the biaffine route's mention spans vs the BIO route's = perfect F1."""
    import pyarrow.parquet as pq

    from clinicaltransformerner_ray.pipelines.eval_pipeline import (
        binary_span_prf)
    from clinicaltransformerner_ray.pipelines.kg import (
        detect_mentions, detect_mentions_biaffine)
    from clinicaltransformerner_ray.sources.turns import (
        load_alias_rows, read_turns)

    SF = "/root/testdata/sf0.001"
    alias_rows = load_alias_rows(SF)
    turns = read_turns(SF, columns=["conv_id", "turn_idx", "text"])
    # both routes execute in ONE streaming run via the union inside
    # binary_span_prf
    bio = detect_mentions(turns, alias_rows)
    grid = detect_mentions_biaffine(
        read_turns(SF, columns=["conv_id", "turn_idx", "text"]),
        alias_rows)
    r = binary_span_prf(bio, grid)
    assert r["f1"] > 0.999999 and r["fp"] == 0 and r["fn"] == 0
