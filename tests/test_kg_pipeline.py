"""End-to-end KG pipeline conformance: Ray pipeline vs sequential oracle
vs DuckDB SQL, plus the salting-equivalence and decode-equivalence
properties."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def synth_paths():
    from clinicaltransformerner_ray.synth import ensure_synth

    return ensure_synth(SF)


@pytest.fixture(scope="module")
def alias_rows(synth_paths):
    return pq.read_table(synth_paths["aliases"]).to_pylist()


@pytest.fixture(scope="module")
def seq_result(synth_paths, alias_rows):
    from clinicaltransformerner_ray.functions.lexicon import Lexicon
    from clinicaltransformerner_ray.functions.seq_extract import extract_all

    turns = pq.read_table(synth_paths["turns"]).to_pylist()
    lex = Lexicon(
        (tuple(r["alias"].split(" ")), r["type"], r["entity_id"]) for r in alias_rows
    )
    return extract_all(turns, lex)


@pytest.fixture(scope="module")
def kg_out(ray_session):
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    return kg_pipeline(SF)


def test_triples_match_sequential_oracle_exactly(kg_out, seq_result):
    """BASELINE.md correctness gate: P/R >= 0.95 vs the reference-semantics
    extractor — exact equality expected for the deterministic tagger."""
    tri = kg_out["triples"].to_pandas()
    got = {(r.subj, r.pred, r.obj): int(r.n_evidence) for r in tri.itertuples()}
    assert got == seq_result["triples"]


def test_mentions_match_sequential_oracle(kg_out, seq_result):
    ms = kg_out["mentions"].to_pandas()
    got = sorted(
        map(tuple, ms[["conv_id", "turn_idx", "surface_norm", "start", "end", "type"]].values)
    )
    want = sorted(
        (m["conv_id"], m["turn_idx"], m["surface_norm"], m["start"], m["end"], m["type"])
        for m in seq_result["mentions"]
    )
    assert got == want


def test_entities_match_sequential_oracle(kg_out, seq_result):
    ents = kg_out["entities"].to_pandas()
    got = dict(zip(ents.entity_id, ents.n_mentions.astype(int)))
    assert got == seq_result["entities"]


def test_salted_equals_unsalted(ray_session, kg_out, monkeypatch):
    """Skew salting (bucketed conv groups + ghost-overlap rows) must be
    byte-identical to the unsalted grouping.  The salted build is forced
    onto the exchange path: salting shapes only that path."""
    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines.kg import emit_triples, kg_pipeline

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    salted = kg_pipeline(SF, salt_span=4)["triples"].to_pandas()
    base = kg_out["triples"].to_pandas()
    key = ["subj", "pred", "obj"]
    a = salted.sort_values(key).reset_index(drop=True)
    b = base.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_ghost_buckets_mega_conversation(ray_session, monkeypatch):
    """A single conversation spanning many salt spans: salted triple
    emission (n_buckets large, uint64 hash+span arithmetic) must equal
    the unsalted single-bucket grouping exactly — every span boundary
    exercises a ghost row, so a dropped/misrouted ghost loses `follows`
    triples and fails this test.  ``rd.from_items`` is materialized, so
    the exchange path is forced: salting shapes only that path."""
    import ray.data as rd

    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines.kg import emit_triples

    monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", 0)
    span = 8
    n_turns = 10 * span  # >2*span boundaries, all ghosts exercised
    rows = []
    for t in range(n_turns):
        # two entities per turn, rotating, so every adjacent pair of
        # turns emits follows triples and every turn emits co_occurs
        rows.append({"conv_id": "mega", "turn_idx": t,
                     "entity_id": f"E{t % 7}"})
        rows.append({"conv_id": "mega", "turn_idx": t,
                     "entity_id": f"E{(t + 3) % 7}"})
    # a second small conversation so hashing mixes conv ids
    for t in range(5):
        rows.append({"conv_id": "tiny", "turn_idx": t, "entity_id": "E9"})
        rows.append({"conv_id": "tiny", "turn_idx": t,
                     "entity_id": f"E{t % 3}"})
    linked = rd.from_items(rows)
    key = ["subj", "pred", "obj"]
    salted = (emit_triples(linked, salt_span=span, n_buckets=65536)
              .to_pandas().sort_values(key).reset_index(drop=True))
    single = (emit_triples(rd.from_items(rows), salt_span=span, n_buckets=1)
              .to_pandas().sort_values(key).reset_index(drop=True))
    unsalted = (emit_triples(rd.from_items(rows), salt_span=10 ** 9)
                .to_pandas().sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(salted, single)
    pd.testing.assert_frame_equal(salted, unsalted)


def test_parquet_checkpoint_variant_matches(ray_session, kg_out, tmp_path):
    """The 100 TB cache strategy (worker-written parquet checkpoint of
    the linked table, re-read by both branches) produces identical
    triples to the object-store materialize default."""
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    ck = kg_pipeline(
        SF, linked_checkpoint_dir=str(tmp_path / "linked"),
    )["triples"].to_pandas()
    base = kg_out["triples"].to_pandas()
    key = ["subj", "pred", "obj"]
    pd.testing.assert_frame_equal(
        ck.sort_values(key).reset_index(drop=True),
        base.sort_values(key).reset_index(drop=True))


def test_linked_path_auto_select():
    """With neither knob set, kg_pipeline picks the linked-table cache
    strategy from the turns parquet's on-disk size: small inputs get
    the object-store fast path, large ones the parquet checkpoint
    (both paths are output-identical per the test above)."""
    from clinicaltransformerner_ray.pipelines.kg import (
        AUTO_MATERIALIZE_MAX_BYTES, _turns_bytes)

    small = _turns_bytes(SF)
    assert 0 < small <= AUTO_MATERIALIZE_MAX_BYTES
    # threshold sits well above every test fixture but far below the
    # 10M-turn scaling input (~1 GB), which must keep checkpointing
    assert AUTO_MATERIALIZE_MAX_BYTES < 1_000_000_000


def test_vectorized_decode_equals_reference_walk(alias_rows, synth_paths):
    """The batch-vectorized MentionTagger == the per-turn reference
    built on the sequential guard-walk decode (task.py:406-429
    semantics) on real turns, for mentions and labels."""
    from tagger_reference import reference_tag

    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    turns = pq.read_table(synth_paths["turns"]).slice(0, 300)
    for emit in ("mentions", "labels"):
        fast = MentionTagger(alias_rows, emit=emit)(turns)
        slow = reference_tag(turns, alias_rows, emit=emit)
        assert fast.to_pydict() == slow.to_pydict()
        assert fast.num_rows > 0


def test_linked_emit_equals_tagger_then_linker(alias_rows, synth_paths):
    """MentionTagger(emit="linked") == the EntityLinker stage over the
    tagger's mention table."""
    from clinicaltransformerner_ray.stages.linker import EntityLinker
    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    turns = pq.read_table(synth_paths["turns"]).slice(0, 400)
    linked = MentionTagger(alias_rows, emit="linked")(turns)
    want = EntityLinker(alias_rows)(MentionTagger(alias_rows)(turns))
    assert linked.equals(want)
    assert linked.num_rows > 0


def test_crf_route_equals_argmax_route(alias_rows, synth_paths):
    """MentionTagger(decode='crf') runs real Viterbi DP over the mock
    emissions + BIO transition matrix; with sub-margin transitions the
    best path must equal the argmax path, so the mention tables agree
    exactly (the kg_mentions_crf oracle gate)."""
    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    turns = pq.read_table(synth_paths["turns"]).slice(0, 300)
    crf = MentionTagger(alias_rows, decode="crf")(turns)
    base = MentionTagger(alias_rows, decode="argmax")(turns)
    assert crf.to_pydict() == base.to_pydict()
    assert crf.num_rows > 0


def test_crf_transitions_break_near_ties():
    """With a genuine near-tie in the emissions, the BIO transition
    penalty decides the path — proving the DP is not a no-op."""
    from clinicaltransformerner_ray.functions.crf import (
        bio_transitions, viterbi_decode)
    from clinicaltransformerner_ray.labels import build_label_vocab

    l2i = build_label_vocab(["drug", "symptom"])
    T = bio_transitions(l2i)
    C = len(l2i)
    em = np.full((3, C), -1.0)
    em[0, l2i["B-drug"]] = 5.0
    # position 1: I-drug vs I-symptom tie at emission level
    em[1, l2i["I-drug"]] = 5.0
    em[1, l2i["I-symptom"]] = 5.0 + 0.1  # slightly better emission...
    em[2, l2i["O"]] = 5.0
    path = viterbi_decode(em, T)
    # ...but B-drug -> I-symptom costs 0.4 > 0.1, so CRF picks I-drug
    assert path[1] == l2i["I-drug"]
    # with zero transitions the tie-broken emission wins instead
    path0 = viterbi_decode(em, np.zeros_like(T))
    assert path0[1] == l2i["I-symptom"]


def test_sql_oracle_parity_small(ray_session):
    """The DuckDB oracle (mention CTE + triple joins) agrees with the Ray
    pipeline at sf0.001 — same check the driver runs at sf0.01."""
    import __ray_entry__ as E

    qs = E.queries()
    sqls = E.oracle_sql_for(SF)
    con = duckdb.connect()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for name in ["kg_mentions", "kg_mentions_crf", "kg_triples",
                 "kg_entities", "kg_turn_entities", "kg_degrees",
                 "kg_pagerank", "kg_assoc", "kg_components",
                 "kg_common_neighbors", "kg_jaccard_links",
                 "kg_conv_entities", "kg_mention_timeline", "kg_lpa",
                 "kg_type_matrix", "kg_conv_stats",
                 "kg_near_cooccur", "kg_entity_daily",
                 "kg_degree_histogram", "kg_assoc_topk",
                 "kg_triangles", "kg_report", "kg_salience", "kg_trend",
                 "kg_link_ra"]:
        rdf = qs[name](SF).to_pandas()
        odf = con.execute(sqls[name]).df()
        a, b = canon(rdf), canon(odf)
        assert len(a) == len(b), name
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=name)


def test_eval_prf_oracle_parity_and_nondegeneracy(ray_session):
    """A2-A4 as a query: distributed BioEval counters of the
    md5-degraded pred lexicon vs full-lexicon gold match the SQL
    replica bit for bit, and the degradations make every counter
    family non-trivial (drops -> recall misses; type shifts -> strict
    AND relax false; truncations -> relax-true-but-strict-false)."""
    import __ray_entry__ as E

    rdf = (E.queries()["eval_prf"](SF).to_pandas()
           .sort_values("category").reset_index(drop=True))
    odf = duckdb.sql(E.oracle_sql_for(SF)["eval_prf"]).df() \
        .sort_values("category").reset_index(drop=True)
    for c in odf.columns[1:]:
        odf[c] = odf[c].astype("int64")
    pd.testing.assert_frame_equal(rdf, odf, check_dtype=False)
    assert (rdf["gs"] > rdf["strict_true"]).all()          # recall < 1
    assert (rdf["relax_true"] > rdf["strict_true"]).all()  # truncations
    assert (rdf["strict_false"] > rdf["relax_false"]).all()


def test_dual_lexicon_route_equals_pairing_route(ray_session, alias_rows):
    """The zero-shuffle DualLexiconEval route (both lexicons tag each
    turn batch inside one task) is bit-identical to the
    union/sort pairing route for both the span counters and the token
    accuracy."""
    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.eval_pipeline import (
        span_counters_table, token_accuracy_table)
    from clinicaltransformerner_ray.pipelines.kg import tag_turn_labels
    from clinicaltransformerner_ray.sources.turns import read_turns

    pred_rows = E._pred_alias_rows(alias_rows)
    tu = read_turns(SF, columns=["conv_id", "turn_idx", "text"])
    gold = tag_turn_labels(tu, alias_rows)
    pred = tag_turn_labels(tu, pred_rows)
    old_prf = (span_counters_table(gold, pred).to_pandas()
               .sort_values("category").reset_index(drop=True))
    new_prf = (E.queries()["eval_prf"](SF).to_pandas()
               .sort_values("category").reset_index(drop=True))
    pd.testing.assert_frame_equal(new_prf, old_prf)
    gold2 = tag_turn_labels(tu, alias_rows)
    pred2 = tag_turn_labels(tu, pred_rows)
    old_acc = token_accuracy_table(gold2, pred2).to_pandas()
    new_acc = E.queries()["eval_token_acc"](SF).to_pandas()
    pd.testing.assert_frame_equal(new_acc, old_acc)


def test_eval_token_acc_oracle_parity(ray_session):
    """A1 as a query: global token accuracy vs the degraded lexicon
    matches the positional-labeling SQL replica exactly, and the
    degradations flip a nonzero share of tokens."""
    import __ray_entry__ as E

    rdf = E.queries()["eval_token_acc"](SF).to_pandas()
    odf = duckdb.sql(E.oracle_sql_for(SF)["eval_token_acc"]).df()
    for c in odf.columns:
        odf[c] = odf[c].astype("int64")
    pd.testing.assert_frame_equal(rdf, odf, check_dtype=False)
    assert rdf["acc_false"][0] > 0
    assert rdf["acc_true"][0] > rdf["acc_false"][0]


def test_linker_embedding_fallback():
    """Dict miss -> trigram-embedding cosine link; far surface -> NIL."""
    from clinicaltransformerner_ray.stages.linker import EntityLinker, hash_embed

    emb_known = hash_embed(["warfarin"], 16)[0]
    rows = [
        {"alias": "warfarin", "type": "drug", "entity_id": "E1",
         "embedding": emb_known.tolist()},
    ]
    lk = EntityLinker(rows, sim_threshold=0.8)
    batch = pa.table({
        "surface_norm": ["warfarin", "warfarins", "zzz qqq xxx"],
    })
    out = lk(batch).column("entity_id").to_pylist()
    assert out[0] == "E1"          # dict hit
    assert out[1] == "E1"          # near-identical trigram profile
    assert out[2] == "ent:zzz qqq xxx"  # NIL fallback


def test_tagger_handles_empty_and_null_text(alias_rows):
    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    batch = pa.table({
        "conv_id": ["c1", "c1", "c1"],
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "text": pa.array(["", None, "no entities here at all"], pa.string()),
    })
    out = MentionTagger(alias_rows)(batch)
    assert out.num_rows == 0
    # emit="labels": every turn keeps a row; empty/null text -> [] lists
    lab = MentionTagger(alias_rows, emit="labels")(batch)
    assert lab.num_rows == 3
    rows = {(r["conv_id"], r["turn_idx"]): r for r in lab.to_pylist()}
    assert rows[("c1", 0)]["labels"] == [] == rows[("c1", 0)]["tokens"]
    assert rows[("c1", 1)]["labels"] == []
    assert rows[("c1", 2)]["labels"] == ["O"] * 5


def test_entry_smoke(ray_session):
    import __ray_entry__ as E

    res = E.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) > 0
    assert {"subj", "pred", "obj", "n_evidence"} <= set(df.columns)


def test_tagger_quarantine_is_reported(alias_rows, tmp_path, caplog):
    """A poison turn (binary garbage where text should be) is counted,
    WARN-logged, and lands in the quarantine side table — never
    silently dropped (reference skip-but-LOG semantics,
    run_transformer_batch_prediction.py:70-72)."""
    import logging

    from clinicaltransformerner_ray.stages.tagger import (
        MentionTagger, read_quarantine)

    qdir = str(tmp_path / "quarantine")
    tagger = MentionTagger(alias_rows, quarantine_dir=qdir)
    batch = pa.table({
        "conv_id": pa.array(["c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1], pa.int32()),
        # binary column: .split on bytes raises inside featurize
        "text": pa.array([b"\xff\xfegarbage", b"ok text"], pa.binary()),
    })
    with caplog.at_level(logging.WARNING,
                         logger="clinicaltransformerner_ray.stages.tagger"):
        tagger(batch)
    assert tagger.n_failed == 2
    assert any("quarantined" in r.message for r in caplog.records)
    qt = pd.read_parquet(qdir)
    assert len(qt) == 2
    assert set(qt["conv_id"]) == {"c1", "c2"}
    assert (qt["stage"] == "featurize").all()
    assert qt["error"].str.len().gt(0).all()


def test_tagger_no_quarantine_dir_still_counts(alias_rows, caplog):
    """Without a quarantine_dir the failure is still counted and
    logged (no side-table requirement for the default path)."""
    import logging

    from clinicaltransformerner_ray.stages.tagger import MentionTagger

    tagger = MentionTagger(alias_rows)
    batch = pa.table({
        "conv_id": pa.array(["c9"], pa.string()),
        "turn_idx": pa.array([3], pa.int32()),
        "text": pa.array([b"\x00bad"], pa.binary()),
    })
    with caplog.at_level(logging.WARNING,
                         logger="clinicaltransformerner_ray.stages.tagger"):
        out = tagger(batch)
    assert out.num_rows == 0
    assert tagger.n_failed == 1
    assert any("quarantined" in r.message for r in caplog.records)


def test_pagerank_star_graph(ray_session):
    """Integer PageRank semantics on a hand-built star: the hub
    out-ranks every leaf, leaves tie exactly, total mass is conserved
    up to floor dust, and two runs agree bit-for-bit."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import (
        SCALE, pagerank)

    leaves = [f"L{i}" for i in range(6)]
    triples = rd.from_arrow(pa.table({
        "subj": pa.array(["HUB"] * 6 + ["X"], pa.string()),
        "pred": pa.array(["co_occurs"] * 6 + ["follows"], pa.string()),
        "obj": pa.array(leaves + ["Y"], pa.string()),
    })).repartition(3)
    a = pagerank(triples, iters=5).to_pandas().set_index("entity_id")
    b = pagerank(triples, iters=5).to_pandas().set_index("entity_id")
    assert a.equals(b)
    # 'follows' edges are excluded from the graph
    assert set(a.index) == {"HUB", *leaves}
    hub = a.loc["HUB", "rank_e12"]
    leaf_ranks = a.loc[leaves, "rank_e12"]
    assert (leaf_ranks == leaf_ranks.iloc[0]).all()
    assert hub > leaf_ranks.iloc[0] * 3
    total = a["rank_e12"].sum()
    assert SCALE * 0.999 < total <= SCALE


def test_association_stats_semantics(ray_session):
    """Hand-built micro-KG: duplicate mentions inside a turn count the
    turn once, the follows triple is ignored, n_turns counts turns with
    any entity — invariant to block splits (the sort on (conv, turn)
    lands each turn whole)."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import association_stats

    linked = pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", "c1", "c1",
                             "c2", "c2", "c2"], pa.string()),
        "turn_idx": pa.array([0, 0, 1, 1, 1, 0, 5, 5], pa.int64()),
        "entity_id": pa.array(["E1", "E2", "E1", "E2", "E1",
                               "E2", "E3", "E1"], pa.string()),
    })
    triples = pa.table({
        "subj": pa.array(["E1", "E1", "E1"], pa.string()),
        "pred": pa.array(["co_occurs", "co_occurs", "follows"],
                         pa.string()),
        "obj": pa.array(["E2", "E3", "E2"], pa.string()),
        "n_evidence": pa.array([2, 1, 9], pa.int64()),
    })
    for parts in (1, 3):
        out = (association_stats(
                   rd.from_arrow(linked).repartition(parts),
                   rd.from_arrow(triples))
               .to_pandas().sort_values("obj").reset_index(drop=True))
        assert out[["subj", "obj"]].values.tolist() == [
            ["E1", "E2"], ["E1", "E3"]]
        assert out["n_co"].tolist() == [2, 1]
        assert out["n_subj"].tolist() == [3, 3]   # E1 in turns 0,1,5
        assert out["n_obj"].tolist() == [3, 1]    # E2 in 3, E3 in 1
        assert out["n_turns"].tolist() == [4, 4]


def test_common_neighbors_semantics(ray_session):
    """Hand-built graph: a pair sharing two centers is emitted with the
    exact count, a directly-connected pair is dropped even when it
    qualifies, and single-shared-neighbor pairs fall below min_common."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import common_neighbors

    edges = [("0", "1"), ("0", "2"), ("0", "3"),
             ("1", "9"), ("2", "9"), ("1", "2")]
    tbl = pa.table({
        "subj": pa.array([a for a, _ in edges], pa.string()),
        "obj": pa.array([b for _, b in edges], pa.string()),
    })
    out = (common_neighbors(rd.from_arrow(tbl).repartition(3),
                            min_common=2)
           .to_pandas().sort_values(["subj", "obj"])
           .reset_index(drop=True))
    # (1,2) shares {0,9} but is adjacent -> dropped; (0,9) shares {1,2}
    assert out.values.tolist() == [["0", "9", 2]]


def test_khop_path_graph(ray_session):
    """Hand-built path A0-B1-C2-D3-E4 plus a seedless component: hop
    distances 0..3 exact, nodes beyond max_hops and seedless
    components omitted, block splits irrelevant."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import khop_reachability

    pairs = pa.table({
        "subj": pa.array(["A0", "B1", "C2", "D3", "X1"], pa.string()),
        "obj": pa.array(["B1", "C2", "D3", "E4", "Y2"], pa.string()),
    })
    for parts in (1, 3):
        out = (khop_reachability(
                   rd.from_arrow(pairs).repartition(parts),
                   max_hops=3, seed_suffix="0")
               .to_pandas())
        got = dict(zip(out["entity_id"], out["hops"]))
        # E4 is 4 hops away -> omitted; X1/Y2 have no seed -> omitted
        assert got == {"A0": 0, "B1": 1, "C2": 2, "D3": 3}


def test_khop_oracle_parity_small(ray_session):
    """kg_khop vs the unrolled-CTE BFS oracle at sf0.001 (the driver
    runs the same check at sf0.01), and the depth distribution is
    reported so a degenerate all-hop-1 graph would be visible."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    SF = "/root/testdata/sf0.001"
    rdf = E.queries()["kg_khop"](SF).to_pandas()
    odf = duckdb.connect().execute(E.oracle_sql_for(SF)["kg_khop"]).df()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(rdf), canon(odf),
                                  check_dtype=False)
    assert (rdf["hops"] == 0).any() and (rdf["hops"] >= 1).any()


def test_kcore_peeling_cascade(ray_session):
    """Triangle + tail: the tail peels away over several rounds (each
    removal exposes the next degree-1 node) and only the triangle
    survives with core degree 2; a pure path peels to empty."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import kcore

    # triangle A-B-C plus tail C-D-E-F (D,E,F peel one per round)
    tri_tail = pa.table({
        "subj": pa.array(["A", "B", "A", "C", "D", "E"], pa.string()),
        "obj": pa.array(["B", "C", "C", "D", "E", "F"], pa.string()),
    })
    out = kcore(rd.from_arrow(tri_tail), k=2, rounds=12).to_pandas()
    got = dict(zip(out["entity_id"], out["core_degree"]))
    assert got == {"A": 2, "B": 2, "C": 2}

    # a 6-path has no 2-core at all
    path = pa.table({
        "subj": pa.array(["P1", "P2", "P3", "P4", "P5"], pa.string()),
        "obj": pa.array(["P2", "P3", "P4", "P5", "P6"], pa.string()),
    })
    out = kcore(rd.from_arrow(path), k=2, rounds=12).to_pandas()
    assert len(out) == 0


def test_kcore_oracle_parity_small(ray_session):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    SF = "/root/testdata/sf0.001"
    rdf = E.queries()["kg_kcore"](SF).to_pandas()
    odf = duckdb.connect().execute(E.oracle_sql_for(SF)["kg_kcore"]).df()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    assert len(rdf) > 0
    pd.testing.assert_frame_equal(canon(rdf), canon(odf),
                                  check_dtype=False)


def test_mention_timeline_join_semantics(ray_session):
    """Unit check of the mentions-ts sort-merge: partials for the same
    (conv, turn, entity) from different batches SUM (not dedup), turns
    without mentions drop out, and min/max pick the right timestamps."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.kg import mention_timeline

    def ment(conv, ti, eid, k):
        return [{"conv_id": conv, "turn_idx": ti, "entity_id": eid}] * k

    # two single-row-group datasets forced into separate blocks: E1 in
    # c1/t0 appears in BOTH -> its counts must add up to 3
    m1 = rd.from_arrow(pa.Table.from_pylist(
        ment("c1", 0, "E1", 2) + ment("c1", 1, "E2", 1)))
    m2 = rd.from_arrow(pa.Table.from_pylist(
        ment("c1", 0, "E1", 1) + ment("c2", 5, "E1", 4)))
    linked = m1.union(m2)

    turns = rd.from_arrow(pa.table({
        "conv_id": pa.array(["c1", "c1", "c2", "c9"], pa.string()),
        "turn_idx": pa.array([0, 1, 5, 7], pa.int32()),
        "ts": pa.array([100, 200, 300, 999],
                       pa.timestamp("us")),
    }))

    out = mention_timeline(linked, turns).to_pandas()
    row = out.set_index("entity_id")
    assert row.loc["E1", "n_mentions"] == 7
    assert row.loc["E1", "n_turns"] == 2
    assert row.loc["E1", "n_convs"] == 2
    assert row.loc["E1", "first_us"] == 100
    assert row.loc["E1", "last_us"] == 300
    assert row.loc["E1", "span_us"] == 200
    assert row.loc["E2", "n_mentions"] == 1
    assert row.loc["E2", "first_us"] == 200
    # the mention-free turn (c9, 7) contributes nothing
    assert set(out["entity_id"]) == {"E1", "E2"}


def test_label_propagation_matches_sequential_replica(ray_session):
    """label_propagation == a driver-side sequential replica of the
    synchronous (count DESC, label ASC) update on a deterministic
    random graph — the distributed partial-count fold changes nothing."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.graph import label_propagation

    rng = np.random.default_rng(7)
    n = 40
    edges = set()
    for _ in range(80):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((f"N{min(a, b):02d}", f"N{max(a, b):02d}"))
    edges = sorted(edges)

    # sequential replica
    adj: dict[str, list[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    lab = {v: v for v in adj}
    for _ in range(4):
        new = {}
        for v, nbrs in adj.items():
            cnt: dict[str, int] = {}
            for u in nbrs:
                cnt[lab[u]] = cnt.get(lab[u], 0) + 1
            new[v] = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if new == lab:
            break
        lab = new

    tbl = pa.table({
        "subj": pa.array([a for a, _ in edges], pa.string()),
        "obj": pa.array([b for _, b in edges], pa.string()),
    })
    out = label_propagation(
        rd.from_arrow(tbl).repartition(5), rounds=4).to_pandas()
    got = dict(zip(out["entity_id"], out["community"]))
    assert got == lab
    assert len(set(lab.values())) > 1  # non-degenerate fixture


def test_kg_report_matches_standalone_pair(ray_session):
    """kg_report's shared-join path must reproduce mention_timeline and
    entity_daily row-for-row (one flagship pass, one ts join)."""
    from clinicaltransformerner_ray.pipelines.kg import (
        entity_daily, kg_pipeline, kg_report, mention_timeline)
    from clinicaltransformerner_ray.sources.turns import read_turns

    linked = kg_pipeline(SF)["linked"]
    tts = read_turns(SF, columns=["conv_id", "turn_idx", "ts"]).materialize()
    rep = kg_report(linked, tts).to_pandas()
    by = dict(tuple(rep.groupby("section")))

    tl = mention_timeline(linked, tts).to_pandas().sort_values(
        "entity_id").reset_index(drop=True)
    got = by["timeline"].sort_values("entity_id")
    assert got["entity_id"].tolist() == tl["entity_id"].tolist()
    assert (got[["v1", "v2", "v3", "v4", "v5", "v6"]]
            .to_numpy(dtype="int64").tolist()
            == tl[["n_mentions", "n_turns", "n_convs", "first_us",
                   "last_us", "span_us"]].to_numpy(dtype="int64").tolist())

    dl = entity_daily(linked, tts).to_pandas().sort_values(
        ["entity_id", "day"]).reset_index(drop=True)
    got = by["daily"].sort_values(["entity_id", "day"])
    assert got["entity_id"].tolist() == dl["entity_id"].tolist()
    assert (got[["day", "v1", "v2"]].to_numpy(dtype="int64").tolist()
            == dl[["day", "n_mentions", "n_turns"]]
            .to_numpy(dtype="int64").tolist())
