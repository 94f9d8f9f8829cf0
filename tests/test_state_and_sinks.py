"""Checkpoint-resume lineage, multimodal plumbing, and format writers."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def ckpt_dir(tmp_path):
    return str(tmp_path / "mentions_ckpt")


def _on_both_paths(monkeypatch, caplog, check):
    """``check()`` once with every keyed op folding (a huge cap) and once
    with every keyed op on the Sort exchange (cap 0), each leg asserting
    the path it logged: a salted twin's cross-block stitch runs only on
    the exchange."""
    import logging

    from clinicaltransformerner_ray import arrowutil

    caplog.set_level(logging.INFO, logger="ray_kg")
    for cap, path in ((1 << 40, ": fold ("), (0, ": exchange (")):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        check()
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "ray_kg"]
        assert msgs and all(path in m for m in msgs), msgs


def test_checkpointed_mentions_resume(ray_session, ckpt_dir):
    from clinicaltransformerner_ray.pipelines.resume import (
        checkpointed_mentions, kg_from_checkpoint, turn_shards)
    from clinicaltransformerner_ray.state.lineage import load_lineage

    r1 = checkpointed_mentions(SF, ckpt_dir)
    n_shards = len(turn_shards(SF))
    assert r1["processed"] == n_shards and r1["failed"] == 0

    # lineage records carry fingerprints + metrics
    recs = load_lineage(ckpt_dir)
    assert len(recs) == n_shards
    assert all(r["status"] == "done" and "metrics" in r for r in recs.values())

    # resume: everything skipped
    r2 = checkpointed_mentions(SF, ckpt_dir)
    assert r2 == {"skipped": n_shards, "processed": 0, "failed": 0}

    # damage one partition -> exactly one reprocessed
    shutil.rmtree(os.path.join(ckpt_dir, "part-0001"))
    r3 = checkpointed_mentions(SF, ckpt_dir)
    assert r3["processed"] == 1 and r3["skipped"] == n_shards - 1

    # the wide suffix recomputed from checkpoint == direct pipeline
    from clinicaltransformerner_ray.pipelines.kg import kg_pipeline

    ck = kg_from_checkpoint(ckpt_dir)["triples"].to_pandas()
    direct = kg_pipeline(SF)["triples"].to_pandas()
    key = ["subj", "pred", "obj"]
    a = ck.sort_values(key).reset_index(drop=True)
    b = direct.sort_values(key).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])


def test_lineage_quarantines_failed_shard(ray_session, tmp_path):
    from clinicaltransformerner_ray.state.lineage import (
        load_lineage, run_resumable)

    good = str(tmp_path / "good.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), good)
    bad = str(tmp_path / "bad.parquet")
    pq.write_table(pa.table({"y": [1]}), bad)  # wrong schema -> build fails
    out = str(tmp_path / "out")

    def add_one(b):
        import pyarrow.compute as pc

        return pa.table({"x2": pc.add(b.column("x"), 1)})

    def build(ds):
        return ds.map_batches(add_one, batch_format="pyarrow")

    # max_concurrent=2 exercises the threaded path: concurrent shard
    # pipelines, isolated failure
    r = run_resumable([good, bad], build, out, max_concurrent=2)
    assert r["processed"] == 1 and r["failed"] == 1
    recs = load_lineage(out)
    assert recs[0]["status"] == "done"
    assert recs[1]["status"] == "failed" and "error" in recs[1]
    # retry touches only the failed shard
    r2 = run_resumable([good, bad], build, out)
    assert r2["skipped"] == 1 and r2["failed"] == 1


def test_multimodal_real_decode(ray_session):
    """Genuine WAV/BMP/PPM bytes decode to features with fake=False;
    corrupt payloads of a known container are quarantined per row
    (decode_ok=False), and unknown containers stay behind the explicit
    NotImplementedError codec boundary."""
    import ray.data as rd

    from clinicaltransformerner_ray.stages.multimodal import (
        MediaDecoder, extract_media_features, synth_media_table)

    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 100)
    media = synth_media_table(docs)
    ds = rd.from_arrow(media)
    feats = extract_media_features(ds, batch_size=32, concurrency=2)
    df = feats.to_pandas()
    assert len(df) == 100
    assert all(len(v) == 32 for v in df["feature"])
    # synth corrupts every 25th payload (media_id % 25 == 7)
    bad = df["media_id"] % 25 == 7
    assert (~df.loc[~bad, "decode_ok"]).sum() == 0
    assert not df.loc[bad, "decode_ok"].any()
    # real features: ok rows are non-trivial, corrupt rows are zeroed
    ok_feats = df.loc[~bad, "feature"]
    assert all(max(v) > 0 for v in ok_feats)
    assert all(max(v) == 0 for v in df.loc[bad, "feature"])
    # determinism: same payload -> same feature (real and fake paths)
    for fake in (False, True):
        one = MediaDecoder(fake=fake)(media.slice(0, 5))
        two = MediaDecoder(fake=fake)(media.slice(0, 5))
        assert one.to_pydict() == two.to_pydict()
    # the codec-library boundary is explicit for unknown containers
    unknown = pa.table({
        "media_id": pa.array([0], pa.int64()),
        "media_type": pa.array(["image"], pa.string()),
        "payload": pa.array([b"\x89PNG\r\n\x1a\n fake"], pa.binary()),
        "meta_width": pa.array([0], pa.int32()),
        "meta_height": pa.array([0], pa.int32()),
        "meta_sample_rate": pa.array([0], pa.int32()),
    })
    with pytest.raises(NotImplementedError):
        MediaDecoder(fake=False)(unknown)


def test_multimodal_resize_and_frame_sample(ray_session):
    """Resize: every ok image lands at 16x16 PPM and nearest-neighbor
    preserves corner pixels; frame-sample: a known sine yields the
    expected frame count and ~amplitude/sqrt(2) RMS; corrupt payloads
    quarantine in both stages."""
    import numpy as np
    import ray.data as rd

    from clinicaltransformerner_ray.functions import codecs
    from clinicaltransformerner_ray.stages.multimodal import (
        resize_images, sample_audio_frames, synth_media_table)

    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 100)
    media = synth_media_table(docs)
    ds = rd.from_arrow(media)

    rs = resize_images(ds, out_w=16, out_h=16, batch_size=32,
                       concurrency=2).to_pandas()
    assert len(rs) == 100
    img_ok = rs[(rs["media_type"] == "image") & rs["decode_ok"]]
    assert len(img_ok) > 20
    for _, row in img_ok.head(5).iterrows():
        out = codecs.decode_ppm(row["payload"])
        assert out.shape == (16, 16, 3)
        assert row["meta_width"] == 16 and row["meta_height"] == 16
    # corrupt image payloads (media_id % 25 == 7, even ids) quarantine
    bad_img = rs[(rs["media_type"] == "image")
                 & (rs["media_id"] % 25 == 7)]
    assert len(bad_img) and not bad_img["decode_ok"].any()
    # nearest-neighbor keeps the top-left pixel exactly
    src = media.filter((media.column("media_id").to_pandas() % 25 != 7)
                       .to_numpy()
                       & (media.column("media_type").to_pandas()
                          == "image").to_numpy())
    first = src.slice(0, 1)
    kind = codecs.sniff(first.column("payload")[0].as_py())
    dec = (codecs.decode_bmp if kind == "bmp" else codecs.decode_ppm)
    orig = dec(first.column("payload")[0].as_py())
    got = codecs.decode_ppm(
        rs.set_index("media_id").loc[
            first.column("media_id")[0].as_py(), "payload"])
    assert (got[0, 0] == orig[0, 0]).all()

    # frame sampling: 250 ms @ 8 kHz, 25 ms frames / 10 ms hop
    fr = sample_audio_frames(ds, frame_ms=25, hop_ms=10, batch_size=32,
                             concurrency=2).to_pandas()
    assert set(fr["media_id"]) == set(
        rs.loc[rs["media_type"] == "audio", "media_id"])
    ok = fr[fr["decode_ok"]]
    per = ok.groupby("media_id").size()
    # (2000 - 200) // 80 + 1 = 23 frames per intact 250 ms clip
    assert (per == 23).all()
    assert (ok.groupby("media_id")["frame_idx"].min() == 0).all()
    # synth audio is a 0.6 + 0.3 sine mix -> RMS around sqrt(.18+.045)
    mid_rms = ok["rms"].median()
    assert 0.3 < mid_rms < 0.6, mid_rms
    bad = fr[~fr["decode_ok"]]
    assert (bad["frame_idx"] == -1).all() and len(bad) > 0


def test_codecs_round_trip():
    """encode->decode identity for WAV/BMP/PPM, plus header edge cases."""
    import numpy as np

    from clinicaltransformerner_ray.functions import codecs

    rng = np.random.RandomState(0)
    img = rng.randint(0, 256, size=(17, 23, 3), dtype=np.uint8)  # odd W: row pad
    assert (codecs.decode_bmp(codecs.encode_bmp(img)) == img).all()
    assert (codecs.decode_ppm(codecs.encode_ppm(img)) == img).all()
    # PPM with comments in the header
    body = codecs.encode_ppm(img)
    with_comment = b"P6\n# a comment line\n23 17\n255\n" + body.split(b"\n255\n", 1)[1]
    assert (codecs.decode_ppm(with_comment) == img).all()
    samples = np.sin(2 * np.pi * 440 * np.arange(4000) / 8000)
    wav = codecs.encode_wav(samples, 8000)
    out, rate = codecs.decode_wav(wav)
    assert rate == 8000 and len(out) == 4000
    assert np.abs(out - samples).max() < 1e-3  # 16-bit quantization
    assert codecs.sniff(wav) == "wav"
    assert codecs.sniff(codecs.encode_bmp(img)) == "bmp"
    assert codecs.sniff(body) == "ppm"
    assert codecs.sniff(b"GIF89a") == "unknown"
    # truncation raises (becomes decode_ok=False upstream)
    import pytest as _pytest
    with _pytest.raises(Exception):
        codecs.decode_bmp(codecs.encode_bmp(img)[:30])
    with _pytest.raises(Exception):
        codecs.decode_ppm(body[: len(body) // 2])
    with _pytest.raises(Exception):
        codecs.decode_wav(wav[:20])


def test_brat_and_bioc_formatters(ray_session):
    import ray.data as rd

    from clinicaltransformerner_ray.sinks.formatters import (
        bio_lines, bioc_documents, brat_annotations)

    mentions = rd.from_items([
        {"conv_id": "c1", "turn_idx": 0, "surface": "foo bar",
         "start": 10, "end": 17, "type": "drug"},
        {"conv_id": "c1", "turn_idx": 0, "surface": "baz",
         "start": 0, "end": 3, "type": "problem"},
        {"conv_id": "c2", "turn_idx": 3, "surface": "qux\nzap",
         "start": 5, "end": 12, "type": "test"},
    ])
    ann = {(r["conv_id"], r["turn_idx"]): r["ann"]
           for r in brat_annotations(mentions).take_all()}
    # per-doc sequential ids after sort by start
    assert ann[("c1", 0)] == (
        "T1\tproblem 0 3\tbaz\nT2\tdrug 10 17\tfoo bar\n")
    # newline -> discontinuous offsets + space repair (M12)
    assert ann[("c2", 3)] == "T1\ttest 5 8;9 12\tqux zap\n"

    xml = {(r["conv_id"], r["turn_idx"]): r["xml"]
           for r in bioc_documents(mentions).take_all()}
    assert '<infon key="type">problem</infon>' in xml[("c1", 0)]
    assert "<text>qux zap</text>" in xml[("c2", 3)]

    assert bio_lines(["a", "b"], ["O", "B-x"]) == "a O\nb B-x"


def test_distributed_span_prf(ray_session):
    """Distributed eval == in-memory golden counters; pipeline-vs-oracle
    labels give perfect strict P/R (the P/R>=0.95 gate, exceeded)."""
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.eval_pipeline import span_prf

    gold = rd.from_items([
        {"conv_id": "c1", "turn_idx": 0,
         "labels": ["O", "O", "B-misc", "O", "O", "B-misc", "I-misc",
                    "I-misc", "I-misc", "I-misc", "O"]},
    ])
    pred = rd.from_items([
        {"conv_id": "c1", "turn_idx": 0,
         "labels": ["O", "O", "B-misc", "O", "O", "B-misc", "I-misc",
                    "O", "O", "B-misc", "O"]},
    ])
    res = span_prf(gold, pred)
    # expected values produced by running the reference BioEval itself
    # (new_bio_eval.py:381-385 input): the third predicted span overlaps
    # an exhausted gold span, so the double-count guard skips it entirely
    strict = res["counts"]["prediction"]["strict"]["overall"]
    relax = res["counts"]["prediction"]["relax"]["overall"]
    assert res["counts"]["expect"]["overall"] == 2
    assert strict == {"total": 2, "true": 1, "false": 1}
    assert relax == {"total": 2, "true": 2, "false": 0}
    perf = res["performance"]["overall"]
    assert round(perf["acc"], 4) == 0.7273
    assert perf["strict"]["f_score"] == 0.5
    assert perf["relax"]["f_score"] == 1.0


def test_labels_from_mentions_roundtrip(ray_session):
    """mentions -> BIO labels -> eval vs itself == perfect score."""
    from clinicaltransformerner_ray.pipelines.eval_pipeline import (
        labels_from_mentions, span_prf)
    from clinicaltransformerner_ray.pipelines.kg import detect_mentions
    from clinicaltransformerner_ray.sources.turns import (
        load_alias_rows, read_turns)

    alias_rows = load_alias_rows(SF)
    turns = read_turns(SF, columns=["conv_id", "turn_idx", "text"])
    mentions = detect_mentions(turns, alias_rows).materialize()
    labels = labels_from_mentions(mentions, turns).materialize()
    assert labels.count() > 0
    res = span_prf(labels, labels)
    perf = res["performance"]["overall"]["strict"]
    assert perf["precision"] == 1.0 and perf["recall"] == 1.0


def test_events_windowed_and_sessions_parity(ray_session):
    """Windowed aggregate + sessionization match the SQL oracle at
    sf0.001 (same check the driver runs at sf0.01)."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for name in ["events_windowed", "events_sessions", "events_sliding",
                 "events_asof", "events_range_join",
                 "events_sessions_unsalted", "events_asof_unsalted",
                 "events_range_join_unsalted", "events_distinct_users",
                 "events_value_quantiles", "events_latest",
                 "events_funnel", "events_retention",
                 "events_attribution", "events_running_total",
                 "events_intervals", "events_outliers",
                 "events_gaps", "events_kmv_users",
                 "events_type_pivot", "events_markov",
                 "events_sliding_distinct", "events_streaks",
                 "events_peak_hour", "events_signup_to_purchase",
                 "events_bursts", "events_session_quantiles",
                 "events_type_overlap"]:
        rdf = E.queries()[name](SF).to_pandas()
        odf = con.execute(E.oracle_sql_for(SF)[name]).df()
        pd.testing.assert_frame_equal(
            canon(rdf), canon(odf), check_dtype=False, obj=name)


def test_biaffine_oracle_parity(ray_session):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    rdf = E.queries()["kg_mentions_biaffine"](SF).to_pandas()
    odf = duckdb.connect().execute(
        E.oracle_sql_for(SF)["kg_mentions_biaffine"]).df()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(rdf), canon(odf), check_dtype=False)


def test_sliding_window_covers_and_sums(ray_session):
    """Every event lands in exactly window/slide sliding windows, each
    window [start, start+window) contains it, and per-window sums are
    exact integer cents."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        sliding_window_counts)

    us = 1_000_000
    h, q = 3600 * us, 900 * us
    tbl = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        # 10:07, 10:20, 00:00 exactly on a slide boundary
        "ts": pa.array([10 * h + 7 * 60 * us, 10 * h + 20 * 60 * us, 0],
                       pa.timestamp("us")),
        "value": pa.array([1.25, 2.0, 0.105], pa.float64()),
    })
    out = (sliding_window_counts(rd.from_arrow(tbl))
           .to_pandas())
    # each event covered exactly 4x
    assert out["n_events"].sum() == 3 * 4
    ws = out["window_start"].astype("int64") // 1000  # ns -> us
    mine = out[(out["user_id"] == 1)]
    # the 10:07 event's windows start at 09:15..10:00; 10:20's at 09:30..10:15
    both = mine[mine["n_events"] == 2]["window_start"].astype("int64") // 1000
    assert set(both) == {9 * h + 30 * 60 * us, 9 * h + 45 * 60 * us,
                        10 * h}
    for w in ws[out["user_id"] == 2]:
        assert w <= 0 < w + 3600 * us
    # 0.105 rounds half-away to 11 cents (DuckDB semantics)
    assert (out.loc[out["user_id"] == 2, "sum_value_cents"] == 11).all()


def test_range_join_semantics(ray_session):
    """Range-join bounds on a hand-built stream: (ts, ts+h] is open at
    the left end and closed at the right, per-user isolation, NULL
    first_range_ts when nothing is in range."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        range_join_events)

    us = 1_000_000
    rows = [
        # user 1: purchase@10, errors @10 (excluded: strict >),
        # @11, @310 (included: <= +300), @311 (excluded)
        (1, 1, 10 * us, "purchase"),
        (2, 1, 10 * us, "error"), (3, 1, 11 * us, "error"),
        (4, 1, 310 * us, "error"), (5, 1, 311 * us, "error"),
        # user 2's error must not leak into user 1
        (6, 2, 12 * us, "error"), (7, 2, 1000 * us, "purchase"),
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = (range_join_events(rd.from_arrow(tbl), horizon_us=300 * us)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [1, 7]
    assert out["n_range"].tolist() == [2, 0]
    assert out.loc[0, "first_range_ts"] == pd.Timestamp(11, unit="s")
    assert pd.isna(out.loc[1, "first_range_ts"])


def test_salted_range_join_equals_unsalted(ray_session, monkeypatch, caplog):
    """range_join_events_salted must be byte-identical to the unsalted
    version, including on a hot single user whose events span many salt
    buckets (the regime the salting exists for)."""

    def check():
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from clinicaltransformerner_ray.pipelines.events import (
            range_join_events, range_join_events_salted)

        us = 1_000_000
        n = 4000
        rng = np.random.RandomState(7)
        ts = np.sort(rng.randint(0, 10 * 24 * 3600, n)).astype(np.int64) * us \
            + np.arange(n)
        types = np.where(np.arange(n) % 2 == 0, "purchase", "error")
        tbl = pa.table({
            "event_id": pa.array(np.arange(n), pa.int64()),
            "user_id": pa.array((np.arange(n) % 3 == 0).astype(np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_type": pa.array(types.tolist(), pa.string()),
        })
        ds = rd.from_arrow(tbl)
        h = 1800 * us
        a = (range_join_events(ds, horizon_us=h)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        b = (range_join_events_salted(ds, horizon_us=h, bucket_us=3600 * us)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        assert (a["n_range"] > 0).any()  # exercise the match path
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)

    _on_both_paths(monkeypatch, caplog, check)


def test_salted_asof_join_equals_unsalted(ray_session, monkeypatch, caplog):
    """asof_join_events_salted must be byte-identical to the unsalted
    version on a hot user spanning many buckets, a user whose only
    click is many empty buckets before their purchases (the unbounded
    carry), and a clickless user (NULL passthrough)."""

    def check():
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from clinicaltransformerner_ray.pipelines.events import (
            asof_join_events, asof_join_events_salted)

        us = 1_000_000
        day = 24 * 3600 * us
        rng = np.random.RandomState(1)
        n = 3000
        ts0 = (np.sort(rng.randint(0, 30 * 24 * 3600, n)).astype(np.int64)
               * us + np.arange(n))
        eids = list(range(n))
        uids = [0] * n
        tss = ts0.tolist()
        types = ["click" if i % 3 == 0 else "purchase" for i in range(n)]
        big = 1 << 60   # ids above 2^53: a pandas float64 roundtrip in the
        # stitch would corrupt them — the Arrow passthrough must not
        for e, u, t, k in [(n, 1, 5 * us, "click"),
                           (n + 1, 1, 10 * day, "purchase"),
                           (n + 2, 1, 25 * day, "purchase"),
                           (n + 3, 2, 3 * day, "purchase"),
                           (big + 1, 5, 7 * us, "click"),
                           (big + 2, 5, 9 * us, "purchase"),      # res path
                           (big + 3, 5, 20 * day, "purchase")]:   # open path
            eids.append(e), uids.append(u), tss.append(t), types.append(k)
        tbl = pa.table({
            "event_id": pa.array(eids, pa.int64()),
            "user_id": pa.array(uids, pa.int64()),
            "ts": pa.array(np.asarray(tss, dtype="int64")
                           ).cast(pa.timestamp("us")),
            "event_type": pa.array(types, pa.string()),
        })
        ds = rd.from_arrow(tbl)
        a = (asof_join_events(ds)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        b = (asof_join_events_salted(ds, bucket_us=day)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        assert a["asof_event_id"].isna().sum() == 1  # only the clickless user
        # user 1's purchases carry the day-0 click across 10 and 25 buckets
        assert (a.loc[a["user_id"] == 1, "asof_event_id"] == n).all()
        # >2^53 ids survive both the res and the open stitch path exactly
        # (checked via take_all — to_pandas itself would round to float64)
        u5 = [r for r in asof_join_events_salted(ds, bucket_us=day)
              .take_all() if r["user_id"] == 5]
        assert len(u5) == 2
        assert all(r["asof_event_id"] == big + 1 for r in u5)
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
        # all-purchase input: every stitch block is carry-less → all NULL
        only_p = rd.from_arrow(tbl.filter(
            pa.compute.equal(tbl["event_type"], "purchase")))
        c = asof_join_events_salted(only_p, bucket_us=day).to_pandas()
        assert len(c) and c["asof_event_id"].isna().all()

    _on_both_paths(monkeypatch, caplog, check)


def test_asof_join_semantics(ray_session):
    """As-of join tie rules on a hand-built stream: strictly-earlier
    (ts, event_id) order, equal-ts left with smaller id counts, NULL
    when no prior left event, carry resets per user."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import asof_join_events

    us = 1_000_000
    rows = [
        # user 1: click(1)@t1, purchase(2)@t2 -> attributes to 1
        (1, 1, 1 * us, "click"), (2, 1, 2 * us, "purchase"),
        # user 1: click(3) at the SAME ts as purchase(4), 3 < 4 -> counts
        (3, 1, 5 * us, "click"), (4, 1, 5 * us, "purchase"),
        # user 2: purchase before any click -> NULL; later one attributes
        (5, 2, 1 * us, "purchase"), (6, 2, 2 * us, "click"),
        (7, 2, 3 * us, "purchase"),
        # user 3: only other types -> filtered out entirely
        (8, 3, 1 * us, "view"),
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = (asof_join_events(rd.from_arrow(tbl))
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [2, 4, 5, 7]
    got = out["asof_event_id"].tolist()
    assert got[0] == 1 and got[1] == 3 and got[3] == 6
    assert pd.isna(got[2])


def test_salted_sessionize_equals_unsalted(ray_session, monkeypatch, caplog):
    """sessionize_salted (time-bucket salt + ghost stitch) must be
    byte-identical to the plain per-user sort on the real events
    fixture."""

    def check():
        import pandas as pd
        import ray.data as rd

        from clinicaltransformerner_ray.pipelines.events import (
            sessionize, sessionize_salted)

        SF_E = "/root/testdata/sf0.001/events.parquet"
        cols = ["event_id", "user_id", "ts"]
        a = (sessionize(rd.read_parquet(SF_E, columns=cols))
             .to_pandas().sort_values(["user_id", "session_idx"])
             .reset_index(drop=True))
        b = (sessionize_salted(rd.read_parquet(SF_E, columns=cols))
             .to_pandas().sort_values(["user_id", "session_idx"])
             .reset_index(drop=True))
        pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)],
                                      check_dtype=False)

    _on_both_paths(monkeypatch, caplog, check)


def test_salted_sessionize_hyperactive_user_crosses_buckets(ray_session, monkeypatch, caplog):
    """A session chain spanning MANY salt buckets (hyperactive user with
    sub-gap inter-event times for days) must stitch into one session;
    separate sessions across quiet gaps keep exact global numbering."""

    def check():
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from clinicaltransformerner_ray.pipelines.events import (
            sessionize, sessionize_salted)

        HOUR = 3600 * 1_000_000
        rows = []
        eid = 0
        # user 7: one 50-hour session, event every 20 min (gap 30 min)
        for k in range(150):
            rows.append({"event_id": eid, "user_id": 7,
                         "ts": k * 20 * 60 * 1_000_000})
            eid += 1
        # then 3 quiet hours, then a short second session
        base = 150 * 20 * 60 * 1_000_000 + 3 * HOUR
        for k in range(5):
            rows.append({"event_id": eid, "user_id": 7,
                         "ts": base + k * 10 * 60 * 1_000_000})
            eid += 1
        # a normal user for contrast
        for k in range(4):
            rows.append({"event_id": eid, "user_id": 8,
                         "ts": k * 2 * HOUR})
            eid += 1
        df = pd.DataFrame(rows)
        df["ts"] = df["ts"].astype("datetime64[us]")
        tbl = pa.Table.from_pandas(df, preserve_index=False)
        # bucket = 2h so the long session crosses ~25 bucket boundaries
        salted = (sessionize_salted(rd.from_arrow(tbl), bucket_us=2 * HOUR)
                  .to_pandas().sort_values(["user_id", "session_idx"])
                  .reset_index(drop=True))
        plain = (sessionize(rd.from_arrow(tbl))
                 .to_pandas().sort_values(["user_id", "session_idx"])
                 .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            salted[sorted(salted.columns)], plain[sorted(plain.columns)],
            check_dtype=False)
        u7 = salted[salted["user_id"] == 7]
        assert len(u7) == 2 and int(u7["n_events"].iloc[0]) == 150

    _on_both_paths(monkeypatch, caplog, check)


def test_bioc_files_full_collection_wrapper(ray_session):
    """K3 complete: per-doc BioC files carry the reference's collection
    header/footer (output_format_converter.py:25-41)."""
    import ray.data as rd

    from clinicaltransformerner_ray.sinks.formatters import bioc_files

    mentions = rd.from_items([
        {"conv_id": "c1", "turn_idx": 0, "surface": "foo",
         "start": 2, "end": 5, "type": "drug"},
    ])
    [row] = bioc_files(mentions).take_all()
    xml = row["xml"]
    assert xml.startswith(
        "<?xml version='1.0' encoding='utf-8' standalone='yes'?>")
    assert "<collection>" in xml and xml.rstrip().endswith("</collection>")
    assert "<id>c1:0</id>" in xml and "<offset>0</offset>" in xml
    assert '<infon key="type">drug</infon>' in xml
    assert xml.count("<passage>") == 1 == xml.count("</passage>")


def test_mentions_via_offset_mapping(ray_session):
    """M17: word-index biaffine spans ⋈ offset-mapping side table ->
    original char offsets; unmappable spans dropped
    (output_format_converter.py:96-144)."""
    import ray.data as rd

    from clinicaltransformerner_ray.sinks.formatters import (
        brat_annotations, mentions_via_offset_mapping)

    # note text: "take aspirin now" -> word char offsets
    mapping = rd.from_items([
        {"doc_idx": 0, "note_id": "note1",
         "word_starts": [0, 5, 13], "word_ends": [4, 12, 16]},
    ])
    spans = rd.from_items([
        {"doc_idx": 0, "text": "aspirin", "type": "drug",
         "start": 1, "end": 1},
        {"doc_idx": 0, "text": "aspirin now", "type": "x",
         "start": 1, "end": 2},
        {"doc_idx": 0, "text": "bad", "type": "x", "start": 2, "end": 9},
    ])
    out = (mentions_via_offset_mapping(spans, mapping)
           .to_pandas().sort_values("start").reset_index(drop=True))
    assert len(out) == 2  # out-of-range span dropped
    assert list(out["start"]) == [5, 5] and list(out["end"]) == [12, 16]
    # composes with the brat formatter
    [row] = brat_annotations(
        mentions_via_offset_mapping(spans, mapping)).take_all()
    assert row["ann"].startswith("T1\t")


def test_salted_sessionize_multiblock_stitch(ray_session, monkeypatch, caplog):
    """Regression (r2 advice, high): the stitch pass must sort on
    user_id ALONE — a composite (user_id, bucket, local_idx) sort lets
    Ray's range partitioner split one user's session chain across
    blocks, silently dropping boundary merges.  Force a multi-block
    stitch stage (16 input blocks, hundreds of users, sessions crossing
    bucket boundaries) and require byte-equality with sessionize()."""

    def check():
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from clinicaltransformerner_ray.pipelines.events import (
            sessionize, sessionize_salted)

        HOUR = 3600 * 1_000_000
        MIN20 = 20 * 60 * 1_000_000
        rows_u, rows_t, rows_e = [], [], []
        eid = 0
        for u in range(250):
            t = u * 13 * 60 * 1_000_000  # staggered starts
            # session 1: 30 events 20min apart -> ~10h, crosses 2h buckets
            for k in range(30):
                rows_u.append(u)
                rows_t.append(t + k * MIN20)
                rows_e.append(eid)
                eid += 1
            # 3h quiet gap, then a short session 2
            base = t + 30 * MIN20 + 3 * HOUR
            for k in range(4):
                rows_u.append(u)
                rows_t.append(base + k * 10 * 60 * 1_000_000)
                rows_e.append(eid)
                eid += 1
        df = pd.DataFrame({"event_id": rows_e, "user_id": rows_u,
                           "ts": np.asarray(rows_t, dtype="datetime64[us]")})
        # shuffle row order so blocks interleave users
        df = df.sample(frac=1.0, random_state=0).reset_index(drop=True)
        # tiny block targets force the stitch input to SPLIT across task
        # bundles at test scale (the context is captured at dataset
        # creation, so set BEFORE from_arrow); with the composite-key sort
        # this scenario produced 79 duplicated (user_id, session_idx) rows
        from ray.data import DataContext

        ctx = DataContext.get_current()
        old_max, old_min = ctx.target_max_block_size, ctx.target_min_block_size
        ctx.target_max_block_size = 4 * 1024
        ctx.target_min_block_size = 1024
        try:
            ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
            ds = ds.repartition(16)
            salted = (sessionize_salted(ds, bucket_us=2 * HOUR)
                      .to_pandas().sort_values(["user_id", "session_idx"])
                      .reset_index(drop=True))
            plain = (sessionize(ds).to_pandas()
                     .sort_values(["user_id", "session_idx"])
                     .reset_index(drop=True))
        finally:
            ctx.target_max_block_size = old_max
            ctx.target_min_block_size = old_min
        # no duplicated (user, session_idx) rows — the observed failure mode
        assert not salted.duplicated(["user_id", "session_idx"]).any()
        pd.testing.assert_frame_equal(
            salted[sorted(salted.columns)], plain[sorted(plain.columns)],
            check_dtype=False)

    _on_both_paths(monkeypatch, caplog, check)


def test_latest_event_per_user_ties(ray_session):
    """Dedup-to-latest tie rule: equal ts resolves to the larger
    event_id; each user yields exactly one row across block splits."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        latest_event_per_user)

    n = 1000
    ts0 = pd.Timestamp("2024-01-01").value // 1000
    tbl = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "user_id": pa.array([i % 7 for i in range(n)], pa.int64()),
        # users 0..6; user 3 has ALL-equal timestamps (pure id tie)
        "ts": pa.array(np.asarray(
            [ts0 if i % 7 == 3 else ts0 + i * 1000 for i in range(n)],
            dtype="int64")).cast(pa.timestamp("us")),
        "event_type": pa.array(["view"] * n, pa.string()),
    })
    out = (latest_event_per_user(rd.from_arrow(tbl).repartition(8))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert len(out) == 7
    want = {u: max(i for i in range(n) if i % 7 == u) for u in range(7)}
    got = dict(zip(out["user_id"], out["event_id"]))
    assert got == want


def test_funnel_conversions_semantics(ray_session):
    """Hand-built stream: conversion must be STRICTLY after the first
    click and within the horizon; a purchase before the first click or
    past the horizon doesn't convert; first purchase wins."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        funnel_conversions)

    t0 = pd.Timestamp("2024-01-01")
    us = lambda m: t0 + pd.Timedelta(minutes=m)
    rows = [
        # user 1: click@0, purchases @10 and @5 -> converts at 5
        (1, us(0), "click"), (1, us(10), "purchase"),
        (1, us(5), "purchase"),
        # user 2: purchase BEFORE its only click -> no conversion
        (2, us(10), "click"), (2, us(3), "purchase"),
        # user 3: purchase past the horizon -> no conversion
        (3, us(0), "click"), (3, us(120), "purchase"),
        # user 4: equal-ts purchase (not strictly after) -> none
        (4, us(7), "click"), (4, us(7), "purchase"),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = (funnel_conversions(rd.from_arrow(tbl).repartition(3),
                              horizon_us=60 * 60 * 1_000_000)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert out["user_id"].tolist() == [1]
    assert out["first_ts"].tolist() == [us(0)]
    assert out["conv_ts"].tolist() == [us(5)]


def test_cohort_retention_semantics(ray_session):
    """Hand-built stream: two cohorts, a returning user counted once
    per week (duplicates collapse), offsets relative to each user's
    own first week."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        WEEK_US, cohort_retention)

    # buckets are epoch-aligned fixed 7-day windows: construct
    # timestamps INSIDE known buckets (base + w weeks + a few hours)
    base = (pd.Timestamp("2024-01-01").value // 1000 // WEEK_US + 1)
    wk = lambda w, h=1: pd.Timestamp(
        ((base + w) * WEEK_US + h * 3_600_000_000) * 1000)
    rows = [
        (1, wk(0)), (1, wk(0, 5)),  # user 1: week 0 twice -> once
        (1, wk(2)),                 # returns in week 2
        (2, wk(0)),                 # user 2: week-0 cohort, never back
        (3, wk(1)), (3, wk(2)),     # user 3: week-1 cohort, back at +1
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = cohort_retention(rd.from_arrow(tbl).repartition(3)).to_pandas()
    got = {(r.cohort_week - base, r.week_offset): r.n_users
           for r in out.itertuples()}
    assert got == {(0, 0): 2, (0, 2): 1, (1, 0): 1, (1, 1): 1}


def test_attributed_revenue_semantics(ray_session):
    """Hand-built stream: purchases before any click are unattributed,
    the MOST RECENT prior click wins, multiple purchases roll up onto
    one click with exact cents, equal-ts click with smaller event_id
    counts (the asof (ts, event_id) tie rule)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        attributed_revenue)

    t0 = pd.Timestamp("2024-01-01")
    m = lambda k: t0 + pd.Timedelta(minutes=k)
    #  (event_id, user, ts, type, value)
    rows = [
        (1, 1, m(0), "purchase", 9.99),   # before any click -> dropped
        (2, 1, m(1), "click", 0.0),
        (3, 1, m(2), "purchase", 1.25),   # -> click 2
        (4, 1, m(3), "click", 0.0),
        (5, 1, m(4), "purchase", 2.00),   # -> click 4 (most recent)
        (6, 1, m(4), "purchase", 0.50),   # -> click 4 (rolls up)
        (8, 2, m(5), "click", 0.0),
        (9, 2, m(5), "purchase", 3.00),   # equal ts, click id 8 < 9
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    })
    out = (attributed_revenue(rd.from_arrow(tbl).repartition(3))
           .to_pandas().sort_values("click_event_id")
           .reset_index(drop=True))
    assert out.values.tolist() == [[2, 1, 125], [4, 2, 250], [8, 1, 300]]


def test_merge_intervals_swallow_case(ray_session):
    """An early LONG interval must swallow later short ones that start
    before its end — the containment case gap sessionization cannot
    express — and block splits must not change the result."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import merge_intervals

    t0 = pd.Timestamp("2024-01-01").value // 1000
    MIN = 60 * 1_000_000
    # durations = (cents % 7 + 1) * 600s: value 0.06 -> 6%7+1=7 -> 70min
    # value 0.07 -> 0+1 -> 10min
    rows = [
        # user 1: long opener at t0 (70min), short at +20min (10min,
        # swallowed), short at +70min (10min, still overlaps the END
        # boundary? start == end of opener -> s > prev_max is False ->
        # merges), then one far later -> new island
        (1, 1, t0,            0.06),
        (1, 2, t0 + 20 * MIN, 0.07),
        (1, 3, t0 + 70 * MIN, 0.07),
        (1, 4, t0 + 300 * MIN, 0.07),
        # user 2: single event
        (2, 5, t0, 0.07),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    for parts in (1, 3):
        out = (merge_intervals(rd.from_arrow(tbl).repartition(parts))
               .to_pandas()
               .sort_values(["user_id", "island_idx"])
               .reset_index(drop=True))
        assert out["user_id"].tolist() == [1, 1, 2]
        assert out["island_idx"].tolist() == [0, 1, 0]
        assert out["n_events"].tolist() == [3, 1, 1]
        # island 0 end = max end = t0+80min (event 3's end), not the
        # opener's 70min
        assert out["end_ts"].iloc[0].value // 1000 == t0 + 80 * MIN


def test_robust_outliers_mad_rule(ray_session):
    """Median/MAD on a hand-built column: one far point beyond k*MAD
    is counted, near points are not; exact CDF-position medians."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import robust_outliers

    # values (cents): 100 x9 and one 10000 -> med=100 (pos (50*10+99)//100
    # = 5 -> 5th of sorted), deviations: 0 x9, 9900 -> mad=0... make mad
    # nonzero: use 90,100,110 pattern
    vals = [0.90, 1.00, 1.10, 0.90, 1.00, 1.10, 0.90, 1.00, 1.10, 100.00]
    tbl = pa.table({
        "event_type": pa.array(["a"] * 10, pa.string()),
        "value": pa.array(vals, pa.float64()),
    })
    out = robust_outliers(rd.from_arrow(tbl), k=8).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    # sorted cents: 90,90,90,100,100,100,110,110,110,10000 -> pos 5 -> 100
    assert r.med_cents == 100
    # deviations: 10,0,10,... sorted: 0,0,0,10,10,10,10,10,10,9900
    # pos 5 -> 10
    assert r.mad_cents == 10
    # outlier rule: |v-100| > 80 -> only the 10000 row
    assert r.n_outliers == 1 and r.n_events == 10


def test_user_gap_stats_median_and_block_split(ray_session):
    """Lower-median rule on an even gap count, single-event users
    excluded, and block-split invariance (events repartitioned so one
    user's rows start in different blocks)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import user_gap_stats

    # user 1: ts 0,10,30,70,150 -> gaps 10,20,40,80 (even count: lower
    # median 20); user 2: single event -> excluded; user 3: equal
    # timestamps -> event_id tiebreak gives gaps 0,5
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 1, 2, 3, 3, 3], pa.int64()),
        "ts": pa.array([0, 10, 30, 70, 150, 500, 900, 900, 905],
                       pa.timestamp("us")),
    })
    out = (user_gap_stats(rd.from_arrow(tbl).repartition(4))
           .to_pandas().set_index("user_id"))
    assert set(out.index) == {1, 3}
    assert out.loc[1, "n_events"] == 5
    assert out.loc[1, "min_gap_us"] == 10
    assert out.loc[1, "max_gap_us"] == 80
    assert out.loc[1, "sum_gap_us"] == 150
    assert out.loc[1, "med_gap_us"] == 20   # lower median of 10,20,40,80
    assert out.loc[3, "n_gaps"] == 2
    assert out.loc[3, "min_gap_us"] == 0
    assert out.loc[3, "med_gap_us"] == 0


def test_kmv_estimator_quality(ray_session):
    """With n >> k the KMV estimate lands within 3 standard errors
    (sigma ~ n/sqrt(k-1)); with n < k it is exact; block splits leave
    the sketch unchanged (bottom-k partials are mergeable)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.sketches import (
        kmv_distinct_users)

    n = 5000
    tbl = pa.table({"user_id": pa.array(list(range(n)) * 2, pa.int64())})
    one = kmv_distinct_users(rd.from_arrow(tbl), k=64).to_pylist()[0]
    split = kmv_distinct_users(
        rd.from_arrow(tbl).repartition(7), k=64).to_pylist()[0]
    assert one == split
    assert abs(one["est_users"] - n) < 3 * n / (63 ** 0.5)
    small = kmv_distinct_users(
        rd.from_arrow(tbl.slice(0, 40)), k=64).to_pylist()[0]
    assert small["est_users"] == 40 and small["n_kept"] == 40


def test_user_type_pivot_catchall_and_block_split(ray_session):
    """An unknown event type lands in n_other/cents_other (no silent
    drops) and a user split across blocks still sums exactly."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import user_type_pivot

    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["click", "mystery", "click", "view"],
                               pa.string()),
        "value": pa.array([1.0, 2.5, 0.5, 9.99], pa.float64()),
    })
    out = (user_type_pivot(rd.from_arrow(tbl).repartition(4))
           .to_pandas().set_index("user_id"))
    assert out.loc[1, "n_click"] == 2
    assert out.loc[1, "cents_click"] == 150
    assert out.loc[1, "n_other"] == 1
    assert out.loc[1, "cents_other"] == 250
    assert out.loc[2, "n_view"] == 1 and out.loc[2, "cents_view"] == 999
    assert out.loc[2, "n_other"] == 0


def test_activity_streaks_islands(ray_session):
    """Hand graph: days {0,1,2, 5, 7,8} -> streaks 3/1/2 (max 3,
    n_streaks 3); duplicate (user, day) rows across blocks collapse."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.events import (
        activity_streaks)

    D = 86_400_000_000
    days = [0, 0, 1, 2, 5, 7, 8, 8]
    tbl = pa.table({
        "user_id": pa.array([1] * len(days) + [2], pa.int64()),
        "ts": pa.array([d * D + 123 for d in days] + [9 * D],
                       pa.timestamp("us")),
    })
    out = (activity_streaks(rd.from_arrow(tbl).repartition(4))
           .to_pandas().set_index("user_id"))
    assert out.loc[1, "max_streak_days"] == 3
    assert out.loc[1, "n_active_days"] == 6
    assert out.loc[1, "n_streaks"] == 3
    assert out.loc[2, "max_streak_days"] == 1
