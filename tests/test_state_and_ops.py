"""Tests for metrics/gates/anomalies, lookups, multimodal plumbing, dedup
operators, knn, and the distributed connected-components paths."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from entity_resolution_engine_ray.config import QualityGateConfig
from entity_resolution_engine_ray.state.metrics import (
    MetricsStore,
    build_quality_report,
    detect_anomalies,
    evaluate_quality_gates,
)


def _metric_row(entity="page", total=100, gray=10, review=2, calls=10, errors=0, auto_match=80, auto_reject=10):
    return {
        "entity_type": entity,
        "total_candidates": total,
        "gray_zone_sent_count": gray,
        "llm_review_count": review,
        "llm_call_count": calls,
        "llm_error_count": errors,
        "auto_match_count": auto_match,
        "auto_reject_count": auto_reject,
    }


# ---------------------------------------------------------------- gates


def test_quality_gates_pass():
    res = evaluate_quality_gates([_metric_row()], high_severity_count=0)
    assert res["status"] == "PASS"
    assert res["failed_gates"] == []
    assert res["gate_values"]["gray_zone_rate"] == pytest.approx(0.1)


def test_quality_gates_fail_each_gate():
    # gray zone over 0.35
    res = evaluate_quality_gates([_metric_row(gray=40)])
    assert "max_gray_zone_rate" in res["failed_gates"]
    # review rate over 0.15
    res = evaluate_quality_gates([_metric_row(review=20)])
    assert "max_llm_review_rate" in res["failed_gates"]
    # error rate over 0.05
    res = evaluate_quality_gates([_metric_row(errors=5)])
    assert "max_llm_error_rate" in res["failed_gates"]
    # HIGH anomaly
    res = evaluate_quality_gates([_metric_row()], high_severity_count=1)
    assert res["status"] == "FAIL" and "high_severity_anomalies" in res["failed_gates"]
    # configurable off
    res = evaluate_quality_gates(
        [_metric_row()], high_severity_count=1,
        config=QualityGateConfig(fail_on_high_severity_anomalies=False),
    )
    assert res["status"] == "PASS"


def test_quality_gates_empty_metrics():
    res = evaluate_quality_gates([])
    assert res["status"] == "PASS"
    assert res["gate_values"]["total_candidates"] == 0


def test_run_metrics_history_row_schema(tmp_path):
    """A history row keeps the column names, types and values the pandas
    frame it used to be built from gave it: ints int64, floats float64,
    strings as they are, and None as the string "None" that ``_num`` and
    the API readers expect."""
    import pyarrow.parquet as pq

    store = MetricsStore(str(tmp_path))
    row = {
        "entity_type": "page",
        "total_candidates": 120,
        "llm_avg_latency_ms": None,
        "wall_s": 0.25,
        "np_count": np.int64(7),
        "llm_disabled_reason": "llm_unavailable",
    }
    store.append_run_metrics("r1", [row])
    got = pq.read_table(tmp_path / "run_metrics" / "r1.parquet")
    want_schema = pa.schema(
        [
            ("entity_type", pa.string()),
            ("total_candidates", pa.int64()),
            ("llm_avg_latency_ms", pa.string()),
            ("wall_s", pa.float64()),
            ("np_count", pa.int64()),
            ("llm_disabled_reason", pa.string()),
            ("run_id", pa.string()),
            ("recorded_at", pa.float64()),
        ]
    )
    assert got.schema.equals(want_schema, check_metadata=False), got.schema
    values = got.to_pylist()[0]
    assert values.pop("recorded_at") > 0
    assert values == {
        "entity_type": "page",
        "total_candidates": 120,
        "llm_avg_latency_ms": "None",
        "wall_s": 0.25,
        "np_count": 7,
        "llm_disabled_reason": "llm_unavailable",
        "run_id": "r1",
    }
    assert store.run_metrics()["llm_avg_latency_ms"].tolist() == ["None"]


# ---------------------------------------------------------------- anomalies


def test_anomaly_detection(tmp_path):
    store = MetricsStore(str(tmp_path))
    # 8 baseline runs with steady rates
    for i in range(8):
        store.append_run_metrics(f"run{i}", [_metric_row(gray=10 + (i % 2))])
    # anomalous run: gray zone rate jumps 10→60
    store.append_run_metrics("runX", [_metric_row(gray=60)])
    anomalies = detect_anomalies(store, "runX", "page")
    names = {a["metric_name"] for a in anomalies}
    assert "gray_zone_rate" in names
    g = next(a for a in anomalies if a["metric_name"] == "gray_zone_rate")
    assert g["severity"] == "HIGH"  # huge z-score
    # fewer than 2 baseline rows → no anomalies
    store2 = MetricsStore(str(tmp_path / "s2"))
    store2.append_run_metrics("only", [_metric_row(gray=60)])
    assert detect_anomalies(store2, "only", "page") == []


def test_quality_report(tmp_path):
    store = MetricsStore(str(tmp_path))
    for i in range(3):
        store.append_run_metrics(f"r{i}", [_metric_row()])
    store.append_run_metrics("rX", [_metric_row(gray=90)])
    detect_anomalies(store, "rX", "page")
    report = build_quality_report(store, "rX")
    assert report["run_id"] == "rX"
    assert len(report["metrics"]) == 1


# ---------------------------------------------------------------- lookups


def test_lookups_and_review_queue(ray_session):
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er
    from entity_resolution_engine_ray.sources.pages import write_pages_fixture
    from entity_resolution_engine_ray.state.lookups import (
        ReviewQueue,
        entity_by_id,
        entity_by_url,
        lineage_of_entity,
    )

    fix = write_pages_fixture("/tmp/er_test_fixture", 500, seed=42)
    out = "/tmp/er_lookup_out"
    shutil.rmtree(out, ignore_errors=True)
    res = run_pages_er(fix["pages"], out)
    ent = res["entities"].take(1)[0]
    got = entity_by_id(out, ent["entity_id"])
    assert got and got["canonical_url"] == ent["canonical_url"]
    via_url = entity_by_url(out, ent["canonical_url"])
    assert via_url and via_url["entity_id"] == ent["entity_id"]
    lin = lineage_of_entity(out, ent["entity_id"])
    assert len(lin) == ent["n_members"]

    rq = ReviewQueue(out)
    rq.add("item1", {"entity_type": "page", "candidate": {"x": 1}})
    assert rq.list(status="PENDING")[0]["id"] == "item1"
    rq.approve("item1")
    assert rq.list(status="APPROVED")[0]["id"] == "item1"
    with pytest.raises(KeyError):
        rq.reject("nope")


# ---------------------------------------------------------------- multimodal


def test_image_feature_stage(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import (
        ImageFeatureExtractor,
        image_feature_stage,
    )

    tbl = pa.table(
        {
            "id": pa.array([1, 2, 3], type=pa.int64()),
            "image": pa.array([b"fakepng1", b"fakepng2", b"fakepng1"], type=pa.binary()),
        }
    )
    out = image_feature_stage(rd.from_arrow(tbl), dim=16).to_pandas()
    assert list(out.columns) == ["id", "width", "height", "embedding"]
    assert all(len(e) == 16 for e in out["embedding"])
    # deterministic: same payload → same features
    e1 = out[out["id"] == 1]["embedding"].iloc[0]
    e3 = out[out["id"] == 3]["embedding"].iloc[0]
    assert np.allclose(list(e1), list(e3))
    # the real-decoder path is explicitly not implemented here
    with pytest.raises(NotImplementedError):
        ImageFeatureExtractor(decoder="pillow")


def test_bmp_codec_roundtrip_and_resize():
    """Pure-numpy BMP codec: encode→decode is the identity on pixels
    (including non-multiple-of-4 widths that need row padding), and
    nearest-neighbor resize produces exact expected pixels."""
    from entity_resolution_engine_ray.stages.multimodal import (
        decode_bmp,
        encode_bmp,
        resize_nearest,
    )

    rng = np.random.default_rng(3)
    for w, h in ((5, 3), (4, 4), (1, 7)):
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_bmp(encode_bmp(img)), img)
    # 2×2 checkerboard → 4×4: each source pixel becomes a 2×2 block
    cb = np.zeros((2, 2, 3), dtype=np.uint8)
    cb[0, 1] = cb[1, 0] = 255
    big = resize_nearest(cb, 4, 4)
    for y in range(4):
        for x in range(4):
            assert np.array_equal(big[y, x], cb[y // 2, x // 2])
    # downscale picks pixel centers
    down = resize_nearest(big, 2, 2)
    assert np.array_equal(down, cb)


def test_image_resize_stage_real_bmp(ray_session):
    """image_resize_stage(decoder='bmp') does REAL pixel work: the output
    payload is the exact BMP encoding of the nearest-neighbor-resized
    input pixels."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import (
        decode_bmp,
        encode_bmp,
        image_resize_stage,
        resize_nearest,
    )

    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, size=(6, 10, 3), dtype=np.uint8)
    tbl = pa.table(
        {
            "id": pa.array([1], type=pa.int64()),
            "image": pa.array([encode_bmp(img)], type=pa.binary()),
        }
    )
    out = image_resize_stage(
        rd.from_arrow(tbl), width=4, height=4, decoder="bmp", concurrency=1
    ).to_pandas()
    expected = resize_nearest(img, 4, 4)
    got = decode_bmp(out["image"].iloc[0])
    assert np.array_equal(got, expected)
    assert out["image"].iloc[0] == encode_bmp(expected)  # byte-exact
    assert out["width"].iloc[0] == 4 and out["height"].iloc[0] == 4
    # JPEG/PNG still require Pillow — requesting them raises, not fakes
    with pytest.raises(NotImplementedError):
        image_resize_stage(rd.from_arrow(tbl), decoder="pillow")


def test_image_features_real_bmp(ray_session):
    """decoder='bmp' feature extraction reports TRUE dimensions and a
    pixel-derived embedding (uniform-color images embed identically)."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import (
        encode_bmp,
        image_feature_stage,
    )

    red = np.zeros((8, 12, 3), dtype=np.uint8)
    red[..., 0] = 200
    red_small = np.zeros((4, 6, 3), dtype=np.uint8)
    red_small[..., 0] = 200
    blue = np.zeros((8, 12, 3), dtype=np.uint8)
    blue[..., 2] = 200
    tbl = pa.table(
        {
            "id": pa.array([1, 2, 3], type=pa.int64()),
            "image": pa.array(
                [encode_bmp(red), encode_bmp(red_small), encode_bmp(blue)], type=pa.binary()
            ),
        }
    )
    out = (
        image_feature_stage(rd.from_arrow(tbl), dim=48, decoder="bmp")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out["width"].tolist() == [12, 6, 12]
    assert out["height"].tolist() == [8, 4, 8]
    e1, e2, e3 = (np.asarray(list(e)) for e in out["embedding"])
    assert np.allclose(e1, e2)          # same color, any size → same grid
    assert not np.allclose(e1, e3)      # different color → different embed


def test_ppm_codec_roundtrip_and_comments():
    """Pure-numpy binary-PPM codec: encode→decode is the pixel identity,
    and headers with # comments / extra whitespace parse correctly."""
    from entity_resolution_engine_ray.stages.multimodal import decode_ppm, encode_ppm

    rng = np.random.default_rng(5)
    for w, h in ((5, 3), (4, 4), (1, 7)):
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    img = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    commented = b"P6\n# made by a test\n3 2\n# maxval next\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(commented), img)
    with pytest.raises(NotImplementedError):
        decode_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


def test_image_resize_stage_auto_mixed_formats(ray_session):
    """decoder='auto' sniffs each payload's format and re-encodes the
    resized pixels in the SAME format — BMP in/BMP out, PPM in/PPM out,
    byte-exact against the serial codec path."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import (
        decode_bmp,
        decode_ppm,
        encode_bmp,
        encode_ppm,
        image_resize_stage,
        resize_nearest,
    )

    rng = np.random.default_rng(23)
    bmp_img = rng.integers(0, 256, size=(6, 10, 3), dtype=np.uint8)
    ppm_img = rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8)
    tbl = pa.table(
        {
            "id": pa.array([1, 2], type=pa.int64()),
            "image": pa.array(
                [encode_bmp(bmp_img), encode_ppm(ppm_img)], type=pa.binary()
            ),
        }
    )
    out = (
        image_resize_stage(rd.from_arrow(tbl), width=4, height=4, decoder="auto", concurrency=1)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out["image"].iloc[0] == encode_bmp(resize_nearest(bmp_img, 4, 4))
    assert out["image"].iloc[1] == encode_ppm(resize_nearest(ppm_img, 4, 4))
    assert np.array_equal(decode_bmp(out["image"].iloc[0]), resize_nearest(bmp_img, 4, 4))
    assert np.array_equal(decode_ppm(out["image"].iloc[1]), resize_nearest(ppm_img, 4, 4))


def test_wav_codec_roundtrip_and_resample():
    """Pure-numpy WAV codec: encode→decode is the identity on PCM16 samples
    (mono and stereo), and linear resample hits exact interpolated values."""
    from entity_resolution_engine_ray.stages.multimodal import (
        decode_wav,
        encode_wav,
        resample_linear,
    )

    rng = np.random.default_rng(5)
    for channels in (1, 2):
        samples = rng.integers(-32768, 32768, size=(100, channels), dtype=np.int16)
        got, rate = decode_wav(encode_wav(samples, 8000))
        assert rate == 8000
        assert np.array_equal(got, samples)
    # stdlib `wave` writes what we can read (cross-check the header walk)
    import io
    import wave

    mono = rng.integers(-32768, 32768, size=(64, 1), dtype=np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(mono.tobytes())
    got, rate = decode_wav(buf.getvalue())
    assert rate == 16000 and np.array_equal(got, mono)
    # 2× upsample of a ramp interpolates linearly; same-rate is identity
    ramp = np.arange(0, 1000, 100, dtype=np.int16)[:, None]
    up = resample_linear(ramp, 8000, 16000)
    assert up.shape[0] == 20
    assert up[0, 0] == 0 and up[-1, 0] == 900
    assert np.array_equal(resample_linear(ramp, 8000, 8000), ramp)


def test_audio_stages_real_wav(ray_session):
    """audio_resample_stage / audio_feature_stage with decoder='wav' do REAL
    signal work: byte-exact resampled payloads, true durations, and an
    energy-envelope embedding localized where the signal actually is."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import (
        audio_feature_stage,
        audio_resample_stage,
        decode_wav,
        encode_wav,
        resample_linear,
    )

    rate = 8000
    t = np.arange(rate)  # 1 s
    sine = (10_000 * np.sin(2 * np.pi * 440 * t / rate)).astype(np.int16)[:, None]
    # loud first half, silent second half
    half = sine.copy()
    half[rate // 2 :] = 0
    tbl = pa.table(
        {
            "id": pa.array([1, 2], type=pa.int64()),
            "audio": pa.array([encode_wav(sine, rate), encode_wav(half, rate)], type=pa.binary()),
        }
    )
    res = (
        audio_resample_stage(rd.from_arrow(tbl), target_rate=4000)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert res["audio"].iloc[0] == encode_wav(resample_linear(sine, rate, 4000), 4000)  # byte-exact
    assert res["sample_rate"].tolist() == [4000, 4000]
    assert abs(res["duration_s"].iloc[0] - 1.0) < 0.01
    dec, r2 = decode_wav(res["audio"].iloc[1])
    assert r2 == 4000 and dec.shape[0] == 4000

    feats = (
        audio_feature_stage(rd.from_arrow(tbl), dim=8, decoder="wav")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert abs(feats["duration_s"].iloc[0] - 1.0) < 1e-9  # true duration
    e_half = np.asarray(list(feats["embedding"].iloc[1]))
    assert np.all(e_half[:4] > 0.1) and np.allclose(e_half[4:], 0)  # energy in first half only


def test_frame_sample_stage(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import frame_sample_stage

    tbl = pa.table(
        {
            "id": pa.array([7], type=pa.int64()),
            "video": pa.array([b"x" * 50_000], type=pa.binary()),
        }
    )
    out = frame_sample_stage(rd.from_arrow(tbl)).to_pandas()
    assert len(out) == 5  # 50 "frames" sampled every 10
    assert set(out["id"]) == {7}
    assert out["frame_index"].tolist() == [0, 10, 20, 30, 40]


# ---------------------------------------------------------------- dedup ops


def test_exact_dedup(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import exact_dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["same", "same", "different", "same"],
        }
    )
    out = exact_dedup(rd.from_arrow(tbl), "doc_id", "text").to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 3]
    assert out["n_dupes"].tolist() == [3, 1]


def test_near_dup_clusters_token_and_ngram(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import (
        minhash_near_dup_clusters,
        ngram_near_dup_clusters,
    )

    base = "the quick brown fox jumps over the lazy dog again and again today"
    texts = [base, base + " extra", "completely different words entirely here now", base.replace("quick", "swift")]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], type=pa.int64()), "text": texts})
    out = minhash_near_dup_clusters(rd.from_arrow(tbl), threshold=0.5).to_pandas().sort_values("doc_id")
    # docs 0,1,3 cluster together; doc 2 is alone
    assert out[out["doc_id"] == 0]["cluster_id"].iloc[0] == out[out["doc_id"] == 1]["cluster_id"].iloc[0]
    assert out[out["doc_id"] == 2]["cluster_size"].iloc[0] == 1
    assert len(out) == 4  # every doc labeled, singletons included
    out2 = ngram_near_dup_clusters(rd.from_arrow(tbl), threshold=0.5).to_pandas().sort_values("doc_id")
    assert out2[out2["doc_id"] == 0]["cluster_id"].iloc[0] == out2[out2["doc_id"] == 1]["cluster_id"].iloc[0]


def test_near_dup_clusters_gate_parity(ray_session, monkeypatch):
    """The labelprop finish (forced by a zero cluster.DRIVER_EDGE_LIMIT)
    must produce the SAME cluster partitions — and the same min-doc_id
    cluster ids — as the driver-map finish (the default gate at this
    size)."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages import cluster
    from entity_resolution_engine_ray.stages.dedup import near_dup_clusters

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts, ids = [], []
    for g in range(6):
        stem = base + f" group{g}"
        for m in range(4):
            texts.append(stem + (" tail" if m % 2 else ""))
            ids.append(g * 10 + m)
    texts.append("totally unrelated standalone document content")
    ids.append(999)
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts})
    local = (
        near_dup_clusters(rd.from_arrow(tbl), threshold=0.5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(cluster, "DRIVER_EDGE_LIMIT", 0)
    lp = (
        near_dup_clusters(rd.from_arrow(tbl), threshold=0.5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert local["doc_id"].tolist() == lp["doc_id"].tolist()
    assert local["cluster_id"].tolist() == lp["cluster_id"].tolist()
    assert local["cluster_size"].tolist() == lp["cluster_size"].tolist()
    # every group clustered, singleton alone, ids = min member
    assert local[local["doc_id"] == 999]["cluster_size"].iloc[0] == 1
    g0 = local[local["doc_id"].isin([0, 1, 2, 3])]
    assert g0["cluster_id"].nunique() == 1 and g0["cluster_id"].iloc[0] == 0


def test_near_dup_negative_ids_not_dropped(ray_session):
    """Regression (round-3 advice): legal negative int64 doc ids must
    survive — the old marker-row filter (left_id >= 0 or right_id >= 0)
    silently dropped edges between two negative-id docs."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import near_dup_edges

    text = "omega psi chi phi upsilon tau sigma rho pi omicron"
    tbl = pa.table(
        {
            "doc_id": pa.array([-5, -9, 7], type=pa.int64()),
            "text": [text, text, "different entirely other words here now"],
        }
    )
    edges, dropped = near_dup_edges(rd.from_arrow(tbl), threshold=0.5)
    pdf = edges.to_pandas()
    assert len(pdf) == 1
    assert sorted([int(pdf["left_id"][0]), int(pdf["right_id"][0])]) == [-9, -5]
    assert dropped == 0


def test_near_dup_no_surviving_edges(ray_session):
    """Regression (round-3 advice): when the verify filter removes every
    candidate, the edge Dataset must come back as the TYPED empty table (the
    old path emitted a zero-column block that crashed the dedup exchange)."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import near_dup_clusters, near_dup_edges

    # same LSH bucket (identical first tokens) but below-threshold overlap
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": ["alpha beta gamma", "alpha beta gamma delta x y z w q r s t u v"],
        }
    )
    edges, dropped = near_dup_edges(rd.from_arrow(tbl), threshold=0.99)
    assert edges.count() == 0
    # the TYPED schema must survive (zero-column blocks crash downstream)
    assert edges.schema().names == ["left_id", "right_id", "jaccard"]
    out = near_dup_clusters(rd.from_arrow(tbl), threshold=0.99).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 2]
    assert out["cluster_size"].tolist() == [1, 1]


def test_pair_verify_reports_drops_out_of_band():
    """A verify partition whose every pair is capped away (or under
    threshold) returns no row and reports its dropped count out of band of
    the rows — never as an id sentinel or a marker row."""
    from entity_resolution_engine_ray.stages.dedup import _pair_verify_partition

    ids = np.arange(10, dtype=np.int64)
    toks = [np.array([i], dtype=np.int64) for i in range(10)]  # disjoint sets
    tbl = pa.table(
        {
            "id": pa.array(ids, type=pa.int64()),
            "token_ids": pa.array([t.tolist() for t in toks], type=pa.list_(pa.int64())),
            "block_key": pa.array(np.zeros(10, dtype=np.int64), type=pa.int64()),
        }
    )
    out, counts = _pair_verify_partition(tbl, cap=4, threshold=0.5)
    assert out.num_rows == 0
    assert out.schema.names == ["left_id", "right_id", "jaccard"]
    # 10 members capped to 4: (10*9 - 4*3)/2 = 39 dropped pairs
    assert counts == {"dropped": 39}


def test_simhash_stage(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.functions.similarity import hamming_similarity64
    from entity_resolution_engine_ray.stages.dedup import simhash_stage

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "text": ["alpha beta gamma delta epsilon zeta eta theta", "alpha beta gamma delta epsilon zeta eta iota"],
        }
    )
    out = simhash_stage(rd.from_arrow(tbl)).to_pandas()
    sim = hamming_similarity64(int(out["simhash"][0]), int(out["simhash"][1]))
    assert sim > 0.8


# ---------------------------------------------------------------- knn


def test_knn_brute_force_and_ivf(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import knn_brute_force, knn_ivf

    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((200, 16))
    query = vecs[5] + rng.standard_normal(16) * 0.01  # near-match for id 5
    tbl = pa.table(
        {
            "vec_id": pa.array(range(200), type=pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(tbl)
    out = knn_brute_force(ds, query, k=5)
    assert out.iloc[0]["vec_id"] == 5
    assert out.iloc[0]["cos"] > 0.99
    # IVF with full probing is exact
    ivf_full = knn_ivf(ds, query, k=5, n_centroids=8, n_probe=8)
    assert ivf_full.iloc[0]["vec_id"] == 5
    # partial probing still finds the near-identical vector
    ivf = knn_ivf(ds, query, k=5, n_centroids=8, n_probe=3)
    assert 5 in set(ivf["vec_id"])


def test_ivf_kmeans_refinement_recall(ray_session):
    """Lloyd-refined IVF (n_iters>0) reaches recall@10 ≥ 0.9 vs brute force
    at a probe fraction where the index is genuinely partial (n_probe=2 of
    8 lists), on clustered data — the shape IVF exists for."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import (
        kmeans_refine_centroids,
        knn_brute_force,
        knn_ivf,
    )

    rng = np.random.default_rng(7)
    # 8 well-separated Gaussian clusters in 16-d, 50 points each
    centers = rng.standard_normal((8, 16)) * 6.0
    vecs = np.concatenate(
        [c + rng.standard_normal((50, 16)) for c in centers], axis=0
    )
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], type=pa.list_(pa.float32())
            ),
        }
    )
    ds = rd.from_arrow(tbl).repartition(4)
    query = centers[3] + rng.standard_normal(16) * 0.1
    truth = set(knn_brute_force(ds, query, k=10)["vec_id"])
    refined = knn_ivf(ds, query, k=10, n_centroids=8, n_probe=2, n_iters=4)
    recall = len(truth & set(refined["vec_id"])) / 10
    assert recall >= 0.9, f"refined IVF recall@10 {recall} < 0.9"
    # refinement is deterministic for a fixed input: identical calls agree
    # up to float summation-order noise in the partial-sum fold
    base = np.random.default_rng(1234).standard_normal((8, 16))
    base = (base.T / np.linalg.norm(base, axis=1)).T
    a = kmeans_refine_centroids(ds, base, 4)
    b = kmeans_refine_centroids(ds, base, 4)
    assert np.allclose(a, b, atol=1e-7)


# ---------------------------------------------------------------- clustering


def test_labelprop_matches_local_unionfind(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.functions.similarity import stable_hash64
    from entity_resolution_engine_ray.oracle.serial import UnionFind
    from entity_resolution_engine_ray.stages.cluster import (
        cluster_label_map,
        connected_components_labelprop_ids,
    )

    # two chains + one triangle + isolated pair
    edges = [
        ("a", "b"), ("b", "c"), ("c", "d"),          # chain of 4
        ("x", "y"), ("y", "z"), ("z", "x"),          # triangle
        ("p", "q"),                                   # pair
    ]
    url_of = {stable_hash64(u): u for u in "abcdxyzpq"}

    def partitions(labels: dict) -> set[frozenset]:
        groups: dict = {}
        for node, label in labels.items():
            groups.setdefault(label, set()).add(url_of.get(node, node))
        return {frozenset(g) for g in groups.values()}

    # ground truth: the serial oracle's union-find over the url strings
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    expected = partitions({u: uf.find(u) for u in list(uf.parent)})
    assert expected == {frozenset("abcd"), frozenset("xyz"), frozenset("pq")}

    # the engine clusters url hashes
    tbl = pa.table(
        {
            "left_id": pa.array([stable_hash64(a) for a, _ in edges], type=pa.int64()),
            "right_id": pa.array([stable_hash64(b) for _, b in edges], type=pa.int64()),
        }
    )
    lp = connected_components_labelprop_ids(rd.from_arrow(tbl), num_partitions=4).to_pandas()
    assert partitions(dict(zip(lp["node"], lp["cluster_label"]))) == expected

    # the driver kernel groups hashes identically
    nodes, roots = cluster_label_map(rd.from_arrow(tbl))
    assert partitions(dict(zip(nodes.tolist(), roots.tolist()))) == expected


def test_triage_report(tmp_path):
    from entity_resolution_engine_ray.state.metrics import generate_triage_report

    store = MetricsStore(str(tmp_path))
    for i in range(6):
        store.append_run_metrics(f"r{i}", [_metric_row(gray=10 + (i % 2))])
    store.append_run_metrics("rX", [_metric_row(gray=90)])
    detect_anomalies(store, "rX", "page")
    report = generate_triage_report(store, "rX", "page")
    assert report["anomaly_count"] >= 1
    assert "gray_zone_rate" in report["summary"]
    assert report["generated_by"] == "deterministic_fallback"
    # no anomalies → clean summary
    empty = generate_triage_report(store, "r0", "page")
    assert empty["summary"] == "no anomalies detected"


def test_triage_report_through_llm_client(tmp_path):
    """Reference llm_triage.py:106-117 semantics on the Ray side: the
    anomalies + review samples go through the LLM client (fake transport);
    a valid TriageReport-shaped response is adopted; any failure falls back
    to the deterministic template."""
    import json as _json

    from entity_resolution_engine_ray.state.llm import LLMClient
    from entity_resolution_engine_ray.state.metrics import generate_triage_report

    store = MetricsStore(str(tmp_path))
    for i in range(6):
        store.append_run_metrics(f"r{i}", [_metric_row(gray=10 + (i % 2))])
    store.append_run_metrics("rX", [_metric_row(gray=90)])
    detect_anomalies(store, "rX", "page")

    seen = {}

    def good_transport(payload, timeout_s):
        seen["payload"] = _json.loads(payload["messages"][1]["content"])
        return {
            "content": _json.dumps(
                {
                    "summary": "gray-zone spike",
                    "likely_causes": ["threshold drift"],
                    "impact": "review queue growth",
                    "suggested_actions": ["inspect thresholds"],
                    "queries_to_run": ["SELECT 1"],
                }
            )
        }

    review = [{"left_id": 1, "right_id": 2, "score": 0.8, "conflict_flags": ["dob"]}]
    report = generate_triage_report(
        store, "rX", "page", review_items=review, llm_client=LLMClient(good_transport)
    )
    assert report["generated_by"] == "llm"
    assert report["summary"] == "gray-zone spike"
    assert report["likely_causes"] == ["threshold drift"]
    assert report["queries_to_run"] == ["SELECT 1"]
    # the model saw the anomalies and the review samples
    assert seen["payload"]["entity_type"] == "page"
    assert len(seen["payload"]["anomalies"]) >= 1
    assert seen["payload"]["review_samples"][0]["left_id"] == 1

    def bad_transport(payload, timeout_s):
        return {"content": "not json at all"}  # invalid even after retry

    fb = generate_triage_report(
        store, "rX", "page", llm_client=LLMClient(bad_transport)
    )
    assert fb["generated_by"] == "deterministic_fallback"
    assert "gray_zone_rate" in fb["summary"]

    def missing_fields(payload, timeout_s):
        return {"content": _json.dumps({"summary": "x"})}  # no impact field

    fb2 = generate_triage_report(
        store, "rX", "page", llm_client=LLMClient(missing_fields)
    )
    assert fb2["generated_by"] == "deterministic_fallback"


def test_cosine_all_pairs_exact(ray_session):
    """Blocked all-pairs cosine == the serial numpy answer (every pair,
    ordered left<right, threshold applied pre-round)."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import cosine_all_pairs_exact

    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((60, 8))
    vecs[10] = vecs[3] + rng.standard_normal(8) * 0.01  # a near-dup pair
    tbl = pa.table(
        {
            "vec_id": pa.array(range(60), type=pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    out = (
        cosine_all_pairs_exact(rd.from_arrow(tbl), threshold=0.5)
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    m = np.vstack([np.asarray(list(map(float, np.asarray(v, dtype=np.float32))), dtype=np.float64) for v in vecs])
    mn = (m.T / np.linalg.norm(m, axis=1)).T
    c = mn @ mn.T
    ref = [
        (i, j, c[i, j])
        for i in range(60)
        for j in range(i + 1, 60)
        if c[i, j] >= 0.5
    ]
    assert len(out) == len(ref)
    for (i, j, cv), (_, row) in zip(ref, out.iterrows()):
        assert (row["left_id"], row["right_id"]) == (i, j)
        assert abs(row["cos"] - round(cv, 4)) < 1.01e-4
    assert ((out["left_id"] == 3) & (out["right_id"] == 10)).any()


def test_cosine_near_dup_paths_agree(ray_session):
    """Broadcast (small-side) and partitioned (scale-side) cosine verifies
    must produce identical pairs and values — the size gate may never change
    results, only the physical plan."""
    import numpy as np
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import cosine_near_dup_pairs

    rng = np.random.default_rng(7)
    base = rng.standard_normal((40, 16))
    # build near-dup structure: pairs of slightly-perturbed vectors
    vecs = np.vstack([base, base + 0.01 * rng.standard_normal((40, 16))])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(80), type=pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    ds = rd.from_arrow(tbl)
    a = cosine_near_dup_pairs(ds, threshold=0.9, num_partitions=4).to_pandas()
    b = cosine_near_dup_pairs(
        ds, threshold=0.9, num_partitions=4, broadcast_limit_bytes=0
    ).to_pandas()
    a = a.sort_values(["left_id", "right_id"]).reset_index(drop=True)
    b = b.sort_values(["left_id", "right_id"]).reset_index(drop=True)
    assert len(a) >= 40  # the perturbed twins are found
    assert a.equals(b)


def test_image_resize_stage(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.multimodal import image_resize_stage

    tbl = pa.table(
        {
            "id": pa.array([1, 2], type=pa.int64()),
            "image": pa.array([b"imgA", b"imgB"], type=pa.binary()),
        }
    )
    out = image_resize_stage(rd.from_arrow(tbl), width=8, height=8).to_pandas()
    assert list(out.columns) == ["id", "image", "width", "height"]
    assert all(len(img) == 8 * 8 * 3 for img in out["image"])
    assert out["width"].tolist() == [8, 8]
    # deterministic per payload, distinct across payloads
    again = image_resize_stage(rd.from_arrow(tbl), width=8, height=8).to_pandas()
    assert out["image"].tolist() == again["image"].tolist()
    assert out["image"][0] != out["image"][1]
    with pytest.raises(NotImplementedError):
        image_resize_stage(rd.from_arrow(tbl), decoder="pillow")


def test_png_codec_roundtrip_and_filters():
    """Real PNG decode (stdlib zlib): roundtrip through our encoder, PLUS a
    hand-filtered PNG exercising every scanline filter (None/Sub/Up/
    Average/Paeth) built against a per-pixel reference implementation —
    decode must invert each filter exactly."""
    import struct
    import zlib

    import numpy as np

    from entity_resolution_engine_ray.stages.multimodal import (
        decode_image,
        decode_png,
        encode_png,
    )

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (13, 7, 3), dtype=np.uint8)
    back = decode_png(encode_png(img))
    np.testing.assert_array_equal(back, img)
    arr, fmt = decode_image(encode_png(img))
    assert fmt == "png"
    np.testing.assert_array_equal(arr, img)

    # hand-build a PNG whose rows use filters 0..4 cyclically
    h, w, ch = 10, 5, 3
    img2 = rng.integers(0, 256, (h, w, ch), dtype=np.uint8)
    flat = img2.reshape(h, w * ch).astype(int)
    raw = bytearray()
    prev = [0] * (w * ch)
    for y in range(h):
        f = y % 5
        raw.append(f)
        line = list(flat[y])
        filt = []
        for x in range(w * ch):
            a = line[x - ch] if x >= ch else 0
            b = prev[x]
            c = prev[x - ch] if x >= ch else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
            filt.append((line[x] - pred) % 256)
        raw.extend(filt)
        prev = line

    def chunk(typ, data):
        return (
            struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
        )

    payload = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(decode_png(payload), img2)

    # RGBA drops alpha; 16-bit raises the documented gate
    rgba = np.dstack([img2, np.full((h, w), 7, np.uint8)])
    raw4 = bytearray()
    for y in range(h):
        raw4.append(0)
        raw4.extend(rgba.reshape(h, w * 4)[y].tolist())
    p4 = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(bytes(raw4)))
        + chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(decode_png(p4), img2)
    import pytest

    p16 = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0))
    )
    with pytest.raises(NotImplementedError):
        decode_png(p16 + chunk(b"IEND", b""))


def test_jpeg_codec_roundtrip_444_and_420():
    """Pure-numpy baseline JPEG codec (stages/jpeg): encode->decode PSNR on
    a smooth fixture must exceed 35 dB for 4:4:4 and 4:2:0 (lossy codec —
    exactness is wrong to pin), a flat image must roundtrip EXACTLY (DC-only
    blocks), odd dimensions must pad+crop correctly, and grayscale decodes
    to replicated RGB."""
    from entity_resolution_engine_ray.stages.jpeg import decode_jpeg, encode_jpeg

    h, w = 48, 56
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.clip(
        np.stack(
            [
                128 + 100 * np.sin(xx / 19) * np.cos(yy / 23),
                128 + 80 * np.cos(xx / 13),
                128 + 60 * np.sin(yy / 17),
            ],
            axis=2,
        ),
        0,
        255,
    ).astype(np.uint8)
    for sub in (False, True):
        back = decode_jpeg(encode_jpeg(img, quality=90, subsample=sub))
        assert back.shape == img.shape
        mse = np.mean((back.astype(np.float64) - img) ** 2)
        assert 10 * np.log10(255**2 / mse) > 35, f"subsample={sub}"

    flat = np.full((16, 24, 3), 77, np.uint8)
    assert (decode_jpeg(encode_jpeg(flat, quality=95)) == flat).all()

    odd = np.clip(128 + 90 * np.sin(np.mgrid[0:21, 0:35][1] / 6), 0, 255).astype(np.uint8)
    back = decode_jpeg(encode_jpeg(np.repeat(odd[:, :, None], 3, axis=2), subsample=True))
    assert back.shape == (21, 35, 3)

    g = decode_jpeg(encode_jpeg(odd, quality=90))  # grayscale input
    assert g.shape == (21, 35, 3)
    assert (g[:, :, 0] == g[:, :, 1]).all() and (g[:, :, 1] == g[:, :, 2]).all()


def test_jpeg_decode_structural_pins():
    """Decoder pins independent of the encoder: a hand-assembled DC-only
    1-block stream decodes to the exact flat value; non-JPEG and
    progressive (SOF2) streams raise."""
    import pytest

    from entity_resolution_engine_ray.stages.jpeg import decode_jpeg, encode_jpeg

    with pytest.raises(ValueError):
        decode_jpeg(b"nope")
    payload = bytearray(encode_jpeg(np.zeros((8, 8), np.uint8)))
    i = payload.find(b"\xff\xc0")
    payload[i + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))


def test_image_stages_jpeg_auto_path(ray_session):
    """decode_image sniffs FFD8 and the auto resize stage re-encodes JPEG in
    its own format; features embed real pixels."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.jpeg import decode_jpeg, encode_jpeg
    from entity_resolution_engine_ray.stages.multimodal import (
        decode_image,
        image_resize_stage,
    )

    h, w = 32, 40
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.clip(
        np.repeat((128 + 90 * np.sin(xx / 9) * np.cos(yy / 7))[:, :, None], 3, axis=2), 0, 255
    ).astype(np.uint8)
    payload = encode_jpeg(img, quality=90, subsample=True)
    dec, fmt = decode_image(payload)
    assert fmt == "jpeg" and dec.shape == (h, w, 3)

    tbl = pa.table({"id": pa.array([1], type=pa.int64()), "image": pa.array([payload], type=pa.binary())})
    out = image_resize_stage(
        rd.from_arrow(tbl), width=16, height=12, decoder="auto", batch_size=4
    ).to_pandas()
    assert list(out["width"]) == [16] and list(out["height"]) == [12]
    resized = decode_jpeg(out["image"].iloc[0])
    assert resized.shape == (12, 16, 3)


def test_mjpeg_avi_roundtrip_and_frame_sampling(ray_session):
    """Real video path: JPEG frames → AVI container → frame_sample_stage
    (decoder='mjpeg') emits every_n-th ACTUAL frame payload, each decodable
    by stages/jpeg back to pixels."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.jpeg import decode_jpeg, encode_jpeg
    from entity_resolution_engine_ray.stages.multimodal import (
        decode_avi_mjpeg,
        encode_avi_mjpeg,
        frame_sample_stage,
    )

    frames = []
    for i in range(7):
        img = np.full((16, 16, 3), 20 * i + 10, np.uint8)
        frames.append(encode_jpeg(img, quality=95))
    avi = encode_avi_mjpeg(frames, fps=10, width=16, height=16)
    assert decode_avi_mjpeg(avi) == frames  # container roundtrip is exact

    tbl = pa.table({"id": pa.array([7], type=pa.int64()), "video": pa.array([avi], type=pa.binary())})
    out = (
        frame_sample_stage(rd.from_arrow(tbl), every_n=3, decoder="mjpeg")
        .to_pandas()
        .sort_values("frame_index")
    )
    assert list(out["frame_index"]) == [0, 3, 6]
    for idx, payload in zip(out["frame_index"], out["frame"]):
        px = decode_jpeg(payload)
        assert abs(int(px[0, 0, 0]) - (20 * idx + 10)) <= 2  # flat frames are near-exact

    import pytest

    with pytest.raises(ValueError):
        decode_avi_mjpeg(b"not an avi")
    with pytest.raises(NotImplementedError):
        frame_sample_stage(rd.from_arrow(tbl), decoder="ffmpeg")


def test_cosine_near_dup_edge_contracts(ray_session):
    """Review-pass pins: empty input returns a typed empty Dataset on BOTH
    gate paths; indivisible nbits/band_bits raises instead of silently
    discarding hyperplanes; a zero query vector raises in brute-force and
    IVF instead of returning NaN rows."""
    import numpy as np
    import pytest
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import (
        cosine_near_dup_pairs,
        knn_brute_force,
        knn_ivf,
    )

    empty = pa.table(
        {
            "vec_id": pa.array([], type=pa.int64()),
            "embedding": pa.array([], type=pa.list_(pa.float64())),
        }
    )
    for lim in (256 << 20, 0):
        out = cosine_near_dup_pairs(rd.from_arrow(empty), broadcast_limit_bytes=lim)
        assert out.count() == 0
        assert [f.name for f in out.schema().base_schema] == ["left_id", "right_id", "cos"]

    with pytest.raises(ValueError, match="divisible"):
        cosine_near_dup_pairs(rd.from_arrow(empty), nbits=64, band_bits=12)

    some = pa.table(
        {
            "vec_id": pa.array([1, 2], type=pa.int64()),
            "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]], type=pa.list_(pa.float64())),
        }
    )
    with pytest.raises(ValueError, match="zero norm"):
        knn_brute_force(rd.from_arrow(some), np.zeros(2), k=1)
    with pytest.raises(ValueError, match="zero norm"):
        knn_ivf(rd.from_arrow(some), np.zeros(2), k=1)


def test_cosine_lsh_pairs_are_value_exact_subset_of_exact_twin(ray_session):
    """Harmonized threshold semantics: every LSH-found pair must appear in
    the exact all-pairs output with the IDENTICAL 4dp cos value (both paths
    threshold on unrounded cos and report half-away 4dp)."""
    import numpy as np
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import (
        cosine_all_pairs_exact,
        cosine_near_dup_pairs,
    )

    rng = np.random.default_rng(11)
    base = rng.standard_normal((30, 16))
    vecs = np.vstack([base, base + 0.01 * rng.standard_normal((30, 16))])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(60), type=pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    ds = rd.from_arrow(tbl)
    lsh = cosine_near_dup_pairs(ds, threshold=0.9, num_partitions=4).to_pandas()
    exact = cosine_all_pairs_exact(ds, threshold=0.9).to_pandas()
    key = lambda df: set(zip(df["left_id"], df["right_id"], df["cos"]))
    assert len(lsh) >= 30
    assert key(lsh) <= key(exact)


def test_kmeans_assign_int32_ids_unify(ray_session):
    """An int32 id column must not produce mixed int32/int64 block schemas
    (the empty-batch branch emits int64)."""
    import numpy as np
    import ray.data as rd

    from entity_resolution_engine_ray.stages.knn import kmeans_assign

    rng = np.random.default_rng(5)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(40), type=pa.int32()),
            "embedding": pa.array(
                [list(map(float, v)) for v in rng.standard_normal((40, 8))],
                type=pa.list_(pa.float64()),
            ),
        }
    )
    out = kmeans_assign(rd.from_arrow(tbl), n_clusters=4, n_iters=2).to_pandas()
    assert len(out) == 40
    assert str(out["vec_id"].dtype) == "int64"


def test_dedup_review_guards(ray_session):
    """Review-pass pins: exact_dedup on a zero-row dataset returns a typed
    empty result instead of a KeyError on the missing hash column; an
    indivisible or oversized bands/num_perm configuration raises on both
    the single-corpus and cross-corpus entry points instead of silently
    degenerating every band key."""
    import pytest
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import (
        cross_corpus_near_dup_pairs,
        exact_dedup,
        near_dup_edges,
    )

    empty = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "text": pa.array([], type=pa.string()),
            }
        )
    )
    out = exact_dedup(empty, "doc_id", "text")
    assert out.count() == 0
    assert [f.name for f in out.schema().base_schema] == ["doc_id", "n_dupes"]

    for bad in ({"num_perm": 32, "bands": 64}, {"num_perm": 63, "bands": 20}):
        with pytest.raises(ValueError, match="multiple of bands"):
            near_dup_edges(empty, **bad)
        with pytest.raises(ValueError, match="multiple of bands"):
            cross_corpus_near_dup_pairs(empty, empty, **bad)


def test_labelprop_wide_exchange_matches_unionfind(ray_session):
    """Labelprop at 12 partitions == the serial oracle's union-find, on a
    random graph with a long chain, so every round's candidate exchange
    routes rows between many label owners."""
    import numpy as np
    import ray.data as rd

    from entity_resolution_engine_ray.oracle.serial import UnionFind
    from entity_resolution_engine_ray.stages.cluster import connected_components_labelprop_ids

    rng = np.random.default_rng(5)
    # chains + random unions over 400 nodes → nontrivial component shapes
    src = rng.integers(0, 400, 600, dtype=np.int64)
    dst = rng.integers(0, 400, 600, dtype=np.int64)
    chain = np.arange(100, dtype=np.int64)
    tbl = pa.table(
        {
            "left_id": pa.array(np.r_[src, chain[:-1] + 1000], type=pa.int64()),
            "right_id": pa.array(np.r_[dst, chain[1:] + 1000], type=pa.int64()),
        }
    )
    lp = connected_components_labelprop_ids(rd.from_arrow(tbl), num_partitions=12).to_pandas()
    got = {}
    for n, l in zip(lp["node"], lp["cluster_label"]):
        got.setdefault(l, set()).add(n)

    uf = UnionFind()
    for u, v in zip(tbl["left_id"].to_pylist(), tbl["right_id"].to_pylist()):
        uf.union(u, v)
    want = {}
    for n in set(tbl["left_id"].to_pylist()) | set(tbl["right_id"].to_pylist()):
        want.setdefault(uf.find(n), set()).add(n)
    assert {frozenset(g) for g in got.values()} == {frozenset(g) for g in want.values()}
