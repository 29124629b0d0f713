"""Distributed gray-zone validation stage tests."""

import shutil

import pyarrow as pa

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.stages.validate import (
    EdgeCandidate,
    GrayZoneValidatorPool,
    validate_gray_zone,
)


def _edges_table():
    return pa.table(
        {
            "left_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "right_id": pa.array([11, 12, 13, 14], type=pa.int64()),
            "score": pa.array([0.95, 0.75, 0.74, 0.3], type=pa.float64()),
            "jaccard": pa.array([0.9, 0.7, 0.4, 0.1], type=pa.float64()),
            "simhash_sim": pa.array([0.9, 0.8, 0.8, 0.5], type=pa.float64()),
            "title_sim": pa.array([1.0, 0.9, 0.9, 0.2], type=pa.float64()),
            "decision": ["auto_approve", "review", "review", "reject"],
        }
    )


def test_validator_pool_batch_semantics():
    pool = GrayZoneValidatorPool()
    out = pool(_edges_table())
    assert out["decision"].to_pylist() == ["llm_approve", "llm_approve", "review", "llm_reject"]
    # wait: rows 0 and 3 were not review — the pool validates whatever it is
    # given; slicing to the review subset is validate_gray_zone's job


def test_validate_gray_zone_only_touches_review(ray_session):
    import ray.data as rd

    out = validate_gray_zone(rd.from_arrow(_edges_table())).to_pandas()
    by_left = dict(zip(out["left_id"], out["decision"]))
    assert by_left[1] == "auto_approve"  # untouched
    assert by_left[4] == "reject"        # untouched
    assert by_left[2] == "llm_approve"   # jaccard 0.7 ≥ 0.6
    assert by_left[3] == "review"        # 0.3 ≤ jaccard 0.4 < 0.6


def test_breaker_opens_on_crashing_validator():
    class Crashing:
        def __call__(self, c: EdgeCandidate) -> str:
            raise RuntimeError("boom")

    pool = GrayZoneValidatorPool(validator_factory=Crashing, breaker_window=4, breaker_max_fail_rate=0.5)
    big = pa.concat_tables([_edges_table()] * 5)
    out = pool(big)
    assert set(out["decision"].to_pylist()) == {"review"}
    assert pool.open  # breaker latched


def test_pipeline_with_validation(ray_session):
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er
    from entity_resolution_engine_ray.sources.pages import write_pages_fixture

    fix = write_pages_fixture("/tmp/er_test_fixture", 500, seed=42)
    out = "/tmp/er_validate_out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = PagesERConfig(fallback_mode="review", enable_llm_validation=True)
    res = run_pages_er(fix["pages"], out, cfg=cfg)
    decisions = set(res["edges"].unique("decision"))
    assert "gray_approve" not in decisions  # review mode: no silent approvals
    assert decisions & {"llm_approve", "llm_reject", "review", "auto_approve"}
    assert res["entities"].count() > 0


def test_llm_validator_factory_distributed(ray_session):
    """Gray-zone pool driven by the transport-injectable LLM client: strong
    Jaccard → MATCH, weak → NO_MATCH, decided by the (fake) model."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.stages.validate import (
        llm_validator_factory,
        validate_gray_zone,
    )

    def transport(payload, timeout_s):
        req = json.loads(payload["messages"][1]["content"])
        decision = "MATCH" if req["signals"]["jaccard"] >= 0.5 else "NO_MATCH"
        return {"content": json.dumps({"decision": decision, "confidence": 0.9, "reasons": [], "risk_flags": []})}

    edges = pa.table(
        {
            "left_id": pa.array([1, 2], type=pa.int64()),
            "right_id": pa.array([11, 12], type=pa.int64()),
            "block_key": pa.array([1, 1], type=pa.int64()),
            "score": pa.array([0.8, 0.8], type=pa.float64()),
            "jaccard": pa.array([0.7, 0.2], type=pa.float64()),
            "simhash_sim": pa.array([0.9, 0.9], type=pa.float64()),
            "title_sim": pa.array([0.9, 0.9], type=pa.float64()),
            "decision": ["review", "review"],
        }
    )
    out = validate_gray_zone(
        rd.from_arrow(edges), validator_factory=llm_validator_factory(transport), concurrency=1
    ).to_pandas()
    by_pair = {(r.left_id, r.right_id): r.decision for r in out.itertuples()}
    assert by_pair[(1, 11)] == "llm_approve"
    assert by_pair[(2, 12)] == "llm_reject"


def test_gate_metrics_counts_llm_decisions(ray_session):
    """Post-validation edges carry llm_approve/llm_reject — run metrics
    must count them in totals, gray-zone, and the llm_* fields (they
    previously vanished, shrinking every rate the quality gates check)."""
    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.stages.score import gate_metrics

    edges = rd.from_arrow(
        pa.table(
            {
                "decision": pa.array(
                    ["auto_approve"] * 5
                    + ["reject"] * 3
                    + ["llm_approve"] * 2
                    + ["llm_reject"] * 1
                    + ["review"] * 1
                )
            }
        )
    )
    m = gate_metrics(edges)
    assert m["total_candidates"] == 12
    assert m["auto_match_count"] == 5 and m["auto_reject_count"] == 3
    assert m["llm_match_count"] == 2 and m["llm_no_match_count"] == 1
    assert m["llm_call_count"] == 3 and m["llm_review_count"] == 1
    assert m["gray_zone_sent_count"] == 4  # llm-decided + still-review
    assert m["approved_count"] == 7  # auto + llm approvals
    assert m["llm_disabled_reason"] is None

    # pre-validation edges: unchanged semantics, llm fields zero
    plain = rd.from_arrow(
        pa.table({"decision": pa.array(["auto_approve", "reject", "review"])})
    )
    m2 = gate_metrics(plain)
    assert m2["total_candidates"] == 3 and m2["llm_call_count"] == 0
    assert m2["llm_disabled_reason"] == "llm_unavailable"


def test_config_validation_rejects_degenerate_caps():
    import pytest

    from entity_resolution_engine_ray.config import PagesERConfig

    with pytest.raises(ValueError, match="pair_sample_cap"):
        PagesERConfig(pair_sample_cap=0)
    with pytest.raises(ValueError, match="max_block_size"):
        PagesERConfig(max_block_size=1)
    with pytest.raises(ValueError, match="multiple of bands"):
        PagesERConfig(bands=64)


def test_config_validation_rejects_unknown_cluster_method():
    import pytest

    from entity_resolution_engine_ray.config import PagesERConfig

    for bad in ("Local", "lp", ""):
        with pytest.raises(ValueError, match="cluster_method"):
            PagesERConfig(cluster_method=bad)
    for ok in ("auto", "local", "labelprop"):
        assert PagesERConfig(cluster_method=ok).cluster_method == ok
