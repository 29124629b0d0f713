"""Incremental resolution contract: folding a new batch into a completed
run equals the full run over the union — same edges, same cluster
partitions — while rescoring only blocks the new batch touches."""

import pandas as pd
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.pipelines.pages_er import (
    run_pages_er,
    run_pages_er_incremental,
)
from entity_resolution_engine_ray.sources.pages import write_pages_fixture
from entity_resolution_engine_ray.state.checkpoint import CheckpointStore


def _partitions(labeled: pd.DataFrame) -> set:
    return {frozenset(g) for _, g in labeled.groupby("cluster_label")["url"]}


def test_incremental_equals_full(ray_session, tmp_path):
    fix = write_pages_fixture(str(tmp_path / "fx"), 900, seed=5)
    tbl = pads.dataset(fix["pages"]).to_table()
    n_old = 600
    pq.write_table(tbl.slice(0, n_old), str(tmp_path / "old.parquet"))
    pq.write_table(tbl.slice(n_old), str(tmp_path / "new.parquet"))

    # drop-free config: equality is exact only when no block exceeds the
    # cap (an over-cap block may drop pairs in one run it keeps in the other)
    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)

    full = run_pages_er(fix["pages"], str(tmp_path / "full"), cfg)
    run_pages_er(str(tmp_path / "old.parquet"), str(tmp_path / "runA"), cfg)
    inc = run_pages_er_incremental(
        str(tmp_path / "runA"), str(tmp_path / "new.parquet"), str(tmp_path / "inc"), cfg
    )

    ef = (
        full["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    )
    ei = (
        inc["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    )
    # every column, block_key included: the fold dedups by the full run's
    # rule (the pair's minimum block_key survives)
    assert {"left_id", "right_id", "block_key", "score", "decision"} <= set(ef.columns)
    pd.testing.assert_frame_equal(ei, ef, check_like=False)

    lf = CheckpointStore(str(tmp_path / "full")).read("labeled").to_pandas()
    li = CheckpointStore(str(tmp_path / "inc")).read("labeled").to_pandas()
    assert len(lf) == len(li) == 900
    assert _partitions(lf) == _partitions(li)

    man = CheckpointStore(str(tmp_path / "inc")).manifest("edges")
    assert man["touched_blocks"] > 0
    assert man["incremental_from"].endswith("runA")


def test_incremental_rejects_mismatched_previous_run(ray_session, tmp_path):
    fix = write_pages_fixture(str(tmp_path / "fx2"), 200, seed=6)
    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)
    run_pages_er(fix["pages"], str(tmp_path / "runA"), cfg)

    other = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000, gate_high=0.9)
    import pytest

    with pytest.raises(ValueError, match="config/pipeline version"):
        run_pages_er_incremental(
            str(tmp_path / "runA"), fix["pages"], str(tmp_path / "inc"), other
        )


def test_incremental_chain_two_batches(ray_session, tmp_path):
    """A CHAIN of increments (runA + batch1 → runB, runB + batch2 → runC)
    must still equal one full run over the union — the ingestion pattern a
    live crawl actually follows, and the case that catches state the first
    fold forgets to carry (touched-block bookkeeping, edge provenance)."""
    fix = write_pages_fixture(str(tmp_path / "fx"), 900, seed=11)
    tbl = pads.dataset(fix["pages"]).to_table()
    pq.write_table(tbl.slice(0, 500), str(tmp_path / "b0.parquet"))
    pq.write_table(tbl.slice(500, 200), str(tmp_path / "b1.parquet"))
    pq.write_table(tbl.slice(700), str(tmp_path / "b2.parquet"))

    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)

    full = run_pages_er(fix["pages"], str(tmp_path / "full"), cfg)
    run_pages_er(str(tmp_path / "b0.parquet"), str(tmp_path / "runA"), cfg)
    run_pages_er_incremental(
        str(tmp_path / "runA"), str(tmp_path / "b1.parquet"), str(tmp_path / "runB"), cfg
    )
    inc = run_pages_er_incremental(
        str(tmp_path / "runB"), str(tmp_path / "b2.parquet"), str(tmp_path / "runC"), cfg
    )

    ef = full["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    ei = inc["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ei, ef, check_like=False)

    lf = CheckpointStore(str(tmp_path / "full")).read("labeled").to_pandas()
    li = CheckpointStore(str(tmp_path / "runC")).read("labeled").to_pandas()
    assert len(lf) == len(li) == 900
    assert _partitions(lf) == _partitions(li)
