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


def test_skipped_prune_is_recorded_and_keeps_the_edges(ray_session, tmp_path, monkeypatch):
    """``pairs.key_stats`` gives up the pairable set past ``pairable_limit``,
    and the pair exchange then ships every band row: the edges manifest says
    so (``prune_skipped``), the edges stay those of a pruned run, and a fold
    onto such a run reports the skip too."""
    import functools

    from entity_resolution_engine_ray.stages import pairs

    fix = write_pages_fixture(str(tmp_path / "fx"), 300, seed=6)
    tbl = pads.dataset(fix["pages"]).to_table()
    pq.write_table(tbl.slice(0, 250), str(tmp_path / "old.parquet"))
    pq.write_table(tbl.slice(250), str(tmp_path / "new.parquet"))

    def edges_of(out_dir: str) -> pd.DataFrame:
        got = pq.read_table(f"{out_dir}/edges").to_pandas()
        return got.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    def skipped(out_dir: str) -> bool:
        return CheckpointStore(out_dir).manifest("edges")["prune_skipped"]

    pruned = str(tmp_path / "pruned")
    run_pages_er(fix["pages"], pruned)
    assert skipped(pruned) is False

    unpruned, old = str(tmp_path / "unpruned"), str(tmp_path / "old")
    with monkeypatch.context() as mp:
        mp.setattr(pairs, "key_stats", functools.partial(pairs.key_stats, pairable_limit=0))
        run_pages_er(fix["pages"], unpruned)
        run_pages_er(str(tmp_path / "old.parquet"), old)
    assert skipped(unpruned) is True
    assert len(edges_of(pruned)) > 0
    pd.testing.assert_frame_equal(edges_of(unpruned), edges_of(pruned))

    fold = str(tmp_path / "fold")
    run_pages_er_incremental(old, str(tmp_path / "new.parquet"), fold)
    assert skipped(old) is True and skipped(fold) is True
