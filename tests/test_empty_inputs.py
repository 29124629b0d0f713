"""Empty inputs run through: a full run over zero pages and a fold of a
zero-page batch complete, write typed checkpoints and start no more Ray
Data executions than a non-empty call (tests/test_checkpoint_handoff.py)."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.pipelines.pages_er import (
    run_pages_er,
    run_pages_er_incremental,
)
from entity_resolution_engine_ray.sources.pages import write_pages_fixture
from tests.conftest import count_executions
from tests.test_checkpoint_handoff import MAX_FOLD_EXECUTIONS, MAX_RUN_EXECUTIONS

STAGES = ("features", "edges", "labeled", "entities", "lineage")
METHODS = ("auto", "labelprop")


def _checkpoint(out_dir: str, stage: str) -> pa.Table:
    return pq.read_table(os.path.join(out_dir, stage)).replace_schema_metadata(None)


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    """An empty pages file and, per cluster method, a completed run over a
    small corpus (the schema reference and the fold's previous run)."""
    root = tmp_path_factory.mktemp("empty")
    fix = write_pages_fixture(str(root / "fx"), 120, seed=4)
    tbl = pads.dataset(fix["pages"]).to_table()
    pq.write_table(tbl.slice(0, 0), str(root / "empty.parquet"))
    runs = {}
    for method in METHODS:
        cfg = PagesERConfig(cluster_method=method)
        out = str(root / f"corpus_{method}")
        runs[method] = (cfg, out, run_pages_er(fix["pages"], out, cfg))
    return {"root": root, "empty": str(root / "empty.parquet"), "runs": runs}


@pytest.mark.parametrize("method", METHODS)
def test_zero_page_run_writes_typed_empty_checkpoints(corpus, method):
    cfg, ref_dir, _ = corpus["runs"][method]
    out = str(corpus["root"] / f"zero_{method}")
    with count_executions() as n:
        res = run_pages_er(corpus["empty"], out, cfg)
    assert n["n"] <= MAX_RUN_EXECUTIONS
    assert res["metrics"]["n_entities"] == 0
    assert res["metrics"]["total_candidates"] == 0
    for stage in STAGES:
        got, ref = _checkpoint(out, stage), _checkpoint(ref_dir, stage)
        assert got.num_rows == 0, stage
        assert got.schema.equals(ref.schema), (stage, got.schema, ref.schema)


@pytest.mark.parametrize("method", METHODS)
def test_zero_page_fold_keeps_the_corpus(corpus, method):
    cfg, prev_dir, prev = corpus["runs"][method]
    out = str(corpus["root"] / f"fold_{method}")
    with count_executions() as n:
        res = run_pages_er_incremental(prev_dir, corpus["empty"], out, cfg)
    assert n["n"] <= MAX_FOLD_EXECUTIONS
    assert res["metrics"]["n_entities"] == prev["metrics"]["n_entities"] > 0
    keys = {"features": ["url"], "edges": ["left_id", "right_id"], "labeled": ["url"],
            "entities": ["entity_id"], "lineage": ["url"]}
    for stage in STAGES:
        got, ref = _checkpoint(out, stage), _checkpoint(prev_dir, stage)
        assert got.schema.equals(ref.schema), stage
        order = [(k, "ascending") for k in keys[stage]]
        assert got.sort_by(order).equals(ref.sort_by(order)), stage
