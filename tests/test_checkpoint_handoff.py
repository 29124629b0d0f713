"""Checkpoint hand-off: the tasks that make a stage's blocks write its part
files, ``CheckpointStore.commit`` publishes them and returns the same
in-memory blocks, so a run reads Parquet only for the stages it resumes.

- the ``Blocks`` every commit returns equal what ``store.read`` gets back
  from disk (same schema, same rows), including a zero-row typed input;
- no call ships a block to a separate write task, and the fold's
  ``features`` checkpoint holds the previous run's part files unchanged;
- a stage that raises after ``features`` leaves no ``_DONE`` of its own,
  and a resumed run ignores its leftover temp dir and ends with a clean
  run's checkpoints;
- ``store.read`` (one ``pq.read_table`` task per part file) equals a plain
  ``pq.read_table`` of the stage directory;
- a full run and an incremental fold of a Parquet path start no Ray Data
  execution and build no Dataset: the input is read inside the featurize
  tasks, the stages hand each other block lists, and the result's handles
  are built only when read;
- the Ray tasks each call submits stay at their pinned counts;
- the one merge exchange writes the entities and lineage a plain
  per-cluster reference computes from the ``labeled`` checkpoint, and a
  zero-row partition gives both typed empty tables;
- a fold resumed on an ``out_dir`` whose ``features``/``edges`` are already
  complete writes the same ``labeled`` checkpoint as a fresh fold;
- a full run and a fold at ``num_partitions=1`` submit no split task (the
  one reduce of each exchange maps its raw blocks) and write the
  checkpoints and edges manifest counts of the default width.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.pipelines.pages_er import (
    run_pages_er,
    run_pages_er_incremental,
)
from entity_resolution_engine_ray.sources.pages import write_pages_fixture
from entity_resolution_engine_ray.state.checkpoint import DONE_FILE, CheckpointStore
from tests.conftest import count_datasets, count_executions, count_tasks

# Ray Data executions per call on a Parquet path, for a full run and a
# labelprop fold: the input is read and featurized by plain tasks, the
# previous run's checkpoints are read with one task per part file, and
# every other step works on in-memory blocks with plain tasks or inside an
# exchange
MAX_RUN_EXECUTIONS = 0
MAX_FOLD_EXECUTIONS = 0
# Datasets per call, either kind: no block list is wrapped in a Dataset,
# and the input is not read through ``read_parquet``
DATASETS_PER_CALL = {"wraps": 0, "read_parquet": 0}
# Ray tasks per call (4 Ray CPUs, 400 pages): a split task per ~10k input
# rows rather than max(8, cpus), one key_stats sum partition below 500k
# key rows, labelprop in one task below 2M directed edge rows, every
# checkpoint part written by the task that makes it, one edge dedup on the
# fold, the decision counts from the approved-ids pass and the fold's
# touched keys from its featurize tasks, and no split task ahead of the
# one-partition key_stats sum (before: 44 and 65)
MAX_RUN_TASKS = 25
MAX_FOLD_TASKS = 37
# the same calls at num_partitions=1 (4 Ray CPUs, 400 pages): one task per
# exchange, its reduce, and no split task; one task for both stages of the
# pair exchange (before: 7 and 13)
WIDTH_ONE_TASKS = {"run": 6, "fold": 12}

# a key that orders each checkpoint's rows uniquely
SORT_KEYS = {
    "features": ["url"],
    "edges": ["left_id", "right_id"],
    "labeled": ["url"],
    "entities": ["entity_id"],
    "lineage": ["url"],
}


def _as_table(blocks) -> pa.Table:
    tbls = ray.get(list(blocks.refs))
    return pa.concat_tables(tbls) if tbls else pa.table({})


def _sorted(tbl: pa.Table, stage: str) -> pa.Table:
    return tbl.sort_by([(k, "ascending") for k in SORT_KEYS[stage]])


@pytest.fixture(scope="module")
def runs(ray_session, tmp_path_factory):
    """One full run and one labelprop fold, recording the blocks every
    ``CheckpointStore.commit`` returns, and the executions, Datasets and
    tasks of each call."""
    root = tmp_path_factory.mktemp("handoff")
    fix = write_pages_fixture(str(root / "fx"), 400, seed=9)
    tbl = pads.dataset(fix["pages"]).to_table()
    idx = np.random.default_rng(1).permutation(tbl.num_rows)
    pq.write_table(tbl.take(idx[:360]), str(root / "old.parquet"))
    pq.write_table(tbl.take(idx[360:]), str(root / "new.parquet"))
    cfg_lp = PagesERConfig(cluster_method="labelprop")
    run_pages_er(str(root / "old.parquet"), str(root / "corpus"), cfg_lp)

    written: dict[str, dict[str, object]] = {"run": {}, "fold": {}}
    current = {"call": None}
    commit = CheckpointStore.commit

    def recording_commit(self, stage, *args, **kwargs):
        out = commit(self, stage, *args, **kwargs)
        written[current["call"]][stage] = out
        return out

    counts, datasets, tasks = {}, {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CheckpointStore, "commit", recording_commit)
        current["call"] = "run"
        with count_executions() as n, count_datasets() as d, count_tasks() as t:
            run_pages_er(fix["pages"], str(root / "run"))
        counts["run"], datasets["run"], tasks["run"] = n["n"], dict(d), t
        current["call"] = "fold"
        with count_executions() as n, count_datasets() as d, count_tasks() as t:
            run_pages_er_incremental(
                str(root / "corpus"), str(root / "new.parquet"), str(root / "fold"), cfg_lp
            )
        counts["fold"], datasets["fold"], tasks["fold"] = n["n"], dict(d), t
    return {
        "root": root, "written": written, "counts": counts, "datasets": datasets, "tasks": tasks,
        "cfg_lp": cfg_lp, "pages": fix["pages"],
    }


@pytest.fixture(scope="module")
def width_one(runs):
    """The fixture's full run and labelprop fold again at
    ``num_partitions=1``, with the tasks of each call."""
    root, tasks = runs["root"], {}
    with count_tasks() as t:
        run_pages_er(runs["pages"], str(root / "run_w1"), num_partitions=1)
    tasks["run"] = t
    with count_tasks() as t:
        run_pages_er_incremental(
            str(root / "corpus"), str(root / "new.parquet"), str(root / "fold_w1"),
            runs["cfg_lp"], num_partitions=1,
        )
    tasks["fold"] = t
    return {"root": root, "tasks": tasks}


@pytest.mark.parametrize("call", ["run", "fold"])
@pytest.mark.parametrize("stage", sorted(SORT_KEYS))
def test_width_one_checkpoints_equal_the_default_widths(width_one, call, stage):
    root = width_one["root"]
    got = pq.read_table(CheckpointStore(str(root / f"{call}_w1")).stage_dir(stage))
    want = pq.read_table(CheckpointStore(str(root / call)).stage_dir(stage))
    assert got.num_rows == want.num_rows > 0
    assert got.schema.equals(want.schema, check_metadata=False), (got.schema, want.schema)
    assert _sorted(got, stage).equals(_sorted(want, stage))


@pytest.mark.parametrize("call", ["run", "fold"])
def test_width_one_edges_manifest_counts(width_one, call):
    root = width_one["root"]
    got = CheckpointStore(str(root / f"{call}_w1")).manifest("edges")
    want = CheckpointStore(str(root / call)).manifest("edges")
    for key in ("dropped_pairs", "prefiltered_pairs", "prune_skipped", "touched_blocks"):
        assert got.get(key) == want.get(key), key


@pytest.mark.parametrize("call", ["run", "fold"])
def test_width_one_task_count_per_call(width_one, call):
    by_name = width_one["tasks"][call]["by_name"]
    assert by_name["_split_block"] == 0, dict(by_name)
    assert width_one["tasks"][call]["n"] <= WIDTH_ONE_TASKS[call], dict(by_name)


def test_execution_count_per_call(runs):
    assert runs["counts"]["run"] <= MAX_RUN_EXECUTIONS, runs["counts"]
    assert runs["counts"]["fold"] <= MAX_FOLD_EXECUTIONS, runs["counts"]


def test_task_count_per_call(runs):
    assert runs["tasks"]["run"]["n"] <= MAX_RUN_TASKS, dict(runs["tasks"]["run"]["by_name"])
    assert runs["tasks"]["fold"]["n"] <= MAX_FOLD_TASKS, dict(runs["tasks"]["fold"]["by_name"])


@pytest.mark.parametrize("call", ["run", "fold"])
def test_no_separate_write_tasks(runs, call):
    """Every checkpoint part is written by the task that makes its block:
    no block goes to a ``_write_block`` task."""
    by_name = runs["tasks"][call]["by_name"]
    assert by_name["_write_block"] == 0, dict(by_name)


def test_fold_links_the_previous_features_parts(runs):
    """The fold's ``features`` checkpoint starts with the previous run's part
    files, byte for byte and in order, and reads each of them at most once
    (to score) — never reads and rewrites them."""
    import filecmp

    old = CheckpointStore(str(runs["root"] / "corpus"))._part_files("features")
    new = CheckpointStore(str(runs["root"] / "fold"))._part_files("features")
    assert 0 < len(old) < len(new)
    for a, b in zip(old, new):
        assert os.path.basename(a) == os.path.basename(b)
        assert filecmp.cmp(a, b, shallow=False), (a, b)
    n_edges = len(CheckpointStore(str(runs["root"] / "corpus"))._part_files("edges"))
    assert runs["tasks"]["fold"]["by_name"]["_read_part"] == len(old) + n_edges


@pytest.mark.parametrize("call", ["run", "fold"])
def test_datasets_per_call(runs, call):
    assert runs["datasets"][call] == DATASETS_PER_CALL, runs["datasets"]


@pytest.mark.parametrize("call", ["run", "fold"])
@pytest.mark.parametrize("stage", sorted(SORT_KEYS))
def test_written_dataset_equals_checkpoint(runs, call, stage):
    mem = runs["written"][call][stage]
    disk = CheckpointStore(str(runs["root"] / call)).read(stage)
    a, b = _as_table(mem), _as_table(disk)
    assert a.num_rows > 0
    assert a.schema.equals(b.schema, check_metadata=False), (a.schema, b.schema)
    assert _sorted(a, stage).equals(_sorted(b, stage))


@pytest.mark.parametrize("call", ["run", "fold"])
@pytest.mark.parametrize("stage", sorted(SORT_KEYS))
def test_read_equals_parquet_of_the_stage_dir(runs, call, stage):
    store = CheckpointStore(str(runs["root"] / call))
    got = _as_table(store.read(stage))
    want = pq.read_table(store.stage_dir(stage))
    assert got.num_rows == want.num_rows > 0
    assert got.schema.equals(want.schema, check_metadata=False), (got.schema, want.schema)
    assert _sorted(got, stage).equals(_sorted(want, stage))
    assert store.num_rows(stage) == want.num_rows


def test_zero_row_checkpoint_keeps_its_schema(ray_session, tmp_path):
    import ray.data as rd

    schema = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64()), ("decision", pa.string())])
    store = CheckpointStore(str(tmp_path / "out"))
    out = store.write(rd.from_arrow(schema.empty_table()), "edges", "h")
    assert out.count() == 0
    assert _as_table(out).schema.equals(schema, check_metadata=False)
    assert store.is_done("edges", "h")
    assert os.listdir(store.stage_dir("edges")) == sorted([DONE_FILE, "part-00000.parquet"])
    # resume and a plain pyarrow read both see the typed columns
    assert pq.read_table(store.stage_dir("edges")).schema.equals(schema, check_metadata=False)
    resumed = CheckpointStore(str(tmp_path / "out")).read("edges")
    assert resumed.schema().equals(schema, check_metadata=False)
    assert resumed.count() == 0
    assert _as_table(resumed).schema.equals(schema, check_metadata=False)
    assert store.num_rows("edges") == 0


def test_resumed_fold_writes_the_fresh_fold_labels(runs):
    root = runs["root"]
    resumed = root / "fold_resumed"
    shutil.rmtree(resumed, ignore_errors=True)
    os.makedirs(resumed)
    for stage in ("features", "edges"):
        shutil.copytree(root / "fold" / stage, resumed / stage)
    # the new batch is never read: features and edges resume from disk
    run_pages_er_incremental(
        str(root / "corpus"), str(root / "missing.parquet"), str(resumed), runs["cfg_lp"]
    )
    fresh = pq.read_table(str(root / "fold" / "labeled"))
    again = pq.read_table(str(resumed / "labeled"))
    assert fresh.num_rows == 400
    assert _sorted(fresh, "labeled").equals(_sorted(again, "labeled"))


def _reference_merge(labeled: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Entities and lineage of a labeled table, one cluster at a time in
    plain Python: the survivorship rules of ``stages/merge``."""
    from collections import Counter

    from entity_resolution_engine_ray.functions.ids import cluster_entity_id
    from entity_resolution_engine_ray.oracle.serial import normalize_domain

    clusters: dict[int, list[dict]] = {}
    for row in labeled.to_pylist():
        clusters.setdefault(row["cluster_label"], []).append(row)
    entities, lineage = [], []
    for label, rows in clusters.items():
        entity_id = cluster_entity_id("PAGE", [r["url"] for r in rows])
        rep = min(rows, key=lambda r: (r["warc_ts"], r["url"]))
        votes = Counter(r["lang"] for r in rows)
        entities.append(
            {
                "cluster_label": label,
                "entity_id": entity_id,
                "canonical_url": rep["url"],
                "canonical_title": rep["title_norm"],
                "domain": normalize_domain(rep["url"]),
                "lang": min(votes, key=lambda lang: (-votes[lang], lang)),
                "n_members": len(rows),
                "first_seen": min(r["warc_ts"] for r in rows),
                "last_seen": max(r["warc_ts"] for r in rows),
            }
        )
        lineage += [
            {"url": r["url"], "entity_id": entity_id, "source_domain": normalize_domain(r["url"])}
            for r in rows
        ]
    return pa.Table.from_pylist(entities), pa.Table.from_pylist(lineage)


@pytest.mark.parametrize("call", ["run", "fold"])
def test_merge_matches_a_per_cluster_reference(runs, call):
    store = CheckpointStore(str(runs["root"] / call))
    entities, lineage = (pq.read_table(store.stage_dir(s)) for s in ("entities", "lineage"))
    want_entities, want_lineage = _reference_merge(pq.read_table(store.stage_dir("labeled")))
    for got, want, stage in ((entities, want_entities, "entities"), (lineage, want_lineage, "lineage")):
        assert got.num_rows == want.num_rows > 0
        assert _sorted(got, stage).equals(_sorted(want.cast(got.schema), stage)), stage
    # every lineage entity is an entity whose n_members is its url count
    n_urls = pa.TableGroupBy(lineage, "entity_id").aggregate([("url", "count")])
    members = dict(zip(entities["entity_id"].to_pylist(), entities["n_members"].to_pylist()))
    assert len(members) == entities.num_rows
    assert {e: members.get(e) for e in n_urls["entity_id"].to_pylist()} == dict(
        zip(n_urls["entity_id"].to_pylist(), n_urls["url_count"].to_pylist())
    )


def test_zero_row_merge_partition_gives_typed_tables(runs):
    from entity_resolution_engine_ray.stages.merge import merge_partition

    store = CheckpointStore(str(runs["root"] / "run"))
    labeled = pq.read_table(store.stage_dir("labeled"))
    entities, lineage = merge_partition(labeled.schema.empty_table())
    for got, stage in ((entities, "entities"), (lineage, "lineage")):
        assert got.num_rows == 0
        want = pq.read_schema(os.path.join(store.stage_dir(stage), "part-00000.parquet"))
        assert got.schema.equals(want, check_metadata=False), (stage, got.schema, want)


def test_failed_stage_leaves_no_done_and_resume_ignores_its_temp_dir(runs):
    """A stage after ``features`` raises once its tasks have written their
    parts: ``features`` is committed, the failed stage has no ``_DONE`` (nor
    a stage dir), and its parts sit in a leftover temp dir. A resumed run
    never lists or reads that dir — its parts are overwritten with garbage
    first — and ends with the checkpoints of a clean run on the same
    input."""
    from entity_resolution_engine_ray.pipelines import pages_er

    out = runs["root"] / "failed"
    shutil.rmtree(out, ignore_errors=True)
    score = pages_er.fused_edges_stage

    def score_then_fail(*args, **kwargs):
        score(*args, **kwargs)
        raise RuntimeError("injected edges failure")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pages_er, "fused_edges_stage", score_then_fail)
        with pytest.raises(RuntimeError, match="injected edges failure"):
            run_pages_er(runs["pages"], str(out))
    assert (out / "features" / DONE_FILE).exists()
    assert not (out / "edges").exists()
    leftovers = [d for d in os.listdir(out) if d.startswith("edges.tmp-")]
    assert len(leftovers) == 1, os.listdir(out)
    parts = [p for p in (out / leftovers[0]).iterdir() if p.suffix == ".parquet"]
    assert parts, "the edge-dedup tasks write their parts before the stage returns"
    for p in parts:
        p.write_bytes(b"not a parquet file")

    listed: list[str] = []
    part_files = CheckpointStore._part_files

    def recording_part_files(self, stage):
        files = part_files(self, stage)
        listed.extend(files)
        return files

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CheckpointStore, "_part_files", recording_part_files)
        run_pages_er(runs["pages"], str(out))
    assert listed and not any(".tmp-" in f for f in listed), listed
    for stage in sorted(SORT_KEYS):
        assert (out / stage / DONE_FILE).exists(), stage
        got = pq.read_table(str(out / stage))
        want = pq.read_table(str(runs["root"] / "run" / stage))
        assert got.num_rows == want.num_rows > 0, stage
        assert _sorted(got, stage).equals(_sorted(want, stage)), stage
