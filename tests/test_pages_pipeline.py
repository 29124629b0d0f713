"""Distributed-vs-serial parity for the flagship pages ER pipeline.

Contracts (BASELINE.md targets):
- byte-identical extracted text per url, across batch sizes (input_hint)
- engine candidate pairs / scores / gate decisions == serial oracle exactly
  (⇒ pairwise F1 = 1.0 ≥ 0.99 at the same blocking key)
- cluster partitions identical to the oracle's union-find
- label-based F1 ≥ 0.99 on the fixture ground truth
- resume: a later stage's checkpoint is reused; a deleted checkpoint is
  rebuilt to identical content
"""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.oracle.serial import labeled_pairs, run_serial_er
from entity_resolution_engine_ray.sources.pages import write_pages_fixture

N_PAGES = 500
SEED = 42
FIXDIR = "/tmp/er_test_fixture"
OUTDIR = "/tmp/er_test_out"


@pytest.fixture(scope="module")
def fixture_paths():
    return write_pages_fixture(FIXDIR, N_PAGES, seed=SEED)


@pytest.fixture(scope="module")
def oracle(fixture_paths):
    pages = pq.read_table(fixture_paths["pages"])
    return pages, run_serial_er(pages)


@pytest.fixture(scope="module")
def pipeline_result(ray_session, fixture_paths):
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

    shutil.rmtree(OUTDIR, ignore_errors=True)
    return run_pages_er(fixture_paths["pages"], OUTDIR)


def test_extract_parity_across_batch_sizes(ray_session, fixture_paths, oracle):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.extract import extract_stage, extract_text

    pages, _ = oracle
    expected = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    # scalar oracle kernel agrees with the stored text column
    for url, html in list(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))[:20]:
        assert extract_text(html) == expected[url]
    # distributed extraction is byte-identical at two batch sizes
    for bs in (64, 977):
        ds = rd.read_parquet(fixture_paths["pages"])
        out = extract_stage(ds, batch_size=bs)
        got = {}
        for b in out.iter_batches(batch_format="pyarrow"):
            got.update(zip(b["url"].to_pylist(), b["text"].to_pylist()))
        assert got == expected


def test_edge_parity_exact(pipeline_result, oracle):
    from entity_resolution_engine_ray.functions.similarity import stable_hash64

    _, ores = oracle
    edges = pipeline_result["edges"].to_pandas()
    # the engine's edge schema is ids-only (url strings never ride the pair
    # shuffle); the oracle's url pairs map onto it through the same hash
    got = {
        (r.left_id, r.right_id): (r.block_key, round(r.score, 12), r.decision)
        for r in edges.itertuples()
    }
    want = {
        (stable_hash64(e["left_url"]), stable_hash64(e["right_url"])): (
            e["block_key"],
            round(e["score"], 12),
            e["decision"],
        )
        for e in ores.edges
    }
    assert set(got) == set(want), (
        f"pair sets differ: engine-only {list(set(got)-set(want))[:3]}, "
        f"oracle-only {list(set(want)-set(got))[:3]}"
    )
    mism = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not mism, f"{len(mism)} mismatched edges, e.g. {list(mism.items())[:3]}"


def test_cluster_partition_parity(pipeline_result, oracle):
    pages, ores = oracle
    lineage = pipeline_result["lineage"].to_pandas()
    # engine partition: url -> entity_id; oracle partition: url -> root
    eng = dict(zip(lineage["url"], lineage["entity_id"]))
    assert set(eng) == set(ores.clusters)
    # same partition ⇔ same co-membership
    from collections import defaultdict

    eng_groups = defaultdict(frozenset)
    by_eid = defaultdict(set)
    for u, e in eng.items():
        by_eid[e].add(u)
    ora_groups = defaultdict(set)
    for u, r in ores.clusters.items():
        ora_groups[r].add(u)
    assert sorted(map(sorted, by_eid.values())) == sorted(map(sorted, ora_groups.values()))


def test_label_f1(pipeline_result, fixture_paths, oracle):
    pages, _ = oracle
    truth = pq.read_table(fixture_paths["truth"])
    from entity_resolution_engine_ray.functions.similarity import stable_hash64

    lp = labeled_pairs(pages, truth)
    labels = {
        (stable_hash64(l), stable_hash64(r)): m
        for l, r, m in zip(
            lp["left_url"].to_pylist(), lp["right_url"].to_pylist(), lp["is_match"].to_pylist()
        )
    }
    edges = pipeline_result["edges"].to_pandas()
    tp = fp = fn = 0
    for r in edges.itertuples():
        is_match = labels[(r.left_id, r.right_id)]
        approved = r.decision in ("auto_approve", "gray_approve")
        if approved and is_match:
            tp += 1
        elif approved and not is_match:
            fp += 1
        elif not approved and is_match:
            fn += 1
    prec = tp / max(1, tp + fp)
    rec = tp / max(1, tp + fn)
    f1 = 2 * prec * rec / max(1e-9, prec + rec)
    assert f1 >= 0.99, f"pairwise F1 {f1:.4f} (P={prec:.4f}, R={rec:.4f})"


def test_entities_cover_all_pages(pipeline_result, oracle):
    pages, _ = oracle
    ents = pipeline_result["entities"].to_pandas()
    assert ents["n_members"].sum() == pages.num_rows
    assert ents["entity_id"].is_unique


def test_resume_skips_completed_stages(ray_session, fixture_paths, pipeline_result):
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

    res2 = run_pages_er(fixture_paths["pages"], OUTDIR)
    # all heavy stages skipped — only the metrics step re-runs
    assert set(res2["timings"]) == {"metrics"}


def test_resume_rebuilds_deleted_stage(ray_session, fixture_paths, pipeline_result):
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

    before = pipeline_result["entities"].to_pandas().sort_values("entity_id").reset_index(drop=True)
    shutil.rmtree(os.path.join(OUTDIR, "entities"))
    shutil.rmtree(os.path.join(OUTDIR, "lineage"))
    res2 = run_pages_er(fixture_paths["pages"], OUTDIR)
    assert "entities" in res2["timings"] and "features" not in res2["timings"]
    after = res2["entities"].to_pandas().sort_values("entity_id").reset_index(drop=True)
    pa_before = pa.Table.from_pandas(before)
    pa_after = pa.Table.from_pandas(after)
    assert pa_before.equals(pa_after)


def test_config_change_invalidates_checkpoints(ray_session, fixture_paths, pipeline_result):
    from entity_resolution_engine_ray.state.checkpoint import CheckpointStore
    from entity_resolution_engine_ray.config import config_hash
    from entity_resolution_engine_ray.pipelines.pages_er import PIPELINE_VERSION

    store = CheckpointStore(OUTDIR)
    cfg2_hash = f"{config_hash(PagesERConfig(gate_low=0.71))}-v{PIPELINE_VERSION}"
    cur_hash = f"{config_hash(PagesERConfig())}-v{PIPELINE_VERSION}"
    old_version_hash = f"{config_hash(PagesERConfig())}-v{PIPELINE_VERSION - 1}"
    assert not store.is_done("edges", cfg2_hash)
    assert not store.is_done("edges", old_version_hash)
    assert store.is_done("edges", cur_hash)


def test_labelprop_pipeline_equivalent_to_contraction(ray_session, fixture_paths, pipeline_result):
    """cluster_method='labelprop' (fully distributed CC) must produce the
    same entity partition as the default contraction path."""
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

    out2 = "/tmp/er_test_out_lp"
    shutil.rmtree(out2, ignore_errors=True)
    res2 = run_pages_er(fixture_paths["pages"], out2, cfg=PagesERConfig(cluster_method="labelprop"))
    # read the checkpoint directly — the resume tests above delete and
    # rebuild it after the module fixture's lazy read listed its files
    a = (
        pq.read_table(os.path.join(OUTDIR, "entities"))
        .to_pandas()
        .sort_values("entity_id")
        .reset_index(drop=True)
    )
    b = res2["entities"].to_pandas().sort_values("entity_id").reset_index(drop=True)
    # entity ids are content hashes of member urls → identical partitions ⇔
    # identical id sets and member counts
    assert a["entity_id"].tolist() == b["entity_id"].tolist()
    assert a["n_members"].tolist() == b["n_members"].tolist()


def test_labelprop_long_chain_converges(ray_session):
    """A 200-node path graph has diameter 199 — naive min-label propagation
    needs ~199 rounds; the pointer-jumped labelprop must converge to ONE
    cluster within the default iteration budget, and the driver kernel
    must agree: every root is the min id."""
    import ray.data as rd

    from entity_resolution_engine_ray.functions.similarity import stable_hash64
    from entity_resolution_engine_ray.stages.cluster import (
        cluster_label_map,
        connected_components_labelprop_ids,
    )

    n = 200
    ids = [stable_hash64(f"https://chain.example/p{i:04d}") for i in range(n)]
    edges = pa.table(
        {
            "left_id": pa.array(ids[:-1], type=pa.int64()),
            "right_id": pa.array(ids[1:], type=pa.int64()),
        }
    )
    int_edges = rd.from_arrow(edges.rename_columns(["src", "dst"]))
    labels = connected_components_labelprop_ids(int_edges, num_partitions=8).to_pandas()
    assert len(labels) == n
    assert labels["cluster_label"].nunique() == 1
    # min-label fixpoint: the one label is the component's min node id
    assert labels["cluster_label"].iloc[0] == min(ids)

    nodes, roots = cluster_label_map(rd.from_arrow(edges))
    assert sorted(nodes.tolist()) == sorted(ids)
    assert (roots == min(ids)).all()


def test_cluster_paths_handle_empty_edges(ray_session):
    """No approved edges (e.g. an impossible gate) must not crash either
    clustering path — zero-row datasets skip lazy transforms and would leak
    the source schema into the exchange."""
    import ray.data as rd

    from entity_resolution_engine_ray.functions.similarity import stable_hash64
    from entity_resolution_engine_ray.stages.cluster import (
        cluster_label_map,
        connected_components_labelprop_ids,
    )

    edges = pa.table(
        {
            "left_id": pa.array([stable_hash64("a")], type=pa.int64()),
            "right_id": pa.array([stable_hash64("b")], type=pa.int64()),
            "decision": pa.array(["reject"], type=pa.string()),
        }
    )
    approved = rd.from_arrow(edges).filter(expr="decision == 'auto_approve'")
    nodes, roots = cluster_label_map(approved)
    assert len(nodes) == 0 and len(roots) == 0
    int_edges = approved.map_batches(
        lambda t: pa.table({"src": t["left_id"], "dst": t["right_id"]}),
        batch_format="pyarrow",
    )
    labels = connected_components_labelprop_ids(int_edges).to_pandas()
    assert len(labels) == 0


def test_features_checkpoint_schema(pipeline_result):
    """The features checkpoint carries exactly the columns downstream
    stages read — a dead column here is paid on every run and every
    resume."""
    assert pq.read_table(os.path.join(OUTDIR, "features")).schema.names == [
        "url",
        "url_hash",
        "warc_ts",
        "lang",
        "title_norm",
        "token_ids",
        "simhash",
        "band_keys",
    ]


def test_edges_deterministic_across_partition_counts(ray_session, fixture_paths):
    """SURVEY §5(d): the fused pair+score stage produces the IDENTICAL edge
    set at different exchange partition counts — partitioning changes
    distribution, never results."""
    import ray.data as rd

    from entity_resolution_engine_ray.config import PagesERConfig
    from entity_resolution_engine_ray.stages.block import feature_stage
    from entity_resolution_engine_ray.stages.extract import extract_stage
    from entity_resolution_engine_ray.stages.score import fused_edges_stage

    cfg = PagesERConfig()
    features = feature_stage(
        extract_stage(rd.read_parquet(fixture_paths["pages"])), cfg
    ).materialize()
    outs = []
    for parts in (8, 31):
        edges, dropped = fused_edges_stage(features, cfg, num_partitions=parts)
        pdf = edges.to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
        outs.append((pdf, dropped))
    a, b = outs[0][0], outs[1][0]
    assert outs[0][1] == outs[1][1]  # dropped-pair count
    pd.testing.assert_frame_equal(a, b)


def test_cli_main_runs_pipeline(ray_session, tmp_path, capsys):
    """`python -m entity_resolution_engine_ray` (the `ray job submit` entry)
    runs the flagship pipeline and prints one JSON metrics line; it reuses
    an already-initialised Ray session instead of re-initialising."""
    import json

    from entity_resolution_engine_ray.__main__ import main
    from entity_resolution_engine_ray.sources.pages import write_pages_fixture

    fix = write_pages_fixture(str(tmp_path / "pages_src"), 300, seed=42)
    rc = main(
        [
            "--pages", str(tmp_path / "pages_src" / "pages"),
            "--out", str(tmp_path / "run"),
            "--num-partitions", "4",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(line)
    assert result["metrics"]["n_entities"] > 0
    assert set(result["timings"]) >= {"features", "edges", "labels", "entities"}


def test_simhash_prefilter_parity_and_pruning(ray_session, fixture_paths, oracle):
    """With the simhash prefilter ON (cfg.simhash_prefilter), the engine's
    edges still equal the serial oracle's exactly — both apply the identical
    drop-and-count rule — and a high threshold provably prunes pairs."""
    from entity_resolution_engine_ray.functions.similarity import stable_hash64
    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

    pages, base = oracle
    cfg = PagesERConfig(simhash_prefilter=0.9)
    ores = run_serial_er(pages, cfg)
    out = os.path.join(OUTDIR, "prefilter")
    shutil.rmtree(out, ignore_errors=True)
    res = run_pages_er(fixture_paths["pages"], out, cfg, resume=False)
    edges = res["edges"].to_pandas()
    got = {
        (r.left_id, r.right_id): (r.block_key, round(r.score, 12), r.decision)
        for r in edges.itertuples()
    }
    want = {
        (stable_hash64(e["left_url"]), stable_hash64(e["right_url"])): (
            e["block_key"],
            round(e["score"], 12),
            e["decision"],
        )
        for e in ores.edges
    }
    assert got == want
    # at threshold 0.9 the fixture really loses pairs (sim spans ~0.8-1.0)
    assert len(ores.edges) < len(base.edges)
    assert ores.dropped_pairs > base.dropped_pairs
    # the engine reports cap drops and prefilter drops apart; the oracle
    # sums them. The engine counts prefiltered INSTANCES (once per
    # band-partition the pair lands in) where the oracle counts unique
    # pairs — so engine >= oracle, and both nonzero ⇔ pruning happened
    m = res["metrics"]
    assert m["prefiltered_pairs"] > 0
    assert m["dropped_pairs"] + m["prefiltered_pairs"] >= ores.dropped_pairs > base.dropped_pairs
    manifest = json.load(open(os.path.join(out, "edges", "_DONE")))
    assert (manifest["dropped_pairs"], manifest["prefiltered_pairs"]) == (
        m["dropped_pairs"],
        m["prefiltered_pairs"],
    )


def test_prefilter_drops_counted_when_a_partition_keeps_no_pair():
    """A partition whose capped pairs are all prefiltered emits no edge
    row, and still reports both counts: 6 members → 15 pairs, cap 5 drops
    10, and the 5 kept pairs all fail a 0.99 SimHash prefilter (any two of
    the simhashes differ in 2 of 64 bits: similarity 0.969)."""
    from entity_resolution_engine_ray.stages.score import _pair_score_partition

    m = 6
    tbl = pa.table(
        {
            "block_key": pa.array([7] * m, pa.int64()),
            "url_hash": pa.array(range(1, m + 1), pa.int64()),
            "token_ids": pa.array([[1, 2, 3]] * m, pa.list_(pa.int32())),
            "simhash": pa.array([1 << i for i in range(m)], pa.int64()),
            "title_norm": pa.array(["t"] * m),
            "salt": pa.array([0] * m, pa.int32()),
        }
    )
    cfg = PagesERConfig(pair_sample_cap=5, simhash_prefilter=0.99)
    edges, counts = _pair_score_partition(tbl, cfg)
    assert edges.num_rows == 0
    assert counts == {"dropped": 10, "prefiltered": 5}
    # without the prefilter the same 5 pairs are scored
    edges, counts = _pair_score_partition(tbl, PagesERConfig(pair_sample_cap=5))
    assert edges.num_rows == 5
    assert counts == {"dropped": 10, "prefiltered": 0}
