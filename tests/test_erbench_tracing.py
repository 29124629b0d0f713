"""erbench's tracer wraps engine functions by name (``getattr`` on their
modules and on ``CheckpointStore``), so deleting or renaming a traced
function would break ``erbench/run.py --trace 1`` without any other test
noticing. Installing and uninstalling the hooks pins those names, and a
traced fold pins the reads ``layer_metrics`` makes of what they return."""

import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from erbench.tracing import Tracer, layer_metrics

# the engine functions whose spans the benchmark's per-layer metrics read
TRACED = {
    ("cluster", "cluster_label_map"),
    ("cluster", "connected_components_labelprop_ids"),
    ("merge", "label_features_broadcast"),
    ("merge", "build_labeled"),
    ("merge", "entities_from_labeled"),
    ("merge", "lineage_from_labeled"),
    ("grouping", "partition_map_groups"),
    ("pages_er", "extract_stage"),
    ("pages_er", "feature_stage"),
    ("pages_er", "fused_edges_stage"),
    ("pages_er", "gate_metrics"),
    ("pairs", "key_stats"),
}


def _short(owner) -> str:
    return getattr(owner, "__name__", "").rsplit(".", 1)[-1]


def test_tracer_install_wraps_and_uninstall_restores():
    tracer = Tracer()
    tracer.install()
    try:
        saved = list(tracer._saved)
        wrapped = {(_short(owner), attr) for owner, attr, _ in saved}
        assert TRACED <= wrapped, TRACED - wrapped
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert tracer._saved == []
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_labelprop_fold_reports_its_layers(ray_session, tmp_path):
    """A traced labelprop fold: ``layer_metrics`` reads the edges
    ``fused_edges_stage`` returns (their count and approved share) and the
    figures of the ``key_stats`` call the blocked-pair driver makes through
    the ``pairs`` module's global name (a driver holding ``key_stats`` from
    before ``Tracer.install()`` would zero them), and tracing changes no
    label."""
    from entity_resolution_engine_ray.config import PagesERConfig
    from entity_resolution_engine_ray.pipelines import pages_er
    from entity_resolution_engine_ray.sources.pages import write_pages_fixture

    fix = write_pages_fixture(str(tmp_path / "fx"), 400, seed=11)
    tbl = pads.dataset(fix["pages"]).to_table()
    new = str(tmp_path / "new.parquet")
    pq.write_table(tbl.slice(0, 360), str(tmp_path / "old.parquet"))
    pq.write_table(tbl.slice(360), new)
    cfg = PagesERConfig(cluster_method="labelprop")
    corpus = str(tmp_path / "corpus")
    pages_er.run_pages_er(str(tmp_path / "old.parquet"), corpus, cfg)
    pages_er.run_pages_er_incremental(corpus, new, str(tmp_path / "plain"), cfg)

    tracer = Tracer()
    tracer.install()
    try:
        pages_er.run_pages_er_incremental(corpus, new, str(tmp_path / "traced"), cfg)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, str(tmp_path / "traced"), os.path.getsize(new))
    assert metrics["stages.score.candidate_pairs"] > 0
    assert 0 < metrics["stages.score.approve_ratio"] <= 1
    assert metrics["stages.pairs.band_rows"] > 0
    assert 0 < metrics["stages.pairs.prune_keep_ratio"] <= 1
    assert metrics["stages.cluster.labelprop_s"] > 0

    def labels(run: str):
        return pq.read_table(str(tmp_path / run / "labeled")).sort_by("url")

    assert labels("traced").num_rows == 400
    assert labels("traced").equals(labels("plain"))
