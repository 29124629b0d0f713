"""erbench's tracer wraps engine functions by name (``getattr`` on their
modules and on ``CheckpointStore``), so deleting or renaming a traced
function would break ``erbench/run.py --trace 1`` without any other test
noticing. Installing and uninstalling the hooks pins those names."""

from erbench.tracing import Tracer

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
