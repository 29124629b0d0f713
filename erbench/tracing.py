"""Traced run: spans around each layer's public functions, from outside.

``Tracer.install`` replaces the functions that ``run_pages_er`` and
``run_pages_er_incremental`` call (module attributes and
``CheckpointStore`` methods) with wrappers that record a span (name, start,
end, parent) and materialize any Dataset the function returns inside that
span, so a lazy stage is charged to the layer that built it. The pipeline
functions themselves run unchanged, so the calls and their order are
exactly the untraced ones. ``Tracer.uninstall`` restores the originals.

Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from erbench.check import APPROVED

# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    "sources.pages.read_s": "s",
    "stages.extract.s": "s",
    "stages.block.featurize_s": "s",
    "stages.block.nonascii_doc_share": "ratio",
    "stages.block.featurize_batch_us_per_doc.ascii": "us/doc",
    "stages.block.featurize_batch_us_per_doc.mixed": "us/doc",
    "stages.pairs.key_stats_s": "s",
    "stages.pairs.band_rows": "count",
    "stages.pairs.pruned_rows": "count",
    "stages.pairs.prune_keep_ratio": "ratio",
    "stages.pairs.hot_keys": "count",
    "stages.score.edges_s": "s",
    "stages.score.candidate_pairs": "count",
    "stages.score.dropped_pairs": "count",
    "stages.score.approve_ratio": "ratio",
    "stages.cluster.contract_s": "s",
    "stages.cluster.approved_edges": "count",
    "stages.cluster.clusters": "count",
    "stages.cluster.labelprop_s": "s",
    "stages.merge.label_join_s": "s",
    "stages.merge.entities_s": "s",
    "stages.merge.lineage_s": "s",
    "state.checkpoint.write_s": "s",
    "state.checkpoint.read_s": "s",
    "state.checkpoint.bytes_per_input_byte": "ratio",
    "stages.grouping.fold_dedup_s": "s",
    "pipelines.pages_er.fold_touched_blocks": "count",
    "pipelines.pages_er.fold_rescored_pairs": "count",
    "state.metrics.s": "s",
    "unaccounted_s": "s",
    "tracing_overhead_s": "s",
}

PIPELINE_SPANS = (
    "pipelines.pages_er.run_pages_er",
    "pipelines.pages_er.run_pages_er_incremental",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    result: object = None


def _materialize(value):
    import ray.data as rd

    if isinstance(value, rd.Dataset):
        return value.materialize()
    if isinstance(value, tuple):
        return tuple(_materialize(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, only_under: str | None = None, keep=False):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if only_under is not None and (
                parent < 0 or tracer.spans[parent].name != only_under
            ):
                return original(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            tracer._stack.append(idx)
            try:
                out = _materialize(original(*args, **kwargs))
            finally:
                tracer._stack.pop()
                tracer.spans[idx].end = time.perf_counter()
            if keep:
                tracer.spans[idx].result = (args, kwargs, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from entity_resolution_engine_ray.pipelines import pages_er
        from entity_resolution_engine_ray.sources import pages
        from entity_resolution_engine_ray.stages import block, cluster, grouping, merge, pairs
        from entity_resolution_engine_ray.state import metrics
        from entity_resolution_engine_ray.state.checkpoint import CheckpointStore

        w = self._wrap
        w(pages_er, "run_pages_er", PIPELINE_SPANS[0])
        w(pages_er, "run_pages_er_incremental", PIPELINE_SPANS[1])
        w(pages, "read_pages", "sources.pages.read")
        w(pages_er, "extract_stage", "stages.extract")
        w(pages_er, "feature_stage", "stages.block.featurize")
        w(block, "block_keys_stage", "stages.block.touched_keys", only_under=PIPELINE_SPANS[1])
        w(pages_er, "fused_edges_stage", "stages.score.fused_edges", keep=True)
        w(pairs, "key_stats", "stages.pairs.key_stats", keep=True)
        w(cluster, "cluster_label_map", "stages.cluster.contract")
        w(cluster, "connected_components_labelprop_ids", "stages.cluster.labelprop")
        w(merge, "label_features_broadcast", "stages.merge.label_join")
        w(merge, "build_labeled", "stages.merge.label_join")
        w(merge, "entities_from_labeled", "stages.merge.entities")
        w(merge, "lineage_from_labeled", "stages.merge.lineage")
        w(grouping, "partition_map_groups", "stages.grouping.fold_dedup", only_under=PIPELINE_SPANS[1])
        w(CheckpointStore, "write", "state.checkpoint.write")
        w(CheckpointStore, "write_table", "state.checkpoint.write")
        w(CheckpointStore, "read", "state.checkpoint.read")
        w(pages_er, "gate_metrics", "state.metrics.gate_metrics")
        w(metrics.MetricsStore, "append_run_metrics", "state.metrics.history")
        w(metrics, "detect_anomalies", "state.metrics.anomalies")
        w(metrics, "evaluate_quality_gates", "state.metrics.gates")
        w(metrics, "write_quality_gate_result", "state.metrics.gates")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- derived figures -------------------------------------------------

    def total(self, name: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def total_prefix(self, prefix: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name.startswith(prefix)), 0.0)

    def unaccounted(self) -> float:
        """Self time of the pipeline functions: their wall time not covered
        by any layer span directly under them."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return sum(
            s.end - s.start - child[i]
            for i, s in enumerate(self.spans)
            if s.name in PIPELINE_SPANS
        )

    def results(self, name: str) -> list:
        return [s.result for s in self.spans if s.name == name and s.result is not None]

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, out_dir: str, input_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced call (times in s, counts as counts)."""
    key_stats = tracer.results("stages.pairs.key_stats")
    band_rows = sum(int(kw.get("n_rows_hint") or 0) for _, kw, _ in key_stats)
    pruned_rows = sum(int(out[2]) for _, _, out in key_stats)
    hot_keys = sum(len(out[0]) for _, _, out in key_stats)

    candidates = approved = dropped = rescored = 0
    for _, kw, (edges, n_dropped) in tracer.results("stages.score.fused_edges"):
        n = edges.count()
        candidates += n
        dropped += int(n_dropped)
        if n:
            approved += _count_approved(edges)
        if kw.get("key_filter") is not None:
            rescored += n

    touched = 0
    manifest = os.path.join(out_dir, "edges", "_DONE")
    if os.path.exists(manifest):
        with open(manifest) as f:
            touched = int(json.load(f).get("touched_blocks", 0))

    return {
        "sources.pages.read_s": tracer.total("sources.pages.read"),
        "stages.extract.s": tracer.total("stages.extract"),
        "stages.block.featurize_s": tracer.total("stages.block.featurize"),
        "stages.pairs.key_stats_s": tracer.total("stages.pairs.key_stats"),
        "stages.pairs.band_rows": float(band_rows),
        "stages.pairs.pruned_rows": float(pruned_rows),
        "stages.pairs.prune_keep_ratio": pruned_rows / band_rows if band_rows else 0.0,
        "stages.pairs.hot_keys": float(hot_keys),
        "stages.score.edges_s": tracer.total("stages.score.fused_edges")
        - tracer.total("stages.pairs.key_stats"),
        "stages.score.candidate_pairs": float(candidates),
        "stages.score.dropped_pairs": float(dropped),
        "stages.score.approve_ratio": approved / candidates if candidates else 0.0,
        "stages.cluster.contract_s": tracer.total("stages.cluster.contract"),
        "stages.cluster.labelprop_s": tracer.total("stages.cluster.labelprop"),
        "stages.merge.label_join_s": tracer.total("stages.merge.label_join"),
        "stages.merge.entities_s": tracer.total("stages.merge.entities"),
        "stages.merge.lineage_s": tracer.total("stages.merge.lineage"),
        "state.checkpoint.write_s": tracer.total("state.checkpoint.write"),
        "state.checkpoint.read_s": tracer.total("state.checkpoint.read"),
        "state.checkpoint.bytes_per_input_byte": _dir_bytes(out_dir) / input_bytes,
        "stages.grouping.fold_dedup_s": tracer.total("stages.grouping.fold_dedup"),
        "pipelines.pages_er.fold_touched_blocks": float(touched),
        "pipelines.pages_er.fold_rescored_pairs": float(rescored),
        "state.metrics.s": tracer.total_prefix("state.metrics."),
        "unaccounted_s": tracer.unaccounted(),
    }


def _count_approved(edges) -> int:
    allowed = pa.array(APPROVED)
    return sum(
        int(pc.sum(pc.is_in(b["decision"], allowed)).as_py() or 0)
        for b in edges.select_columns(["decision"]).iter_batches(batch_format="pyarrow")
    )


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total
