"""Flagship pages ER pipeline: extract → block → pairs → score/gate →
cluster → merge, each stage checkpointed to Parquet with a ``_DONE``
manifest (resume from the last completed stage — north rule).

Lifecycle mirror of SURVEY.md §3.4. The reference's single-process
five-entity loop (cli/run_mapping.py:37-188) becomes a streaming Dataset
DAG; its driver-held dict "joins" become Dataset hash joins; its
``writer.reset()`` full-restart becomes checkpoint resume.

Usage::

    result = run_pages_er(pages_path, out_dir, cfg)
    # result: dict with entities/lineage/edges paths + run metrics
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

from entity_resolution_engine_ray.config import PagesERConfig, config_hash
from entity_resolution_engine_ray.sources.pages import PAGES_SCHEMA
from entity_resolution_engine_ray.stages.block import feature_stage, featurize_batch
from entity_resolution_engine_ray.stages.extract import extract_batch, extract_stage
from entity_resolution_engine_ray.stages.score import (
    DroppedPairs,
    _dedup_edges_partition,
    fused_edges_stage,
    gate_metrics,
)
from entity_resolution_engine_ray.state.checkpoint import CheckpointStore

# v6: the edges manifest's ``dropped_pairs`` counts cap drops only;
# prefilter drops moved to ``prefiltered_pairs``. Older checkpoints are
# neither resumed nor folded onto, so the two meanings never add up.
PIPELINE_VERSION = 6


def _timer(timings: dict[str, float]):
    """``with timed(name):`` adds the block's wall time to ``timings[name]``."""

    @contextmanager
    def timed(name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            timings[name] = round(timings.get(name, 0.0) + time.perf_counter() - t0, 3)

    return timed


def run_pages_er(
    pages,
    out_dir: str,
    cfg: PagesERConfig | None = None,
    resume: bool = True,
    num_partitions: int | None = None,  # None → scale with cluster CPUs
    pages_format: str = "parquet",
) -> dict:
    """Run the full pipeline.

    ``pages``: a path/dir (``pages_format``: parquet|jsonl|csv|warc, normalized
    to the input_hint schema by sources.pages.read_pages) or an existing
    Dataset with that schema (url, warc_ts, html, text, lang).
    """
    cfg = cfg or PagesERConfig()
    # the code version is part of the checkpoint identity: stage semantics /
    # schema changes must invalidate old checkpoints even when the config
    # dataclass is unchanged
    phash = f"{config_hash(cfg)}-v{PIPELINE_VERSION}"
    store = CheckpointStore(out_dir, enabled=True)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    timed = _timer(timings)

    # ---- stage 1+2: extract + features (checkpointed together: "block")
    if resume and store.is_done("features", phash):
        features = store.read("features")
    else:
        with timed("features"):
            if isinstance(pages, str):
                from entity_resolution_engine_ray.sources.pages import read_pages

                ds = read_pages(pages, format=pages_format)
            else:
                ds = pages
            features = store.write(_features_of(ds, cfg), "features", phash)

    # ---- stage 3+4: candidate pairs + score + gate, fused into one
    # fat-block shuffle (stages/score.fused_edges_stage). Edges match the
    # serial oracle exactly (test_edge_parity_exact); both order a capped
    # sub-block's members by url_hash and run Jaccard over 32-bit hashed
    # token ids, so a token-STRING scorer could differ only on id
    # collisions.
    if resume and store.is_done("edges", phash):
        edges = store.read("edges")
        dropped = _dropped_of(store.manifest("edges"))
    else:
        with timed("edges"):
            with timed("edges_compute"):
                edges, dropped = fused_edges_stage(features, cfg, num_partitions=num_partitions)
            with timed("edges_write"):
                edges = store.write(edges, "edges", phash, extra=_drop_counts(dropped))

    data = {"features": features, "edges": edges}
    del features, edges
    return _cluster_merge_metrics(
        store, cfg, phash, data, dropped,
        resume=resume, num_partitions=num_partitions, timings=timings, t_start=t_start,
    )


def _features_of(pages_ds, cfg: PagesERConfig):
    """Extract + featurize, executed once. A 0-row input skips the lazy
    maps and surfaces blocks without the features schema, so it becomes one
    typed empty features block: the real extract and featurize kernels run
    over an empty pages table of the input's schema."""
    features = feature_stage(extract_stage(pages_ds), cfg).materialize()
    if features.count():
        return features
    import ray.data as rd

    sch = getattr(pages_ds.schema(), "base_schema", None) or PAGES_SCHEMA
    return rd.from_arrow(featurize_batch(extract_batch(sch.empty_table()), cfg))


def _drop_counts(dropped) -> dict:
    """The edges manifest's pair-drop counts of a ``DroppedPairs``."""
    return {"dropped_pairs": int(dropped), "prefiltered_pairs": dropped.prefiltered}


def _dropped_of(manifest: dict) -> DroppedPairs:
    return DroppedPairs(
        int(manifest.get("dropped_pairs", 0) or 0), int(manifest.get("prefiltered_pairs", 0) or 0)
    )


def _cluster_merge_metrics(
    store: CheckpointStore,
    cfg: PagesERConfig,
    phash: str,
    data: dict,
    dropped: DroppedPairs,
    *,
    resume: bool,
    num_partitions: int | None,
    timings: dict[str, float],
    t_start: float,
) -> dict:
    """Stages 4b-6 and the run metrics over the ``features`` and ``edges``
    Datasets in ``data``, shared by the full run and the incremental fold.

    The caller hands over its only references in ``data``, so each
    in-memory Dataset's blocks are freed once its last consumer here has
    run; the result holds lazy ``read_parquet`` handles on the checkpoints,
    so it pins no blocks either."""
    features, edges = data.pop("features"), data.pop("edges")
    out_dir = store.out_dir
    timed = _timer(timings)
    edges_stage = "edges"

    # ---- optional stage 4b: distributed gray-zone validation (actor pool
    # over review-decision edges; stages/validate). Off by default.
    if cfg.enable_llm_validation:
        edges_stage = "validated"
        if resume and store.is_done("validated", phash):
            edges = store.read("validated")
        else:
            with timed("validated"):
                from entity_resolution_engine_ray.stages.validate import validate_gray_zone

                edges = store.write(validate_gray_zone(edges), "validated", phash)

    # ---- stage 5: cluster approved edges → fully-labeled pages checkpoint
    if resume and store.is_done("labeled", phash):
        labeled = store.read("labeled")
    else:
        with timed("labels"):
            labeled = store.write(
                _label_pages(features, edges, cfg, num_partitions), "labeled", phash
            )
    del features

    # decision counts while the edges are still in memory, so their blocks
    # are released before the merge
    with timed("metrics"):
        metrics = gate_metrics(edges)
    del edges

    # ---- stage 6: survivorship merge + lineage
    if resume and store.is_done("entities", phash) and store.is_done("lineage", phash):
        n_entities = store.num_rows("entities")
    else:
        with timed("entities"):
            from entity_resolution_engine_ray.stages.merge import (
                entities_from_labeled,
                lineage_from_labeled,
            )

            labeled = labeled.materialize()
            n_entities = store.write(entities_from_labeled(labeled), "entities", phash).count()
            store.write(lineage_from_labeled(labeled), "lineage", phash)
    del labeled

    # ---- run metrics + anomaly detection + quality gates (driver-side,
    # tiny — reference pipeline_run_metrics / anomaly_events /
    # quality_gate_results lifecycle, cli/run_mapping.py:57-60,184-185)
    with timed("metrics"):
        import uuid

        from entity_resolution_engine_ray.state.metrics import (
            MetricsStore,
            detect_anomalies,
            evaluate_quality_gates,
            write_quality_gate_result,
        )

        run_id = str(uuid.uuid4())
        metrics.update(
            {
                "entity_type": "page",
                **_drop_counts(dropped),
                "n_entities": n_entities,
                "wall_s": round(time.perf_counter() - t_start, 3),
            }
        )
        mtbl = pa.table({k: [v] for k, v in metrics.items() if not isinstance(v, dict)})
        store.write_table(mtbl, "metrics", phash, extra={"timings": timings})

        mstore = MetricsStore(os.path.join(out_dir, "history"))
        mstore.append_run_metrics(run_id, [metrics])
        anomalies = detect_anomalies(mstore, run_id, "page")
        high = sum(1 for a in anomalies if a["severity"] == "HIGH")
        gate_result = evaluate_quality_gates([metrics], high_severity_count=high, run_id=run_id)
        write_quality_gate_result(os.path.join(out_dir, "history"), gate_result)

    # lazy handles: the caller may never execute them
    import ray.data as rd

    return {
        "out_dir": out_dir,
        "run_id": run_id,
        "entities": rd.read_parquet(store.stage_dir("entities")),
        "lineage": rd.read_parquet(store.stage_dir("lineage")),
        "edges": rd.read_parquet(store.stage_dir(edges_stage)),
        "metrics": metrics,
        "anomalies": anomalies,
        "quality_gate": gate_result,
        "timings": timings,
    }


def _label_pages(features, edges, cfg: PagesERConfig, num_partitions: int | None):
    """Cluster the approved edges and attach each page's cluster label: the
    lazy Dataset the ``labeled`` checkpoint stores. Its temporaries (the
    approved edge ids, the broadcast roots) die when it returns.

    "auto": at or below ``cluster.DRIVER_EDGE_LIMIT`` approved edges, the
    approved edge ids are collected on the driver, the vectorised
    connected-components kernel runs there, and its (nodes, roots) arrays
    are broadcast to one labeling pass — no shuffle. Above it, and always
    under "labelprop": fully-distributed min-label propagation for inputs
    whose edge list exceeds driver memory.

    Every step reads the in-memory edge and features blocks with plain
    tasks or inside an exchange — no Ray Data execution."""
    import ray

    from entity_resolution_engine_ray.stages import cluster
    from entity_resolution_engine_ray.stages.exchange import map_blocks
    from entity_resolution_engine_ray.stages.merge import (
        build_labeled,
        label_features_broadcast,
    )

    # approved filter + ids-only projection, one task per edge block: the
    # gate count below and both clustering paths read the slim blocks
    approved = map_blocks(edges, _approved_ids)
    # the count is metadata-only on the in-memory slim blocks
    if cfg.cluster_method == "auto" and approved.count() <= cluster.DRIVER_EDGE_LIMIT:
        roots_ref = ray.put(cluster.cluster_label_map(approved))
        return label_features_broadcast(features, roots_ref)
    # ids-only CC: edges carry int64 url hashes, labels come back keyed by
    # hash, urls rejoin from the features side
    labels = cluster.connected_components_labelprop_ids(
        approved,
        num_partitions=num_partitions,
        max_iterations=cfg.max_cc_iterations,
    )
    return build_labeled(features, labels, num_partitions)


_APPROVED = pa.array(["auto_approve", "gray_approve", "llm_approve"])


def _approved_ids(t: pa.Table) -> pa.Table:
    """An edge block → the int64 (left_id, right_id) pairs of its approved
    edges."""
    if t.num_rows == 0:
        return pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())]).empty_table()
    t = t.filter(pc.is_in(t["decision"], value_set=_APPROVED))
    return pa.table(
        {"left_id": pc.cast(t["left_id"], pa.int64()), "right_id": pc.cast(t["right_id"], pa.int64())}
    )


def run_pages_er_incremental(
    prev_out_dir: str,
    new_pages,
    out_dir: str,
    cfg: PagesERConfig | None = None,
    num_partitions: int | None = None,
    pages_format: str = "parquet",
) -> dict:
    """Incremental resolution: fold a NEW batch of pages into a completed
    run without re-scoring the old corpus against itself.

    The pair-scoring stage is the pipeline's dominant cost and is block-
    local, so only blocks containing at least one new page can produce new
    or changed edges. This path:

    1. featurizes ONLY the new batch and unions it with the previous
       ``features`` checkpoint;
    2. re-runs fused pair-scoring restricted (``key_filter``) to block keys
       the new batch touches — old-old pairs inside a touched block rescore
       to byte-identical edges; untouched blocks never enter the shuffle;
    3. unions the new edges with the previous ``edges`` checkpoint and
       dedups on (left_id, right_id) by the full run's rule
       (``score._dedup_edges_partition``): both copies carry the same
       scores and decision, and the one with the minimum ``block_key``
       (the block the pair was scored in) survives;
    4. writes both unions as checkpoints in ``out_dir`` and hands the
       in-memory Datasets straight to clustering/merge/metrics, the same
       code a full run ends with. The previous checkpoints are read with
       one task per part file and each union is a Dataset over both sides'
       block refs, so the new batch's featurize is the fold's only Ray Data
       execution. A fold re-run on an ``out_dir`` whose
       ``features``/``edges`` are already ``_DONE`` reads them back and
       resumes from there, the contract the kill/resume tests pin.

    Equality contract (pinned in tests/test_incremental.py): the result
    equals a full run over old ∪ new — same edges, same cluster partitions
    — while scoring only O(touched blocks) pairs. Assumes the new batch's
    urls are NEW (a re-crawled url would union two feature rows; dedup by
    url upstream if re-ingestion is possible). Cost at 100 TB: a small
    daily batch touches a small fraction of blocks, so step 2 is ~|new| ×
    avg-block-size pair scores instead of |corpus|²-shaped work; steps 3-5
    stay O(corpus) but shuffle-light (labels move O(|V|) rows)."""
    import numpy as np

    from entity_resolution_engine_ray.stages.exchange import union_blocks
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    cfg = cfg or PagesERConfig()
    phash = f"{config_hash(cfg)}-v{PIPELINE_VERSION}"
    prev = CheckpointStore(prev_out_dir, enabled=True)
    if not (prev.is_done("features", phash) and prev.is_done("edges", phash)):
        raise ValueError(
            "previous run is incomplete or was produced by a different "
            "config/pipeline version — run the full pipeline instead"
        )

    t_start = time.perf_counter()
    store = CheckpointStore(out_dir, enabled=True)
    if store.is_done("features", phash) and store.is_done("edges", phash):
        features = store.read("features")
        edges = store.read("edges")
        dropped = _dropped_of(store.manifest("edges"))
    else:
        # ---- new-batch features + union checkpoint
        if isinstance(new_pages, str):
            from entity_resolution_engine_ray.sources.pages import read_pages

            new_ds = read_pages(new_pages, format=pages_format)
        else:
            new_ds = new_pages
        features_new = _features_of(new_ds, cfg)

        # ---- touched block keys (small side: |new| × bands int64 keys),
        # one task per in-memory features block
        import ray

        from entity_resolution_engine_ray.stages.block import block_keys_stage
        from entity_resolution_engine_ray.stages.exchange import _arrow_refs

        key_blocks = ray.get(_arrow_refs(block_keys_stage(features_new)))
        touched = np.unique(
            np.concatenate(
                [np.empty(0, np.int64)] + [t["block_key"].to_numpy() for t in key_blocks]
            )
        )

        features = union_blocks(prev.read("features"), features_new)
        features = store.write(features, "features", phash)

        # ---- rescore ONLY touched blocks over the unioned corpus
        edges_new, dropped_new = fused_edges_stage(
            features, cfg, num_partitions=num_partitions, key_filter=touched
        )

        # ---- edge union + exact dedup on the id pair, min block_key kept
        edges = partition_map_groups(
            union_blocks(edges_new, prev.read("edges")),
            ["left_id", "right_id"],
            _dedup_edges_partition,
            num_partitions,
            arrow_fns=True,
        )
        # dropped-pair accounting accumulates ACROSS folds (keeping only
        # the new batch's would silently degrade the count over a chain of
        # folds). Upper bound: an over-cap block that is ALSO touched has
        # its drops counted in both terms — exact subtraction would need
        # per-block drop attribution, which the slim count doesn't carry.
        dropped_prev = _dropped_of(prev.manifest("edges"))
        dropped = DroppedPairs(
            dropped_prev + dropped_new, dropped_prev.prefiltered + dropped_new.prefiltered
        )
        edges = store.write(
            edges,
            "edges",
            phash,
            extra={
                **_drop_counts(dropped),
                "incremental_from": prev_out_dir,
                "touched_blocks": int(len(touched)),
            },
        )
        del features_new, edges_new

    # ---- clustering / merge / metrics: the tail of a full run
    data = {"features": features, "edges": edges}
    del features, edges
    return _cluster_merge_metrics(
        store, cfg, phash, data, dropped,
        resume=True, num_partitions=num_partitions, timings={}, t_start=t_start,
    )
