"""Flagship pages ER pipeline: extract → block → pairs → score/gate →
cluster → merge, each stage checkpointed to Parquet with a ``_DONE``
manifest (resume from the last completed stage — north rule).

Lifecycle mirror of SURVEY.md §3.4. The reference's single-process
five-entity loop (cli/run_mapping.py:37-188) becomes plain read + extract +
featurize tasks followed by task-level exchanges; its driver-held dict
"joins" become hash exchanges; its ``writer.reset()`` full-restart becomes
checkpoint resume. The stages hand each other ``exchange.Blocks`` (block
refs with their row counts), not Datasets: a Parquet input is read inside
the featurize tasks, so a call starts no Ray Data execution, and a Dataset
is built only for an input of another format and for a result handle a
caller reads.

Usage::

    result = run_pages_er(pages_path, out_dir, cfg)
    # result: dict with entities/lineage/edges paths + run metrics
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from entity_resolution_engine_ray.config import PagesERConfig, config_hash
from entity_resolution_engine_ray.sources.pages import (
    FEATURE_INPUT_COLUMNS,
    PAGES_SCHEMA,
    parquet_parts,
    parquet_read_units,
    read_unit_slices,
)
from entity_resolution_engine_ray.stages.block import FEATURIZE_BATCH_ROWS, _comb, featurize_pages

# The Ray Data form of the features step. No call here runs it; the names
# stay on this module because erbench's tracer wraps them here.
from entity_resolution_engine_ray.stages.block import feature_stage  # noqa: F401
from entity_resolution_engine_ray.stages.extract import extract_stage  # noqa: F401

from entity_resolution_engine_ray.stages.exchange import (
    Blocks,
    _emit,
    _ensure_table,
    _kept,
    as_blocks,
    cpus_read_once,
)
from entity_resolution_engine_ray.stages.pairs import DroppedPairs
from entity_resolution_engine_ray.stages.score import (
    _decision_counts,
    fused_edges_stage,
    gate_metrics,
    sum_decision_counts,
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


@cpus_read_once()
def run_pages_er(
    pages,
    out_dir: str,
    cfg: PagesERConfig | None = None,
    resume: bool = True,
    num_partitions: int | None = None,  # None → scale with cluster CPUs
    pages_format: str = "parquet",
) -> dict:
    """Run the full pipeline.

    ``pages``: a path/dir (``pages_format``: parquet|jsonl|csv|warc|orc,
    normalized to the input_hint schema by sources.pages.read_pages) or an
    existing Dataset with that schema (url, warc_ts, html, text, lang).
    The cluster's CPU count is read once per call, and every exchange and
    width rule in the call sizes itself from that reading.
    """
    cfg = cfg or PagesERConfig()
    # the code version is part of the checkpoint identity: stage semantics /
    # schema changes must invalidate old checkpoints even when the config
    # dataclass is unchanged
    phash = f"{config_hash(cfg)}-v{PIPELINE_VERSION}"
    store = CheckpointStore(out_dir)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    timed = _timer(timings)

    # ---- stage 1+2: extract + features (checkpointed together: "block");
    # each stage's producing tasks write its parts, the driver commits it
    if resume and store.is_done("features", phash):
        features = store.read("features")
    else:
        with timed("features"):
            sink = store.open_stage("features")
            features = store.commit(
                "features", sink, _features_of(pages, cfg, pages_format, sink), phash
            )

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
            sink = store.open_stage("edges")
            # the compute includes the part writes of its dedup tasks; the
            # write is the commit
            with timed("edges_compute"):
                edges, dropped = fused_edges_stage(
                    features, cfg, num_partitions=num_partitions, sink=sink
                )
            with timed("edges_write"):
                edges = store.commit("edges", sink, edges, phash, extra=_edges_manifest(dropped))

    data = {"features": features, "edges": edges}
    del features, edges
    return _cluster_merge_metrics(
        store, cfg, phash, data, dropped,
        resume=resume, num_partitions=num_partitions, timings=timings, t_start=t_start,
    )


def _features_of(pages, cfg: PagesERConfig, pages_format: str, sink=None) -> Blocks:
    """Extract + featurize ``pages`` into ``Blocks`` with one kernel,
    ``block.featurize_pages``, entered two ways:

    - a Parquet path: the row groups of its part files are grouped into
      read units of at least ``FEATURIZE_BATCH_ROWS`` rows, and one plain
      task per unit reads and featurizes it (``_featurize_unit``), so
      ``html`` never enters the object store and no Ray Data execution
      starts. A zero-row input is one typed empty features block of its
      first file's schema, which keeps the ``warc_ts`` unit;
    - a Dataset, or a path of another format (read by
      ``sources.pages.read_pages``): its blocks (one ``as_blocks``), each
      featurized by one plain task (``_featurize_block``).

    ``sink``: a ``state.checkpoint.PartSink`` each task writes its features
    block to, in ``Blocks`` order."""
    return _featurize(pages, cfg, pages_format, sink, batch=False)[0]


def _batch_features_of(pages, cfg: PagesERConfig, pages_format: str, sink):
    """``_features_of`` for a fold's batch → (features, the sorted block
    keys it touches, (its url hashes, its block keys, one per page and
    band)). The featurize tasks return each block's keys and hashes beside
    it, so no second pass reads the new blocks."""
    features, refs = _featurize(pages, cfg, pages_format, sink, batch=True)
    parts = ray.get(refs) if refs else [_batch_keys(ray.get(features.refs[0]))]
    keys = np.concatenate([k for k, _ in parts])
    return features, np.unique(keys), (np.concatenate([h for _, h in parts]), keys)


def _featurize(pages, cfg: PagesERConfig, pages_format: str, sink, batch: bool):
    """The featurize tasks of ``_features_of`` → (features, the refs of
    their ``_batch_keys`` when ``batch``, else of None)."""
    if isinstance(pages, str) and pages_format == "parquet":
        fs, files = parquet_parts(pages)
        units = parquet_read_units(fs, files, FEATURIZE_BATCH_ROWS)
        if not units:
            empty = pq.read_schema(files[0], filesystem=fs).empty_table()
            return Blocks.of(featurize_pages(empty, cfg)), []
        outs = [
            _featurize_unit.remote(fs, unit, cfg, sink, i, batch) for i, unit in enumerate(units)
        ]
    else:
        if isinstance(pages, str):
            from entity_resolution_engine_ray.sources.pages import read_pages

            pages = read_pages(pages, format=pages_format)
        refs = as_blocks(pages).refs
        outs = [_featurize_block.remote(r, cfg, sink, i, batch) for i, r in enumerate(refs)]
    features = _kept([t for t, _, _ in outs], ray.get([n for _, n, _ in outs]))
    return features, [k for _, _, k in outs]


def _batch_keys(features: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """A features block → (its block keys, one per page and band, its url
    hashes)."""
    keys = _comb(features["band_keys"]).flatten().to_numpy(zero_copy_only=False)
    ids = features["url_hash"].to_numpy()
    return keys.astype(np.int64, copy=False), ids.astype(np.int64, copy=False)


def _featurized(out: pa.Table, sink, i: int, batch: bool):
    """A featurize task's returns: (features, rows) after ``_emit``, and
    its ``_batch_keys`` when ``batch``."""
    return (*_emit(out, sink, i), _batch_keys(out) if batch else None)


@ray.remote(num_returns=3)
def _featurize_unit(fs, unit, cfg: PagesERConfig, sink, i: int, batch: bool):
    """The features of one Parquet read unit (its pages'
    ``FEATURE_INPUT_COLUMNS``, streamed in ``FEATURIZE_BATCH_ROWS``-row
    slices) as ``_featurized`` returns them, written as part ``i`` of
    ``sink`` when one is given."""
    parts = [
        featurize_pages(t, cfg)
        for t in read_unit_slices(fs, unit, FEATURE_INPUT_COLUMNS, FEATURIZE_BATCH_ROWS)
    ]
    return _featurized(pa.concat_tables(parts) if len(parts) > 1 else parts[0], sink, i, batch)


@ray.remote(num_returns=3)
def _featurize_block(block, cfg: PagesERConfig, sink, i: int, batch: bool):
    """``featurize_pages`` of one in-memory pages block, as ``_featurized``
    returns it. A zero-column block (a 0-row Dataset whose schema is
    unknown) featurizes as an empty ``PAGES_SCHEMA`` table, so the result
    is still typed."""
    t = _ensure_table(block)
    out = featurize_pages(t if t.num_columns else PAGES_SCHEMA.empty_table(), cfg)
    return _featurized(out, sink, i, batch)


def _drop_counts(dropped) -> dict:
    """The pair-drop counts of a ``DroppedPairs``."""
    return {"dropped_pairs": int(dropped), "prefiltered_pairs": dropped.prefiltered}


def _edges_manifest(dropped) -> dict:
    """The edges manifest's fields of a ``DroppedPairs``: its counts and
    whether the singleton prune was skipped."""
    return {**_drop_counts(dropped), "prune_skipped": dropped.prune_skipped}


def _dropped_of(manifest: dict) -> DroppedPairs:
    return DroppedPairs(
        int(manifest.get("dropped_pairs", 0) or 0),
        int(manifest.get("prefiltered_pairs", 0) or 0),
        bool(manifest.get("prune_skipped", False)),
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
    ``Blocks`` in ``data``, shared by the full run and the incremental fold.

    The caller hands over its only references in ``data``, so each
    in-memory block list is freed once its last consumer here has run. The
    result's ``entities``, ``lineage`` and ``edges`` are ``read_parquet``
    handles on the checkpoints, each built when a caller first reads it, so
    the result pins no blocks and a caller that never reads them pays
    nothing."""
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

    # ---- stage 5: cluster approved edges → fully-labeled pages checkpoint;
    # the pass that picks the approved edges also counts the decisions
    decisions = None
    if resume and store.is_done("labeled", phash):
        labeled = store.read("labeled")
    else:
        with timed("labels"):
            sink = store.open_stage("labeled")
            labeled, decisions = _label_pages(features, edges, cfg, num_partitions, sink)
            labeled = store.commit("labeled", sink, labeled, phash)
    del features

    # on resume the decision counts come while the edges are still in
    # memory, so their blocks are released before the merge
    with timed("metrics"):
        metrics = gate_metrics(edges, decisions)
    del edges

    # ---- stage 6: survivorship merge + lineage
    if resume and store.is_done("entities", phash) and store.is_done("lineage", phash):
        n_entities = store.num_rows("entities")
    else:
        with timed("entities"):
            from entity_resolution_engine_ray.stages.merge import merge_labeled

            sinks = (store.open_stage("entities"), store.open_stage("lineage"))
            entities, lineage = merge_labeled(labeled, num_partitions, sinks=sinks)
            n_entities = store.commit("entities", sinks[0], entities, phash).count()
            store.commit("lineage", sinks[1], lineage, phash)
            del entities, lineage
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

    return {
        "out_dir": out_dir,
        "run_id": run_id,
        "entities": ParquetHandle(store.stage_dir("entities")),
        "lineage": ParquetHandle(store.stage_dir("lineage")),
        "edges": ParquetHandle(store.stage_dir(edges_stage)),
        "metrics": metrics,
        "anomalies": anomalies,
        "quality_gate": gate_result,
        "timings": timings,
    }


class ParquetHandle:
    """A ``ray.data.read_parquet`` Dataset on a checkpoint directory, built
    the first time a caller reads it: every Dataset attribute is forwarded
    to it. Building one costs a Ray Data stats-actor round trip and a file
    listing, which a caller that only wants the run metrics never pays."""

    def __init__(self, path: str):
        self.path = path
        self._ds = None

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        if self._ds is None:
            import ray.data as rd

            self._ds = rd.read_parquet(self.path)
        return getattr(self._ds, name)

    def __repr__(self) -> str:
        return f"ParquetHandle({self.path!r})"


def _label_pages(
    features, edges, cfg: PagesERConfig, num_partitions: int | None, sink=None
) -> tuple[Blocks, dict[str, int]]:
    """Cluster the approved edges and attach each page's cluster label:
    the ``Blocks`` the ``labeled`` checkpoint stores, written as its parts
    to ``sink`` by the labeling tasks, and the edges' decision counts
    (``gate_metrics`` reads them), from the same per-block pass that picks
    the approved edges. Its temporaries (the approved edge ids, the
    broadcast roots) die when it returns.

    "auto": at or below ``cluster.DRIVER_EDGE_LIMIT`` approved edges, the
    approved edge ids are collected on the driver, the vectorised
    connected-components kernel runs there, and its (nodes, roots) arrays
    are broadcast to one labeling pass — no shuffle. Above it, and always
    under "labelprop": fully-distributed min-label propagation for inputs
    whose edge list exceeds driver memory.

    Every step reads the in-memory edge and features blocks with plain
    tasks or inside an exchange — no Ray Data execution."""
    from entity_resolution_engine_ray.stages import cluster
    from entity_resolution_engine_ray.stages.merge import (
        build_labeled,
        label_features_broadcast,
    )

    # approved filter + ids-only projection and the decision counts, one
    # task per edge block: the gate count below and both clustering paths
    # read the slim blocks
    outs = [_edge_pass.remote(r) for r in as_blocks(edges).refs]
    approved = _kept([o[0] for o in outs], ray.get([o[1] for o in outs]))
    decisions = sum_decision_counts(ray.get([o[2] for o in outs]))
    # the count is the pass's row counts
    if cfg.cluster_method == "auto" and approved.count() <= cluster.DRIVER_EDGE_LIMIT:
        roots_ref = ray.put(cluster.cluster_label_map(approved))
        return label_features_broadcast(features, roots_ref, sink), decisions
    # ids-only CC: edges carry int64 url hashes, labels come back keyed by
    # hash, urls rejoin from the features side
    labels = cluster.connected_components_labelprop_ids(
        approved,
        num_partitions=num_partitions,
        max_iterations=cfg.max_cc_iterations,
    )
    return build_labeled(features, labels, num_partitions, sink), decisions


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


@ray.remote(num_returns=3)
def _edge_pass(block):
    """An edge block → its approved ids (``_approved_ids``), their row
    count and its decision counts (``score._decision_counts``)."""
    t = _ensure_table(block)
    ids = _approved_ids(t)
    return ids, ids.num_rows, _decision_counts(t)


@cpus_read_once()
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

    1. featurizes ONLY the new batch. The ``features`` checkpoint is the
       previous run's part files, hard-linked (or copied) unchanged — never
       read back and rewritten — followed by the parts the new batch's
       featurize tasks write; in memory it is the concatenation of the
       previous checkpoint's blocks (read with one task per part file) and
       the new ones. The featurize tasks also return the batch's block keys
       (the touched keys) and url hashes, so nothing reads the new blocks
       a second time;
    2. re-runs fused pair-scoring restricted (``key_filter``) to the touched
       keys, where it scores only the pairs the batch can change
       (``batch``, ``pairs.batch_pairs``): a pair with a new page, and
       every pair of a hot key the batch re-splits or of a bucket over
       ``pair_sample_cap``. Any other pair is old-old in a bucket the
       previous run formed with fewer members and scored whole, so its
       edge is in the previous edges with a ``block_key`` no larger, and
       step 3 keeps that row either way. Untouched blocks never enter the
       shuffle;
    3. passes the previous ``edges`` checkpoint's blocks into that scoring
       exchange's own edge dedup (``fold_in``), so ONE dedup pass over new
       ∪ old edges keeps each (left_id, right_id) pair once by the full
       run's rule (``score._dedup_edges_partition``): all copies carry the
       same scores and decision, and the one with the minimum
       ``block_key`` (the block the pair was scored in) survives — the
       same edges as deduping the new edges first and the union after;
    4. commits both checkpoints in ``out_dir`` (the dedup tasks wrote the
       edges' parts) and hands their in-memory ``Blocks`` straight to
       clustering/merge/metrics, the same code a full run ends with. With
       a Parquet batch the fold starts no Ray Data execution and builds no
       Dataset (the batch is featurized inside plain read tasks, as in a
       full run). A fold re-run on an ``out_dir`` whose ``features``/
       ``edges`` are already ``_DONE`` reads them back and resumes from
       there, the contract the kill/resume tests pin.

    Equality contract (pinned in tests/test_incremental.py): the result
    equals a full run over old ∪ new — same edges, same cluster partitions
    — when no bucket goes over a cap. Assumes the new batch's urls are NEW
    (a re-crawled url would union two feature rows; dedup by url upstream
    if re-ingestion is possible). Cost: step 2 scores about |new| × bands
    × avg-block-size pairs plus the pairs of re-split keys and capped
    buckets, not every pair of a touched block (erbench's 2,000-page fold, seed 1:
    1,560 distinct pairs scored in place of 7,029). Forming the pairs
    still explodes every corpus features row and sorts the touched
    blocks' rows, and steps 3-5 stay O(corpus) but shuffle-light (labels
    move O(|V|) rows)."""
    from entity_resolution_engine_ray.stages.exchange import union_blocks

    cfg = cfg or PagesERConfig()
    phash = f"{config_hash(cfg)}-v{PIPELINE_VERSION}"
    prev = CheckpointStore(prev_out_dir)
    if not (prev.is_done("features", phash) and prev.is_done("edges", phash)):
        raise ValueError(
            "previous run is incomplete or was produced by a different "
            "config/pipeline version — run the full pipeline instead"
        )

    t_start = time.perf_counter()
    store = CheckpointStore(out_dir)
    if store.is_done("features", phash) and store.is_done("edges", phash):
        features = store.read("features")
        edges = store.read("edges")
        dropped = _dropped_of(store.manifest("edges"))
    else:
        # ---- new-batch features + union checkpoint: the previous parts
        # first, then the ones the featurize tasks write; those tasks also
        # return the batch's block keys (small side: |new| × bands int64
        # keys) and url hashes
        prev_features = prev.read("features")
        sink = store.open_stage("features")
        n_prev = prev.link_parts("features", sink)
        features_new, touched, batch = _batch_features_of(
            new_pages, cfg, pages_format, sink.after(n_prev)
        )
        features = store.commit(
            "features", sink, union_blocks(prev_features, features_new), phash
        )

        # ---- rescore the pairs the batch can change, in touched blocks
        # only, over the unioned corpus; the previous edges join its edge
        # dedup (exact on the id pair, min block_key kept), whose tasks
        # write the union's parts
        sink = store.open_stage("edges")
        edges, dropped_new = fused_edges_stage(
            features,
            cfg,
            num_partitions=num_partitions,
            key_filter=touched,
            fold_in=prev.read("edges"),
            batch=batch,
            sink=sink,
        )
        # dropped-pair accounting accumulates ACROSS folds (keeping only
        # the new batch's would silently degrade the count over a chain of
        # folds). Upper bound: an over-cap block that is ALSO touched has
        # its drops counted in both terms — exact subtraction would need
        # per-block drop attribution, which the slim count doesn't carry.
        # A prune skipped on either side is reported.
        dropped_prev = _dropped_of(prev.manifest("edges"))
        dropped = DroppedPairs(
            dropped_prev + dropped_new,
            dropped_prev.prefiltered + dropped_new.prefiltered,
            dropped_prev.prune_skipped or dropped_new.prune_skipped,
        )
        edges = store.commit(
            "edges",
            sink,
            edges,
            phash,
            extra={
                **_edges_manifest(dropped),
                "incremental_from": prev_out_dir,
                "touched_blocks": int(len(touched)),
            },
        )
        del prev_features, features_new

    # ---- clustering / merge / metrics: the tail of a full run
    data = {"features": features, "edges": edges}
    del features, edges
    return _cluster_merge_metrics(
        store, cfg, phash, data, dropped,
        resume=True, num_partitions=num_partitions, timings={}, t_start=t_start,
    )
