"""Stage 6 — survivorship merge + lineage.

One hash exchange of the labeled pages on ``cluster_label``
(``merge_labeled``) canonicalizes each entity cluster (the Ray
generalization of the reference's per-entity mergers,
merger/players_merge.py:39-45 — deterministic field preference by source
priority then record key):

- representative member = min ``(warc_ts, url)``
- ``entity_id`` = content hash of the sorted member urls
  (functions/ids.cluster_entity_id — the N-way analog of generate_ues_id)
- ``lang`` = majority vote, ties broken lexicographically
- ``merge_confidence`` = mean score of the cluster's approved edges is NOT
  recomputed here (edges live in their own checkpoint); instead n_members and
  the representative are recorded — confidence joins on demand.

Singleton pages (no approved edge) carry their own label from the labeling
stage, so they become single-member entities.

The same reduce emits the flat lineage table (url → entity_id, the
reference's ``source_lineage`` explode, ues_writer/writer.py:56-67) from the
partition it already holds, with each cluster's entity id computed once for
both tables — block lists in the object store, never a driver dict
(SURVEY.md §2.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from entity_resolution_engine_ray.functions.ids import cluster_entity_id
from entity_resolution_engine_ray.oracle.serial import normalize_domain


_META_COLS = ["url", "warc_ts", "lang", "title_norm"]
_LABELED_COLS = _META_COLS + ["cluster_label"]


def label_features_broadcast(features, label_map_ref, sink=None):
    """Fast path: attach cluster labels to every page with one plain task
    per in-memory features block (``exchange.map_blocks``; ``Blocks`` or a
    Dataset, returned in kind) against the broadcast ``(nodes, roots)``
    arrays of ``cluster_label_map`` (``ray.put`` once, read per task —
    never re-shipped per block). Singletons label with their own url
    hash. ``sink``: a ``state.checkpoint.PartSink`` each task writes its
    labeled block to."""
    from entity_resolution_engine_ray.stages.cluster import label_of
    from entity_resolution_engine_ray.stages.exchange import map_blocks, project_block

    def add_label(t: pa.Table) -> pa.Table:
        t = project_block(t, _META_COLS + ["url_hash"])
        if t.num_columns == 0:
            return t
        nodes, roots = ray.get(label_map_ref)
        labels = label_of(nodes, roots, t["url_hash"].to_numpy())
        return t.select(_META_COLS).append_column(
            "cluster_label", pa.array(labels, type=pa.int64())
        )

    return map_blocks(features, add_label, sink)


def build_labeled(features, labels, num_partitions=None, sink=None):
    """Scale path: align page metadata with a labels table
    (``connected_components_labelprop_ids`` output: node:int64 =
    url_hash, cluster_label:int64) through ``cluster.attach_labels`` on the
    8-byte ``url_hash`` — one exchange, NO url strings on the join key, and
    the metadata projection runs in its split tasks. ``Blocks`` when both
    inputs are. Singletons (pages with no approved edge) label with their
    own url_hash — the same label space the broadcast path uses.
    ``sink``: a ``state.checkpoint.PartSink`` the exchange's reduce tasks
    write the labeled blocks to."""
    from entity_resolution_engine_ray.stages.cluster import attach_labels

    return attach_labels(features, "url_hash", labels, num_partitions, columns=_META_COLS, sink=sink)


def _entity_schema(labeled: pa.Schema) -> pa.Schema:
    t = labeled.field
    return pa.schema(
        [
            ("cluster_label", pa.int64()),
            ("entity_id", pa.string()),
            ("canonical_url", t("url").type),
            ("canonical_title", t("title_norm").type),
            ("domain", pa.string()),
            ("lang", t("lang").type),
            ("n_members", pa.int64()),
            ("first_seen", t("warc_ts").type),
            ("last_seen", t("warc_ts").type),
        ]
    )


def _lineage_schema(labeled: pa.Schema) -> pa.Schema:
    return pa.schema(
        [("url", labeled.field("url").type), ("entity_id", pa.string()), ("source_domain", pa.string())]
    )


def merge_partition(t: pa.Table) -> tuple[pa.Table, pa.Table]:
    """One hash partition of labeled pages → (one canonical row per
    cluster, one lineage row per member url).

    Vectorized over two Arrow sorts. The ``(cluster_label, warc_ts, url)``
    sort gives each cluster's representative (its first row) and, by
    numpy segment reductions over its contiguous slice, ``n_members`` and
    ``first_seen`` / ``last_seen`` (nulls sort last, so they are skipped as
    a min / max skips them). The ``(cluster_label, url)`` sort gives each
    cluster's member urls as one contiguous sorted slice: one
    ``cluster_entity_id`` per cluster, used by both tables. The majority
    ``lang`` is an Arrow group-by count of the non-null langs, ties to the
    lexicographically smaller. The only per-url Python is the domain
    parse. A zero-row partition returns both typed empty tables; a
    zero-COLUMN one (a 0-row Dataset input with no typed block) comes back
    as itself, twice."""
    if t.num_rows == 0:
        if not set(_LABELED_COLS) <= set(t.column_names):
            return t, t
        return _entity_schema(t.schema).empty_table(), _lineage_schema(t.schema).empty_table()
    domains = pa.array([normalize_domain(u) for u in t["url"].to_pylist()], pa.string())
    by_time = pc.sort_indices(
        t,
        sort_keys=[("cluster_label", "ascending"), ("warc_ts", "ascending"), ("url", "ascending")],
    )
    labels = t["cluster_label"].take(by_time).to_numpy()
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    sizes = np.diff(np.r_[starts, len(labels)])
    first = by_time.take(pa.array(starts))
    seen = t["warc_ts"].take(by_time)
    n_seen = np.add.reduceat(seen.is_valid().to_numpy().astype(np.int64), starts)
    by_url = pc.sort_indices(t, sort_keys=[("cluster_label", "ascending"), ("url", "ascending")])
    urls = t["url"].take(by_url).to_pylist()
    entity_ids = pa.array(
        [cluster_entity_id("PAGE", urls[a : a + n]) for a, n in zip(starts, sizes)], pa.string()
    )
    entities = pa.table(
        {
            "cluster_label": pa.array(labels[starts], pa.int64()),
            "entity_id": entity_ids,
            "canonical_url": t["url"].take(first),
            "canonical_title": t["title_norm"].take(first),
            "domain": domains.take(first),
            "lang": _majority_lang(t, labels[starts]),
            "n_members": pa.array(sizes, pa.int64()),
            "first_seen": seen.take(pa.array(starts)),
            "last_seen": seen.take(pa.array(starts + np.maximum(n_seen, 1) - 1)),
        },
        schema=_entity_schema(t.schema),
    )
    lineage = pa.table(
        {
            "url": t["url"].take(by_url),
            "entity_id": entity_ids.take(pa.array(np.repeat(np.arange(len(starts)), sizes))),
            "source_domain": domains.take(by_url),
        },
        schema=_lineage_schema(t.schema),
    )
    return entities, lineage


def _majority_lang(t: pa.Table, labels: np.ndarray):
    """Each of the sorted cluster ``labels``' most frequent non-null
    ``lang`` in ``t``, ties to the lexicographically smaller; null for a
    cluster with none."""
    known = t.filter(pc.is_valid(t["lang"]))
    counts = known.group_by(["cluster_label", "lang"], use_threads=False).aggregate(
        [([], "count_all")]
    )
    order = [("cluster_label", "ascending"), ("count_all", "descending"), ("lang", "ascending")]
    counts = counts.take(pc.sort_indices(counts, sort_keys=order))
    if counts.num_rows == 0:
        return pa.nulls(len(labels), t["lang"].type)
    counts_labels = counts["cluster_label"].to_numpy()
    top = np.flatnonzero(np.r_[True, counts_labels[1:] != counts_labels[:-1]])
    at = np.minimum(np.searchsorted(counts_labels[top], labels), len(top) - 1)
    missing = counts_labels[top[at]] != labels
    return counts["lang"].take(pa.array(top[at], mask=missing))


@ray.remote(num_returns=4)
def _merge_reduce(sinks, i: int, *subtables: pa.Table):
    from entity_resolution_engine_ray.stages.exchange import _emit, _mapped_input

    # at one partition the raw labeled blocks, which a from_pandas Dataset
    # hands over as pandas
    entities, lineage = merge_partition(_mapped_input(None, subtables))
    ent_sink, lin_sink = sinks or (None, None)
    return (*_emit(entities, ent_sink, i), *_emit(lineage, lin_sink, i))


def merge_labeled(labeled, num_partitions: int | None = None, sinks=None):
    """``(entities, lineage)`` of ``labeled`` (``Blocks`` or a Dataset, each
    returned in kind): one survivorship row per cluster and one lineage row
    per page, from ONE hash exchange on ``cluster_label`` whose reduce task
    per partition emits both tables (``merge_partition``).
    ``num_partitions=None`` → ``grouping.auto_partitions`` of the rows.
    ``sinks``: an (entities, lineage) pair of ``state.checkpoint.PartSink``
    each reduce task writes its two tables to. At one partition no split
    task runs: the one reduce gets the labeled blocks themselves
    (``exchange._split_all``)."""
    from entity_resolution_engine_ray.stages.exchange import (
        _as_given,
        _kept,
        _partition_subs,
        _split_all,
        _width,
        as_blocks,
        cluster_cpus,
    )

    blocks = as_blocks(labeled)
    cpus = cluster_cpus()
    p = _width(num_partitions, blocks.count(), cpus)
    splits, _ = _split_all(blocks.refs, ["cluster_label"], p, None, cpus, blocks.rows)
    outs = [_merge_reduce.remote(sinks, i, *_partition_subs(splits, i, p)) for i in range(p)]
    rows = ray.get([o[1] for o in outs] + [o[3] for o in outs])
    entities = _kept([o[0] for o in outs], rows[:p])
    lineage = _kept([o[2] for o in outs], rows[p:])
    return _as_given((labeled,), entities), _as_given((labeled,), lineage)


def entities_from_labeled(labeled, num_partitions: int | None = None):
    """One survivorship row per cluster of ``labeled``: the entities half of
    ``merge_labeled``."""
    return merge_labeled(labeled, num_partitions)[0]


def lineage_from_labeled(labeled, num_partitions: int | None = None):
    """One lineage row per page of ``labeled``: the lineage half of
    ``merge_labeled``."""
    return merge_labeled(labeled, num_partitions)[1]
