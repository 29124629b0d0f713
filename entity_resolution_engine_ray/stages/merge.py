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
import pandas as pd
import pyarrow as pa
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

    Vectorized: pandas groupby aggregates over one ``(cluster_label,
    warc_ts, url)`` sort. The only per-cluster Python is the member-url
    content hash: one ``cluster_entity_id`` per contiguous slice of one
    ``(cluster_label, url)`` sort, used by both tables. The only per-url
    Python is the domain parse. A zero-row partition returns both typed
    empty tables (pandas would type their empty object columns as null);
    a zero-COLUMN one (a 0-row Dataset input with no typed block) comes
    back as itself, twice."""
    if t.num_rows == 0:
        if not set(_LABELED_COLS) <= set(t.column_names):
            return t, t
        return _entity_schema(t.schema).empty_table(), _lineage_schema(t.schema).empty_table()
    pdf = t.to_pandas()
    pdf = pdf.assign(domain=[normalize_domain(u) for u in pdf["url"]])
    pdf = pdf.sort_values(["cluster_label", "warc_ts", "url"], kind="mergesort")
    g = pdf.groupby("cluster_label", sort=False)
    rep = g.head(1).set_index("cluster_label")  # min (warc_ts, url) member
    agg = g.agg(
        n_members=("url", "size"),
        first_seen=("warc_ts", "min"),
        last_seen=("warc_ts", "max"),
    )
    # majority lang, ties lexicographic
    lc = pdf.groupby(["cluster_label", "lang"], sort=False).size().reset_index(name="c")
    lc = lc.sort_values(["cluster_label", "c", "lang"], ascending=[True, False, True], kind="mergesort")
    lang_top = lc.drop_duplicates("cluster_label").set_index("cluster_label")["lang"]
    # one (cluster_label, url) sort serves both tables: each cluster's
    # member urls are a contiguous sorted slice, hashed once
    members = pdf.sort_values(["cluster_label", "url"], kind="mergesort")
    labels = members["cluster_label"].to_numpy()
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    ends = np.r_[starts[1:], len(labels)]
    urls = members["url"].tolist()
    member_ids = np.array([cluster_entity_id("PAGE", urls[a:b]) for a, b in zip(starts, ends)], dtype=object)
    ids = pd.Series(member_ids, index=labels[starts])
    entities = pd.DataFrame(
        {
            "cluster_label": agg.index.to_numpy(dtype=np.int64),
            "entity_id": ids.reindex(agg.index).to_numpy(),
            "canonical_url": rep["url"].reindex(agg.index).to_numpy(),
            "canonical_title": rep["title_norm"].reindex(agg.index).to_numpy(),
            "domain": rep["domain"].reindex(agg.index).to_numpy(),
            "lang": lang_top.reindex(agg.index).to_numpy(),
            "n_members": agg["n_members"].to_numpy(dtype=np.int64),
            "first_seen": agg["first_seen"].to_numpy(),
            "last_seen": agg["last_seen"].to_numpy(),
        }
    )
    lineage = pd.DataFrame(
        {
            "url": members["url"].to_numpy(),
            "entity_id": np.repeat(member_ids, ends - starts),
            "source_domain": members["domain"].to_numpy(),
        }
    )
    return _arrow(entities), _arrow(lineage)


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


@ray.remote(num_returns=4)
def _merge_reduce(sinks, i: int, *subtables: pa.Table):
    from entity_resolution_engine_ray.stages.exchange import _emit, _merge_tables

    entities, lineage = merge_partition(_merge_tables(subtables))
    ent_sink, lin_sink = sinks or (None, None)
    return (*_emit(entities, ent_sink, i), *_emit(lineage, lin_sink, i))


def merge_labeled(labeled, num_partitions: int | None = None, sinks=None):
    """``(entities, lineage)`` of ``labeled`` (``Blocks`` or a Dataset, each
    returned in kind): one survivorship row per cluster and one lineage row
    per page, from ONE hash exchange on ``cluster_label`` whose reduce task
    per partition emits both tables (``merge_partition``).
    ``num_partitions=None`` → ``grouping.auto_partitions`` of the rows.
    ``sinks``: an (entities, lineage) pair of ``state.checkpoint.PartSink``
    each reduce task writes its two tables to."""
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
    splits = _split_all(blocks.refs, ["cluster_label"], p, None, cpus, blocks.rows)
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
