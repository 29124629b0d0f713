"""Stage 6 — survivorship merge + lineage.

``groupby(cluster_label).map_groups(survivorship)`` canonicalizes each entity
cluster (the Ray generalization of the reference's per-entity mergers,
merger/players_merge.py:39-45 — deterministic field preference by source
priority then record key):

- representative member = min ``(warc_ts, url)``
- ``entity_id`` = content hash of the sorted member urls
  (functions/ids.cluster_entity_id — the N-way analog of generate_ues_id)
- ``lang`` = majority vote, ties broken lexicographically
- ``merge_confidence`` = mean score of the cluster's approved edges is NOT
  recomputed here (edges live in their own checkpoint); instead n_members and
  the representative are recorded — confidence joins on demand.

Singleton pages (no approved edge) become single-member entities via a left
outer join of all pages against the edge-derived labels.

The flat lineage table (url → entity_id, the reference's ``source_lineage``
explode, ues_writer/writer.py:56-67) is emitted by re-joining labels with the
entity mapping — a Dataset, never a driver dict (SURVEY.md §2.5).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from entity_resolution_engine_ray.functions.ids import cluster_entity_id
from entity_resolution_engine_ray.oracle.serial import normalize_domain


def _survivor_partition(pdf: pd.DataFrame) -> pd.DataFrame:
    """One hash partition of clusters → one canonical row per cluster.

    Vectorized: one sort, pandas groupby aggregates; the only per-cluster
    Python is the member-url content hash."""
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
    ids = g["url"].agg(lambda u: cluster_entity_id("PAGE", list(u)))
    out = pd.DataFrame(
        {
            "cluster_label": agg.index.to_numpy(dtype=np.int64),
            "entity_id": ids.reindex(agg.index).to_numpy(),
            "canonical_url": rep["url"].reindex(agg.index).to_numpy(),
            "canonical_title": rep["title_norm"].reindex(agg.index).to_numpy(),
            "domain": [normalize_domain(u) for u in rep["url"].reindex(agg.index)],
            "lang": lang_top.reindex(agg.index).to_numpy(),
            "n_members": agg["n_members"].to_numpy(dtype=np.int64),
            "first_seen": agg["first_seen"].to_numpy(),
            "last_seen": agg["last_seen"].to_numpy(),
        }
    )
    return out.reset_index(drop=True)


def _lineage_partition(pdf: pd.DataFrame) -> pd.DataFrame:
    """One hash partition of clusters → one lineage row per member url
    (the reference's ``source_lineage`` explode), entity ids recomputed from
    cluster contents (pure function — no join needed)."""
    pdf = pdf.sort_values(["cluster_label", "url"], kind="mergesort")
    ids = pdf.groupby("cluster_label", sort=False)["url"].transform(
        lambda u: cluster_entity_id("PAGE", list(u))
    )
    return pd.DataFrame(
        {
            "url": pdf["url"].to_numpy(),
            "entity_id": ids.to_numpy(),
            "source_domain": [normalize_domain(u) for u in pdf["url"]],
        }
    )


_META_COLS = ["url", "warc_ts", "lang", "title_norm"]
_LABELED_COLS = _META_COLS + ["cluster_label"]


def label_features_broadcast(features, label_map_ref):
    """Fast path: attach cluster labels to every page with one plain task
    per in-memory features block (``exchange.map_blocks``; ``Blocks`` or a
    Dataset, returned in kind) against the broadcast ``(nodes, roots)``
    arrays of ``cluster_label_map`` (``ray.put`` once, read per task —
    never re-shipped per block). Singletons label with their own url
    hash."""
    import ray

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

    return map_blocks(features, add_label)


def build_labeled(features, labels, num_partitions=None):
    """Scale path: align page metadata with a labels table
    (``connected_components_labelprop_ids`` output: node:int64 =
    url_hash, cluster_label:int64) through ``cluster.attach_labels`` on the
    8-byte ``url_hash`` — one exchange, NO url strings on the join key, and
    the metadata projection runs in its split tasks. ``Blocks`` when both
    inputs are. Singletons (pages with no approved edge) label with their
    own url_hash — the same label space the broadcast path uses."""
    from entity_resolution_engine_ray.stages.cluster import attach_labels

    return attach_labels(features, "url_hash", labels, num_partitions, columns=_META_COLS)


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


def _typed_partition(fn, schema_of, cols: list[str]):
    """Arrow wrapper of a pandas partition function: a zero-row partition
    returns its typed empty output (pandas would type its empty object
    columns as null), any other the converted result of ``fn``."""

    def run(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema_of(t.schema).empty_table() if set(cols) <= set(t.column_names) else t
        return pa.Table.from_pandas(fn(t.to_pandas()), preserve_index=False)

    return run


def entities_from_labeled(labeled, num_partitions: int | None = None):
    """One survivorship row per cluster of ``labeled`` (``Blocks`` or a
    Dataset, returned in kind)."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    return partition_map_groups(
        labeled,
        ["cluster_label"],
        _typed_partition(_survivor_partition, _entity_schema, _LABELED_COLS),
        num_partitions,
        arrow_fns=True,
    )


def lineage_from_labeled(labeled, num_partitions: int | None = None):
    """One lineage row per page of ``labeled`` (``Blocks`` or a Dataset,
    returned in kind)."""
    from entity_resolution_engine_ray.stages.exchange import project_block
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    cols = ["url", "cluster_label"]
    # only url and label move through the exchange
    return partition_map_groups(
        labeled,
        ["cluster_label"],
        _typed_partition(_lineage_partition, _lineage_schema, cols),
        num_partitions,
        arrow_fns=True,
        block_fn=functools.partial(project_block, cols=cols),
    )
