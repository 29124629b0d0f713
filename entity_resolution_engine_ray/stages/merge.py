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


def label_features_broadcast(features_ds, label_map_ref):
    """Fast path: attach cluster labels to every page in ONE map_batches
    pass against the broadcast ``(nodes, roots)`` arrays of
    ``cluster_label_map`` (``ray.put`` once, read per task — never
    re-shipped per batch). Singletons label with their own url hash."""
    import ray

    from entity_resolution_engine_ray.stages.cluster import label_of

    def add_label(t: pa.Table) -> pa.Table:
        nodes, roots = ray.get(label_map_ref)
        labels = label_of(nodes, roots, t["url_hash"].to_numpy())
        out = t.append_column("cluster_label", pa.array(labels, type=pa.int64()))
        return out.select(_LABELED_COLS)

    return features_ds.select_columns(_META_COLS + ["url_hash"]).map_batches(
        add_label, batch_format="pyarrow"
    )


def build_labeled(features_ds, labels_ds, num_partitions=None):
    """Scale path: align page metadata with a labels *Dataset*
    (``connected_components_labelprop_ids`` output: node:int64 =
    url_hash, cluster_label:int64) through ``cluster.attach_labels`` on the
    8-byte ``url_hash`` — one exchange, NO url strings on the join key.
    Singletons (pages with no approved edge) label with their own url_hash —
    the same label space the broadcast path uses."""
    from entity_resolution_engine_ray.stages.cluster import attach_labels

    meta = features_ds.select_columns(_META_COLS + ["url_hash"])
    labeled = attach_labels(meta, "url_hash", labels_ds, num_partitions)
    return labeled.select_columns(_LABELED_COLS)


def entities_from_labeled(labeled_ds, num_partitions: int | None = None):
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    return partition_map_groups(labeled_ds, ["cluster_label"], _survivor_partition, num_partitions)


def lineage_from_labeled(labeled_ds, num_partitions: int | None = None):
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    return partition_map_groups(
        labeled_ds.select_columns(["url", "cluster_label"]),
        ["cluster_label"],
        _lineage_partition,
        num_partitions,
    )
