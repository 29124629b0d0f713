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
from entity_resolution_engine_ray.functions.similarity import stable_hash64
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


def label_features_broadcast(features_ds, label_map_ref):
    """Fast path: attach cluster labels to every page in ONE map_batches
    pass against a broadcast {node_hash: root_hash} map (``ray.put`` once,
    read per task — never re-shipped per batch). Singletons label with their
    own url hash."""
    import ray

    def add_label(t: pa.Table) -> pa.Table:
        label_map = ray.get(label_map_ref) if not isinstance(label_map_ref, dict) else label_map_ref
        if "url_hash" in t.schema.names:
            hashes = t["url_hash"].to_numpy(zero_copy_only=False)
        else:
            hashes = np.fromiter(
                (stable_hash64(u) for u in t["url"].to_pylist()), dtype=np.int64, count=t.num_rows
            )
        labels = np.empty(len(hashes), dtype=np.int64)
        for i, h in enumerate(hashes):
            h = int(h)
            labels[i] = label_map.get(h, h)
        out = t.append_column("cluster_label", pa.array(labels, type=pa.int64()))
        return out.select(["url", "warc_ts", "lang", "title_norm", "cluster_label"])

    cols = ["url", "warc_ts", "lang", "title_norm"]
    if "url_hash" in features_ds.schema().names:
        cols.append("url_hash")
    return features_ds.select_columns(cols).map_batches(add_label, batch_format="pyarrow")


def build_labeled(features_ds, labels_ds, num_partitions=None):
    """Scale path: align page metadata with a labels *Dataset*
    (``connected_components_labelprop_ids`` output: node:int64 =
    url_hash, cluster_label:int64) via a tagged union on the 8-byte hash
    key + one hash-partition pass — no hash-join aggregator actors, one
    exchange, and NO url strings on the join key. Singletons (pages with no
    approved edge) label with their own url_hash — the same label space the
    broadcast path uses."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    num_partitions = num_partitions or default_join_partitions()

    def meta_side(t: pa.Table) -> pa.Table:
        if "url_hash" in t.schema.names:
            key = t["url_hash"]
        else:
            key = pa.array(
                [stable_hash64(u) for u in t["url"].to_pylist()], type=pa.int64()
            )
        n = t.num_rows
        return pa.table(
            {
                "key": key,
                "url": t["url"],
                "warc_ts": t["warc_ts"],
                "lang": t["lang"],
                "title_norm": t["title_norm"],
                "cluster_label": pa.array(np.zeros(n, dtype=np.int64), type=pa.int64()),
                "is_meta": pa.array(np.ones(n, dtype=bool), type=pa.bool_()),
            }
        )

    def label_side(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "key": t["node"],
                "url": pa.nulls(n, type=pa.string()),
                "warc_ts": pa.nulls(n, type=pa.timestamp("us")),
                "lang": pa.nulls(n, type=pa.string()),
                "title_norm": pa.nulls(n, type=pa.string()),
                "cluster_label": t["cluster_label"],
                "is_meta": pa.array(np.zeros(n, dtype=bool), type=pa.bool_()),
            }
        )

    cols = ["url", "warc_ts", "lang", "title_norm"]
    if "url_hash" in features_ds.schema().names:
        cols.append("url_hash")
    tagged = features_ds.select_columns(cols).map_batches(
        meta_side, batch_format="pyarrow"
    ).union(labels_ds.map_batches(label_side, batch_format="pyarrow"))

    def merge_key_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        is_meta = pdf["is_meta"].to_numpy()
        meta = pdf[is_meta].drop(columns=["cluster_label", "is_meta"])
        lbl = pdf[~is_meta][["key", "cluster_label"]]
        # exact int64 through the left join: nullable Int64, no float detour
        # (labels are full-range hashes — float64 corrupts beyond 2^53)
        lbl = lbl.assign(cluster_label=lbl["cluster_label"].astype("Int64"))
        out = meta.merge(lbl, on="key", how="left")
        out["cluster_label"] = (
            out["cluster_label"].fillna(out["key"].astype("Int64")).astype(np.int64)
        )
        return out[["url", "warc_ts", "lang", "title_norm", "cluster_label"]]

    return partition_map_groups(tagged, ["key"], merge_key_partition, num_partitions)


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
