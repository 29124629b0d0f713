"""Partition-grouped processing — the engine's scalable groupby pattern.

``Dataset.groupby(key).map_groups(fn)`` invokes ``fn`` once per group; with
millions of tiny groups (LSH buckets, entity clusters) the per-group Python
overhead dominates. This helper hash-partitions rows into ``num_partitions``
coarse groups instead (same key → same partition), runs ONE vectorized
function per partition, and lets that function do in-memory pandas/numpy
grouping over its (bounded) slice. Results are identical to per-group
processing for any per-group-pure ``fn`` — partitioning only changes
distribution, never semantics.

Scale note: ``num_partitions`` should grow with the data (cluster_cpus × k
locally; thousands on a real cluster) so each partition stays ~object-store
block sized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def auto_partitions(
    n_rows_hint: int | None = None,
    rows_per_partition: int = 50_000,
    min_rows_per_partition: int = 2_000,
    cpus: int | None = None,
) -> int:
    """Shuffle width that scales with BOTH the cluster and the data — the
    flagship edge-shuffle formula (stages/score.py, A/B-verified at sf0.1:
    48 partitions beat fixed 64 and 32) lifted into the shared default for
    every ``partition_map_groups`` call site. A fixed count under-splits a
    256-node cluster and over-splits a laptop.

    target: max(1.5 × cluster CPUs, one partition per ``rows_per_partition``
    rows) — enough tasks to fill every core AND bounded partition size; but
    never split finer than ``min_rows_per_partition`` rows/partition (a tiny
    fixture must not pay a 48-task exchange — partitioning is distribution,
    not semantics, so fewer partitions on small data is pure win); hard cap
    65,536 (beyond that per-task scheduling overhead dominates). Without a
    row hint, 1.5 × CPUs. ``cpus``: the cluster's CPU count when the caller
    has read it already (``exchange.cluster_cpus``)."""
    from entity_resolution_engine_ray.stages.exchange import cluster_cpus

    cpus = cluster_cpus() if cpus is None else cpus
    floor = max(1, int(1.5 * cpus))
    if n_rows_hint is None:
        return min(floor, 65_536)
    target = max(floor, int(n_rows_hint) // rows_per_partition + 1)
    small_cap = max(4, int(n_rows_hint) // min_rows_per_partition + 1)
    return int(min(target, small_cap, 65_536))


def partition_map_groups(
    ds,
    key_cols: list[str],
    fn,
    num_partitions: int | None = None,
    arrow_fns: bool = False,
    block_fn=None,
):
    """Apply ``fn(pdf)`` once per hash partition of ``key_cols``; ``fn`` must
    itself group by ``key_cols`` (vectorized), tolerate an empty frame, and
    return a DataFrame. Runs on the task-based hash exchange
    (stages/exchange) — no sort, one pass — over a Dataset or an
    ``exchange.Blocks``, and returns the kind it was given.
    ``num_partitions=None`` sizes the width from the input's row count, not
    just the CPU floor; pass an explicit count or a row-count-derived
    ``auto_partitions(n)`` to pin it. ``arrow_fns=True``: ``fn`` takes and
    returns ``pa.Table`` directly — use for partitions carrying list or
    string payloads, where the pandas conversion allocates one Python
    object per row. ``block_fn``: a per-block Arrow function (explode,
    filter, projection) run inside the exchange's split tasks (at one
    partition over one split group, inside its reduce task) instead of as
    a separate ``map_batches`` execution (see stages/exchange)."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    return hash_exchange_map_groups(
        ds, key_cols, fn, num_partitions, arrow_fns=arrow_fns, block_fn=block_fn
    )


def grouped_topk(
    ds,
    key_col: str,
    order_col: str,
    k: int,
    tie_cols: list[str],
    descending: bool = True,
    num_partitions: int | None = None,
):
    """Per-key top-k (k ≥ 1) — the generalization of the reference's
    argmax-per-left-key selection (SURVEY.md §2.3, k=1). Emits each key's k
    best rows by ``order_col`` plus ``rn`` (1-based dense position,
    deterministic via ``tie_cols``).

    Scale shape: a per-BATCH partial top-k per key runs first (a combiner —
    each batch forwards at most k rows per key it saw), so the hash exchange
    ships O(k · keys-per-batch · batches), not the full input; the
    per-partition finish re-sorts only survivors. At 100 TB this is the
    difference between shuffling every row and shuffling ~k per key."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sort_cols = [key_col, order_col, *tie_cols]
    ascending = [True, not descending] + [True] * len(tie_cols)

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pdf
        return (
            pdf.sort_values(sort_cols, ascending=ascending, kind="mergesort")
            .groupby(key_col, sort=False)
            .head(k)
        )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            out = pdf.copy()
            out["rn"] = pd.Series([], dtype=np.int64)
            return out
        pdf = (
            pdf.sort_values(sort_cols, ascending=ascending, kind="mergesort")
            .groupby(key_col, sort=False)
            .head(k)
            .reset_index(drop=True)
        )
        pdf["rn"] = pdf.groupby(key_col, sort=False).cumcount().astype(np.int64) + 1
        return pdf

    partials = ds.map_batches(partial, batch_format="pandas")
    return partition_map_groups(partials, [key_col], finish, num_partitions)
