"""Stage 3 — block-key statistics and hot-key salting for pair generation.

The pair exchange itself lives in ``stages/score.fused_edges_stage`` (and
``stages/dedup._edges_from_feats`` for the dedup operators); this module
supplies the pieces they run first:

1. ``key_stats`` — one counting pass over the exploded ``block_key`` rows:
   per-block ``value_counts`` partials inside the split tasks of one
   summing hash exchange → only keys with ≥ 2 members reach the driver.
   It yields the hot set (buckets over ``max_block_size``, with their
   split counts) and the pairable set used to prune singleton buckets
   before the fat exchange.
2. ``_salt_batch`` — vectorized salting of hot keys:
   ``salt = (mix64(url_hash ^ block_key) & INT63) % n_splits`` (0 for cold
   keys), the same deterministic assignment as the serial oracle's
   ``split_block``, so pair semantics are identical and a hot bucket is
   never materialized in one task.
3. ``pair_partitions`` — the one width rule of every blocked-pair exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from entity_resolution_engine_ray.functions.similarity import mix64
from entity_resolution_engine_ray.oracle.serial import n_splits_for


_KEY_COUNTS = pa.schema([("k", pa.int64()), ("n", pa.int64())])


def _key_counts(t: pa.Table) -> pa.Table:
    """Per-block partial of ``key_stats``: (block_key, members) counts."""
    if t.num_rows == 0:
        return _KEY_COUNTS.empty_table()
    vc = pc.value_counts(t["block_key"])
    return pa.table(
        {"k": pc.cast(vc.field("values"), pa.int64()), "n": pc.cast(vc.field("counts"), pa.int64())}
    )


def _sum_multi(t: pa.Table) -> pa.Table:
    """Per-partition finish of ``key_stats``: summed counts of the keys
    with ≥ 2 members."""
    g = t.group_by("k").aggregate([("n", "sum")])
    g = g.filter(pc.greater_equal(g["n_sum"], 2))
    return pa.table({"k": g["k"], "n": g["n_sum"]})


def key_stats(
    block_rows_ds,
    cap: int,
    n_rows_hint: int | None = None,
    pairable_limit: int = 200_000_000,
    block_fn=None,
) -> tuple[dict[int, int], np.ndarray | None, int]:
    """One counting pass over (block_key) rows → (hot dict, pairable keys).

    ``hot``: block_key → n_splits for buckets over the cap (driver-side
    small dict).

    ``pairable``: sorted int64 array of block keys with ≥ 2 members — the
    only keys that can ever produce a candidate pair. The fat feature
    explode is filtered to this set BEFORE its hash exchange: singleton
    buckets (measured 35% of band rows on the dense sf0.1 fixture; far more
    on sparse real-web corpora where most pages are unique) ship ~300 B of
    token ids/title per row for provably zero pairs. Filtering them is
    exactly output-preserving — no score, decision or dropped-count can
    change. ``None`` when the set exceeds ``pairable_limit`` (1.6 GB of
    int64 keys — past that the broadcast costs more than the rows it
    prunes; callers must treat None as "ship everything"). At 100-TB
    corpus scale the pairable set grows with the number of DUPLICATED
    shingle-buckets, not the corpus, but a per-shard corpus split
    (incremental ``key_filter`` path) is the documented route once it would
    exceed the limit.

    Two-level aggregation: per-block ``value_counts`` partials, computed
    inside the split tasks of ONE hash exchange summing per key → only
    multi-member keys reach the driver (a driver-side concat of partials is
    ~n_distinct_keys rows — measured 21 s at 21M block rows; the n ≥ 2 set
    is the pair-producing minority, the hot (> cap) set a few thousand).
    The driver reads the exchange's output tables with ``ray.get``.

    ``block_fn``: optional per-block function that turns each input block
    into (block_key) rows first — e.g. the band explode over features — so
    the exploded rows exist only inside the split tasks.

    ``n_rows_hint`` (e.g. pages × bands, known upstream) sizes the summing
    exchange without a separate counting pass over the exploded rows;
    without it the input rows are counted, which undercounts the rows a
    ``block_fn`` explode produces.

    Returns ``(hot, pairable, n_pairable_rows)`` — the third element is the
    TOTAL row count across multi-member keys, i.e. the number of fat rows
    that survive the singleton prune. Callers size the pair exchange from
    it: a measured 1M-page sweep (BASELINE r5) showed the old
    50k-rows/partition target paying ~0.1 s of task/ref overhead per
    partition (P=421: 107 s vs P=96: 50 s, identical edges), so the fused
    exchange targets ~200k PRUNED rows per partition instead."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import as_blocks, hash_exchange_map_groups

    blocks = as_blocks(block_rows_ds)
    n_rows = n_rows_hint if n_rows_hint is not None else blocks.count()

    def partial(t: pa.Table) -> pa.Table:
        return _key_counts(t if block_fn is None else block_fn(t))

    # partial tables are ~n_distinct_keys rows; scale the summing exchange
    # with the input instead of paying 32 fixed tasks at 100k
    n_parts = int(min(32, max(4, n_rows // 500_000)))
    summed = hash_exchange_map_groups(
        blocks, ["k"], _sum_multi, n_parts, arrow_fns=True, block_fn=partial
    )
    hot: dict[int, int] = {}
    key_chunks: list[np.ndarray] = []
    n_pairable = 0
    n_rows_multi = 0
    for batch in ray.get(list(summed.refs)):
        if batch.num_rows == 0:
            continue
        ks = batch["k"].to_numpy()
        ns = batch["n"].to_numpy()
        for i in np.flatnonzero(ns > cap):
            hot[int(ks[i])] = n_splits_for(int(ns[i]), cap)
        n_pairable += len(ks)
        n_rows_multi += int(ns.sum())
        if n_pairable <= pairable_limit:
            key_chunks.append(ks.astype(np.int64, copy=True))
    if n_pairable > pairable_limit:
        return hot, None, n_rows_multi
    pairable = np.sort(np.concatenate(key_chunks)) if key_chunks else np.empty(0, dtype=np.int64)
    return hot, pairable, n_rows_multi


def pair_partitions(n_exchange: int, num_partitions: int | None = None) -> int:
    """Width of a blocked-pair exchange over ``n_exchange`` rows (the
    pruned rows, or all exploded rows when the prune was skipped): an
    explicit ``num_partitions`` is exact, otherwise
    ``grouping.auto_partitions(n_exchange, rows_per_partition=200_000)`` —
    the ~200k-rows target of the 1M-page sweep (see ``key_stats``)."""
    from entity_resolution_engine_ray.stages.grouping import auto_partitions

    if num_partitions is not None:
        return num_partitions
    return auto_partitions(n_exchange, rows_per_partition=200_000)


def _salt_batch(batch: pa.Table, hot: dict[int, int], hash_col: str = "url_hash") -> pa.Table:
    """Vectorized hot-key salting: only rows whose block_key is in the hot
    set pay anything beyond one ``np.isin`` (same math as oracle
    serial.salt_of: (mix64(row_hash ^ key) & INT63_MASK) % n_splits —
    avalanche-mixed so each band splits a hot cluster along different
    lines; see similarity.mix64 for why plain XOR fragments clusters).

    ``hash_col`` is the int64 per-row mixing hash (url_hash for pages, the
    doc id itself for the dedup operators)."""
    keys = batch["block_key"].to_numpy(zero_copy_only=False)
    salts = np.zeros(len(keys), dtype=np.int32)
    if hot:
        hot_keys = np.fromiter(hot.keys(), dtype=np.int64, count=len(hot))
        mask = np.isin(keys, hot_keys)
        if mask.any():
            idx = np.flatnonzero(mask)
            uhash = batch[hash_col].to_numpy(zero_copy_only=False)[idx]
            hk = keys[idx]
            ns = np.fromiter((hot[int(k)] for k in hk), dtype=np.int64, count=len(idx))
            mixed = mix64(uhash.astype(np.int64) ^ hk.astype(np.int64)) & np.int64(
                0x7FFFFFFFFFFFFFFF
            )
            salts[idx] = (mixed % ns).astype(np.int32)
    return batch.append_column("salt", pa.array(salts, type=pa.int32()))
