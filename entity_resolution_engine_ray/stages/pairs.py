"""Stage 3 — the one blocked-pair driver: block-key statistics, hot-key
salting, and the candidate → verify → dedup exchange.

``blocked_pair_edges`` is the filter → verify dataflow of every
``band_keys``-blocked pair operator: the pages scorer
(``score.fused_edges_stage``) and the dedup operators (``near_dup_edges``,
``prefix_jaccard_self_join``, ``cross_corpus_near_dup_pairs``). Callers
plug in data, never a mode: the fat-row payload columns, the salt's
mixing-hash column, the per-partition pair function (candidate rule +
verify + score) and the pair-dedup function. It runs:

1. ``key_stats`` — one counting pass over the key-only band explode
   (restricted to ``key_filter`` when given): per-block ``value_counts``
   partials inside the split tasks of one summing hash exchange → only
   keys with ≥ 2 members reach the driver. It yields the hot set (buckets
   over the cap, with their split counts) and the pairable set used to
   prune singleton buckets before the fat exchange.
2. a typed empty result when no key can pair;
3. the pairable-key broadcast and the width rule ``pair_partitions``;
4. one ``exchange.hash_exchange_chained``: its split tasks run the fat
   explode, the singleton prune and ``_salt_batch``; stage 1 runs the
   pair function per (block_key, salt) bucket and returns its drop counts
   out of band of the rows; stage 2 dedups the (left_id, right_id) pairs,
   together with any previous edges the caller folds in (``fold_in``).

A fold (``fold_in`` with the ``batch`` of rows it adds) forms every pair
of the touched buckets, but its pair function keeps only those the batch
can change (``batch_pairs``): a pair with a new row, and every pair of a
key the batch re-splits (``resplit_keys``) or of a bucket over the pair
cap. The previous edges hold every other pair at a block key no larger,
so the result is that of rescoring every pair; the cap's ``dropped`` and
the prefilter's counts still cover every bucket and distinct pair.

``_salt_batch`` — vectorized salting of hot keys:
``salt = (mix64(row_hash ^ block_key) & INT63) % n_splits`` (0 for cold
keys), the same deterministic assignment as the serial oracle's
``split_block``, so pair semantics are identical and a hot bucket is never
materialized in one task.

The pair functions share three kernels from here: ``key_buckets`` (rows
sorted into (key, salt) buckets; ``bucket_layout`` adds the flat token
layout), ``bucket_pairs`` (every within-bucket pair, in bucket order, with
the cap's drop count) and ``_distinct`` (the first row of each distinct
(left, right) pair); the pages scorer also uses ``batch_pairs``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from entity_resolution_engine_ray.functions.similarity import mix64
from entity_resolution_engine_ray.oracle.serial import n_splits_for
from entity_resolution_engine_ray.stages.block import _comb, block_keys, fat_block_rows, in_sorted


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
    blocks,
    cap: int,
    *,
    n_rows_hint: int,
    block_fn,
    pairable_limit: int = 200_000_000,
) -> tuple[dict[int, int], np.ndarray | None, int]:
    """One counting pass over the (block_key) rows ``block_fn`` makes of
    each of ``blocks`` (``exchange.Blocks``) → (hot dict, pairable keys).

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

    ``block_fn``: the per-block function that turns each input block into
    (block_key) rows — the band explode over features — so the exploded
    rows exist only inside the split tasks.

    ``n_rows_hint`` (e.g. pages × bands, known upstream) sizes the summing
    exchange without a separate counting pass over the exploded rows: one
    partition per 500k key rows, at least one and at most 32 — below 500k
    key rows the sum is one task.

    Returns ``(hot, pairable, n_pairable_rows, hot_members)`` — the third
    element is the TOTAL row count across multi-member keys, i.e. the
    number of fat rows that survive the singleton prune. Callers size the
    pair exchange from it: a measured 1M-page sweep (BASELINE r5) showed
    the old 50k-rows/partition target paying ~0.1 s of task/ref overhead
    per partition (P=421: 107 s vs P=96: 50 s, identical edges), so the
    fused exchange targets ~200k PRUNED rows per partition instead. The
    fourth is each hot key's member count (a fold compares it with the
    count before its batch, ``resplit_keys``)."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    def partial(t: pa.Table) -> pa.Table:
        return _key_counts(block_fn(t))

    # partial tables are ~n_distinct_keys rows; scale the summing exchange
    # with the input instead of paying a fixed task count for a small one
    n_parts = int(min(32, max(1, n_rows_hint // 500_000)))
    summed = hash_exchange_map_groups(
        blocks, ["k"], _sum_multi, n_parts, arrow_fns=True, block_fn=partial
    )
    hot: dict[int, int] = {}
    members: dict[int, int] = {}
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
            members[int(ks[i])] = int(ns[i])
        n_pairable += len(ks)
        n_rows_multi += int(ns.sum())
        if n_pairable <= pairable_limit:
            key_chunks.append(ks.astype(np.int64, copy=True))
    if n_pairable > pairable_limit:
        return hot, None, n_rows_multi, members
    pairable = np.sort(np.concatenate(key_chunks)) if key_chunks else np.empty(0, dtype=np.int64)
    return hot, pairable, n_rows_multi, members


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


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _distinct(left: np.ndarray, right: np.ndarray, *minor: np.ndarray) -> np.ndarray:
    """Row indices of the first occurrence of each distinct (left, right)
    pair, in pair order. ``minor`` keys (most significant first) order the
    rows of one pair, so the surviving row is the one with the smallest
    minor keys."""
    perm = np.lexsort((*reversed(minor), right, left))
    ls, rs = left[perm], right[perm]
    return perm[np.r_[True, (ls[1:] != ls[:-1]) | (rs[1:] != rs[:-1])][: len(perm)]]


def key_buckets(tbl: pa.Table, key_col: str, id_col: str, *minor: np.ndarray) -> tuple:
    """Key-only bucket split of one pair partition: rows sorted by
    (``key_col``, salt, *minor, ``id_col``) → (order, sorted ids, bucket
    starts, bucket sizes, bucket keys). A bucket is one (key, salt), or one
    key in a table without a ``salt`` column."""
    keys, ids = _int64(tbl[key_col]), _int64(tbl[id_col])
    salts = _int64(tbl["salt"]) if "salt" in tbl.column_names else np.zeros(len(keys), np.int64)
    order = np.lexsort((ids, *minor, salts, keys))
    keys, salts = keys[order], salts[order]
    change = np.flatnonzero((keys[1:] != keys[:-1]) | (salts[1:] != salts[:-1])) + 1
    starts = np.r_[0, change]
    sizes = np.diff(np.r_[starts, tbl.num_rows])
    return order, ids[order], starts, sizes, keys[starts]


def bucket_layout(tbl: pa.Table, id_col: str, *minor: np.ndarray) -> tuple:
    """``key_buckets`` of fat (block_key, id_col, token_ids[, salt], ...)
    rows plus their flat token layout (values, starts, lengths) in sorted
    row order: (order, sorted ids, flat, bucket starts, bucket sizes,
    bucket block_keys). The values are the ListArray's own buffer in its
    native dtype (an int64 cast of the pages' int32 ids would copy the
    fattest buffer)."""
    order, ids, starts, sizes, bucket_keys = key_buckets(tbl, "block_key", id_col, *minor)
    tok = _comb(tbl["token_ids"])
    toffs = _int64(tok.offsets)
    flat = (
        tok.values.to_numpy(zero_copy_only=False),
        toffs[:-1][order],
        (toffs[1:] - toffs[:-1])[order],
    )
    return order, ids, flat, starts, sizes, bucket_keys


def bucket_pairs(
    starts: np.ndarray, sizes: np.ndarray, pair_cap: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every pair of rows within each bucket (rows ``starts[b]`` ..
    ``starts[b] + sizes[b] - 1``) → (left rows, right rows, bucket of each
    pair, dropped), bucket by bucket and row-major upper-triangle within
    one. ``pair_cap`` keeps each bucket's first ``pair_cap`` pairs and
    ``dropped`` counts the rest; callers that cap members pass truncated
    ``sizes`` and count their own loss. One ``np.triu_indices`` per
    DISTINCT size, written into every bucket of that size's output slots:
    50–75 → 2–3.5 ms against a per-bucket loop on a 26,084-row pages
    partition (shared 4-vCPU Xeon host)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    full = sizes * (sizes - 1) // 2
    n_pairs = full if pair_cap is None else np.minimum(full, pair_cap)
    dropped = int((full - n_pairs).sum())
    total = int(n_pairs.sum())
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    bucket = np.repeat(np.arange(len(sizes), dtype=np.int64), n_pairs)
    out_at = n_pairs.cumsum() - n_pairs
    for m in np.unique(sizes[n_pairs > 0]):
        b = np.flatnonzero(sizes == m)
        ii, jj = np.triu_indices(int(m), k=1)
        k = int(n_pairs[b[0]])
        slots = (out_at[b][:, None] + np.arange(k)).ravel()
        left[slots] = (starts[b][:, None] + ii[:k]).ravel()
        right[slots] = (starts[b][:, None] + jj[:k]).ravel()
    return left, right, bucket, dropped


def batch_pairs(
    ids: np.ndarray,
    lidx: np.ndarray,
    ridx: np.ndarray,
    bucket: np.ndarray,
    sizes: np.ndarray,
    bucket_keys: np.ndarray,
    pair_cap: int | None,
    batch: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Mask of the ``bucket_pairs`` (rows ``lidx``, ``ridx`` of the sorted
    ``ids``, in buckets ``bucket``) a fold's batch can change. ``batch``
    is (the batch's sorted ids, the sorted ``resplit_keys``). A pair is
    kept when one of its members is a new id, its bucket's key is re-split
    by the batch, or its bucket has more pairs than ``pair_cap``.

    Every other pair is old-old, in a bucket the cap leaves whole, of a
    key whose split count the batch left as it was. So before the batch
    the two members had the same salt (it depends only on the id, the key
    and the split count) and shared a bucket of fewer members, which the
    cap left whole too: the pair was scored there, and the previous edges
    hold it with a ``block_key`` no larger than this bucket's. The edge
    dedup keeps that row whether or not this one is formed. By induction
    this holds along a chain of folds."""
    new_ids, resplit = batch
    whole = in_sorted(bucket_keys, resplit)
    if pair_cap is not None:
        whole |= sizes * (sizes - 1) // 2 > pair_cap
    new_row = in_sorted(ids, new_ids)
    return whole[bucket] | new_row[lidx] | new_row[ridx]


def resplit_keys(
    hot: dict[int, int], hot_members: dict[int, int], batch_keys: np.ndarray, cap: int
) -> np.ndarray:
    """The sorted hot keys whose split count (``n_splits_for``) the batch
    changed: their member count before the batch is ``hot_members`` less
    their rows among ``batch_keys`` (the batch's block keys, one per row
    and band)."""
    keys, added = np.unique(np.asarray(batch_keys, dtype=np.int64), return_counts=True)
    out = []
    for k, n_splits in hot.items():
        i = np.searchsorted(keys, k)
        before = hot_members[k] - (int(added[i]) if i < len(keys) and keys[i] == k else 0)
        if n_splits_for(before, cap) != n_splits:
            out.append(k)
    return np.array(sorted(out), dtype=np.int64)


class DroppedPairs(int):
    """The pairs the sample cap dropped — an int, as every caller reads it —
    with the pairs the SimHash prefilter dropped in ``prefiltered``, and
    ``prune_skipped``: the pairable key set went over its broadcast limit
    (``key_stats``), so the singleton prune was skipped and every band row
    was shipped."""

    prefiltered: int
    prune_skipped: bool

    def __new__(cls, dropped: int = 0, prefiltered: int = 0, prune_skipped: bool = False):
        out = super().__new__(cls, dropped)
        out.prefiltered = int(prefiltered)
        out.prune_skipped = bool(prune_skipped)
        return out


def _key_rows(t: pa.Table, filter_ref) -> pa.Table:
    """Split function of the ``key_stats`` pass: the key-only band explode,
    restricted to the broadcast ``key_filter`` keys when there are any."""
    import ray

    keys = block_keys(t)
    if filter_ref is None:
        return keys
    return keys.filter(pa.array(in_sorted(_int64(keys["block_key"]), ray.get(filter_ref))))


def _fat_split(t: pa.Table, payload: tuple, hash_col: str, hot: dict[int, int], keep_ref) -> pa.Table:
    """Split function of the pair exchange: the fat explode of ``payload``,
    restricted to the broadcast keys that can pair (``keep_ref``, when
    known) before the payload is gathered, then the hot-key salt with
    ``hash_col`` as the mixing hash."""
    import ray

    allowed = None if keep_ref is None else ray.get(keep_ref)
    return _salt_batch(fat_block_rows(t, payload, allowed), hot, hash_col=hash_col)


def _batch_pair_fn(tbl: pa.Table, pair_fn, batch_refs: tuple):
    """Stage-1 function of a fold: ``pair_fn`` with the broadcast (batch
    ids, re-split keys) as its ``batch``."""
    import ray

    return pair_fn(tbl, batch=tuple(ray.get(list(batch_refs))))


def blocked_pair_edges(
    data,
    pair_fn,
    dedup_fn,
    *,
    payload: tuple,
    hash_col: str,
    cap: int,
    n_key_rows: int,
    num_partitions: int | None = None,
    key_filter=None,
    fold_in=None,
    batch=None,
    sink=None,
):
    """(data with a ``band_keys`` list column) → ``(edges, DroppedPairs)``.

    ``pair_fn(fat partition) -> (edges, counts)`` forms and verifies the
    pairs of each (block_key, salt) bucket of one hash partition and
    returns a typed empty table for a zero-row one; ``counts`` may hold
    ``dropped`` and ``prefiltered``. ``dedup_fn`` keeps one row per
    (left_id, right_id) pair. ``payload`` names the columns the fat rows
    carry, ``hash_col`` the int64 column that salts hot keys, ``cap`` the
    bucket size over which a key is hot, ``n_key_rows`` the exploded key
    row count (sizes ``key_stats`` and, when the prune is skipped, the
    pair exchange).

    ``key_filter``: optional sorted int64 array of block keys — only blocks
    with those keys are paired (the incremental-resolution path). Broadcast
    once via ``ray.put`` and applied in the split tasks, so other blocks
    never enter the shuffle at all.

    ``fold_in``: previous edges (each pair once) to fold into the result —
    they join the pair dedup beside the new pairs, so a pair found in both
    keeps the row ``dedup_fn`` picks over all its copies (the incremental
    fold's union). The dedup partitions are then sized for them too.
    ``batch``: with ``fold_in``, the rows the fold adds, as (their
    ``hash_col`` values, their block keys, one per row and band). The pair
    function then forms only the pairs the batch can change
    (``batch_pairs``; it takes them as ``batch=``): the previous edges
    already hold every other one. The batch's sorted ids and its
    ``resplit_keys`` are broadcast once each via ``ray.put``. ``sink``: a
    ``state.checkpoint.PartSink`` the dedup tasks write the edges to.

    ``edges`` is of the kind given (``exchange.Blocks`` or a Dataset)."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import (
        Blocks,
        _as_given,
        as_blocks,
        hash_exchange_chained,
    )

    if batch is not None and fold_in is None:
        raise ValueError("batch needs fold_in: the previous edges hold the pairs it skips")
    blocks = as_blocks(data)
    filter_ref = None if key_filter is None else ray.put(np.asarray(key_filter, dtype=np.int64))
    hot, pairable, n_pruned, hot_members = key_stats(
        blocks,
        cap,
        n_rows_hint=n_key_rows,
        block_fn=functools.partial(_key_rows, filter_ref=filter_ref),
    )
    split = functools.partial(_fat_split, payload=payload, hash_col=hash_col, hot=hot)
    if pairable is not None and len(pairable) == 0 and fold_in is None:
        # no bucket has ≥ 2 members ⇒ no candidate pair, nothing dropped:
        # the pair function's own typed empty, so downstream filters see
        # the schema (with ``fold_in`` the exchange still runs: its split
        # tasks keep no row and its dedup tasks make the result)
        empty, _ = pair_fn(split(blocks.schema().empty_table(), keep_ref=None))
        return _as_given((data,), Blocks.of(empty)), DroppedPairs()
    # singleton-bucket prune: fat rows whose key can never pair (35% of
    # band rows on the dense sf0.1 fixture, more on sparse corpora) are
    # dropped in the split tasks — exactly output-preserving, see
    # key_stats, which counted only the key_filter rows, so the pairable
    # keys already lie inside it. When the pairable set went over its
    # broadcast limit the prune is skipped and the exchange carries every
    # key row — size for it.
    keep_ref = filter_ref if pairable is None else ray.put(pairable)
    parts = pair_partitions(n_key_rows if pairable is None else n_pruned, num_partitions)
    dedup_parts = parts
    if fold_in is not None and num_partitions is None:
        from entity_resolution_engine_ray.stages.grouping import auto_partitions

        dedup_parts = max(parts, auto_partitions(as_blocks(fold_in).count()))
    if batch is not None:
        ids, batch_keys = batch
        batch_refs = (
            ray.put(np.sort(np.asarray(ids, dtype=np.int64))),
            ray.put(resplit_keys(hot, hot_members, batch_keys, cap)),
        )
        pair_fn = functools.partial(_batch_pair_fn, pair_fn=pair_fn, batch_refs=batch_refs)
    edges, counts = hash_exchange_chained(
        blocks,
        ["block_key", "salt"],
        pair_fn,
        parts,
        ["left_id", "right_id"],
        dedup_fn,
        dedup_parts,
        arrow_fns=True,
        block_fn=functools.partial(split, keep_ref=keep_ref),
        fold_in=fold_in,
        sink=sink,
    )
    return _as_given((data,), edges), DroppedPairs(
        counts.get("dropped", 0), counts.get("prefiltered", 0), prune_skipped=pairable is None
    )
