"""Task-based hash exchange — a map/reduce shuffle without sorting.

``Dataset.groupby`` implements exchange via a sort-based AllToAll: every
block is sorted, range-partitioned, and merged — O(n log n) work and two
full materializations for what hash partitioning does in O(n). This module
implements the classic two-stage MR exchange with raw Ray tasks (the one
place the Dataset API cannot express the physical plan we need —
hash-partition-without-sort; see the builder brief's escape hatch):

  stage 1 (one task per input block):   split the block into P sub-tables
                                        by key hash → P object refs
  stage 2 (one task per partition p):   concat the p-th sub-table of every
                                        block → apply the user's vectorized
                                        per-partition function

Results are identical to ``grouping.partition_map_groups`` for any
per-group-pure function (same partitioner hash). Deterministic: partition
assignment depends only on key values.

Two ways to transform blocks that are already in the object store without a
Ray Data execution (each costs ~40 ms of streaming-executor start-up and
polling on a small host, against ~3 ms for one plain task per block):

- a map-side function: every entry point takes an optional per-block
  ``block_fn`` (an explode, filter, projection or partial count) that the
  stage-1 split task applies to each input block before hashing, as a
  MapReduce map stage does. The mapped rows exist only inside that task,
  so a fat intermediate (e.g. features × bands rows) is never materialized
  whole. The width auto-sizing still counts the input rows.
- ``map_blocks(ds, fn)``: one plain task per block, for a per-block
  function that no exchange follows.

``union_blocks`` unions such Datasets by their block refs.

Either function must accept a zero-row block, including the zero-column
blocks a 0-row Dataset can surface, and should return its typed empty
output for it.

Scale notes (both matter at 100 TB and were measured locally):

- Sub-tables are materialized with per-partition ``take`` — NEVER
  ``Table.slice``. Pickling a slice serializes the slice's *parent*
  buffers in full (measured: a 1% slice of a 41 MB string table pickles to
  41 MB), so a slice-based split amplifies shuffle bytes ×P. ``take``
  produces compact, truncated buffers.
- Input blocks are coalesced into at most ``max_split_tasks`` split groups
  before partitioning, so the intermediate object count is
  O(split_tasks × P), not O(input_blocks × P) — checkpoint re-reads and
  fine-grained upstream stages would otherwise explode the object count
  (measured 3× wall-time at 172 input blocks vs 86 on identical data).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

_FNV = np.uint64(1099511628211)
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_HASH_KEY = "0123456789abcdef"


def _key_hash_column(col, n_rows: int) -> np.ndarray:
    """Dtype-STABLE uint64 hash of one key column.

    A block's null pattern must never change where a VALUE hashes:
    ``to_numpy`` turns a nulled int/bool column into float64/object, and
    ``pd.util.hash_array(5.0) != hash_array(5)`` — the same key would land
    in different partitions depending on which block it shares with a null
    (verified: groups silently split). Integer/boolean columns therefore
    hash their int64 cast with nulls masked to a fixed constant; float,
    temporal and object columns keep a stable numpy dtype under nulls
    already (NaN/NaT/None hash deterministically)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
        vals = col.cast(pa.int64())
        if vals.null_count:
            mask = pc.is_null(vals).to_numpy(zero_copy_only=False)
            h = pd.util.hash_array(
                vals.fill_null(0).to_numpy(zero_copy_only=False), hash_key=_HASH_KEY
            )
            h[mask] = _NULL_HASH
            return h
        return pd.util.hash_array(vals.to_numpy(zero_copy_only=False), hash_key=_HASH_KEY)
    return pd.util.hash_array(col.to_numpy(zero_copy_only=False), hash_key=_HASH_KEY)


def _partition_hash(tbl: pa.Table, key_cols: list[str], num_partitions: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = np.zeros(tbl.num_rows, dtype=np.uint64)
        for c in key_cols:
            h = h * _FNV + _key_hash_column(tbl[c], tbl.num_rows)
        return (h % np.uint64(num_partitions)).astype(np.int64)


def _arrow_refs(ds) -> list:
    """Arrow block refs of ``ds`` WITHOUT the schema probe.

    ``Dataset.to_arrow_refs()`` ends with ``schema(fetch_if_missing=True)``,
    which on a lazy (non-materialized) dataset launches a SECOND limit-1
    execution of the entire upstream plan — measured 33.6 s against a 38.2 s
    real pass at 1M pages (the limit-1 still runs whole upstream blocks).
    Every producer in this engine emits Arrow blocks (map_batches
    batch_format="pyarrow" / read_parquet / from_arrow_refs), so the
    zero-copy path is guaranteed and the probe is pure waste: flatten the
    ref bundles directly."""
    return _arrow_refs_counted(ds)[0]


def _arrow_refs_counted(ds) -> tuple[list, int | None]:
    """(block refs, total rows) in ONE bundle walk — the row count comes
    from block METADATA (RefBundle.num_rows), so auto-sizing the exchange
    width by actual input size costs nothing extra. Rows may be None when
    a bundle lacks metadata; callers fall back to the CPU-floor width.

    The walk goes through ``materialize()``: a lazy plan executes once
    either way, but a Dataset over blocks already in the object store (a
    ``from_arrow_refs`` output) then hands its refs over without starting a
    streaming execution of its trivial plan."""
    refs: list = []
    total = 0
    for bundle in ds.materialize().iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
        n = bundle.num_rows()
        if n is None:
            total = None
        if total is not None:
            total += n
    return refs, total


def _default_split_tasks() -> int:
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(8, cpus)


def _coalesce_refs(refs: list, max_groups: int) -> list[list]:
    """Contiguous grouping of block refs into ≤ max_groups split tasks."""
    n = len(refs)
    g = min(n, max_groups)
    bounds = np.linspace(0, n, g + 1).astype(int)
    return [refs[bounds[i] : bounds[i + 1]] for i in range(g) if bounds[i] < bounds[i + 1]]


def _empty_block_like(ds) -> pa.Table:
    """Typed zero-row table matching ``ds``'s schema (a dataset with zero
    block refs is already fully executed, so the schema fetch is free);
    falls back to a column-less table when even the schema is unknown."""
    try:
        sch = ds.schema(fetch_if_missing=True)
        base = getattr(sch, "base_schema", sch)
        if isinstance(base, pa.Schema):
            return base.empty_table()
    except Exception:  # noqa: BLE001 - schema probe must never kill the exchange
        pass
    return pa.table({})


def _ensure_table(block) -> pa.Table:
    # blocks are Arrow throughout this engine, but two sources of pandas
    # blocks exist: from_pandas datasets, and the source blocks a 0-row
    # dataset surfaces when its lazy map_batches is skipped entirely
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def project_block(t: pa.Table, cols: list[str]) -> pa.Table:
    """Per-block projection for a map-side function: ``cols`` of ``t``, or
    a zero-column table for a zero-row block that lacks them (the source
    blocks of a skipped lazy map); ``_merge_tables`` then prefers a typed
    block wherever one exists."""
    if t.num_rows == 0 and not set(cols) <= set(t.column_names):
        return pa.table({})
    return t.select(cols)


def _merge_tables(tbls) -> pa.Table:
    """Concatenate the non-empty tables; with none, the first zero-row
    table that has columns (a zero-column block from a skipped lazy map
    must not stand in for a typed one), else the first."""
    parts = [t for t in tbls if t.num_rows > 0]
    if parts:
        return pa.concat_tables(parts, promote_options="default") if len(parts) > 1 else parts[0]
    return next((t for t in tbls if t.num_columns), tbls[0])


def _mapped_input(block_fn, tbls) -> pa.Table:
    """A split task's input: its blocks, each through ``block_fn``."""
    tbls = [_ensure_table(t) for t in tbls]
    if block_fn is not None:
        tbls = [block_fn(t) for t in tbls]
    return _merge_tables(tbls)


@ray.remote
def _split_block(key_cols: list[str], num_partitions: int, block_fn, *tbls: pa.Table):
    tbl = _mapped_input(block_fn, tbls)
    if tbl.num_rows == 0:
        # nothing to hash — a 0-row dataset's skipped lazy map can surface
        # zero-COLUMN source blocks that would KeyError on the key lookup
        return tuple([tbl] * num_partitions) if num_partitions > 1 else tbl
    pg = _partition_hash(tbl, key_cols, num_partitions)
    order = np.argsort(pg, kind="stable")
    sorted_pg = pg[order]
    bounds = np.searchsorted(sorted_pg, np.arange(num_partitions + 1))
    # per-partition take from the ORIGINAL table: each output owns compact
    # buffers (a slice of a sorted copy would pickle the whole block, ×P)
    out = []
    for p in range(num_partitions):
        out.append(tbl.take(pa.array(order[bounds[p] : bounds[p + 1]])))
    return tuple(out) if num_partitions > 1 else out[0]


@ray.remote
def _split_block_groups(key_cols: list[str], P: int, K: int, *tbls: pa.Table):
    """Hierarchical-exchange level 1: route rows to partition GROUPS.

    Partition identity stays ``hash % P`` (so rows land on the same owner
    as every single-level exchange over the same key); a group is K
    consecutive partitions, g = p // K, G = ceil(P / K) outputs."""
    tbl = _mapped_input(None, tbls)
    G = -(-P // K)
    if tbl.num_rows == 0:
        return tuple([tbl] * G) if G > 1 else tbl
    pg = _partition_hash(tbl, key_cols, P) // K
    order = np.argsort(pg, kind="stable")
    bounds = np.searchsorted(pg[order], np.arange(G + 1))
    out = [tbl.take(pa.array(order[bounds[g] : bounds[g + 1]])) for g in range(G)]
    return tuple(out) if G > 1 else out[0]


@ray.remote
def _split_group_members(key_cols: list[str], P: int, K: int, g: int, *tbls: pa.Table):
    """Hierarchical-exchange level 2: split ONE group's rows into its
    member partitions (g*K .. min(g*K+K, P)-1). Kg outputs, index i ↔
    partition g*K + i."""
    tbl = _mapped_input(None, tbls)
    Kg = min(K, P - g * K)
    if tbl.num_rows == 0:
        return tuple([tbl] * Kg) if Kg > 1 else tbl
    local = _partition_hash(tbl, key_cols, P) - g * K
    order = np.argsort(local, kind="stable")
    bounds = np.searchsorted(local[order], np.arange(Kg + 1))
    out = [tbl.take(pa.array(order[bounds[i] : bounds[i + 1]])) for i in range(Kg)]
    return tuple(out) if Kg > 1 else out[0]


def _from_pandas(result: pd.DataFrame, *inputs: pa.Table) -> pa.Table:
    """A pandas partition result as Arrow, without pandas metadata
    (schema-identity noise downstream). pandas types the object columns of
    an EMPTY frame as null, so a zero-row result takes the type of the
    input column of the same name where there is one."""
    out = pa.Table.from_pandas(result, preserve_index=False).replace_schema_metadata(None)
    if out.num_rows:
        return out
    like = {f.name: f.type for t in reversed(inputs) for f in t.schema}
    return pa.table(
        {
            f.name: pa.array([], like[f.name]) if pa.types.is_null(f.type) and f.name in like
            else out[f.name]
            for f in out.schema
        }
    )


@ray.remote(num_returns=2)
def _reduce_partition(fn, *subtables: pa.Table):
    merged = _merge_tables(subtables)
    out = _from_pandas(fn(merged.to_pandas()), merged)
    return out, out.num_rows


@ray.remote(num_returns=2)
def _reduce_partition_arrow(fn, *subtables: pa.Table):
    """Arrow-native reduce: ``fn(pa.Table) -> pa.Table`` with NO pandas
    round-trip. ``_reduce_partition``'s ``to_pandas()`` explodes list
    columns into one numpy object per row and copies every string — on a
    fat (token_ids list) partition that conversion costs more than the
    actual kernel work; partition fns that can consume Arrow directly
    skip it entirely."""
    out = fn(_merge_tables(subtables))
    return out.replace_schema_metadata(None), out.num_rows


@ray.remote(num_returns=2)
def _reduce_cogroup(fn, n_left: int, *subtables: pa.Table):
    left = _merge_tables(subtables[:n_left])
    right = _merge_tables(subtables[n_left:])
    out = _from_pandas(fn(left.to_pandas(), right.to_pandas()), left, right)
    return out, out.num_rows


def _split_all(refs: list, key_cols: list[str], num_partitions: int, block_fn) -> list:
    """Stage 1 over ``refs``: coalesced split tasks, each ``block_fn``
    first. ``result[b][p]`` is split b's sub-table for partition p (a
    single ref per split when ``num_partitions`` is 1)."""
    return [
        _split_block.options(num_returns=num_partitions).remote(
            key_cols, num_partitions, block_fn, *group
        )
        for group in _coalesce_refs(refs, _default_split_tasks())
    ]


def _partition_subs(splits: list, p: int, num_partitions: int) -> list:
    return [s[p] for s in splits] if num_partitions > 1 else list(splits)


def _dataset_of(reduced: list, count_refs: list):
    """Dataset over the reduce outputs with rows, or over the first output
    when all are empty so the schema survives (Ray's hash join mishandles
    some empty-block layouts). Only the row counts reach the driver."""
    n_rows = ray.get(count_refs)
    keep = [r for r, n in zip(reduced, n_rows) if n > 0]
    return rd.from_arrow_refs(keep or [reduced[0]])


def hash_exchange_cogroup(
    left_ds,
    right_ds,
    left_keys: list[str],
    right_keys: list[str],
    fn,
    num_partitions: int | None = None,
    left_block_fn=None,
    right_block_fn=None,
):
    """Co-partitioned two-sided exchange: rows of both datasets with the
    same key hash meet in one partition; ``fn(left_pdf, right_pdf)`` runs
    once per partition (the task-level hash join / cogroup primitive —
    key semantics are up to ``fn``). ``num_partitions=None`` →
    ``grouping.auto_partitions(rows)`` sized by the LARGER side's actual
    row count (free — block metadata), CPU floor when metadata is absent.
    ``left_block_fn`` / ``right_block_fn``: map-side functions applied to
    each block of that side in its split tasks."""
    l_refs, l_rows = _arrow_refs_counted(left_ds)
    r_refs, r_rows = _arrow_refs_counted(right_ds)
    # a zero-block side must still reach fn as a TYPED empty frame — with
    # no left sub-tables the reduce fallback would otherwise hand fn the
    # first RIGHT sub-table as its left argument (and an empty right side
    # would IndexError); synthesize one empty block from the side's schema
    if not l_refs:
        l_refs = [ray.put(_empty_block_like(left_ds))]
        l_rows = 0
    if not r_refs:
        r_refs = [ray.put(_empty_block_like(right_ds))]
        r_rows = 0
    if num_partitions is None:
        from entity_resolution_engine_ray.stages.grouping import auto_partitions

        # either side metadata-less → no hint (CPU floor): a known-small
        # side must not collapse the width under an unknown-LARGE one
        hint = None if (l_rows is None or r_rows is None) else max(l_rows, r_rows)
        num_partitions = auto_partitions(hint)
    l_splits = _split_all(l_refs, left_keys, num_partitions, left_block_fn)
    r_splits = _split_all(r_refs, right_keys, num_partitions, right_block_fn)
    reduced, counts = [], []
    for p in range(num_partitions):
        lsub = _partition_subs(l_splits, p, num_partitions)
        rsub = _partition_subs(r_splits, p, num_partitions)
        t_ref, c_ref = _reduce_cogroup.remote(fn, len(lsub), *(lsub + rsub))
        reduced.append(t_ref)
        counts.append(c_ref)
    return _dataset_of(reduced, counts)


def typed_to_pandas(ds) -> pd.DataFrame:
    """Schema-preserving driver collect. ``Dataset.to_pandas()`` on a
    fully-EMPTY dataset returns a column-less frame even when every block
    is a typed 0-row table (Ray 2.49 — verified with both Arrow and pandas
    blocks), so downstream ``df[col]`` access KeyErrors on legitimately
    empty results. Concatenating the materialized block tables directly
    keeps the schema; for non-empty datasets this is equivalent to (and no
    slower than) ``to_pandas``."""
    tbls = [_ensure_table(t) for t in ray.get(_arrow_refs(ds))]
    if not tbls:
        return pd.DataFrame()
    return pa.concat_tables(tbls, promote_options="default").to_pandas()


@ray.remote
def _concat_parts(*subtables: pa.Table) -> pa.Table:
    return _merge_tables(subtables)


def exchange_partition_refs(
    ds, key_cols: list[str], num_partitions: int | None = None, block_fn=None
) -> list:
    """Hash-partition ``ds`` ONCE and return the P partition tables as object
    refs (index p = partition p — alignment is guaranteed, empty partitions
    included). The building block for ITERATIVE algorithms where one side
    stays stationary across rounds (connected components: edges are
    partitioned once; only labels/candidates move per round).
    ``num_partitions=None`` → ``grouping.auto_partitions(rows)`` sized by
    the actual input row count (free — block metadata). ``block_fn``: the
    map-side function each split task applies to its blocks."""
    refs, n_rows = _arrow_refs_counted(ds)
    if num_partitions is None:
        from entity_resolution_engine_ray.stages.grouping import auto_partitions

        num_partitions = auto_partitions(n_rows)
    if not refs:
        raise ValueError("exchange_partition_refs: empty dataset")
    splits = _split_all(refs, key_cols, num_partitions, block_fn)
    return [
        _concat_parts.remote(*_partition_subs(splits, p, num_partitions))
        for p in range(num_partitions)
    ]


@ray.remote(num_returns=2)
def _reduce_counted(fn, arrow_fns: bool, *subtables: pa.Table):
    """Stage-1 reduce of the chained exchange: (table, counts).

    ``fn`` may return ``(table, counts)``, a dict of int counts carried out
    of band of the rows, so a partition that emits no row still reports
    them."""
    merged = _merge_tables(subtables)
    res = fn(merged if arrow_fns else merged.to_pandas())
    out, counts = res if isinstance(res, tuple) else (res, {})
    if not arrow_fns:
        out = _from_pandas(out, merged)
    return out.replace_schema_metadata(None), dict(counts)


def hash_exchange_chained(
    ds,
    keys1: list[str],
    fn1,
    p1: int,
    keys2: list[str],
    fn2,
    p2: int,
    arrow_fns: bool = False,
    block_fn=None,
):
    """Two chained hash exchanges with NO driver barrier between them.

    ``hash_exchange_map_groups`` twice would block the driver on ALL of
    stage 1's reduce tasks (``ray.get(counts)``) before scheduling stage 2's
    splits — a straggler in one partition idles the whole cluster between
    waves. Here stage 2's split task for partition p is scheduled
    immediately on stage 1's reduce ref; Ray runs it the moment that single
    partition finishes, so the two shuffles overlap and only ONE barrier
    remains (the final row counts — by then all work is done anyway).

    Stage-1 counts: ``fn1`` may return ``(table, counts)`` with a dict of
    int counts kept out of band of the rows. Returns ``(Dataset, totals)``,
    ``totals`` the key-wise sum of ``fn1``'s count dicts (``{}`` when it
    returned none or there were no rows).

    ``arrow_fns``: both fns take and return ``pa.Table`` (no pandas
    round-trip — see ``_reduce_partition_arrow``). ``block_fn``: the
    map-side function stage 1's split tasks apply to each input block.

    Callers — every blocked-pair operator, each as block_fn = its explode,
    stage 1 = pair generation + verify with its dropped count, stage 2 =
    pair dedup: ``score.fused_edges_stage`` (the pages pipeline),
    ``dedup._edges_from_feats`` (``near_dup_edges``,
    ``prefix_jaccard_self_join``, ``cross_corpus_near_dup_pairs``),
    ``dedup.simhash_near_dup_pairs``, ``containment.containment_self_join``
    and ``knn.cosine_near_dup_pairs``.
    """
    if p1 < 1 or p2 < 1:
        raise ValueError(
            f"hash_exchange_chained: partition counts must be >= 1 (got p1={p1}, p2={p2})"
        )
    block_refs = _arrow_refs(ds)
    if not block_refs:
        return rd.from_items([]), {}
    splits1 = _split_all(block_refs, keys1, p1, block_fn)
    reduce_task = _reduce_partition_arrow if arrow_fns else _reduce_partition
    # stage-1 reduce → immediately a stage-2 split on the SAME ref: no
    # driver involvement between the waves
    splits2, count_refs = [], []
    for p in range(p1):
        t_ref, c_ref = _reduce_counted.remote(fn1, arrow_fns, *_partition_subs(splits1, p, p1))
        count_refs.append(c_ref)
        splits2.append(_split_block.options(num_returns=p2).remote(keys2, p2, None, t_ref))
    reduced, rows = [], []
    for q in range(p2):
        t_ref, n_ref = reduce_task.remote(fn2, *_partition_subs(splits2, q, p2))
        reduced.append(t_ref)
        rows.append(n_ref)
    out = _dataset_of(reduced, rows)
    totals: dict = {}
    for c in ray.get(count_refs):
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    return out, totals


def _map_groups_refs(
    ds, key_cols: list[str], fn, num_partitions=None, arrow_fns=False, block_fn=None
) -> tuple[list, list]:
    """``hash_exchange_map_groups`` up to its reduce tasks: (table refs,
    row-count refs), one each per partition; ``([], [])`` for a Dataset
    with no blocks."""
    block_refs, n_rows = _arrow_refs_counted(ds)
    if num_partitions is None:
        from entity_resolution_engine_ray.stages.grouping import auto_partitions

        num_partitions = auto_partitions(n_rows)
    if not block_refs:
        return [], []
    splits = _split_all(block_refs, key_cols, num_partitions, block_fn)
    reduce_task = _reduce_partition_arrow if arrow_fns else _reduce_partition
    reduced, counts = [], []
    for p in range(num_partitions):
        table_ref, count_ref = reduce_task.remote(fn, *_partition_subs(splits, p, num_partitions))
        reduced.append(table_ref)
        counts.append(count_ref)
    return reduced, counts


def hash_exchange_map_groups(
    ds,
    key_cols: list[str],
    fn,
    num_partitions: int | None = None,
    arrow_fns: bool = False,
    block_fn=None,
):
    """Raw-task hash exchange: apply ``fn(pdf)`` once per hash partition of
    ``key_cols``. ``fn`` must group by ``key_cols`` internally (vectorized),
    handle an empty input frame, and be per-group-pure — the same contract
    as grouping.partition_map_groups. ``arrow_fns=True``: ``fn`` takes and
    returns ``pa.Table`` (no pandas round-trip). ``num_partitions=None`` →
    ``grouping.auto_partitions(rows)`` sized by the actual input row count
    (free — block metadata). ``block_fn``: the map-side function the split
    tasks apply to each input block before hashing."""
    reduced, counts = _map_groups_refs(ds, key_cols, fn, num_partitions, arrow_fns, block_fn)
    if not reduced:
        return rd.from_items([])
    return _dataset_of(reduced, counts)


@ray.remote(num_returns=2)
def _map_block(fn, block):
    out = fn(_ensure_table(block))
    return out, (out.num_rows, out.num_columns)


def _map_block_refs(ds, fn) -> list:
    """One ``_map_block`` task per block of ``ds`` → [(table ref, (rows,
    columns) ref)]. A Dataset with no blocks maps one typed empty block
    from its schema."""
    refs = _arrow_refs(ds) or [ray.put(_empty_block_like(ds))]
    return [_map_block.remote(fn, r) for r in refs]


def map_blocks(ds, fn):
    """``fn(pa.Table) -> pa.Table`` over every block of ``ds`` with one
    plain task per block — no Ray Data execution, for blocks that are
    already in the object store (a lazy ``ds`` executes once to produce
    them). Returns a Dataset over the non-empty outputs; when every output
    is empty, over one of them, preferring one that has columns, so the
    result stays typed."""
    outs = _map_block_refs(ds, fn)
    shapes = ray.get([s for _, s in outs])
    keep = [t for (t, _), (n, _c) in zip(outs, shapes) if n > 0]
    if not keep:
        typed = [t for (t, _), (_n, c) in zip(outs, shapes) if c > 0]
        keep = typed[:1] or [outs[0][0]]
    return rd.from_arrow_refs(keep)


def union_blocks(*datasets):
    """A Dataset over every block of ``datasets``, in order: the union of
    Datasets whose blocks are already in the object store, by handing their
    refs on — ``Dataset.union`` would start a Ray Data execution."""
    return rd.from_arrow_refs([r for ds in datasets for r in _arrow_refs(ds)])
