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

``grouping.partition_map_groups`` is a thin wrapper over
``hash_exchange_map_groups``, so the two agree by construction. A
per-group-pure function gives the same result at any partition count.
Deterministic: partition assignment depends only on key values.

Stages hand each other ``Blocks``: block refs with the row counts that the
tasks making them report. Every entry point takes ``Blocks`` or a Dataset
and returns the kind it was given, so a pipeline passing Blocks builds no
Dataset between stages (each costs a stats-actor round trip, and reading
its blocks back a ``materialize()`` walk); a Dataset result is wrapped
once, at the return.

Two ways to transform blocks that are already in the object store without a
Ray Data execution (each costs ~40 ms of streaming-executor start-up and
polling on a small host, against ~3 ms for one plain task per block):

- a map-side function: every entry point takes an optional per-block
  ``block_fn`` (an explode, filter, projection or partial count) that the
  stage-1 split task applies to each input block before hashing, as a
  MapReduce map stage does. The mapped rows exist only inside that task,
  so a fat intermediate (e.g. features × bands rows) is never materialized
  whole. The width auto-sizing still counts the input rows.
- ``map_blocks(data, fn)``: one plain task per block, for a per-block
  function that no exchange follows.

``union_blocks`` unions such inputs by their block refs.

Either function must accept a zero-row block, and should return its typed
empty output for it. A zero-COLUMN block reaches it only from a 0-row
Dataset input with no typed block (a filter or map over no rows emits
them).

Scale notes (both matter at 100 TB and were measured locally):

- Sub-tables are materialized with per-partition ``take`` — NEVER
  ``Table.slice``. Pickling a slice serializes the slice's *parent*
  buffers in full (measured: a 1% slice of a 41 MB string table pickles to
  41 MB), so a slice-based split amplifies shuffle bytes ×P. ``take``
  produces compact, truncated buffers.
- Input blocks are coalesced into at most ``max(8, cluster CPUs)`` split
  groups before partitioning, so the intermediate object count is
  O(split_tasks × P), not O(input_blocks × P) — checkpoint re-reads and
  fine-grained upstream stages would otherwise explode the object count
  (measured 3× wall-time at 172 input blocks vs 86 on identical data).
- An input with fewer rows than that many groups of ``SPLIT_GROUP_ROWS``
  (10k) gets one group per 10k rows instead, cut by rows, so a 2,000-page
  call runs one split task per exchange. Measured on a 2,000-page fold
  at 1 Ray CPU: ``max(8, cpus)`` groups made 22 of its 57 tasks split
  tasks over a block or two each, which cost more to schedule than to
  run (192 ms of task bodies in a 422 ms call). 100k rows keep the
  ``max(8, cpus)`` groups up to 10 CPUs.
- The width-1 rule (``_split_all``): when an exchange's stage 1 has one
  partition fed by one split group, there is no split task. Its reduce
  task applies the map-side function to the raw input blocks itself
  (``_mapped_input``), so it gets the rows a split task would have handed
  it, in the same order, without the key hash, the argsort over
  all-zero partition ids and the ``take`` copy (token-id lists included),
  and without the split task's scheduling gap. One split group means
  one input block, or known row counts summing to at most
  ``SPLIT_GROUP_ROWS`` (``_coalesce_refs``); a ``num_partitions=1`` call
  or a 1-CPU cluster over a larger input with a map-side function still
  runs a split task per group. Without a map-side function a split task
  has nothing to do at one partition whatever the group count, so none
  runs then either: ``hash_exchange_chained`` hands each stage-1
  reduce's table and the ``fold_in`` blocks straight to a single stage-2
  reduce, and when both
  of its stages have one partition the one stage-1 reduce runs stage 2
  too (``_reduce_chained``): its table never goes through the object
  store, and the stage-2 task's dispatch is saved. With more than one
  partition, or a ``block_fn`` over more than one group, the split tasks
  run (they spread the map-side work over the CPUs).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

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


# the CPU count read at the start of the current pipeline call, if any
_CALL_CPUS: ContextVar[int | None] = ContextVar("call_cpus", default=None)


def cluster_cpus() -> int:
    """The cluster's CPU count, 8 before ``ray.init``. A GCS round trip, so
    each exchange or labelprop call reads it once and passes it down, and
    inside ``cpus_read_once`` it is the count read when the call began."""
    pinned = _CALL_CPUS.get()
    if pinned is not None:
        return pinned
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


@contextmanager
def cpus_read_once():
    """Read the cluster's CPU count once for the block (or, as a decorator,
    for each call): every ``cluster_cpus()`` inside returns that reading,
    so a pipeline call's exchanges and width rules make one GCS round trip
    between them instead of one each. Scoped to the call, not cached for
    the process: an autoscaling cluster changes size between calls. Before
    ``ray.init`` nothing is pinned, so a call whose first task starts Ray
    reads the started cluster."""
    token = _CALL_CPUS.set(cluster_cpus() if ray.is_initialized() else None)
    try:
        yield
    finally:
        _CALL_CPUS.reset(token)


@dataclass(frozen=True)
class Blocks:
    """In-memory Arrow blocks handed from stage to stage in place of a
    Dataset: the block refs, in order, and each block's row count.

    Built from the counts the producing tasks return, so it costs no task,
    no stats-actor round trip and no metadata walk. A Blocks a stage makes
    is never empty: a zero-row one is a single typed zero-row block, so
    every consumer still sees the schema. The read methods are the few
    Dataset reads its callers use; ``to_dataset`` wraps it at a public
    boundary."""

    refs: tuple
    rows: tuple

    @classmethod
    def of(cls, table: pa.Table) -> Blocks:
        return cls((ray.put(table),), (table.num_rows,))

    def count(self) -> int:
        return sum(self.rows)

    def schema(self) -> pa.Schema:
        return ray.get(self.refs[0]).schema

    def iter_batches(self, batch_format: str = "pyarrow"):
        if batch_format != "pyarrow":
            raise ValueError(f"Blocks.iter_batches: pyarrow batches only, not {batch_format!r}")
        for ref in self.refs:
            yield ray.get(ref)

    def select_columns(self, cols: list[str]) -> Blocks:
        return map_blocks(self, lambda t: t.select(cols))

    def to_pandas(self) -> pd.DataFrame:
        return typed_to_pandas(self)

    def to_dataset(self) -> rd.Dataset:
        return rd.from_arrow_refs(list(self.refs))


def _kept(refs, rows) -> Blocks:
    """Blocks over the refs that have rows, or over the first ref when none
    has (its typed zero-row table keeps the schema)."""
    keep = [(r, n) for r, n in zip(refs, rows) if n > 0] or [(refs[0], rows[0])]
    return Blocks(tuple(r for r, _ in keep), tuple(n for _, n in keep))


def as_blocks(data) -> Blocks:
    """``data`` as ``Blocks``. A Dataset executes once if it is lazy and
    hands over its non-empty block refs with their metadata row counts —
    one walk, no block is read. With no rows it keeps one zero-row block, a
    typed one where it has one; with no block at all, one of its schema
    (free to fetch: such a Dataset is fully executed), column-less when
    even that is unknown."""
    if isinstance(data, Blocks):
        return data
    refs, rows, typed, empty = [], [], [], []
    for bundle in data.materialize().iter_internal_ref_bundles():
        has_columns = bundle.schema is not None and len(bundle.schema.names) > 0
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
                rows.append(meta.num_rows)
            else:
                (typed if has_columns else empty).append(ref)
    if refs:
        return Blocks(tuple(refs), tuple(rows))
    if typed or empty:
        return Blocks(((typed or empty)[0],), (0,))
    base = getattr(data.schema(fetch_if_missing=True), "base_schema", None)
    return Blocks.of(base.empty_table() if isinstance(base, pa.Schema) else pa.table({}))


def _as_given(inputs: tuple, out: Blocks):
    """``out`` as the kind the entry point was given: ``Blocks`` when every
    input was one, else a Dataset over its blocks — the one wrap."""
    return out if all(isinstance(d, Blocks) for d in inputs) else out.to_dataset()


# input rows one split task is sized for: a split task costs a few ms of
# scheduling and a round of object refs whatever its size
SPLIT_GROUP_ROWS = 10_000


def _coalesce_refs(refs, rows, cpus: int) -> list[list]:
    """Contiguous grouping of block refs into split tasks.

    At most ``max(8, cpus)`` groups of about equal block counts; when
    ``rows`` (each block's row count) is given and the input holds fewer
    than that many times ``SPLIT_GROUP_ROWS`` rows, ``ceil(rows /
    SPLIT_GROUP_ROWS)`` groups cut at equal shares of the rows instead, so
    no group holds more than ``SPLIT_GROUP_ROWS`` rows plus one block.
    ``rows=None`` (counts unknown) keeps the block-count rule."""
    n = len(refs)
    g = min(n, max(8, cpus))
    total = None if rows is None else int(sum(rows))
    by_rows = None if total is None else max(1, -(-total // SPLIT_GROUP_ROWS))
    if by_rows is not None and by_rows < g:
        # block b joins group (rows before b) * by_rows // total
        starts = np.cumsum(rows) - np.asarray(rows)
        group = starts * by_rows // max(total, 1)
        bounds = np.r_[0, np.flatnonzero(np.diff(group)) + 1, n]
    else:
        bounds = np.linspace(0, n, g + 1).astype(int)
    return [list(refs[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _ensure_table(block) -> pa.Table:
    # blocks are Arrow throughout this engine, but a from_pandas Dataset
    # input hands over pandas blocks
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def project_block(t: pa.Table, cols: list[str]) -> pa.Table:
    """Per-block projection for a map-side function: ``cols`` of ``t``, or
    a zero-column table for a zero-row block that lacks them (a 0-row
    Dataset input with no typed block, see the module docstring)."""
    if t.num_rows == 0 and not set(cols) <= set(t.column_names):
        return pa.table({})
    return t.select(cols)


def _merge_tables(tbls) -> pa.Table:
    """Concatenate the non-empty tables; with none, the first."""
    parts = [t for t in tbls if t.num_rows > 0]
    if parts:
        return pa.concat_tables(parts, promote_options="default") if len(parts) > 1 else parts[0]
    return tbls[0]


def _mapped_input(block_fn, tbls) -> pa.Table:
    """A split task's input, or a reduce task's: its blocks as Arrow tables
    (a ``from_pandas`` Dataset hands over pandas blocks), each through
    ``block_fn`` when one is given, concatenated. A reduce task passes the
    ``map_fn`` from ``_split_all``: the ``block_fn`` when it was handed the
    raw blocks (the width-1 rule), else None."""
    tbls = [_ensure_table(t) for t in tbls]
    if block_fn is not None:
        tbls = [block_fn(t) for t in tbls]
    return _merge_tables(tbls)


@ray.remote
def _split_block(key_cols: list[str], num_partitions: int, block_fn, *tbls: pa.Table):
    """Stage 1 of an exchange over one group of blocks: ``block_fn`` over
    each, then one compact sub-table per partition by key hash. Not
    submitted at one partition over one group, nor at one partition
    without a ``block_fn`` (``_split_all``'s width-1 rule): the reduce
    task maps the raw blocks itself."""
    tbl = _mapped_input(block_fn, tbls)
    if tbl.num_rows == 0:
        # nothing to hash — and a column-less block would KeyError on the
        # key lookup
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


def _emit(out: pa.Table, sink, i: int) -> tuple[pa.Table, int]:
    """A producing task's (table, rows), after it writes the table as
    part ``i`` of ``sink`` (a ``state.checkpoint.PartSink``) when one is
    given — the task that makes a checkpoint's block writes it."""
    if sink is not None:
        sink.write(out, i)
    return out, out.num_rows


@ray.remote(num_returns=2)
def _reduce_partition(fn, map_fn, sink, i: int, *subtables: pa.Table):
    merged = _mapped_input(map_fn, subtables)
    return _emit(_from_pandas(fn(merged.to_pandas()), merged), sink, i)


@ray.remote(num_returns=2)
def _reduce_partition_arrow(fn, map_fn, sink, i: int, *subtables: pa.Table):
    """Arrow-native reduce: ``fn(pa.Table) -> pa.Table`` with NO pandas
    round-trip. ``_reduce_partition``'s ``to_pandas()`` explodes list
    columns into one numpy object per row and copies every string — on a
    fat (token_ids list) partition that conversion costs more than the
    actual kernel work; partition fns that can consume Arrow directly
    skip it entirely."""
    return _emit(fn(_mapped_input(map_fn, subtables)).replace_schema_metadata(None), sink, i)


@ray.remote(num_returns=2)
def _reduce_cogroup(fn, n_left: int, map_fns: tuple, sink, i: int, *subtables: pa.Table):
    left = _mapped_input(map_fns[0], subtables[:n_left])
    right = _mapped_input(map_fns[1], subtables[n_left:])
    return _emit(_from_pandas(fn(left.to_pandas(), right.to_pandas()), left, right), sink, i)


def _split_all(
    refs, key_cols: list[str], num_partitions: int, block_fn, cpus: int, rows=None
) -> tuple[list, object]:
    """Stage 1 over ``refs`` → ``(splits, map_fn)``. Partition p's reduce
    task reads ``_partition_subs(splits, p, num_partitions)`` through
    ``_mapped_input(map_fn, ...)``.

    The width-1 rule, the one place it is decided: with one partition fed
    by one ``_coalesce_refs`` group (one ref, or ``rows``, each ref's
    row count when known, summing to at most ``SPLIT_GROUP_ROWS``), or by
    any number of groups when there is no ``block_fn``, no
    split task runs. ``splits`` is ``refs`` itself and ``map_fn`` is
    ``block_fn``, so the reduce task maps the raw blocks and sees the rows
    a split task would have handed it, in the same order. Otherwise one
    ``_split_block`` task per group applies ``block_fn`` first,
    ``splits[b][p]`` is split b's sub-table for partition p (a single ref
    per split when ``num_partitions`` is 1) and ``map_fn`` is None."""
    groups = _coalesce_refs(refs, rows, cpus)
    if num_partitions == 1 and (len(groups) == 1 or block_fn is None):
        return list(refs), block_fn
    return [
        _split_block.options(num_returns=num_partitions).remote(
            key_cols, num_partitions, block_fn, *group
        )
        for group in groups
    ], None


def _partition_subs(splits: list, p: int, num_partitions: int) -> list:
    return [s[p] for s in splits] if num_partitions > 1 else list(splits)


def _width(num_partitions: int | None, n_rows: int, cpus: int) -> int:
    """An explicit width, else ``grouping.auto_partitions`` of the rows."""
    if num_partitions is not None:
        return num_partitions
    from entity_resolution_engine_ray.stages.grouping import auto_partitions

    return auto_partitions(n_rows, cpus=cpus)


def hash_exchange_cogroup(
    left,
    right,
    left_keys: list[str],
    right_keys: list[str],
    fn,
    num_partitions: int | None = None,
    left_block_fn=None,
    right_block_fn=None,
    sink=None,
):
    """Co-partitioned two-sided exchange: rows of both inputs with the
    same key hash meet in one partition; ``fn(left_pdf, right_pdf)`` runs
    once per partition (the task-level hash join / cogroup primitive —
    key semantics are up to ``fn``). ``num_partitions=None`` →
    ``grouping.auto_partitions(rows)`` sized by the LARGER side's row
    count. ``left_block_fn`` / ``right_block_fn``: map-side functions
    applied to each block of that side in its split tasks.

    A side with no rows still reaches ``fn`` as a TYPED empty frame (see
    ``as_blocks``), so ``fn`` never gets the right side's sub-tables as its
    left argument. ``sink``: a ``state.checkpoint.PartSink`` each
    partition's reduce task writes its output to. With one partition a
    side fed by one split group has no split task: the reduce applies
    that side's block fn to its raw blocks (``_split_all``)."""
    lb, rb = as_blocks(left), as_blocks(right)
    cpus = cluster_cpus()
    num_partitions = _width(num_partitions, max(lb.count(), rb.count()), cpus)
    l_splits, l_map = _split_all(lb.refs, left_keys, num_partitions, left_block_fn, cpus, lb.rows)
    r_splits, r_map = _split_all(rb.refs, right_keys, num_partitions, right_block_fn, cpus, rb.rows)
    reduced, counts = [], []
    for p in range(num_partitions):
        lsub = _partition_subs(l_splits, p, num_partitions)
        rsub = _partition_subs(r_splits, p, num_partitions)
        t_ref, c_ref = _reduce_cogroup.remote(
            fn, len(lsub), (l_map, r_map), sink, p, *(lsub + rsub)
        )
        reduced.append(t_ref)
        counts.append(c_ref)
    return _as_given((left, right), _kept(reduced, ray.get(counts)))


def typed_to_pandas(data) -> pd.DataFrame:
    """Schema-preserving driver collect. ``Dataset.to_pandas()`` on a
    fully-EMPTY dataset returns a column-less frame even when every block
    is a typed 0-row table (Ray 2.49 — verified with both Arrow and pandas
    blocks), so downstream ``df[col]`` access KeyErrors on legitimately
    empty results. Concatenating the block tables directly keeps the
    schema; for non-empty inputs this is equivalent to (and no slower
    than) ``to_pandas``."""
    tbls = [_ensure_table(t) for t in ray.get(list(as_blocks(data).refs))]
    return pa.concat_tables(tbls, promote_options="default").to_pandas()


@ray.remote
def _concat_parts(map_fn, *subtables: pa.Table) -> pa.Table:
    return _mapped_input(map_fn, subtables)


def exchange_partition_refs(
    data, key_cols: list[str], num_partitions: int | None = None, block_fn=None
) -> list:
    """Hash-partition ``data`` ONCE and return the P partition tables as
    object refs (index p = partition p — alignment is guaranteed, empty
    partitions included). The building block for ITERATIVE algorithms where
    one side stays stationary across rounds (connected components: edges
    are partitioned once; only labels/candidates move per round).
    ``num_partitions=None`` → ``grouping.auto_partitions(rows)`` sized by
    the input row count. ``block_fn``: the map-side function each split
    task applies to its blocks; at one partition over one split group the
    one concat task applies it instead (``_split_all``)."""
    blocks = as_blocks(data)
    cpus = cluster_cpus()
    num_partitions = _width(num_partitions, blocks.count(), cpus)
    splits, map_fn = _split_all(blocks.refs, key_cols, num_partitions, block_fn, cpus, blocks.rows)
    return [
        _concat_parts.remote(map_fn, *_partition_subs(splits, p, num_partitions))
        for p in range(num_partitions)
    ]


def _counted(fn, arrow_fns: bool, map_fn, subtables) -> tuple[pa.Table, dict]:
    """Stage 1 of the chained exchange over one partition's input:
    (table, counts).

    ``fn`` may return ``(table, counts)``, a dict of int counts carried out
    of band of the rows, so a partition that emits no row still reports
    them. ``map_fn``: the map-side function when the task gets the raw
    blocks (``_split_all``'s width-1 rule), else None."""
    merged = _mapped_input(map_fn, subtables)
    res = fn(merged if arrow_fns else merged.to_pandas())
    out, counts = res if isinstance(res, tuple) else (res, {})
    if not arrow_fns:
        out = _from_pandas(out, merged)
    return out.replace_schema_metadata(None), dict(counts)


@ray.remote(num_returns=2)
def _reduce_counted(fn, arrow_fns: bool, map_fn, *subtables: pa.Table):
    """Stage-1 reduce of the chained exchange: ``_counted``."""
    return _counted(fn, arrow_fns, map_fn, subtables)


@ray.remote(num_returns=3)
def _reduce_chained(fn1, fn2, arrow_fns: bool, map_fn, sink, n1: int, *subtables: pa.Table):
    """Both stages of a chained exchange of one partition each, in one
    task: (stage 2's table, its rows, stage 1's counts). Stage 1 reads the
    first ``n1`` sub-tables; stage 2 reads its table followed by the rest
    (the ``fold_in`` blocks), the input its own reduce would get."""
    t1, counts = _counted(fn1, arrow_fns, map_fn, subtables[:n1])
    merged = _mapped_input(None, (t1, *subtables[n1:]))
    out = fn2(merged) if arrow_fns else _from_pandas(fn2(merged.to_pandas()), merged)
    return (*_emit(out.replace_schema_metadata(None), sink, 0), counts)


def hash_exchange_chained(
    data,
    keys1: list[str],
    fn1,
    p1: int,
    keys2: list[str],
    fn2,
    p2: int,
    arrow_fns: bool = False,
    block_fn=None,
    fold_in=None,
    sink=None,
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
    int counts kept out of band of the rows. Returns ``(result, totals)``,
    ``result`` of the kind given, ``totals`` the key-wise sum of ``fn1``'s
    count dicts (``{}`` when it returned none or there were no rows).

    ``arrow_fns``: both fns take and return ``pa.Table`` (no pandas
    round-trip — see ``_reduce_partition_arrow``). ``block_fn``: the
    map-side function stage 1's split tasks apply to each input block; with
    ``p1 == 1`` over one split group the one stage-1 reduce applies it
    instead (``_split_all``).

    ``fold_in``: rows (``Blocks`` or a Dataset) that join stage 2's input
    beside stage 1's output, hashed on ``keys2`` by split tasks of their
    own (none with one stage-2 partition) — the incremental fold's previous
    edges meet the rescored ones in the one pair dedup. ``sink``: a
    ``state.checkpoint.PartSink`` each stage-2 reduce writes its output to.

    With ``p1 == p2 == 1`` one task runs both stages (``_reduce_chained``):
    stage 2 reads stage 1's table and the ``fold_in`` blocks, in the order
    its own reduce would, so the output is the same.

    Callers — every blocked-pair operator, each as block_fn = its explode,
    stage 1 = pair generation + verify with its dropped count, stage 2 =
    pair dedup: ``pairs.blocked_pair_edges`` (``score.fused_edges_stage``
    for the pages pipeline, and ``near_dup_edges``,
    ``prefix_jaccard_self_join``, ``cross_corpus_near_dup_pairs``),
    ``dedup.simhash_near_dup_pairs``, ``containment.containment_self_join``
    and ``knn.cosine_near_dup_pairs``.
    """
    if p1 < 1 or p2 < 1:
        raise ValueError(
            f"hash_exchange_chained: partition counts must be >= 1 (got p1={p1}, p2={p2})"
        )
    blocks = as_blocks(data)
    cpus = cluster_cpus()
    splits1, map_fn = _split_all(blocks.refs, keys1, p1, block_fn, cpus, blocks.rows)
    if p1 == 1 and p2 == 1:
        subs1 = _partition_subs(splits1, 0, 1)
        extra = () if fold_in is None else as_blocks(fold_in).refs
        t_ref, n_ref, c_ref = _reduce_chained.remote(
            fn1, fn2, arrow_fns, map_fn, sink, len(subs1), *subs1, *extra
        )
        n, totals = ray.get([n_ref, c_ref])
        return _as_given((data,), Blocks((t_ref,), (n,))), totals
    reduce_task = _reduce_partition_arrow if arrow_fns else _reduce_partition
    # stage-1 reduce → immediately a stage-2 split on the SAME ref: no
    # driver involvement between the waves (and with one stage-2
    # partition no split: the reduce's table is its own sub-table)
    splits2, count_refs = [], []
    for p in range(p1):
        t_ref, c_ref = _reduce_counted.remote(
            fn1, arrow_fns, map_fn, *_partition_subs(splits1, p, p1)
        )
        count_refs.append(c_ref)
        splits2 += _split_all([t_ref], keys2, p2, None, cpus)[0]
    if fold_in is not None:
        extra = as_blocks(fold_in)
        splits2 += _split_all(extra.refs, keys2, p2, None, cpus, extra.rows)[0]
    reduced, rows = [], []
    for q in range(p2):
        t_ref, n_ref = reduce_task.remote(fn2, None, sink, q, *_partition_subs(splits2, q, p2))
        reduced.append(t_ref)
        rows.append(n_ref)
    out = _kept(reduced, ray.get(rows))
    totals: dict = {}
    for c in ray.get(count_refs):
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    return _as_given((data,), out), totals


def hash_exchange_map_groups(
    data,
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
    ``grouping.auto_partitions(rows)`` sized by the input row count.
    ``block_fn``: the map-side function the split tasks apply to each input
    block before hashing; at one partition over one split group the one
    reduce task applies it instead (``_split_all``). Returns the kind it
    was given."""
    blocks = as_blocks(data)
    cpus = cluster_cpus()
    num_partitions = _width(num_partitions, blocks.count(), cpus)
    splits, map_fn = _split_all(blocks.refs, key_cols, num_partitions, block_fn, cpus, blocks.rows)
    reduce_task = _reduce_partition_arrow if arrow_fns else _reduce_partition
    reduced, counts = [], []
    for p in range(num_partitions):
        table_ref, count_ref = reduce_task.remote(
            fn, map_fn, None, p, *_partition_subs(splits, p, num_partitions)
        )
        reduced.append(table_ref)
        counts.append(count_ref)
    return _as_given((data,), _kept(reduced, ray.get(counts)))


@ray.remote(num_returns=2)
def _map_block(fn, sink, i: int, block):
    return _emit(fn(_ensure_table(block)), sink, i)


def _map_block_refs(data, fn, sink=None) -> list:
    """One ``_map_block`` task per block of ``data`` → [(table ref, rows
    ref)]; with ``sink``, task i writes its output as part i."""
    return [_map_block.remote(fn, sink, i, r) for i, r in enumerate(as_blocks(data).refs)]


def map_blocks(data, fn, sink=None):
    """``fn(pa.Table) -> pa.Table`` over every block of ``data`` with one
    plain task per block — no Ray Data execution, for blocks that are
    already in the object store (a lazy Dataset executes once to produce
    them). The result, of the kind given, holds the non-empty outputs, or
    the first output when all are empty, so it stays typed. ``sink``: a
    ``state.checkpoint.PartSink`` each task writes its output to, in block
    order."""
    outs = _map_block_refs(data, fn, sink)
    return _as_given((data,), _kept([t for t, _ in outs], ray.get([n for _, n in outs])))


def union_blocks(*inputs):
    """Every block of ``inputs``, in order, without executing anything —
    ``Dataset.union`` would start a Ray Data execution. A Blocks when every
    input is one, else a Dataset."""
    parts = [as_blocks(d) for d in inputs]
    refs = [r for b in parts for r in b.refs]
    rows = [n for b in parts for n in b.rows]
    return _as_given(inputs, _kept(refs, rows))
