"""Distributed grouped prefix-sum (scan).

``SUM(v) OVER (PARTITION BY k ORDER BY o ROWS UNBOUNDED PRECEDING)`` needs a
global per-key running total — something no per-block or per-partition
transform can produce alone, and an operator Ray Data has no primitive for.
This is the classic two-phase scan:

  phase 0   ``Dataset.sort(key + order)`` — ONE range shuffle; afterwards
            blocks hold disjoint sorted ranges.
  phase 1   one tiny task per block emits boundary metadata only: the
            block's first/last key and the value sums of those two keys
            (≤ 2 key rows per block, never the block's full key set).
  driver    a single O(n_blocks) carry walk: because the data is sorted,
            a key's rows are contiguous, so the ONLY key in block *i* that
            can have mass in earlier blocks is its first key. The walk
            keeps one (key, running-sum) carry — constant driver memory,
            safe when keys number in the billions, and correct for a hot
            key spanning many whole blocks (the carry accumulates through
            single-key blocks).
  phase 2   one task per block: vectorized per-key cumsum inside the block
            plus the scalar carry added to the first key's rows.

Integer inputs stay integers end-to-end, so results hash-match a SQL
window-SUM oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def _key_tuple(tbl: pa.Table, key_cols: list[str], row: int) -> tuple:
    # canonicalize NaN → None so boundary-key tuples compare by SQL
    # PARTITION-BY semantics (NaN != NaN would break the carry walk);
    # float NaN keys are DOCUMENTED to partition together with NULL keys
    # (they are indistinguishable once a nullable float column round-trips
    # through pandas anyway)
    out = []
    for c in key_cols:
        v = tbl[c][row].as_py()
        if isinstance(v, float) and np.isnan(v):
            v = None
        out.append(v)
    return tuple(out)


_NULLSORT_PREFIX = "__scan_ns_"


def _zero_scalar(t: pa.DataType):
    """A constant fill value of type ``t`` for the null-coalesced sort helper
    column. The VALUE is irrelevant (the null flag dominates the sort order);
    it only has to be a valid non-null scalar of the column's type."""
    try:
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return pa.scalar("", type=t)
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            return pa.scalar(b"", type=t)
        if pa.types.is_boolean(t):
            return pa.scalar(False, type=t)
        if pa.types.is_temporal(t):
            return pa.scalar(0, type=pa.int64()).cast(t)
        if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t):
            return pa.scalar(0, type=t)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        pass
    return None


def _add_nullsort_cols(sort_cols: list[str]):
    """Ray Data's range-partitioned sort raises on null sort keys (its
    boundary searchsorted compares None against values), so each sort column
    ``c`` is encoded as two helper columns: ``flag`` = is-null (NaN counts as
    null, matching the partition semantics above) and ``cv`` = the column
    with nulls coalesced to a constant. Sorting by the interleaved helpers
    gives nulls-last order with null keys contiguous."""
    import pyarrow.compute as pc

    def add(tbl: pa.Table) -> pa.Table:
        tbl = _as_table(tbl)
        for c in sort_cols:
            col = tbl[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            zero = _zero_scalar(col.type)
            if zero is None:  # exotic type: sort raw (nulls unsupported)
                flag = pa.array(np.zeros(len(tbl), dtype=np.int8))
                cv = col
            else:
                nan_null = pa.types.is_floating(col.type)
                isnull = pc.is_null(col, nan_is_null=nan_null)
                flag = pc.cast(isnull, pa.int8())
                cv = pc.if_else(isnull, zero, col)
            tbl = tbl.append_column(f"{_NULLSORT_PREFIX}f_{c}", flag)
            tbl = tbl.append_column(f"{_NULLSORT_PREFIX}v_{c}", cv)
        return tbl

    return add


def _nullsort_keys(sort_cols: list[str]) -> list[str]:
    out = []
    for c in sort_cols:
        out.append(f"{_NULLSORT_PREFIX}f_{c}")
        out.append(f"{_NULLSORT_PREFIX}v_{c}")
    return out


def _key_mask(pdf: pd.DataFrame, key_cols: list[str], key: tuple) -> np.ndarray:
    """Null-safe row mask for one boundary key: None/NaN key components
    match via isna (a plain == comparison is all-False against nulls, which
    silently zeroed boundary sums and dropped carries)."""
    mask = np.ones(len(pdf), dtype=bool)
    for c, kv in zip(key_cols, key):
        col = pdf[c]
        if kv is None or (isinstance(kv, float) and np.isnan(kv)):
            mask &= col.isna().to_numpy()
        else:
            mask &= (col == kv).to_numpy()
    return mask


def _as_table(block) -> pa.Table:
    # blocks are Arrow throughout this engine, but from_pandas sources
    # (tests, ad-hoc callers) produce pandas blocks
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


@ray.remote
def _scan_block_meta(key_cols: list[str], order_cols: list[str], value_col: str, tbl: pa.Table):
    """(sort_position, first_key, last_key, last_key_sum) — only what the
    carry walk reads (a first-key sum was computed and shipped for nothing
    on every block of every scan)."""
    tbl = _as_table(tbl)
    n = tbl.num_rows
    if n == 0:
        return None
    first_key = _key_tuple(tbl, key_cols, 0)
    last_key = _key_tuple(tbl, key_cols, n - 1)
    pos = first_key + _key_tuple(tbl, order_cols, 0)
    pdf = pd.DataFrame({c: tbl[c].to_numpy(zero_copy_only=False) for c in key_cols})
    vals = tbl[value_col].to_numpy(zero_copy_only=False)
    # nansum: null VALUES are ignored like SQL SUM (the in-block cumsum
    # fills them with 0 — np.sum would poison the whole key's carry)
    last_sum = np.nansum(vals[_key_mask(pdf, key_cols, last_key)])
    return (pos, first_key, last_key, last_sum)


def _prefix_offsets(metas: list) -> list:
    """Driver carry walk over block metas IN SORTED ORDER: returns the
    scalar to add to each block's FIRST key's running sums. Pure function —
    unit-tested directly in tests/test_scan.py."""
    offsets = []
    carry_key, carry_sum = None, 0
    for (_, first_key, last_key, last_sum) in metas:
        off = carry_sum if first_key == carry_key else 0
        offsets.append(off)
        if last_key == first_key:
            # single boundary key (possibly the whole block): extend the carry
            carry_key, carry_sum = last_key, off + last_sum
        else:
            carry_key, carry_sum = last_key, last_sum
    return offsets


@ray.remote
def _scan_block_apply(
    key_cols: list[str],
    value_col: str,
    out_col: str,
    first_key: tuple,
    offset,
    tbl: pa.Table,
) -> pa.Table:
    tbl = _as_table(tbl)
    helpers = [c for c in tbl.column_names if c.startswith(_NULLSORT_PREFIX)]
    if helpers:
        tbl = tbl.drop_columns(helpers)
    pdf = tbl.to_pandas()
    # dropna=False: SQL PARTITION BY groups NULL keys together (pandas'
    # default silently drops them, leaving NaN running sums); null VALUES
    # count as 0 so the running total at a null row equals the previous
    # row's total (SQL SUM ignores NULLs)
    vals = pdf[value_col]
    if vals.isna().any():
        vals = vals.fillna(0)
    cum = vals.groupby([pdf[c] for c in key_cols], sort=False, dropna=False).cumsum()
    if offset:
        cum = cum + np.where(_key_mask(pdf, key_cols, first_key), offset, 0)
    pdf[out_col] = cum
    return pa.Table.from_pandas(pdf, preserve_index=False).replace_schema_metadata(None)


def grouped_prefix_sum(
    ds, key_cols: list[str], order_cols: list[str], value_col: str, out_col: str
):
    """All input columns + ``out_col`` = running per-key sum of ``value_col``
    in ``order_cols`` order (inclusive of the current row). ``order_cols``
    must be unique within a key for a deterministic result (window-SUM
    ROWS-frame semantics)."""
    from entity_resolution_engine_ray.stages.exchange import as_blocks

    sort_cols = key_cols + order_cols
    sorted_ds = (
        ds.map_batches(_add_nullsort_cols(sort_cols), batch_format="pyarrow")
        .sort(_nullsort_keys(sort_cols))
        .materialize()
    )
    refs = as_blocks(sorted_ds).refs
    metas = ray.get(
        [_scan_block_meta.remote(key_cols, order_cols, value_col, r) for r in refs]
    )
    def _null_last(pos: tuple) -> tuple:
        # None components (null first-row key/order values) sort AFTER real
        # values, matching Arrow's nulls-last sort order; plain tuple
        # comparison would raise TypeError on None vs value
        return tuple((v is None, 0 if v is None else v) for v in pos)

    live = sorted([(m, r) for m, r in zip(metas, refs) if m is not None],
                  key=lambda x: _null_last(x[0][0]))
    if not live:
        # empty input: the sort emits a zero-COLUMN block, so recover the
        # schema from the pre-sort dataset instead
        sch_obj = ds.schema()
        if sch_obj is None:  # schema-less empty (e.g. fully-filtered lazy)
            return rd.from_arrow(pa.table({}))
        bs = sch_obj.base_schema
        if isinstance(bs, pa.Schema):
            sch = bs
        else:  # PandasBlockSchema (from_pandas sources)
            def _pa_type(t):
                try:
                    return pa.from_numpy_dtype(t)
                except (pa.ArrowNotImplementedError, TypeError):
                    return pa.string()

            sch = pa.schema(
                [pa.field(n, _pa_type(t)) for n, t in zip(bs.names, bs.types)]
            )
        cols = {f.name: pa.array([], type=f.type) for f in sch}
        cols[out_col] = pa.array([], type=sch.field(value_col).type)
        return rd.from_arrow(pa.table(cols))
    offsets = _prefix_offsets([m for m, _ in live])
    out_refs = [
        _scan_block_apply.remote(key_cols, value_col, out_col, m[1], off, r)
        for (m, r), off in zip(live, offsets)
    ]
    return rd.from_arrow_refs(out_refs)
