"""Map-side functions and ``map_blocks`` (stages/exchange).

Every exchange entry point that takes a per-block function must give the
same rows as the same exchange over the lazily mapped Dataset — the function
only moves into the split tasks. ``map_blocks`` must stay typed when its
input is empty, including the zero-column blocks a 0-row Dataset surfaces.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

_MAPPED = pa.schema([("k", pa.int64()), ("v", pa.int64())])


def _explode_filter(t: pa.Table) -> pa.Table:
    """Drops rows with v % 3 == 0 and emits each other row twice, the
    second time under key k + 1000: a filter and an explode in one."""
    if t.num_rows == 0:
        return _MAPPED.empty_table()
    t = t.filter(pa.array(t["v"].to_numpy() % 3 != 0)).select(["k", "v"])
    shifted = pa.table({"k": pc.add(t["k"], 1000), "v": t["v"]})
    return pa.concat_tables([t, shifted])


def _sorted(tbl: pa.Table) -> pa.Table:
    return tbl.sort_by([(c, "ascending") for c in tbl.column_names])


def _table(ds) -> pa.Table:
    from entity_resolution_engine_ray.stages.exchange import _ensure_table

    tbls = [_ensure_table(t) for t in ray.get(ds.to_arrow_refs())]
    return pa.concat_tables([t for t in tbls if t.num_rows] or tbls)


@pytest.fixture(scope="module")
def blocks(ray_session):
    """A multi-block input (one empty block among them) and its lazily
    mapped form."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    tbls = [
        pa.table(
            {
                "k": pa.array(rng.integers(0, 300, n), type=pa.int64()),
                "v": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
                "payload": pa.array([f"p{i}" for i in range(n)]),
            }
        )
        for n in (4_000, 0, 2_500, 3_100)
    ]
    ds = rd.from_arrow(tbls).materialize()
    return ds, ds.map_batches(_explode_filter, batch_format="pyarrow")


def _group_sum(pdf: pd.DataFrame) -> pd.DataFrame:
    if pdf.empty:
        return pd.DataFrame({"k": pd.Series([], dtype=np.int64), "s": pd.Series([], dtype=np.int64)})
    return pdf.groupby("k", as_index=False)["v"].sum().rename(columns={"v": "s"})


def test_map_groups_with_block_fn_equals_mapped_input(blocks):
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    ds, mapped = blocks
    want = _sorted(_table(hash_exchange_map_groups(mapped, ["k"], _group_sum, 6)))
    assert want.num_rows > 0
    got = hash_exchange_map_groups(ds, ["k"], _group_sum, 6, block_fn=_explode_filter)
    assert _sorted(_table(got)).equals(want)
    got = partition_map_groups(ds, ["k"], _group_sum, 6, block_fn=_explode_filter)
    assert _sorted(_table(got)).equals(want)


def _stage1(t: pa.Table):
    """Arrow stage 1 with an out-of-band count: rows with v < 500 are
    dropped and counted."""
    low = pc.less(t["v"], 500)
    return t.filter(pc.invert(low)), {"low": int(pc.sum(low).as_py() or 0)}


def _stage2(t: pa.Table) -> pa.Table:
    return t


def test_chained_with_block_fn_equals_mapped_input(blocks):
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained

    ds, mapped = blocks
    want, want_counts = hash_exchange_chained(
        mapped, ["k"], _stage1, 5, ["v"], _stage2, 3, arrow_fns=True
    )
    got, got_counts = hash_exchange_chained(
        ds, ["k"], _stage1, 5, ["v"], _stage2, 3, arrow_fns=True, block_fn=_explode_filter
    )
    assert _sorted(_table(got)).equals(_sorted(_table(want)))
    assert got_counts == want_counts
    assert want_counts["low"] > 0
    n_mapped = _table(mapped).num_rows
    assert _table(got).num_rows + got_counts["low"] == n_mapped


def test_chained_counts_survive_a_partition_that_emits_no_row(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained

    tbl = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "v": pa.array([1, 2, 3], pa.int64())})
    out, counts = hash_exchange_chained(
        rd.from_arrow(tbl), ["k"], _stage1, 4, ["k"], _stage2, 2, arrow_fns=True
    )
    assert out.count() == 0
    assert counts == {"low": 3}


def test_partition_refs_with_block_fn_equal_mapped_input(blocks):
    from entity_resolution_engine_ray.stages.exchange import exchange_partition_refs

    ds, mapped = blocks
    want = ray.get(exchange_partition_refs(mapped, ["k"], 4))
    got = ray.get(exchange_partition_refs(ds, ["k"], 4, block_fn=_explode_filter))
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert _sorted(g).equals(_sorted(w))


def _join(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    if left.empty or right.empty:
        return pd.DataFrame(
            {
                "k": pd.Series([], dtype=np.int64),
                "v_x": pd.Series([], dtype=np.int64),
                "v_y": pd.Series([], dtype=np.int64),
            }
        )
    return left[["k", "v"]].merge(right[["k", "v"]], on="k")


@pytest.mark.parametrize("side", ["left", "right"])
def test_cogroup_with_block_fn_equals_mapped_input(blocks, side):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    ds, mapped = blocks
    other = rd.from_arrow(
        pa.table(
            {"k": pa.array(np.arange(0, 1400, 7), pa.int64()), "v": pa.array(np.arange(200), pa.int64())}
        )
    )
    if side == "left":
        want = hash_exchange_cogroup(mapped, other, ["k"], ["k"], _join, 5)
        got = hash_exchange_cogroup(ds, other, ["k"], ["k"], _join, 5, left_block_fn=_explode_filter)
    else:
        want = hash_exchange_cogroup(other, mapped, ["k"], ["k"], _join, 5)
        got = hash_exchange_cogroup(other, ds, ["k"], ["k"], _join, 5, right_block_fn=_explode_filter)
    w = _sorted(_table(want))
    assert w.num_rows > 0
    assert _sorted(_table(got)).equals(w)


def test_map_blocks_matches_map_batches(blocks):
    from entity_resolution_engine_ray.stages.exchange import map_blocks

    ds, mapped = blocks
    got = map_blocks(ds, _explode_filter)
    assert _sorted(_table(got)).equals(_sorted(_table(mapped)))
    # one output block per non-empty input block; the empty one is dropped
    assert got.num_blocks() == 3


def test_map_blocks_is_typed_on_empty_input(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.block import block_keys
    from entity_resolution_engine_ray.stages.exchange import map_blocks

    typed = pa.schema([("band_keys", pa.list_(pa.int64()))])
    cases = {
        "zero-row": rd.from_arrow(typed.empty_table()),
        "zero-column": rd.from_arrow(pa.table({})),
        "no block": rd.from_items([]),
        "mixed": rd.from_arrow([pa.table({}), typed.empty_table(), pa.table({})]),
    }
    for name, ds in cases.items():
        out = map_blocks(ds, block_keys)
        assert out.count() == 0, name
        tbl = _table(out)
        assert tbl.schema.equals(pa.schema([("block_key", pa.int64())])), (name, tbl.schema)
