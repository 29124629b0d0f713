"""Task-level hash exchange: the chained two-stage path must be
row-identical to two sequential exchanges (only scheduling differs), and
the stage-1 counts it carries out of band must sum over all partitions."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _stage1_rows(pdf: pd.DataFrame) -> pd.DataFrame:
    """Per-key partial aggregate."""
    if pdf.empty:
        return pd.DataFrame(
            {"k": pd.Series([], dtype=np.int64), "v": pd.Series([], dtype=np.int64)}
        )
    return pdf.groupby("k", sort=False)["v"].sum().reset_index()


def _stage1(pdf: pd.DataFrame):
    """``_stage1_rows`` plus a per-partition input-row count, out of band."""
    return _stage1_rows(pdf), {"extra": len(pdf)}


def _stage2(pdf: pd.DataFrame) -> pd.DataFrame:
    if pdf.empty:
        return pdf
    return pdf.sort_values(["k", "v"], kind="mergesort").drop_duplicates("k", keep="first")


def test_chained_exchange_matches_sequential(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import (
        hash_exchange_chained,
        hash_exchange_map_groups,
    )

    rng = np.random.default_rng(19)
    n = 20_000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 500, n), type=pa.int64()),
            "v": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
        }
    )
    ds = rd.from_arrow(tbl)

    chained, total = hash_exchange_chained(ds, ["k"], _stage1, 8, ["k"], _stage2, 8)
    got = chained.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)

    mid = hash_exchange_map_groups(ds, ["k"], _stage1_rows, 8)
    seq = hash_exchange_map_groups(mid, ["k"], _stage2, 8)
    exp = seq.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(got, exp)
    assert total == {"extra": n}


def test_chained_exchange_empty_input(ray_session):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained

    tbl = pa.table(
        {"k": pa.array([], type=pa.int64()), "v": pa.array([], type=pa.int64())}
    )
    out, total = hash_exchange_chained(
        rd.from_arrow(tbl), ["k"], _stage1, 4, ["k"], _stage2, 4
    )
    assert out.count() == 0
    assert total.get("extra", 0) == 0


def test_partition_hash_stable_under_nulls():
    """A block's null pattern must never move a VALUE to a different
    partition: to_numpy turns a nulled int column into float64 and pandas
    hashes 5.0 differently from 5 (the silent group-split hazard)."""
    import pyarrow as pa

    from entity_resolution_engine_ray.stages.exchange import _partition_hash

    clean = pa.table({"k": pa.array([5, 7, 9], type=pa.int64())})
    nulled = pa.table({"k": pa.array([5, None, 9], type=pa.int64())})
    P = 48
    h_clean = _partition_hash(clean, ["k"], P)
    h_nulled = _partition_hash(nulled, ["k"], P)
    assert h_clean[0] == h_nulled[0]  # value 5
    assert h_clean[2] == h_nulled[2]  # value 9
    # nulls themselves land deterministically
    again = _partition_hash(nulled, ["k"], P)
    assert (h_nulled == again).all()
    # boolean keys: dtype-stable too (object under nulls otherwise)
    b1 = pa.table({"k": pa.array([True, False], type=pa.bool_())})
    b2 = pa.table({"k": pa.array([True, None], type=pa.bool_())})
    assert _partition_hash(b1, ["k"], P)[0] == _partition_hash(b2, ["k"], P)[0]


def test_group_not_split_when_other_block_has_null(ray_session):
    """End-to-end: the same key appearing in a clean block and a
    null-bearing block must aggregate to ONE row, not two partial rows."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    t1 = pa.table({"k": pa.array([5, 5, 7], type=pa.int64()), "v": [1, 1, 1]})
    t2 = pa.table({"k": pa.array([5, None], type=pa.int64()), "v": [1, 1]})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))

    def count(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("k", as_index=False, dropna=False)["v"].sum()
        return g

    out = (
        partition_map_groups(ds, ["k"], count, num_partitions=16)
        .to_pandas()
        .groupby("k", as_index=False, dropna=False)["v"]
        .agg(list)
    )
    five = out[out["k"] == 5]["v"].iloc[0]
    assert five == [3], f"key 5 split across partitions: {five}"


def test_cogroup_empty_sides_reach_fn_typed(ray_session):
    """A zero-block side must reach fn as a typed EMPTY frame — never the
    other side's rows (left) or an IndexError (right)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    data = rd.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()), "v": [10, 20]}))
    empty = rd.from_arrow(
        pa.table({"k": pa.array([], type=pa.int64()), "w": pa.array([], type=pa.int64())})
    ).filter(lambda r: False)

    seen = []

    def probe(l_pdf: pd.DataFrame, r_pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_left": [len(l_pdf)],
                "n_right": [len(r_pdf)],
                "left_cols": [",".join(sorted(l_pdf.columns))],
                "right_cols": [",".join(sorted(r_pdf.columns))],
            }
        )

    out = hash_exchange_cogroup(empty, data, ["k"], ["k"], probe, 4).to_pandas()
    assert out["n_left"].sum() == 0 and out["n_right"].sum() == 2
    # fn must never see the RIGHT side's rows/columns as its left frame
    assert all("v" not in c for c in out["left_cols"])

    out2 = hash_exchange_cogroup(data, empty, ["k"], ["k"], probe, 4).to_pandas()
    assert out2["n_left"].sum() == 2 and out2["n_right"].sum() == 0

    # a zero-REF side (materialized empty) arrives as a TYPED empty frame
    empty_mat = rd.from_arrow(
        pa.table({"k": pa.array([], type=pa.int64()), "w": pa.array([], type=pa.int64())})
    )
    out3 = hash_exchange_cogroup(empty_mat, data, ["k"], ["k"], probe, 4).to_pandas()
    assert out3["n_left"].sum() == 0 and out3["n_right"].sum() == 2


def test_chained_validates_partition_counts(ray_session):
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained

    ds = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64())}))
    ident = lambda pdf: pdf
    with pytest.raises(ValueError, match="partition counts"):
        hash_exchange_chained(ds, ["k"], ident, 0, ["k"], ident, 4)


def test_exchange_survives_worker_death(ray_session, tmp_path):
    """Ray retries a task whose WORKER dies (os._exit — not an app
    exception); the exchange must deliver the complete, correct result
    after the retry. This is the fault-tolerance story for a 100 TB run:
    any partition task can be re-executed from its input refs."""
    import os

    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    sentinel = str(tmp_path / "died_once")

    df = pd.DataFrame(
        {"k": np.arange(200, dtype=np.int64) % 10, "v": np.ones(200, dtype=np.int64)}
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        # first-ever partition task on this fixture dies mid-flight; the
        # sentinel file survives the worker, so the retry (and every other
        # task) proceeds
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as f:
                f.write("x")
            os._exit(1)
        if len(pdf) == 0:
            return pd.DataFrame(
                {"k": pd.Series([], dtype="int64"), "n": pd.Series([], dtype="int64")}
            )
        g = pdf.groupby("k", as_index=False)["v"].sum().rename(columns={"v": "n"})
        return g.astype({"k": np.int64, "n": np.int64})

    out = (
        hash_exchange_map_groups(rd.from_pandas(df).repartition(4), ["k"], fold)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == list(range(10))
    assert out["n"].tolist() == [20] * 10
    assert os.path.exists(sentinel)


def test_split_groups_follow_the_rows():
    """A small input runs one split task at any CPU count; an sf0.1-sized
    one keeps the ``max(8, cpus)`` groups of equal block counts."""
    from entity_resolution_engine_ray.stages.exchange import _coalesce_refs

    refs = list(range(8))
    for cpus in (1, 4, 32):
        assert _coalesce_refs(refs, [250] * 8, cpus) == [refs]
    refs = list(range(40))
    for cpus in (1, 4):
        assert _coalesce_refs(refs, [2_500] * 40, cpus) == [refs[i : i + 5] for i in range(0, 40, 5)]
    # row counts unknown: the block-count rule
    assert _coalesce_refs(list(range(8)), None, 1) == [[i] for i in range(8)]
    # no rows at all: one group
    assert _coalesce_refs([0, 1, 2], [0, 0, 0], 4) == [[0, 1, 2]]


@pytest.mark.parametrize("seed", range(20))
def test_split_groups_hold_the_row_floor_plus_one_block(seed):
    """Groups are contiguous and in order; when the rows cut the group
    count, each group holds at most ``SPLIT_GROUP_ROWS`` rows plus one
    block, else the groups are the block-count rule's."""
    from entity_resolution_engine_ray.stages.exchange import SPLIT_GROUP_ROWS, _coalesce_refs

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6_000, int(rng.integers(1, 60))).tolist()
    cpus = int(rng.integers(1, 33))
    n = len(rows)
    groups = _coalesce_refs(list(range(n)), rows, cpus)
    assert [i for g in groups for i in g] == list(range(n))
    assert all(groups)
    most = min(n, max(8, cpus))
    by_rows = max(1, -(-sum(rows) // SPLIT_GROUP_ROWS))
    if by_rows < most:
        assert len(groups) <= by_rows
        assert max(sum(rows[i] for i in g) for g in groups) <= SPLIT_GROUP_ROWS + max(rows)
    else:
        assert groups == _coalesce_refs(list(range(n)), None, cpus)
