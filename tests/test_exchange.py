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


# ---- the width-1 rule: at one partition over one split group the reduce
# task maps the raw blocks itself; every entry point gives the same rows at
# width 1 (no split task) and width 2 (split tasks)

_MAPPED = pa.schema([("k", pa.int64()), ("v", pa.int64()), ("n_toks", pa.int64())])


def _rows_table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    toks = [rng.integers(0, 50, int(rng.integers(0, 4))).tolist() for _ in range(n)]
    return pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
            "toks": pa.array(toks, pa.list_(pa.int64())),
        }
    )


def _keep_odd(t: pa.Table) -> pa.Table:
    """Map side: the rows with an odd ``v``, their token-list length in
    place of the list; typed even for a column-less block."""
    import pyarrow.compute as pc

    if t.num_columns == 0:
        return _MAPPED.empty_table()
    t = t.filter(pc.equal(pc.bit_wise_and(t["v"], 1), 1))
    n_toks = pc.cast(pc.list_value_length(t["toks"]), pa.int64())
    return pa.table({"k": t["k"], "v": t["v"], "n_toks": n_toks}, schema=_MAPPED)


def _sum_by_k(t: pa.Table) -> pa.Table:
    g = t.group_by("k").aggregate([("v", "sum"), ("n_toks", "sum")])
    return g.select(["k", "v_sum", "n_toks_sum"])


def _sum_by_k_counted(t: pa.Table):
    return _sum_by_k(t), {"rows": t.num_rows}


def _max_by_k(t: pa.Table) -> pa.Table:
    g = t.group_by("k").aggregate([("v_sum", "max"), ("n_toks_sum", "sum")])
    return g.select(["k", "v_sum_max", "n_toks_sum_sum"])


def _sum_by_k_pandas(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.groupby("k", as_index=False)[["v", "n_toks"]].sum().astype(np.int64)


def _sum_by_k_counted_pandas(pdf: pd.DataFrame):
    """``_sum_by_k_counted`` on a pandas frame, with its column names."""
    out = pdf.groupby("k", as_index=False).agg(v_sum=("v", "sum"), n_toks_sum=("n_toks", "sum"))
    return out.astype(np.int64), {"rows": len(pdf)}


def _max_by_k_pandas(pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.groupby("k", as_index=False).agg(
        v_sum_max=("v_sum", "max"), n_toks_sum_sum=("n_toks_sum", "sum")
    )
    return out.astype(np.int64)


def _sorted_rows(tbl: pa.Table) -> pd.DataFrame:
    pdf = tbl.to_pandas()
    return pdf.sort_values(list(pdf.columns), kind="mergesort").reset_index(drop=True)


def _collect(data) -> pa.Table:
    import ray

    from entity_resolution_engine_ray.stages.exchange import _ensure_table, as_blocks

    tbls = [_ensure_table(t) for t in ray.get(list(as_blocks(data).refs))]
    return pa.concat_tables(tbls, promote_options="default")


def _two_blocks(tbl: pa.Table):
    """``tbl`` as Blocks of two blocks: one split group below 10k rows."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import Blocks

    half = tbl.num_rows // 2
    parts = (tbl.slice(0, half), tbl.slice(half))
    return Blocks(tuple(ray.put(p) for p in parts), tuple(p.num_rows for p in parts))


@pytest.mark.parametrize("num_partitions", [1, 2])
@pytest.mark.parametrize("arrow_fns", [True, False])
def test_map_groups_with_block_fn_at_each_width(ray_session, num_partitions, arrow_fns):
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    tbl = _rows_table(3_000, seed=1)
    fn = _sum_by_k if arrow_fns else _sum_by_k_pandas
    out = hash_exchange_map_groups(
        _two_blocks(tbl), ["k"], fn, num_partitions, arrow_fns=arrow_fns, block_fn=_keep_odd
    )
    want = _sum_by_k(_keep_odd(tbl))
    if not arrow_fns:
        want = want.rename_columns(["k", "v", "n_toks"])
    pd.testing.assert_frame_equal(_sorted_rows(_collect(out)), _sorted_rows(want))


@pytest.mark.parametrize("num_partitions", [1, 2])
@pytest.mark.parametrize("arrow_fns", [True, False])
def test_chained_with_block_fn_and_fold_in_at_each_width(ray_session, num_partitions, arrow_fns):
    """At width 1 one task runs both stages (``_reduce_chained``)."""
    from entity_resolution_engine_ray.stages.exchange import Blocks, hash_exchange_chained

    tbl = _rows_table(3_000, seed=2)
    old = _sum_by_k(_keep_odd(_rows_table(500, seed=3)))
    fn1, fn2 = (
        (_sum_by_k_counted, _max_by_k) if arrow_fns else (_sum_by_k_counted_pandas, _max_by_k_pandas)
    )
    out, totals = hash_exchange_chained(
        _two_blocks(tbl), ["k"], fn1, num_partitions, ["k"], fn2, num_partitions,
        arrow_fns=arrow_fns, block_fn=_keep_odd, fold_in=Blocks.of(old),
    )
    mapped = _keep_odd(tbl)
    want = _max_by_k(pa.concat_tables([_sum_by_k(mapped), old]))
    pd.testing.assert_frame_equal(_sorted_rows(_collect(out)), _sorted_rows(want))
    assert totals == {"rows": mapped.num_rows}


@pytest.mark.parametrize("num_partitions", [1, 2])
def test_cogroup_with_each_sides_block_fn_at_each_width(ray_session, num_partitions):
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    left, right = _rows_table(2_000, seed=4), _rows_table(1_500, seed=5)

    def doubled(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"k": t["k"], "w": pc.multiply(t["v"], 2)})

    def joined(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        return lpdf.merge(rpdf, on="k")[["k", "v", "n_toks", "w"]]

    out = hash_exchange_cogroup(
        _two_blocks(left), _two_blocks(right), ["k"], ["k"], joined, num_partitions,
        left_block_fn=_keep_odd, right_block_fn=doubled,
    )
    want = joined(_keep_odd(left).to_pandas(), doubled(right).to_pandas())
    pd.testing.assert_frame_equal(
        _sorted_rows(_collect(out)), _sorted_rows(pa.Table.from_pandas(want, preserve_index=False))
    )


@pytest.mark.parametrize("num_partitions", [1, 2])
def test_partition_refs_with_block_fn_at_each_width(ray_session, num_partitions):
    import ray

    from entity_resolution_engine_ray.stages.exchange import exchange_partition_refs

    tbl = _rows_table(3_000, seed=6)
    refs = exchange_partition_refs(_two_blocks(tbl), ["k"], num_partitions, block_fn=_keep_odd)
    assert len(refs) == num_partitions
    parts = ray.get(refs)
    if num_partitions == 1:
        # the one partition holds the mapped rows in input order
        assert parts[0].equals(_keep_odd(tbl))
    got = pa.concat_tables(parts)
    pd.testing.assert_frame_equal(_sorted_rows(got), _sorted_rows(_keep_odd(tbl)))


def _labeled_table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    langs = np.array(["en", "de", None], dtype=object)[rng.integers(0, 3, n)]
    return pa.table(
        {
            "url": pa.array([f"https://x{i}.example/p{seed}" for i in range(n)]),
            "warc_ts": pa.array(rng.integers(0, 10**15, n), pa.timestamp("us")),
            "lang": pa.array(langs.tolist(), pa.string()),
            "title_norm": pa.array([f"t{i % 17}" for i in range(n)]),
            "cluster_label": pa.array(rng.integers(0, n // 4, n), pa.int64()),
        }
    )


@pytest.mark.parametrize("num_partitions", [1, 2])
def test_merge_labeled_at_each_width(ray_session, num_partitions):
    from entity_resolution_engine_ray.stages.merge import merge_labeled, merge_partition

    tbl = _labeled_table(1_200, seed=7)
    entities, lineage = merge_labeled(_two_blocks(tbl), num_partitions)
    want_e, want_l = merge_partition(tbl)
    for got, want in ((entities, want_e), (lineage, want_l)):
        got = _collect(got)
        assert got.schema.equals(want.schema)
        pd.testing.assert_frame_equal(_sorted_rows(got), _sorted_rows(want))


@pytest.mark.parametrize("num_partitions", [1, 2])
def test_pandas_block_dataset_at_each_width(ray_session, num_partitions):
    """A ``from_pandas`` Dataset hands over pandas blocks: at width 1 they
    reach the reduce raw and become tables there, through a block fn or
    none."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.exchange import (
        hash_exchange_chained,
        hash_exchange_map_groups,
    )
    from entity_resolution_engine_ray.stages.merge import merge_labeled, merge_partition

    # pandas list columns come back as Ray tensors: count the tokens first
    tbl = _keep_odd(_rows_table(2_000, seed=8))
    ds = rd.from_pandas([tbl.slice(0, 900).to_pandas(), tbl.slice(900).to_pandas()])

    def odd_n_toks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(pc.bit_wise_and(t["n_toks"], 1), 1))

    assert 0 < odd_n_toks(tbl).num_rows < tbl.num_rows
    want = _sorted_rows(_sum_by_k(odd_n_toks(tbl)))
    out = hash_exchange_map_groups(ds, ["k"], _sum_by_k, num_partitions, True, odd_n_toks)
    pd.testing.assert_frame_equal(_sorted_rows(_collect(out)), want)
    out, _ = hash_exchange_chained(
        ds, ["k"], _sum_by_k_counted, num_partitions, ["k"], _max_by_k, num_partitions,
        arrow_fns=True, block_fn=odd_n_toks,
    )
    want2 = _sorted_rows(_max_by_k(_sum_by_k(odd_n_toks(tbl))))
    pd.testing.assert_frame_equal(_sorted_rows(_collect(out)), want2)
    # no block fn: the merge reduce converts the raw pandas blocks itself
    labeled = _labeled_table(600, seed=9)
    lds = rd.from_pandas([labeled.slice(0, 300).to_pandas(), labeled.slice(300).to_pandas()])
    entities, _ = merge_labeled(lds, num_partitions)
    want_e, _ = merge_partition(_collect(lds))
    pd.testing.assert_frame_equal(_sorted_rows(_collect(entities)), _sorted_rows(want_e))


@pytest.mark.parametrize("num_partitions", [1, 2])
def test_zero_row_and_column_less_input_reach_fn_typed_at_each_width(ray_session, num_partitions):
    """A typed zero-row block and a column-less one reach the reduce's fn
    exactly as a split task would hand them over: typed through the block
    fn, column-less without one."""
    from entity_resolution_engine_ray.stages.exchange import (
        Blocks,
        hash_exchange_chained,
        hash_exchange_cogroup,
        hash_exchange_map_groups,
    )

    def probe(t: pa.Table) -> pa.Table:
        return pa.table({"n": [t.num_rows], "cols": [",".join(t.column_names)]})

    def seen(out) -> set:
        t = _collect(out)
        assert sum(t["n"].to_pylist()) == 0
        return set(t["cols"].to_pylist())

    typed = Blocks.of(_rows_table(0, seed=0))
    bare = Blocks.of(pa.table({}))
    for data in (typed, bare):
        assert seen(hash_exchange_map_groups(data, ["k"], probe, num_partitions, True, _keep_odd)) == {
            "k,v,n_toks"
        }
        out, totals = hash_exchange_chained(
            data, ["k"], lambda t: (probe(t), {"rows": t.num_rows}), num_partitions,
            ["n"], lambda t: t, 1, arrow_fns=True, block_fn=_keep_odd,
        )
        assert seen(out) == {"k,v,n_toks"} and totals == {"rows": 0}
    assert seen(hash_exchange_map_groups(typed, ["k"], probe, num_partitions, True)) == {"k,v,toks"}
    assert seen(hash_exchange_map_groups(bare, ["k"], probe, num_partitions, True)) == {""}

    def sides(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": [len(lpdf) + len(rpdf)], "cols": [",".join([*lpdf.columns, "|", *rpdf.columns])]}
        )

    out = hash_exchange_cogroup(
        bare, typed, ["k"], ["k"], sides, num_partitions, left_block_fn=_keep_odd
    )
    assert seen(out) == {"k,v,n_toks,|,k,v,toks"}


def test_width_one_submits_no_split_task(ray_session):
    """One partition fed by one split group: no ``_split_block`` task at any
    entry point, and one reduce task each (the chained exchange's two
    stages share one, ``_reduce_chained``); at width 2 the splits run."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import (
        Blocks,
        exchange_partition_refs,
        hash_exchange_chained,
        hash_exchange_cogroup,
        hash_exchange_map_groups,
    )
    from entity_resolution_engine_ray.stages.merge import merge_labeled
    from tests.conftest import count_tasks

    data = _two_blocks(_rows_table(3_000, seed=10))
    labeled = _two_blocks(_labeled_table(400, seed=11))
    old = Blocks.of(_sum_by_k(_keep_odd(_rows_table(100, seed=12))))

    def calls(p: int) -> None:
        hash_exchange_map_groups(data, ["k"], _sum_by_k, p, True, _keep_odd)
        hash_exchange_chained(
            data, ["k"], _sum_by_k_counted, p, ["k"], _max_by_k, p,
            arrow_fns=True, block_fn=_keep_odd, fold_in=old,
        )
        hash_exchange_cogroup(
            data, data, ["k"], ["k"], lambda l, r: l.head(0), p,
            left_block_fn=_keep_odd, right_block_fn=_keep_odd,
        )
        ray.get(exchange_partition_refs(data, ["k"], p, block_fn=_keep_odd))
        merge_labeled(labeled, p)

    with count_tasks() as one:
        calls(1)
    assert one["by_name"]["_split_block"] == 0, dict(one["by_name"])
    assert dict(one["by_name"]) == {
        "_reduce_partition_arrow": 1,
        "_reduce_chained": 1,
        "_reduce_cogroup": 1,
        "_concat_parts": 1,
        "_merge_reduce": 1,
    }
    with count_tasks() as two:
        calls(2)
    # map_groups 1, chained 1 + 1 per stage-1 reduce + 1 fold_in, cogroup 2,
    # partition refs 1, merge 1
    assert two["by_name"]["_split_block"] == 9, dict(two["by_name"])
    assert two["by_name"]["_reduce_chained"] == 0, dict(two["by_name"])


def test_cpus_read_once_pins_the_count_for_the_call(ray_session, monkeypatch):
    """Inside ``cpus_read_once`` every ``cluster_cpus()`` is the one reading
    taken on entry; outside it each call reads the cluster again, and
    before ``ray.init`` nothing is pinned."""
    import ray

    from entity_resolution_engine_ray.stages import exchange

    reads = {"n": 0}
    resources = ray.cluster_resources

    def counting():
        reads["n"] += 1
        return resources()

    monkeypatch.setattr(ray, "cluster_resources", counting)
    with exchange.cpus_read_once():
        got = {exchange.cluster_cpus() for _ in range(5)}
        with exchange.cpus_read_once():
            got.add(exchange.cluster_cpus())
    assert got == {4} and reads["n"] == 1
    exchange.cluster_cpus()
    exchange.cluster_cpus()
    assert reads["n"] == 3
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    with exchange.cpus_read_once():
        assert exchange._CALL_CPUS.get() is None and exchange.cluster_cpus() == 8
