"""The connected-components kernel (``stages/cluster.connected_roots``) and
its id → label lookup (``label_of``), pinned against the serial oracle's
union-find; the distributed labelprop path, which starts each node from its
root in its partition's own edges, must agree with the kernel."""

import numpy as np
import pyarrow as pa
import pytest

from entity_resolution_engine_ray.oracle.serial import UnionFind
from entity_resolution_engine_ray.stages.cluster import connected_roots, label_of

I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _oracle(src, dst) -> tuple[list[int], list[int]]:
    uf = UnionFind()
    for a, b in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        uf.union(a, b)
    nodes = sorted(uf.parent)
    return nodes, [uf.find(n) for n in nodes]


def _assert_matches_oracle(src, dst):
    nodes, roots = connected_roots(src, dst)
    assert nodes.dtype == np.int64 and roots.dtype == np.int64
    want_nodes, want_roots = _oracle(src, dst)
    assert nodes.tolist() == want_nodes
    assert roots.tolist() == want_roots


def _random_graph(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    ids = rng.integers(I64_MIN, I64_MAX, n, dtype=np.int64, endpoint=True)
    m = int(rng.integers(1, 2 * n))
    return ids[rng.integers(0, n, m)], ids[rng.integers(0, n, m)]


@pytest.mark.parametrize("seed", range(8))
def test_connected_roots_random_graphs(seed):
    _assert_matches_oracle(*_random_graph(seed))


def test_connected_roots_shuffled_chain():
    rng = np.random.default_rng(3)
    ids = rng.permutation(np.arange(200, dtype=np.int64) * 7 - 500)
    order = rng.permutation(199)
    src, dst = ids[:-1][order], ids[1:][order]
    _assert_matches_oracle(src, dst)
    nodes, roots = connected_roots(src, dst)
    assert len(nodes) == 200 and (roots == ids.min()).all()


def test_connected_roots_star_duplicates_and_self_loops():
    hub = np.int64(50)
    leaves = np.arange(100, dtype=np.int64)
    leaves = leaves[leaves != hub]
    # star around a middle id, every spoke twice in both orientations
    src = np.r_[np.full(len(leaves), hub), leaves, np.full(len(leaves), hub)]
    dst = np.r_[leaves, np.full(len(leaves), hub), leaves]
    _assert_matches_oracle(src, dst)
    # self-loops: a looped node is its own component, a loop on a
    # connected node changes nothing
    src = np.array([7, 7, 3, 3, 9], dtype=np.int64)
    dst = np.array([7, 7, 4, 3, 4], dtype=np.int64)
    _assert_matches_oracle(src, dst)
    nodes, roots = connected_roots(src, dst)
    assert dict(zip(nodes.tolist(), roots.tolist())) == {3: 3, 4: 3, 7: 7, 9: 3}


def test_connected_roots_full_range_negative_ids():
    src = np.array([I64_MAX, -1, I64_MIN + 1, 0, I64_MAX - 1], dtype=np.int64)
    dst = np.array([-1, I64_MIN, 5, I64_MAX - 1, 6], dtype=np.int64)
    _assert_matches_oracle(src, dst)
    nodes, roots = connected_roots(src, dst)
    # exact int64 roots: no float detour near the range ends
    assert label_of(nodes, roots, [I64_MAX]).tolist() == [I64_MIN]


def test_connected_roots_empty():
    nodes, roots = connected_roots(np.empty(0, np.int64), np.empty(0, np.int64))
    assert nodes.dtype == np.int64 and roots.dtype == np.int64
    assert len(nodes) == 0 and len(roots) == 0


def test_label_of_absent_ids_and_empty_nodes():
    nodes, roots = connected_roots([10, 30], [20, 40])
    ids = [40, 5, 20, 35, I64_MAX, I64_MIN]
    # absent ids (below, between and above every node) are their own root
    assert label_of(nodes, roots, ids).tolist() == [30, 5, 10, 35, I64_MAX, I64_MIN]
    assert label_of(nodes, roots, [30, 99], default=-1).tolist() == [30, -1]
    empty = np.empty(0, np.int64)
    assert label_of(empty, empty, [3, -4]).tolist() == [3, -4]
    assert label_of(empty, empty, empty).tolist() == []


def _labelprop(src, dst, num_partitions):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.cluster import (
        connected_components_labelprop_ids,
    )

    edges = rd.from_arrow(
        pa.table({"left_id": pa.array(src, pa.int64()), "right_id": pa.array(dst, pa.int64())})
    )
    return connected_components_labelprop_ids(
        edges, num_partitions=num_partitions
    ).to_pandas().sort_values("node")


def _assert_labelprop_matches_kernel(src, dst, num_partitions):
    got = _labelprop(src, dst, num_partitions)
    nodes, roots = connected_roots(src, dst)
    assert got["node"].tolist() == nodes.tolist()
    assert got["cluster_label"].tolist() == roots.tolist()


@pytest.mark.parametrize("num_partitions", [1, 4])
def test_labelprop_agrees_with_kernel(ray_session, num_partitions):
    for seed in range(3):
        _assert_labelprop_matches_kernel(*_random_graph(seed), num_partitions)


def _chained_graph(seed: int):
    """Full-range int64 ids in a few long shuffled chains with random
    chords: components that span every partition, so the local starting
    roots differ from the global ones."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(I64_MIN, I64_MAX, 600, dtype=np.int64, endpoint=True)
    src, dst = [], []
    for chain in np.array_split(rng.permutation(ids), 3):
        src.append(chain[:-1])
        dst.append(chain[1:])
    chords = rng.integers(0, len(ids), (2, 40))
    src.append(ids[chords[0]])
    dst.append(ids[chords[1]])
    order = rng.permutation(sum(len(s) for s in src))
    return np.concatenate(src)[order], np.concatenate(dst)[order]


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
def test_labelprop_local_start_matches_kernel(ray_session, num_partitions):
    for seed in range(10, 13):
        _assert_labelprop_matches_kernel(*_random_graph(seed), num_partitions)
        _assert_labelprop_matches_kernel(*_chained_graph(seed), num_partitions)


def test_labelprop_one_partition_runs_no_round(ray_session, monkeypatch):
    """One partition holds every edge, so its local roots are the component
    minima: labelprop returns them with no refine wave."""
    from entity_resolution_engine_ray.stages import cluster

    waves = {"refines": 0}
    refine = cluster._lp_refine

    class CountingRefine:
        @staticmethod
        def remote(*args):
            waves["refines"] += 1
            return refine.remote(*args)

    monkeypatch.setattr(cluster, "_lp_refine", CountingRefine)
    _assert_labelprop_matches_kernel(*_chained_graph(20), 1)
    assert waves["refines"] == 0, waves


@pytest.mark.parametrize(
    "n_directed_rows, width",
    [
        # up to the 2M-row target: one partition at any CPU count
        (0, 1), (15_900, 1), (2_000_000, 1),
        # above it: auto_partitions' 1.5×CPU floor, one partition per 2M
        # rows past that, capped at 1,024
        (2_000_001, 6), (20_000_000, 11), (4_000_000_000, 1024),
    ],
)
def test_lp_partitions_one_up_to_the_row_target(n_directed_rows, width):
    from entity_resolution_engine_ray.stages.cluster import _lp_partitions

    assert _lp_partitions(n_directed_rows, cpus=4) == width
