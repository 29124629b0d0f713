"""SimHash near-dup pairs vs an exhaustive all-pairs brute force.

The banded hamming-LSH is pigeonhole-complete (B = max_hamming+1 bands ⇒ a
qualifying pair agrees exactly on >=1 band), so the distributed operator
must emit EXACTLY the brute-force pair set — same pairs, same hamming
distances — for any max_hamming in range."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from entity_resolution_engine_ray.functions.similarity import hash_tokens, simhash64
from entity_resolution_engine_ray.oracle.serial import canonical_tokens


def _docs(n_base=120, seed=5):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    rows = []
    doc_id = 0
    for _ in range(n_base):
        words = list(rng.choice(vocab, size=rng.integers(20, 60)))
        rows.append((doc_id, " ".join(words)))
        doc_id += 1
        # near-dup: replace a couple of words (small fingerprint perturbation)
        if rng.random() < 0.5:
            mutated = list(words)
            for j in rng.integers(0, len(mutated), size=2):
                mutated[j] = str(rng.choice(vocab))
            rows.append((doc_id, " ".join(mutated)))
            doc_id += 1
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def _brute_force(df, max_hamming):
    cache: dict[str, int] = {}
    fps = np.array(
        [simhash64(hash_tokens(canonical_tokens(t), cache)) for t in df["text"]],
        dtype=np.int64,
    ).view(np.uint64)
    ids = df["doc_id"].to_numpy()
    ii, jj = np.triu_indices(len(ids), k=1)
    x = np.bitwise_xor(fps[ii], fps[jj])
    h = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
    keep = h <= max_hamming
    return pd.DataFrame(
        {
            "left_id": ids[ii[keep]],
            "right_id": ids[jj[keep]],
            "hamming": h[keep].astype(np.int64),
        }
    )


@pytest.mark.parametrize("max_hamming", [0, 3, 6])
def test_simhash_pairs_exact_brute_force_parity(ray_session, max_hamming):
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import simhash_near_dup_pairs

    df = _docs()
    got_ds = simhash_near_dup_pairs(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
        max_hamming=max_hamming,
        num_partitions=8,
    )
    got = got_ds.to_pandas()
    if got.shape[1] == 0:  # Ray to_pandas drops columns when every block is 0-row
        got = pa.schema(got_ds.schema().base_schema).empty_table().to_pandas()
    want = _brute_force(df, max_hamming)
    assert len(want) > 0 or max_hamming == 0  # fixture produces close pairs
    key = ["left_id", "right_id"]
    got_s = got.sort_values(key, kind="mergesort").reset_index(drop=True)
    want_s = want.sort_values(key, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s[["left_id", "right_id", "hamming"]], want_s)


def test_simhash_pairs_max_hamming_guard(ray_session):
    from entity_resolution_engine_ray.stages.dedup import simhash_near_dup_pairs

    with pytest.raises(ValueError):
        simhash_near_dup_pairs(None, max_hamming=8)


def test_cross_verify_partition_caps_and_counts():
    """_cross_verify_partition: only new x old pairs form; per-side cap
    counts dropped pairs out of band of the rows, also when no row
    survives; ids are never sentinels (negative ids are legal)."""
    import numpy as np
    import pyarrow as pa

    from entity_resolution_engine_ray.stages.dedup import _cross_verify_partition

    toks = [[1, 2, 3], [1, 2, 3], [1, 2, 3], [9, 10, 11]]
    tbl = pa.table(
        {
            "block_key": pa.array([7, 7, 7, 7], type=pa.int64()),
            "id": pa.array([-5, -6, 100, 101], type=pa.int64()),
            "token_ids": pa.array(toks, type=pa.list_(pa.int64())),
            "side": pa.array([1, 1, 0, 0], type=pa.int64()),
        }
    )
    out, counts = _cross_verify_partition(tbl, cap=256, threshold=0.7)
    pairs = set(zip(out["left_id"].to_pylist(), out["right_id"].to_pylist()))
    # new {-5,-6} x old {100}: identical token sets pass; old 101 disjoint
    assert pairs == {(-5, 100), (-6, 100)}
    assert counts == {"dropped": 0}

    # cap=1 keeps 1x1 of the 2x2 cross product -> 3 dropped, counted
    _, counts2 = _cross_verify_partition(tbl, cap=1, threshold=0.7)
    assert counts2 == {"dropped": 3}

    # nothing clears the threshold but drops occurred -> no row, count kept
    out3, counts3 = _cross_verify_partition(tbl, cap=1, threshold=1.1)
    assert out3.num_rows == 0
    assert out3.schema.names == ["left_id", "right_id", "jaccard"]
    assert counts3 == {"dropped": 3}


def test_hot_key_cluster_not_fragmented_by_salting(ray_session):
    """A hot bucket far over the cap must still resolve to ONE cluster:
    avalanche-mixed salts split it along DIFFERENT lines per band, so
    cross-sub-block members meet on some band. Regression for the XOR
    salting bug (each band partitioned a hot cluster identically -> 400
    identical docs froze into n_splits disjoint clusters)."""
    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.functions.similarity import shingle_hashes
    from entity_resolution_engine_ray.stages.dedup import minhash_near_dup_clusters, near_dup_edges

    texts = ["identical hot document body with enough tokens to shingle properly"] * 400
    texts += [f"unique filler doc {i} distinct words {i * 7} {i * 13} isolated" for i in range(50)]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": texts}
    )
    out = minhash_near_dup_clusters(rd.from_arrow(tbl), max_block_size=64).to_pandas()
    sizes = out.groupby("cluster_id").size().sort_values(ascending=False)
    assert sizes.iloc[0] == 400  # the hot set is one component
    assert len(out) == 450

    # the same salted path at the edge level: the blocked-pair driver's
    # edges and dropped count do not depend on the exchange width, and
    # every edge carries the exact Jaccard of the scalar shingle-id path
    threshold = 0.7
    runs = []
    for parts in (1, 7):
        edges, dropped = near_dup_edges(
            rd.from_arrow(tbl), threshold=threshold, max_block_size=64, num_partitions=parts
        )
        pdf = edges.to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
        runs.append((pdf, dropped))
    (a, da), (b, db) = runs
    pd.testing.assert_frame_equal(a, b)
    assert da == db
    assert len(a) > 0 and (a["jaccard"] >= threshold).all()

    def shingle_ids(text: str) -> frozenset:
        sh = shingle_hashes(hash_tokens(canonical_tokens(text), None), k=3)
        return frozenset(np.sort(np.unique(sh).view(np.int64)).tolist())

    sets = [shingle_ids(t) for t in texts]
    for left, right, jac in zip(a["left_id"], a["right_id"], a["jaccard"]):
        x, y = sets[left], sets[right]
        assert jac == len(x & y) / len(x | y), (left, right)


def test_cross_corpus_near_dup_partition_invariant(ray_session):
    """cross_corpus_near_dup_pairs must emit the same edge set at any
    partition count (hash exchange width is an execution knob, not a
    semantic one)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import cross_corpus_near_dup_pairs

    base = "the quick brown fox jumps over the lazy dog again and again today"
    new_texts = [base + " extra", "a fully unrelated new document body here"]
    old_texts = [base, base.replace("quick", "swift"), "other old content entirely"]
    new_ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([100, 101], type=pa.int64()), "text": new_texts})
    )
    old_ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()), "text": old_texts})
    )

    def run(parts):
        edges, dropped = cross_corpus_near_dup_pairs(
            new_ds, old_ds, threshold=0.5, num_partitions=parts
        )
        pdf = edges.to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
        return pdf, dropped

    a, da = run(4)
    b, db = run(32)
    pd.testing.assert_frame_equal(a, b)
    assert da == db == 0
    # the near-dup of base must match BOTH old variants; left side is new
    assert set(a["left_id"]) == {100}
    assert set(a["right_id"]) >= {1, 2}
