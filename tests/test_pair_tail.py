"""The shared candidate → verify → dedup tail of the blocked-pair operators.

Every operator runs its per-block explode inside the split tasks of one
chained exchange (stages/exchange.hash_exchange_chained) and gets its
dropped count back out of band of the rows, so a call on materialized input
starts no Ray Data execution beyond featurization, and a corpus whose every
candidate is capped away still returns a typed empty output and its count.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import count_executions

SF_DIR = "/root/testdata/sf0.01"

# Ray Data executions per call on materialized input: the featurize pass;
# cosine has none (its SRP signatures run in the split tasks, the vector
# width is read by one task and the cogroup path's normalize is one task
# per block), on either verify path
EXECUTIONS_PER_CALL = {
    "containment_self_join": 1,
    "cosine_near_dup_pairs": 0,
    "cosine_near_dup_pairs_cogroup": 0,
    "cross_corpus_near_dup_pairs": 1,
    "near_dup_clusters_labelprop": 1,
    "near_dup_edges": 1,
    "prefix_jaccard_self_join": 1,
}
OPS = sorted(EXECUTIONS_PER_CALL)

_PAIRS = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])
_JACCARD = _PAIRS.append(pa.field("jaccard", pa.float64()))
_CONTAINMENT = pa.schema(
    [("src_id", pa.int64()), ("dst_id", pa.int64()), ("containment", pa.float64())]
)


def _schema(ds) -> pa.Schema:
    sch = ds.schema()
    return getattr(sch, "base_schema", sch)


@pytest.fixture(scope="module")
def sf_inputs(ray_session):
    import ray.data as rd

    if not os.path.isdir(SF_DIR):
        pytest.skip("sf0.01 testdata not present")
    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    half = docs.num_rows // 2
    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    return {
        "docs": rd.from_arrow(docs).materialize(),
        "new": rd.from_arrow(docs.slice(0, half)).materialize(),
        "old": rd.from_arrow(docs.slice(half)).materialize(),
        "emb": rd.from_arrow(emb).materialize(),
    }


@pytest.mark.parametrize("op", OPS)
def test_executions_per_call(sf_inputs, op):
    from entity_resolution_engine_ray.stages.containment import containment_self_join
    from entity_resolution_engine_ray.stages.dedup import (
        cross_corpus_near_dup_pairs,
        near_dup_clusters,
        near_dup_edges,
        prefix_jaccard_self_join,
    )
    from entity_resolution_engine_ray.stages.knn import cosine_near_dup_pairs

    calls = {
        "near_dup_edges": lambda: near_dup_edges(sf_inputs["docs"]),
        "prefix_jaccard_self_join": lambda: prefix_jaccard_self_join(sf_inputs["docs"]),
        "cross_corpus_near_dup_pairs": lambda: cross_corpus_near_dup_pairs(
            sf_inputs["new"], sf_inputs["old"]
        ),
        "containment_self_join": lambda: containment_self_join(sf_inputs["docs"]),
        "cosine_near_dup_pairs": lambda: cosine_near_dup_pairs(
            sf_inputs["emb"], threshold=0.4, band_bits=4
        ),
        "cosine_near_dup_pairs_cogroup": lambda: cosine_near_dup_pairs(
            sf_inputs["emb"], threshold=0.4, band_bits=4, broadcast_limit_bytes=0
        ),
        # the distributed clustering path: labelprop + the attach exchange
        "near_dup_clusters_labelprop": lambda: near_dup_clusters(
            sf_inputs["docs"], local_cluster_edge_threshold=0
        ),
    }
    with count_executions() as n:
        out = calls[op]()
    assert n["n"] == EXECUTIONS_PER_CALL[op], n["n"]
    ds = out[0] if isinstance(out, tuple) else out
    assert ds.count() > 0


@pytest.fixture(scope="module")
def capped(ray_session):
    """Six identical docs: every LSH band and shingle is one six-member
    bucket."""
    import ray.data as rd

    text = "the quick brown fox jumps over the lazy dog again and again"
    tbl = pa.table({"doc_id": pa.array(range(1, 7), type=pa.int64()), "text": [text] * 6})
    return {
        "all": rd.from_arrow(tbl).materialize(),
        "new": rd.from_arrow(tbl.slice(0, 3)).materialize(),
        "old": rd.from_arrow(tbl.slice(3)).materialize(),
    }


def test_all_capped_near_dup_edges(capped):
    """Cap 1: every salted sub-bucket of two or more members loses all its
    pairs; no partition has a row, yet every drop is counted."""
    from entity_resolution_engine_ray.stages.dedup import near_dup_edges

    edges, dropped = near_dup_edges(capped["all"], max_block_size=1)
    assert edges.count() == 0
    assert _schema(edges).equals(_JACCARD)
    assert dropped == 53


def test_all_capped_cross_corpus(capped):
    """Cap 1 keeps one new x old pair per bucket; a threshold above 1 then
    rejects it, so only the capped pairs remain, counted."""
    from entity_resolution_engine_ray.stages.dedup import cross_corpus_near_dup_pairs

    edges, dropped = cross_corpus_near_dup_pairs(
        capped["new"], capped["old"], max_block_size=1, threshold=1.1
    )
    assert edges.count() == 0
    assert _schema(edges).equals(_JACCARD)
    assert dropped == 10


def test_all_capped_containment(capped):
    """Cap 0 keeps no dst member of any shingle group: 5 prefix shingles ×
    6 prefix rows × 6 lost dst rows."""
    from entity_resolution_engine_ray.stages.containment import containment_self_join

    edges, dropped = containment_self_join(capped["all"], threshold=0.8, max_block_size=0)
    assert edges.count() == 0
    assert _schema(edges).equals(_CONTAINMENT)
    assert dropped == 180
