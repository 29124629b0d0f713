"""Flat whole-batch featurization kernels == scalar per-doc kernels.

The FeatureExtractor's batch path (stages/block.py) computes MinHash /
SimHash / band keys / token ids with the similarity.*_flat segment kernels;
the serial oracle keeps the scalar per-doc kernels. These tests pin them
equal value-by-value so the distributed == serial parity contract can never
drift through the vectorization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.functions import similarity
from entity_resolution_engine_ray.functions.similarity import (
    hash_tokens,
    hash_tokens_flat,
    jaccard_ids,
    lsh_band_keys,
    lsh_band_keys_matrix,
    minhash_coefficients,
    minhash_signature,
    minhash_signatures_flat,
    shingle_hashes,
    shingle_hashes_flat,
    simhash64,
    simhash64_flat,
)


def _random_docs(seed: int, n_docs: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    vocab = [f"tok{i}" for i in range(200)]
    docs = []
    for _ in range(n_docs):
        ln = int(rng.integers(0, 30))
        docs.append([vocab[int(i)] for i in rng.integers(0, len(vocab), ln)])
    # force the edge shapes: zero-token docs (first, a run of two, last)
    # and docs below shingle k=3 (1 and 2 tokens, one of them last but one)
    docs[0] = []
    docs[1] = ["solo"]
    docs[2] = ["two", "tokens"]
    docs[3] = docs[4] = []
    docs[-2] = ["penultimate"]
    docs[-1] = []
    return docs


@pytest.mark.parametrize("seed", [0, 7])
def test_flat_kernels_match_scalar(seed):
    _check_flat_kernels(seed)


def test_flat_kernels_match_scalar_many_simhash_chunks(monkeypatch):
    monkeypatch.setattr(similarity, "_SIMHASH_DOC_CHUNK", 5)
    _check_flat_kernels(3)


def _check_flat_kernels(seed: int) -> None:
    """Every flat kernel == its scalar twin, doc by doc."""
    docs = _random_docs(seed, 64)
    counts = np.array([len(d) for d in docs], dtype=np.int64)
    offsets = np.r_[0, counts.cumsum()]
    flat_tokens = np.array([t for d in docs for t in d], dtype=object)

    flat_h = hash_tokens_flat(flat_tokens, cache={})
    per_doc_h = [hash_tokens(d, cache={}) for d in docs]
    assert np.array_equal(flat_h, np.concatenate([h for h in per_doc_h]) if per_doc_h else flat_h)

    k = 3
    flat_sh, sh_counts = shingle_hashes_flat(flat_h, offsets, k=k)
    sh_off = np.r_[0, sh_counts.cumsum()]
    a, b = minhash_coefficients(63)
    sigs = minhash_signatures_flat(flat_sh, sh_counts, a, b)
    bands = lsh_band_keys_matrix(sigs, 21)
    sims = simhash64_flat(flat_h, offsets)

    for i, th in enumerate(per_doc_h):
        sh = shingle_hashes(th, k=k)
        assert np.array_equal(flat_sh[sh_off[i] : sh_off[i + 1]], sh), f"doc {i} shingles"
        sig = minhash_signature(sh, a, b)
        assert np.array_equal(sigs[i], sig), f"doc {i} minhash"
        assert list(bands[i]) == lsh_band_keys(sig, 21), f"doc {i} bands"
        assert sims[i] == simhash64(th), f"doc {i} simhash"


def test_flat_kernels_zero_row_batch():
    """A zero-row batch gives zero-row outputs of the usual shapes."""
    empty = np.empty(0, dtype=np.uint64)
    offsets = np.zeros(1, dtype=np.int64)
    flat_sh, sh_counts = shingle_hashes_flat(empty, offsets, k=3)
    assert len(flat_sh) == 0 and len(sh_counts) == 0
    a, b = minhash_coefficients(63)
    sigs = minhash_signatures_flat(flat_sh, sh_counts, a, b)
    assert sigs.shape == (0, 63) and sigs.dtype == np.uint64
    assert lsh_band_keys_matrix(sigs, 21).shape == (0, 21)
    sims = simhash64_flat(empty, offsets)
    assert sims.shape == (0,) and sims.dtype == np.int64


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sorted_unique_lists_match_np_unique(dtype):
    """``sorted_unique_lists`` == ``np.unique`` per doc, over the dtype's
    extremes, negatives, duplicates and zero-value docs."""
    from entity_resolution_engine_ray.stages.block import sorted_unique_lists

    info = np.iinfo(dtype)
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 40, 200)
    counts[[0, 1, 77, -1]] = 0
    pool = np.r_[
        rng.integers(info.min, info.max, 300, dtype=dtype, endpoint=True), info.min, info.max, -1, 0, 1
    ]
    values = rng.choice(pool.astype(dtype), int(counts.sum()))
    out = sorted_unique_lists(values, counts, pa.from_numpy_dtype(dtype))
    assert out.type == pa.list_(pa.from_numpy_dtype(dtype))
    starts = np.r_[0, counts.cumsum()]
    assert len(out) == len(counts)
    for i in range(len(counts)):
        want = np.unique(values[starts[i] : starts[i + 1]]).tolist()
        assert out[i].values.to_pylist() == want, f"doc {i}"
    assert len(sorted_unique_lists(values[:0], counts[:0], pa.from_numpy_dtype(dtype))) == 0


def test_feature_extractor_matches_scalar_reference(ray_session):
    """End-to-end batch parity: the rewritten FeatureExtractor.__call__
    against a straight per-doc reimplementation of the original loop."""
    from entity_resolution_engine_ray.stages.block import FeatureExtractor
    from entity_resolution_engine_ray.oracle.serial import canonical_tokens

    cfg = PagesERConfig()
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "Gamma!", "delta", "x", "the", "quick", "brown"]
    texts = [
        " ".join(words[int(i)] for i in rng.integers(0, len(words), int(rng.integers(0, 40))))
        for _ in range(50)
    ]
    texts[0] = ""
    titles = [t[:20] for t in texts]
    batch = pa.table(
        {
            "url": [f"https://ex.com/{i}" for i in range(len(texts))],
            "warc_ts": pa.array([0] * len(texts), type=pa.timestamp("s")),
            "lang": ["en"] * len(texts),
            "text": texts,
            "title": titles,
        }
    )
    out = FeatureExtractor(cfg)(batch)

    coeffs = minhash_coefficients(cfg.num_perm)
    for i in range(len(texts)):
        toks = canonical_tokens(texts[i])
        th = hash_tokens(toks, None)
        sig = minhash_signature(shingle_hashes(th, k=cfg.shingle_k), *coeffs)
        assert out["token_ids"][i].as_py() == list(jaccard_ids(th))
        assert out["simhash"][i].as_py() == simhash64(th)
        assert out["band_keys"][i].as_py() == lsh_band_keys(sig, cfg.bands)
        assert out["title_norm"][i].as_py() == " ".join(canonical_tokens(titles[i]))


def test_dedup_flat_parity():
    """_DedupFeatures token_shingle flat path == the scalar per-doc form
    (unique-shingle ids + MinHash bands), including empty/short docs and a
    non-ASCII batch exercising the Python fallback."""
    import pyarrow as pa

    from entity_resolution_engine_ray.stages.dedup import _DedupFeatures
    from entity_resolution_engine_ray.oracle.serial import canonical_tokens

    rng = np.random.default_rng(11)
    words = ["web", "page", "near", "dup", "text", "alpha", "beta"]
    texts = [
        " ".join(words[int(i)] for i in rng.integers(0, len(words), int(rng.integers(0, 25))))
        for _ in range(40)
    ]
    texts[0] = ""
    texts[1] = "solo"
    texts[2] = "two tokens"
    texts[3] = "naïve café résumé naïve"  # → python fallback batch
    for batch_texts in (texts[:3] + texts[4:], texts):  # ascii-only, mixed
        batch = pa.table({"id": list(range(len(batch_texts))), "text": batch_texts})
        fe = _DedupFeatures("id", "text", num_perm=63, bands=21, k=3, mode="token_shingle")
        out = fe(batch)
        for i, text in enumerate(batch_texts):
            th = hash_tokens(canonical_tokens(text), None)
            sh = shingle_hashes(th, k=3)
            uniq = np.unique(sh)
            assert out["token_ids"][i].as_py() == list(np.sort(uniq.view(np.int64)))
            sig = minhash_signature(uniq, *minhash_coefficients(63))
            assert out["band_keys"][i].as_py() == lsh_band_keys(sig, 21), f"doc {i}"
