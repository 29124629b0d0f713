"""Similarity search over embedding columns (list<float>).

- ``knn_brute_force`` — exact cosine top-k against a broadcast query matrix:
  per-batch numpy matmul + partial top-k inside ``map_batches``, tiny global
  merge on the driver. The baseline; scales linearly and embarrassingly.
- ``srp_signatures`` / ``cosine_near_dup_pairs`` — the scale path: signed
  random projections (SRP-LSH, Charikar 2002) bucket similar vectors; pairs
  within buckets are verified with exact cosine. Deterministic seeded
  hyperplanes → identical buckets on every worker.
- ``knn_ivf`` — inverted-file variant: vectors are assigned to the nearest
  of C unit centroids; queries probe the nearest ``n_probe`` centroid lists
  only. ``n_iters>0`` refines the seeded random centroids with distributed
  Lloyd k-means passes (``kmeans_refine_centroids`` — per-batch partial
  sums, driver folds a C×d table) before indexing.
- ``cosine_all_pairs_exact`` — exact all-pairs cosine (blocked distributed
  matmul), the oracle-checkable brute-force twin of the SRP-LSH path.
- ``reciprocal_topk_pairs`` — mutual k-NN pairs; exact blocked-matmul
  candidates (oracle twin) or IVF multi-assign lists (the sub-quadratic
  scale path), one shared top-k + mutuality finish.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from entity_resolution_engine_ray.stages.dedup import _dedup_pairs, _pairs_partition
from entity_resolution_engine_ray.stages.exchange import (
    _ensure_table,
    hash_exchange_chained,
    hash_exchange_cogroup,
    map_blocks,
)
from entity_resolution_engine_ray.stages.grouping import partition_map_groups
from entity_resolution_engine_ray.stages.pairs import pair_partitions

_SRP_SEED = 0xA11CE


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix ((0, 0) when empty —
    callers short-circuit zero-row batches before using d)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    d = offsets[1] - offsets[0]
    return flat.reshape(len(col), d)


@ray.remote
def _first_list_len(block, col: str) -> int:
    import pyarrow.compute as pc

    return pc.list_value_length(_ensure_table(block)[col].slice(0, 1))[0].as_py()


def _vector_width(ds, col: str = "embedding") -> int:
    """Length of the first ``col`` list of a materialized Dataset, read by
    one task on its first non-empty block (0 when it has no rows)."""
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                return ray.get(_first_list_len.remote(ref, col))
    return 0


def knn_brute_force(ds, query: np.ndarray, k: int, id_col: str = "vec_id", exclude_ids=frozenset()):
    """Exact cosine top-k. Returns a pandas DataFrame (id_col, cos)."""
    q = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(q)
    if qnorm == 0:  # silent 0/0 would return k rows of NaN cos
        raise ValueError("knn_brute_force: query vector has zero norm")
    qn = q / qnorm
    exclude = set(exclude_ids)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()), "cos": pa.array([], type=pa.float64())}
            )
        m = _to_matrix(t["embedding"])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        cos = (m @ qn) / norms
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if exclude:
            mask = ~np.isin(ids, list(exclude))
            cos, ids = cos[mask], ids[mask]
        # partial top-k: sort by (-cos, id)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table(
            {id_col: pa.array(ids[order], type=pa.int64()), "cos": pa.array(cos[order], type=pa.float64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = partials.sort_values(["cos", id_col], ascending=[False, True], kind="mergesort").head(k)
    return out.reset_index(drop=True)


def srp_signatures(m: np.ndarray, planes: np.ndarray, band_bits: int) -> np.ndarray:
    """Sign-random-projection band keys: (n, n_bands) int64."""
    bits = (m @ planes.T) > 0  # (n, nbits)
    nbits = planes.shape[0]
    n_bands = nbits // band_bits
    out = np.zeros((m.shape[0], n_bands), dtype=np.int64)
    for b in range(n_bands):
        chunk = bits[:, b * band_bits : (b + 1) * band_bits]
        key = np.zeros(m.shape[0], dtype=np.int64)
        for i in range(band_bits):
            key = key * 2 + chunk[:, i]
        out[:, b] = key * np.int64(97) + np.int64(b)  # band id mixed in
    return out


def cosine_near_dup_pairs(
    ds,
    id_col: str = "vec_id",
    threshold: float = 0.95,
    nbits: int = 64,
    band_bits: int = 8,
    dim: int | None = None,
    max_block_size: int = 512,
    num_partitions: int | None = None,
    broadcast_limit_bytes: int = 256 << 20,
):
    """SRP-LSH bucketed near-duplicate pairs with exact cosine verification.

    band_bits=8, 8 bands: P(bucket match) = (1 - θ/π)^8 per band; at
    cos=0.95 (θ≈18°) ≈ 0.43/band → ≥98% recall over 8 bands. Thresholding
    uses UNROUNDED cos and reports half-away 4 dp — identical semantics to
    the exact twin ``cosine_all_pairs_exact``, so the LSH output is always
    a value-exact subset of the exact output."""
    if nbits % band_bits != 0:
        raise ValueError(
            f"nbits ({nbits}) must be divisible by band_bits ({band_bits}) — "
            "leftover hyperplane bits would be silently discarded and the "
            "documented per-band recall formula would not hold"
        )
    feats = ds.materialize()
    n_rows = feats.count()
    if n_rows == 0:
        return _empty_pairs_ds()

    def sig_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({})
        m = _to_matrix(t["embedding"])
        # seeded per call → identical hyperplanes on every worker
        planes_local = np.random.default_rng(_SRP_SEED).standard_normal((nbits, m.shape[1]))
        keys = srp_signatures(m, planes_local, band_bits)
        n, nb = keys.shape
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id": pa.array(np.repeat(ids, nb), type=pa.int64()),
                "block_key": pa.array(keys.reshape(-1), type=pa.int64()),
            }
        )

    # the band explode runs in the split tasks; stage 1 pairs each bucket
    # and returns the cap's dropped-pair count out of band, stage 2 dedups
    parts = pair_partitions(n_rows * (nbits // band_bits), num_partitions)
    pairs, counts = hash_exchange_chained(
        feats,
        ["block_key"],
        functools.partial(_pairs_partition, cap=max_block_size),
        parts,
        ["left_id", "right_id"],
        _dedup_pairs,
        parts,
        arrow_fns=True,
        block_fn=sig_batch,
    )
    if counts.get("dropped"):
        logging.getLogger(__name__).warning(
            "cosine_near_dup_pairs: %d candidate pairs dropped by bucket cap %d",
            counts["dropped"],
            max_block_size,
        )

    # verify = exact cosine per candidate pair. Two physical plans, gated on
    # the embedding-matrix footprint (rows × dim × 8 bytes):
    # - small side (≤ broadcast_limit_bytes): normalize once, ray.put the
    #   matrix, einsum per pair batch — one pass, no extra exchange.
    # - large side: two hash cogroups (pairs.left_id × emb.id, then
    #   pairs.right_id × emb.id) — the matrix is never materialized whole;
    #   each partition ships only the vectors its pairs reference. This is
    #   the only path that can run at 100 TB; the gate makes it impossible
    #   to broadcast a matrix that doesn't fit.
    dim_actual = _vector_width(feats)
    if n_rows * max(dim_actual, 1) * 8 <= broadcast_limit_bytes:
        emb_pdf = feats.to_pandas()
        ids = emb_pdf[id_col].to_numpy().astype(np.int64)
        m = np.vstack(emb_pdf["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = (m.T / norms).T
        # sorted ids + searchsorted row lookup: both broadcasts are numpy
        # arrays (zero-copy from the object store per worker — a python
        # id→row dict would re-unpickle on every batch and its footprint
        # would dodge the broadcast size gate)
        order = np.argsort(ids)
        ids_ref = ray.put(ids[order])
        mn_ref = ray.put(mn[order])

        def verify_broadcast(pdf: pd.DataFrame) -> pd.DataFrame:
            mat = ray.get(mn_ref)
            ids_sorted = ray.get(ids_ref)
            li = pdf["left_id"].to_numpy(np.int64)
            ri = pdf["right_id"].to_numpy(np.int64)
            lrow = np.searchsorted(ids_sorted, li)
            rrow = np.searchsorted(ids_sorted, ri)
            cos = np.einsum("ij,ij->i", mat[lrow], mat[rrow])
            out = pdf.assign(cos=cos)
            out = out[out["cos"] >= threshold][["left_id", "right_id", "cos"]]
            out["cos"] = _round4(out["cos"].to_numpy())
            return out

        return pairs.map_batches(verify_broadcast, batch_format="pandas")

    # shared vectorized normalize kernel (one fix point for offset/empty
    # handling), one plain task per in-memory block: BOTH attach cogroups
    # consume the normalized blocks
    emb_norm = map_blocks(feats, functools.partial(_norm_block, id_col=id_col))

    def attach(col_from: str, col_to: str):
        def fn(pairs_pdf: pd.DataFrame, emb_pdf: pd.DataFrame) -> pd.DataFrame:
            if pairs_pdf.empty:
                out = pairs_pdf.copy()
                out[col_to] = pd.Series([], dtype=object)
                return out
            m = pairs_pdf.merge(
                emb_pdf.rename(columns={"emb": col_to}), left_on=col_from, right_on="id", how="inner"
            )
            return m.drop(columns=["id"])

        return fn

    with_left = hash_exchange_cogroup(
        pairs, emb_norm, ["left_id"], ["id"], attach("left_id", "emb_l"), num_partitions
    )
    with_both = hash_exchange_cogroup(
        with_left, emb_norm, ["right_id"], ["id"], attach("right_id", "emb_r"), num_partitions
    )

    def verify(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "left_id": pd.Series([], dtype=np.int64),
                    "right_id": pd.Series([], dtype=np.int64),
                    "cos": pd.Series([], dtype=np.float64),
                }
            )
        ml = np.vstack(pdf["emb_l"].to_numpy())
        mr = np.vstack(pdf["emb_r"].to_numpy())
        cos = np.einsum("ij,ij->i", ml, mr)
        out = pdf.assign(cos=cos)
        out = out[out["cos"] >= threshold][["left_id", "right_id", "cos"]]
        out["cos"] = _round4(out["cos"].to_numpy())
        return out

    return with_both.map_batches(verify, batch_format="pandas")


def _round4(x: np.ndarray) -> np.ndarray:
    """round-half-away to 4 dp (DuckDB ROUND semantics) — absorbs
    summation-order ulps so ranking is reproducible across engines."""
    p = 10.0**4
    return np.where(x >= 0, np.floor(x * p + 0.5), np.ceil(x * p - 0.5)) / p


def _empty_pairs_ds():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "left_id": pa.array([], type=pa.int64()),
                "right_id": pa.array([], type=pa.int64()),
                "cos": pa.array([], type=pa.float64()),
            }
        )
    )


def _norm_block(t: pa.Table, id_col: str) -> pa.Table:
    """(id_col, embedding) batch → normalized (id, emb) rows. Empty-safe:
    a zero-row batch (or a whole empty dataset) returns the typed empty
    table — with len(mn)==0 the old inline version derived d=0 and
    np.arange(..., step=0) raised ZeroDivisionError."""
    if t.num_rows == 0:
        return pa.table(
            {
                "id": pa.array([], type=pa.int64()),
                "emb": pa.array([], type=pa.list_(pa.float64())),
            }
        )
    m = _to_matrix(t["embedding"])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = (m.T / norms).T
    d = mn.shape[1]
    offsets = pa.array(np.arange(0, (len(mn) + 1) * d, d, dtype=np.int32))
    emb = pa.ListArray.from_arrays(offsets, pa.array(mn.ravel(), type=pa.float64()))
    return pa.table(
        {
            "id": pa.array(
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64), type=pa.int64()
            ),
            "emb": emb,
        }
    )


def cosine_all_pairs_exact(ds, id_col: str = "vec_id", threshold: float = 0.95):
    """EXACT all-pairs cosine ≥ threshold — the distributed brute-force
    baseline (and the oracle-checkable twin of ``cosine_near_dup_pairs``).

    Blocks of normalized vectors are materialized once; every block PAIR
    becomes one Ray task computing a single (nᵢ × nⱼ) matmul and emitting
    the surviving (left_id, right_id, cos) rows with left_id < right_id.
    O(n²) work split across B(B+1)/2 embarrassingly-parallel tasks — the
    honest exact baseline for corpora where n² compute is affordable; the
    SRP-LSH path (``cosine_near_dup_pairs``) is the sub-quadratic scale
    path. Returns a Dataset (left_id:int64, right_id:int64, cos:float64
    rounded to 4 — DuckDB ROUND semantics)."""
    import ray.data as rd

    normed = ds.map_batches(
        _norm_block, fn_kwargs={"id_col": id_col}, batch_format="pyarrow"
    ).materialize()
    # Task count is quadratic in block count — coalesce small inputs so each
    # block carries ~CHUNK rows (64-dim f64 ⇒ ~8 MB/block at 16k). A tiny
    # corpus becomes ONE matmul task; a big one keeps B(B+1)/2 ≈
    # (n/CHUNK)²/2 embarrassingly-parallel tasks of bounded memory.
    CHUNK = 16384
    n_rows = normed.count()
    if n_rows == 0:
        return _empty_pairs_ds()
    target_blocks = max(1, -(-n_rows // CHUNK))
    # != not >: oversized input blocks must SPLIT too, or one fat upstream
    # block turns a single _pair_task into an unbounded n×n matmul
    if normed.num_blocks() != target_blocks:
        normed = normed.repartition(target_blocks).materialize()
    blocks = normed.to_arrow_refs()

    @ray.remote(num_returns=2)
    def _pair_task(ta: pa.Table, tb: pa.Table, same: bool):
        ia = ta["id"].to_numpy(zero_copy_only=False)
        ib = tb["id"].to_numpy(zero_copy_only=False)
        ma = _to_matrix(ta["emb"])
        mb = _to_matrix(tb["emb"])
        c = ma @ mb.T
        mask = c >= threshold
        if same:
            mask &= np.tri(len(ia), len(ib), k=-1, dtype=bool).T  # strict upper
        ri, ci = np.nonzero(mask)
        l, r = ia[ri], ib[ci]
        cos = c[ri, ci]
        swap = l > r
        l2 = np.where(swap, r, l)
        r2 = np.where(swap, l, r)
        keep = l2 != r2  # self-pairs across duplicate ids
        out = pa.table(
            {
                "left_id": pa.array(l2[keep].astype(np.int64), type=pa.int64()),
                "right_id": pa.array(r2[keep].astype(np.int64), type=pa.int64()),
                "cos": pa.array(_round4(cos[keep]), type=pa.float64()),
            }
        )
        return out, out.num_rows

    results, counts = [], []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            t_ref, c_ref = _pair_task.remote(blocks[i], blocks[j], i == j)
            results.append(t_ref)
            counts.append(c_ref)
    n_rows = ray.get(counts)
    keep = [r for r, n in zip(results, n_rows) if n > 0]
    if not keep:
        keep = [results[0]] if results else []
    if not keep:
        return _empty_pairs_ds()
    return rd.from_arrow_refs(keep)


def kmeans_refine_centroids(
    ds,
    cents: np.ndarray,
    n_iters: int,
    batch_size: int = 4096,
    col: str = "embedding",
    tol: float = 0.0,
) -> np.ndarray:
    """Lloyd iterations over a Dataset of embeddings, expressed as
    ``map_batches`` partial sums: each batch emits (centroid, sum-vector,
    count) partials — C×d floats per batch, never the vectors — and the
    driver folds the tiny partial table into new unit centroids. Empty
    centroids keep their previous position. Deterministic for a fixed
    input. ``col`` names the list<float> column (raw ``embedding`` or the
    pre-normalized ``emb`` of an internal pipeline). ``tol > 0`` stops
    early once the max centroid movement falls below it — the movement is
    computed from the same folded sums on the driver, so the early stop is
    deterministic and partition-independent."""
    C, d = cents.shape
    for _ in range(n_iters):
        current = cents

        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {
                        "c": pa.array([], type=pa.int64()),
                        "sum": pa.array([], type=pa.list_(pa.float64())),
                        "n": pa.array([], type=pa.int64()),
                    }
                )
            m = _to_matrix(t[col])
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            mn = (m.T / norms).T
            assign = np.argmax(mn @ current.T, axis=1)
            sums = np.zeros((C, d), dtype=np.float64)
            np.add.at(sums, assign, mn)
            counts = np.bincount(assign, minlength=C).astype(np.int64)
            return pa.table(
                {
                    "c": pa.array(np.arange(C), type=pa.int64()),
                    "sum": pa.array(list(sums), type=pa.list_(pa.float64())),
                    "n": pa.array(counts, type=pa.int64()),
                }
            )

        agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size).to_pandas()
        sums = np.zeros((C, d), dtype=np.float64)
        counts = np.zeros(C, dtype=np.int64)
        for c, s, n in zip(agg["c"], agg["sum"], agg["n"]):
            sums[c] += np.asarray(s)
            counts[c] += n
        new = cents.copy()
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz, None]
        norms = np.linalg.norm(new, axis=1)
        norms[norms == 0] = 1.0
        cents = (new.T / norms).T
        if tol > 0.0 and float(np.abs(cents - current).max()) < tol:
            break
    return cents


def kmeans_assign(
    ds,
    n_clusters: int = 8,
    n_iters: int = 10,
    id_col: str = "vec_id",
    col: str = "embedding",
    seed: int = _SRP_SEED,
    tol: float = 1e-9,
):
    """Distributed spherical k-means clustering: seeded random unit
    centroids refined by ``kmeans_refine_centroids`` (each Lloyd pass ships
    C×d float partials per batch, never the vectors), then ONE
    embarrassingly-parallel assignment pass. Returns a Dataset of
    (``id_col``, cluster) — the corpus-partitioning primitive under
    cluster-balanced sampling, per-cluster dedup and IVF list building.

    Init is farthest-first over a small ids-ordered sample (one partial
    top-k pass — each batch forwards only its ``cap`` smallest-id rows, so
    the driver folds O(cap) rows however the input is partitioned): random
    unit centroids can merge two orthogonal data clusters onto one
    centroid that Lloyd cannot split, and an order-dependent sample would
    break partition invariance. Deterministic for a fixed (input, seed)."""
    import ray.data as rd

    ds = ds.materialize()  # consumed n_iters times + the assignment pass
    cap = max(256, 32 * n_clusters)

    def sample_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    col: pa.array([], type=pa.list_(pa.float64())),
                }
            )
        ids = t[id_col].to_numpy(zero_copy_only=False)
        take = np.argsort(ids, kind="stable")[:cap]
        m = _to_matrix(t[col])[take]
        n_sel, d = m.shape
        arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n_sel + 1) * d, d, dtype=np.int32)),
            pa.array(m.reshape(-1)),
        )
        return pa.table({id_col: pa.array(ids[take], type=pa.int64()), col: arr})

    samp = ds.map_batches(sample_partial, batch_format="pyarrow").to_pandas()
    if samp.empty:
        return rd.from_arrow(
            pa.table(
                {id_col: pa.array([], type=pa.int64()), "cluster": pa.array([], type=pa.int64())}
            )
        )
    samp = samp.sort_values(id_col, kind="mergesort").head(cap)
    sm = np.stack([np.asarray(v, dtype=np.float64) for v in samp[col]])
    norms = np.linalg.norm(sm, axis=1)
    norms[norms == 0] = 1.0
    sm = (sm.T / norms).T
    # farthest-first: start at the smallest id, repeatedly add the sample
    # point with the lowest max-cosine to the chosen set; pad with seeded
    # random unit vectors if the sample is smaller than n_clusters
    chosen = [0]
    best = sm @ sm[0]
    while len(chosen) < min(n_clusters, len(sm)):
        nxt = int(np.argmin(best))
        chosen.append(nxt)
        best = np.maximum(best, sm @ sm[nxt])
    cents = sm[chosen]
    if len(cents) < n_clusters:
        rng = np.random.default_rng(seed)
        pad = rng.standard_normal((n_clusters - len(cents), sm.shape[1]))
        pad = (pad.T / np.linalg.norm(pad, axis=1)).T
        cents = np.vstack([cents, pad])
    cents = kmeans_refine_centroids(ds, cents, n_iters, col=col, tol=tol)

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()), "cluster": pa.array([], type=pa.int64())}
            )
        m = _to_matrix(t[col])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = (m.T / norms).T
        lab = np.argmax(mn @ cents.T, axis=1).astype(np.int64)
        return pa.table(
            {
                # cast: the empty-batch branch emits int64, and mixed block
                # schemas (e.g. an int32 id column) break downstream unify
                id_col: pa.array(
                    t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    type=pa.int64(),
                ),
                "cluster": pa.array(lab, type=pa.int64()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def knn_ivf(
    ds,
    query: np.ndarray,
    k: int,
    id_col: str = "vec_id",
    n_centroids: int = 16,
    n_probe: int = 4,
    seed: int = _SRP_SEED,
    n_iters: int = 0,
):
    """IVF top-k: assign vectors to unit centroids, probe the ``n_probe``
    centroid lists nearest the query. ``n_iters=0`` (default) keeps the
    one-pass seeded-random-centroid index; ``n_iters>0`` runs that many
    distributed Lloyd k-means refinement passes
    (``kmeans_refine_centroids``) first, which concentrates each true data
    cluster into one list and lifts recall at the same n_probe.
    Approximate — recall grows with n_probe; n_probe == n_centroids
    degenerates to exact."""
    q = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(q)
    if qnorm == 0:
        raise ValueError("knn_ivf: query vector has zero norm")
    qn = q / qnorm
    rng = np.random.default_rng(seed)
    cents = rng.standard_normal((n_centroids, len(q)))
    cents = (cents.T / np.linalg.norm(cents, axis=1)).T
    if n_iters > 0:
        ds = ds.materialize()  # consumed once per Lloyd pass + the probe scan
        cents = kmeans_refine_centroids(ds, cents, n_iters)
    probe = set(np.argsort(-(cents @ qn))[:n_probe].tolist())

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()), "cos": pa.array([], type=pa.float64())}
            )
        m = _to_matrix(t["embedding"])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = (m.T / norms).T
        assign = np.argmax(mn @ cents.T, axis=1)
        mask = np.isin(assign, list(probe))
        ids = t[id_col].to_numpy(zero_copy_only=False)[mask]
        cos = (mn[mask] @ qn)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table(
            {id_col: pa.array(ids[order], type=pa.int64()), "cos": pa.array(cos[order], type=pa.float64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return partials.sort_values(["cos", id_col], ascending=[False, True], kind="mergesort").head(k).reset_index(drop=True)


def _row_topk_superset(
    mat: np.ndarray, row_ids: np.ndarray, col_ids: np.ndarray, k: int
):
    """Per row of ``mat``: every column whose UNROUNDED cos clears the
    row's k-th largest minus 2e-4. Conservative superset of the rounded
    per-row top-k WITH ties: rounding to the 1e-4 grid moves a value by
    < 5e-5, so any x with round4(x) >= round4(kth) satisfies
    x >= kth - 1e-4 > kth - 2e-4 — no true neighbor (or ROW_NUMBER tie
    contender) is ever cut, and the full matrix is never rounded (the
    element-wise round was the measured hot spot of the old kernel).
    Returns (src, dst, cos_rounded)."""
    nb = mat.shape[1]
    if nb > k:
        thr = np.partition(mat, nb - k, axis=1)[:, nb - k] - 2e-4
    else:
        thr = np.full(mat.shape[0], -np.inf)
    ri, ci = np.nonzero(mat >= thr[:, None])
    return row_ids[ri], col_ids[ci], _round4(mat[ri, ci])


def _mutual_topk_finish(cands, k: int, num_partitions=None):
    """(src, dst, cos) candidate rows → mutual top-k pair Dataset.

    1. per-src global top-k: one hash partition per src set, vectorized
       sort + head-k — ROW_NUMBER semantics (cos DESC, dst ASC tie-break);
       duplicate (src, dst) candidates (multi-assign / multi-bucket) are
       dropped first so they can't crowd the head;
    2. mutuality: unordered-pair groupby keeps pairs seen from BOTH
       directions.

    Shared finish of every reciprocal path — exact and IVF differ only in
    how candidates are generated."""

    def topk_per_src(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "src": pd.Series([], dtype=np.int64),
                    "dst": pd.Series([], dtype=np.int64),
                    "cos": pd.Series([], dtype=np.float64),
                }
            )
        pdf = pdf.drop_duplicates(["src", "dst"])
        pdf = pdf.sort_values(
            ["src", "cos", "dst"], ascending=[True, False, True], kind="mergesort"
        )
        return pdf.groupby("src", as_index=False).head(k)

    topk = partition_map_groups(cands, ["src"], topk_per_src, num_partitions)

    def add_pair_key(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "left_id": pa.array(np.minimum(s, d), type=pa.int64()),
                "right_id": pa.array(np.maximum(s, d), type=pa.int64()),
                "cos": t["cos"],
            }
        )

    def mutual(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "left_id": pd.Series([], dtype=np.int64),
                    "right_id": pd.Series([], dtype=np.int64),
                    "cos": pd.Series([], dtype=np.float64),
                }
            )
        g = pdf.groupby(["left_id", "right_id"], as_index=False).agg(
            n=("cos", "size"), cos=("cos", "max")
        )
        return g[g["n"] == 2][["left_id", "right_id", "cos"]]

    keyed = topk.map_batches(add_pair_key, batch_format="pyarrow")
    return partition_map_groups(keyed, ["left_id", "right_id"], mutual, num_partitions)


def _exact_reciprocal_candidates(normed, k: int, chunk: int):
    """Blocked distributed matmul candidate generation (the EXACT path):
    each (block_i, block_j) task emits, per row of BOTH blocks, the
    ``_row_topk_superset`` of its local top-k. O(n²) compute in B(B+1)/2
    bounded-memory tasks — the oracle twin; use the IVF path at scale."""
    import ray.data as rd

    n_rows = normed.count()
    target_blocks = max(1, -(-n_rows // chunk))
    if normed.num_blocks() != target_blocks:
        normed = normed.repartition(target_blocks).materialize()
    blocks = normed.to_arrow_refs()

    @ray.remote
    def _cand_task(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia = ta["id"].to_numpy(zero_copy_only=False)
        ib = tb["id"].to_numpy(zero_copy_only=False)
        c = _to_matrix(ta["emb"]) @ _to_matrix(tb["emb"]).T
        if same:
            np.fill_diagonal(c, -np.inf)
        srcs, dsts, coss = [], [], []
        a_src, a_dst, a_cos = _row_topk_superset(c, ia, ib, k)
        srcs.append(a_src), dsts.append(a_dst), coss.append(a_cos)
        if not same:
            # same-block: the row scan above already emits BOTH directions
            # (c is symmetric); a transpose scan would duplicate every
            # candidate and crowd real neighbors out of the top-k head.
            b_src, b_dst, b_cos = _row_topk_superset(
                np.ascontiguousarray(c.T), ib, ia, k
            )
            srcs.append(b_src), dsts.append(b_dst), coss.append(b_cos)
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs), type=pa.int64()),
                "dst": pa.array(np.concatenate(dsts), type=pa.int64()),
                "cos": pa.array(np.concatenate(coss), type=pa.float64()),
            }
        )

    refs = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            refs.append(_cand_task.remote(blocks[i], blocks[j], i == j))
    return rd.from_arrow_refs(refs)


def _ivf_reciprocal_candidates(
    normed,
    k: int,
    n_centroids: int | None,
    n_assign: int,
    n_iters: int,
    list_cap: int,
):
    """IVF candidate generation (the SCALE path): every vector is assigned
    to its ``n_assign`` nearest centroids; candidates are per-row top-k
    supersets WITHIN each centroid list. Sub-quadratic: pair work is
    Σ mᵢ² over list sizes mᵢ ≈ n·n_assign/C instead of n², and the only
    exchange ships each vector ``n_assign`` times, keyed by centroid.

    - centroids: seeded random unit vectors + ``n_iters`` distributed Lloyd
      passes (map_batches partial sums), broadcast once via ``ray.put``;
    - skew: a list longer than ``list_cap`` is deterministically truncated
      (sorted by id) with the dropped-pair count logged — same counted-drop
      contract as the LSH bucket cap;
    - recall: a true neighbor pair is found iff it shares a centroid list;
      multi-assign + Lloyd refinement push this high on clustered data
      (pinned by the paths-agree test); mutuality needs no extra care —
      within a shared list BOTH directions are emitted.
    """
    n_rows = normed.count()
    C = n_centroids or int(np.clip(4 * int(np.sqrt(max(n_rows, 1))), 16, 65_536))
    first = normed.take(1)
    d = len(first[0]["emb"])
    rng = np.random.default_rng(_SRP_SEED)
    cents = rng.standard_normal((C, d))
    cents = (cents.T / np.linalg.norm(cents, axis=1)).T
    if n_iters > 0:
        cents = kmeans_refine_centroids(normed, cents, n_iters, col="emb")
    a = min(n_assign, C)
    cents_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "cent": pa.array([], type=pa.int64()),
                    "id": pa.array([], type=pa.int64()),
                    "emb": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        mn = _to_matrix(t["emb"])
        sims = mn @ ray.get(cents_ref).T
        if a < C:
            top = np.argpartition(-sims, a - 1, axis=1)[:, :a]
        else:
            top = np.tile(np.arange(C), (len(mn), 1))
        idx = pa.array(np.repeat(np.arange(t.num_rows), a), type=pa.int64())
        emb = t["emb"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        return pa.table(
            {
                "cent": pa.array(top.reshape(-1).astype(np.int64), type=pa.int64()),
                "id": t["id"].take(idx),
                "emb": emb.take(idx),
            }
        )

    assigned = normed.map_batches(assign, batch_format="pyarrow")

    def list_pairs(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src": pa.array([], type=pa.int64()),
                "dst": pa.array([], type=pa.int64()),
                "cos": pa.array([], type=pa.float64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        ids = tbl["id"].to_numpy(zero_copy_only=False)
        cent = tbl["cent"].to_numpy(zero_copy_only=False)
        mat = _to_matrix(tbl["emb"])
        # group rows by centroid (then id — deterministic truncation order)
        order = np.lexsort((ids, cent))
        cent_s, ids_s, mat_s = cent[order], ids[order], mat[order]
        change = np.flatnonzero(cent_s[1:] != cent_s[:-1]) + 1
        starts = np.r_[0, change]
        ends = np.r_[change, len(cent_s)]
        srcs, dsts, coss = [], [], []
        dropped_rows = 0
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if m > list_cap:  # skew cap, counted
                dropped_rows += m - list_cap
                e = s + list_cap
                m = list_cap
            g = mat_s[s:e]
            gid = ids_s[s:e]
            # row-chunked tiles bound the similarity matrix to ~32 MB
            rc = max(1, (1 << 22) // m)
            for r0 in range(0, m, rc):
                r1 = min(m, r0 + rc)
                c = g[r0:r1] @ g.T
                # mask self-pairs (same id may repeat via duplicate ids)
                c[gid[r0:r1, None] == gid[None, :]] = -np.inf
                ss, dd, cc = _row_topk_superset(c, gid[r0:r1], gid, k)
                srcs.append(ss), dsts.append(dd), coss.append(cc)
        if dropped_rows:
            logging.getLogger(__name__).warning(
                "ivf_reciprocal: %d rows truncated by list_cap %d", dropped_rows, list_cap
            )
        if not srcs:
            return empty
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs), type=pa.int64()),
                "dst": pa.array(np.concatenate(dsts), type=pa.int64()),
                "cos": pa.array(np.concatenate(coss), type=pa.float64()),
            }
        )

    from entity_resolution_engine_ray.stages.grouping import auto_partitions

    return partition_map_groups(
        assigned, ["cent"], list_pairs, auto_partitions(n_rows * a), arrow_fns=True
    )


def reciprocal_topk_pairs(
    ds,
    k: int = 10,
    id_col: str = "vec_id",
    chunk: int = 4096,
    method: str = "exact",
    n_centroids: int | None = None,
    n_assign: int = 2,
    n_iters: int = 2,
    list_cap: int = 16384,
    num_partitions=None,
):
    """Reciprocal k-NN pairs: (a, b) such that b is in a's cosine top-k AND
    a is in b's — the mutual-nearest-neighbor filter dedup/alignment
    pipelines use to keep only high-confidence matches. Returns a Dataset
    (left_id, right_id, cos — rounded to 4, DuckDB ROUND).

    Two candidate paths feeding one shared finish (per-src exact top-k
    merge → mutuality groupby, ``_mutual_topk_finish``):

    - ``method="exact"``: blocked distributed matmul, every (i, j) block
      pair is one bounded task emitting per-row top-k supersets. O(n²)
      compute — the oracle-checkable twin (SQL window + self-join), for
      corpora where n² is affordable.
    - ``method="ivf"``: IVF multi-assign candidate lists
      (``_ivf_reciprocal_candidates``) — the 100-TB path: pair work is
      Σ list² not n², every stage is an exchange or map, nothing
      materializes on the driver. Approximate: a pair is seen iff it
      shares a centroid list (recall pinned by the paths-agree test on
      clustered fixtures).

    cos is rounded half-away to 4 BEFORE selection so ranking is
    reproducible across engines; per-row candidate supersets use an
    unrounded threshold with a 2e-4 guard band (``_row_topk_superset``) so
    rounding ties can never cut a true neighbor."""
    normed = ds.map_batches(
        _norm_block, fn_kwargs={"id_col": id_col}, batch_format="pyarrow"
    ).materialize()
    if normed.count() == 0:
        return _empty_pairs_ds()
    if method == "exact":
        cands = _exact_reciprocal_candidates(normed, k, chunk)
    elif method == "ivf":
        cands = _ivf_reciprocal_candidates(
            normed, k, n_centroids, n_assign, n_iters, list_cap
        )
    else:
        raise ValueError(f"unknown reciprocal method {method!r}")
    return _mutual_topk_finish(cands, k, num_partitions)


def pq_train_codebooks(
    ds,
    m_sub: int = 8,
    k_cent: int = 32,
    sample_cap: int = 8192,
    n_iters: int = 10,
    id_col: str = "vec_id",
    col: str = "embedding",
):
    """Product-quantization codebook training (Jégou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI 2011 — public method).
    The 100-TB shape: codebooks train on a BOUNDED deterministic sample
    (per-batch partial top-``sample_cap`` by Knuth-hashed id — a uniform
    pseudo-random subset that is partition- and batch-layout-invariant),
    and the per-subspace Lloyd loop runs driver-side on that sample only
    (m·k·(d/m) floats of state). Vectors are unit-normalized first so
    inner-product ADC approximates cosine. Returns (m_sub, k_cent, d/m)
    float64 codebooks."""
    if m_sub < 1:
        raise ValueError("pq_train_codebooks: m_sub must be >= 1")

    def sample_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "h": pa.array([], type=pa.uint64()),
                    "emb": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ids * np.uint64(2654435761)  # Knuth multiplicative, wraps mod 2^64
        order = np.argsort(h, kind="stable")[:sample_cap]
        m = _to_matrix(t[col])[order]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = (m.T / norms).T
        return pa.table(
            {
                "h": pa.array(h[order], type=pa.uint64()),
                "emb": pa.array(list(mn), type=pa.list_(pa.float64())),
            }
        )

    parts = ds.map_batches(sample_partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        raise ValueError("pq_train_codebooks: empty input dataset")
    order = np.argsort(parts["h"].to_numpy(), kind="stable")[:sample_cap]
    sample = np.stack(parts["emb"].to_numpy()[order])
    n, d = sample.shape
    if d % m_sub != 0:
        raise ValueError(f"pq_train_codebooks: dim {d} not divisible by m_sub {m_sub}")
    sub_d = d // m_sub
    k = min(k_cent, n)
    books = np.zeros((m_sub, k, sub_d), dtype=np.float64)
    for s in range(m_sub):
        x = sample[:, s * sub_d : (s + 1) * sub_d]
        # deterministic init: evenly spaced rows of the hash-ordered sample
        cents = x[np.linspace(0, n - 1, k).astype(np.int64)].copy()
        for _ in range(n_iters):
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(k):
                mask = assign == c
                if mask.any():
                    cents[c] = x[mask].mean(axis=0)
        books[s] = cents
    return books


def pq_encode(m: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) float matrix → (n, m_sub) uint8/uint16 PQ codes (argmin L2
    per subspace, fully vectorized)."""
    m_sub, k, sub_d = books.shape
    n = m.shape[0]
    codes = np.zeros((n, m_sub), dtype=np.uint16 if k > 256 else np.uint8)
    for s in range(m_sub):
        x = m[:, s * sub_d : (s + 1) * sub_d]
        # ||x-c||² = ||x||² - 2x·c + ||c||²; ||x||² is rank-constant
        d2 = -2.0 * (x @ books[s].T) + (books[s] ** 2).sum(axis=1)[None, :]
        codes[:, s] = np.argmin(d2, axis=1)
    return codes


def knn_pq(
    ds,
    query: np.ndarray,
    k: int,
    books: np.ndarray,
    id_col: str = "vec_id",
    col: str = "embedding",
    exclude_ids=frozenset(),
    rerank: int = 4,
):
    """PQ-ADC approximate cosine top-k with exact re-rank (the standard
    two-stage IVFADC-style retrieval): the query expands once into an
    (m_sub × k_cent) inner-product table; every batch encodes to m_sub
    uint8 codes and scores by table lookup + sum — no float matmul against
    the corpus — then computes the EXACT cosine for only its local
    ``rerank·k`` ADC winners (the rows are already in the batch, so the
    exact pass touches a bounded candidate set, not the corpus). At 100 TB
    the stored codes are a 32× smaller scan than the raw vectors and the
    exact re-rank reads ``rerank·k`` vectors per batch. Broadcast state is
    just the codebooks + table. Approximate: a true neighbor whose ADC
    score falls outside its batch's top ``rerank·k`` is lost — recall is
    audited by q_knn_pq_recall / the pytest pin. ``rerank=0`` returns raw
    ADC scores (column ``score``)."""
    q = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(q)
    if qnorm == 0:
        raise ValueError("knn_pq: query vector has zero norm")
    qn = q / qnorm
    m_sub, k_cent, sub_d = books.shape
    if len(q) != m_sub * sub_d:
        raise ValueError("knn_pq: query dim does not match codebooks")
    # ADC table: tab[s, c] = <q_s, books[s, c]>
    tab = np.stack([qn[s * sub_d : (s + 1) * sub_d] @ books[s].T for s in range(m_sub)])
    exclude = set(exclude_ids)
    score_col = "score" if rerank == 0 else "cos"
    n_cand = k if rerank == 0 else rerank * k

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()), score_col: pa.array([], type=pa.float64())}
            )
        m = _to_matrix(t[col])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = (m.T / norms).T
        codes = pq_encode(mn, books)
        score = np.zeros(len(codes), dtype=np.float64)
        for s in range(m_sub):
            score += tab[s][codes[:, s]]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if exclude:
            keep = ~np.isin(ids, list(exclude))
            score, ids, mn = score[keep], ids[keep], mn[keep]
        order = np.lexsort((ids, -score))[:n_cand]
        if rerank > 0:
            # exact cosine on the local ADC winners only, then local top-k
            cos = mn[order] @ qn
            sub = np.lexsort((ids[order], -cos))[:k]
            return pa.table(
                {
                    id_col: pa.array(ids[order][sub], type=pa.int64()),
                    score_col: pa.array(cos[sub], type=pa.float64()),
                }
            )
        return pa.table(
            {
                id_col: pa.array(ids[order], type=pa.int64()),
                score_col: pa.array(score[order], type=pa.float64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return (
        parts.sort_values([score_col, id_col], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
