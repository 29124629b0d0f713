"""Deduplication operators for training-data pipelines (SURVEY.md §2.7 +
driver brief): exact, MinHash-LSH, SimHash, n-gram Jaccard — each expressed
Ray-Data-first over an id+text Dataset of any size.

Shared shape with the flagship ER pipeline (stages/block, stages/pairs,
stages/score.fused_edges_stage): featurize once (the word-shingle mode
through the pages' tokenizer front end, block.token_hashes), then the one
blocked-pair driver, ``pairs.blocked_pair_edges``. Each operator plugs in
its fat-row payload (``id``, ``token_ids``, and ``side`` for the
cross-corpus screen), the doc id as the salt's mixing hash, and its pair
function: ``_pair_verify_partition`` (every pair of a bucket) or
``_cross_verify_partition`` (new x old only), each verifying exact Jaccard
and returning the cap's dropped count out of band of the rows; stage 2
dedups the pairs (``_dedup_pairs``). No marker row, no driver-side pass
over the candidates. Connected components follow for the clustering
operators. Ids here are int64 (doc ids), so clustering uses numeric union
semantics directly.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from entity_resolution_engine_ray.functions.similarity import (
    char_ngram_hashes,
    lsh_band_keys,
    minhash_coefficients,
    minhash_signature,
    stable_hash64,
)
from entity_resolution_engine_ray.stages.grouping import partition_map_groups
from entity_resolution_engine_ray.stages.pairs import (
    _distinct,
    _int64,
    blocked_pair_edges,
    bucket_layout,
    bucket_pairs,
    key_buckets,
)
from entity_resolution_engine_ray.stages.score import _grouped_jaccard_flat, _popcount64


class _DedupFeatures:
    """Actor-pool featureizer: (id, text) → (id, tokens, band_keys).

    mode="token_shingle": word-k-shingle MinHash (web text near-dup).
    mode="char_ngram":    char-n-gram MinHash (short/noisy strings)."""

    def __init__(self, id_col: str, text_col: str, num_perm: int, bands: int, k: int, mode: str):
        self.id_col, self.text_col = id_col, text_col
        self.coeffs = minhash_coefficients(num_perm)
        self.bands, self.k, self.mode = bands, k, mode
        self.cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "token_shingle":
            return self._call_token_shingle(batch)
        texts = batch[self.text_col].to_pylist()
        token_ids_col, keys_col = [], []
        for text in texts:
            # vectorized window ids (injective for k<=3 — see
            # char_ngram_hashes); duplicates are fine: MinHash is
            # duplicate-invariant and token_ids uniques below
            sh = char_ngram_hashes((text or "").lower(), self.k)
            # sorted unique int64 GRAM ids — exact verification runs in
            # the same gram space the MinHash sketches (the standard
            # near-dup contract: the sketch approximates gram-set Jaccard,
            # the verify pass computes it exactly). NB sort AFTER the
            # int64 reinterpret.
            uniq = np.unique(sh)
            token_ids_col.append(np.sort(uniq.view(np.int64)))
            # unique grams only: MinHash is duplicate-invariant, and the
            # (num_perm × n) permute temp scales with n — boilerplate-heavy
            # char-ngram docs repeat windows heavily, so the raw window
            # array can be orders of magnitude larger than its gram set
            sig = minhash_signature(uniq, *self.coeffs)
            keys_col.append(lsh_band_keys(sig, self.bands))
        return pa.table(
            {
                "id": batch[self.id_col],
                "token_ids": pa.array(list(token_ids_col), type=pa.list_(pa.int64())),
                "band_keys": pa.array(keys_col, type=pa.list_(pa.int64())),
            }
        )

    def _call_token_shingle(self, batch: pa.Table) -> pa.Table:
        """Flat whole-batch word-shingle featurization (the pages
        FeatureExtractor's tokenizer front end, block.token_hashes, and the
        same similarity.*_flat kernels; per-doc values pinned identical to
        the scalar path by
        tests/test_block_features.py::test_dedup_flat_parity)."""
        from entity_resolution_engine_ray.functions.similarity import (
            lsh_band_keys_matrix,
            minhash_signatures_flat,
            shingle_hashes_flat,
        )
        from entity_resolution_engine_ray.stages.block import sorted_unique_lists, token_hashes

        n = batch.num_rows
        flat_h, counts = token_hashes(batch[self.text_col], self.cache)
        offsets = np.r_[0, counts.cumsum()]
        flat_sh, sh_counts = shingle_hashes_flat(flat_h, offsets, k=self.k)
        # per-doc sorted unique int64 SHINGLE ids (sort AFTER the int64
        # reinterpret — same order as np.sort(np.unique(sh).view(int64)))
        token_ids_arr = sorted_unique_lists(flat_sh.view(np.int64), sh_counts, pa.int64())
        # MinHash over the per-doc UNIQUE shingles (duplicate-invariant —
        # identical signatures, smaller permute temp)
        sigs = minhash_signatures_flat(
            token_ids_arr.values.to_numpy().view(np.uint64),
            np.diff(token_ids_arr.offsets.to_numpy()).astype(np.int64),
            *self.coeffs,
        )
        band_mat = lsh_band_keys_matrix(sigs, self.bands)
        band_keys_arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * self.bands, self.bands, dtype=np.int32)),
            pa.array(band_mat.reshape(-1), type=pa.int64()),
        )
        return pa.table(
            {
                "id": batch[self.id_col],
                "token_ids": token_ids_arr,
                "band_keys": band_keys_arr,
            }
        )


_PAIRS_SCHEMA = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])

_VERIFY_SCHEMA = _PAIRS_SCHEMA.append(pa.field("jaccard", pa.float64()))

_HAMMING_SCHEMA = _PAIRS_SCHEMA.append(pa.field("hamming", pa.int64()))


def _dedup_pairs(tbl: pa.Table, left: str = "left_id", right: str = "right_id") -> pa.Table:
    """Pair-dedup stage of every blocked-pair operator: one row per
    (``left``, ``right``) pair. Duplicate rows of a pair come from several
    blocks holding both members and carry identical values."""
    if tbl.num_rows == 0:
        return tbl
    return tbl.take(pa.array(_distinct(_int64(tbl[left]), _int64(tbl[right]))))


def _pairs_partition(tbl: pa.Table, cap: int) -> tuple[pa.Table, dict]:
    """One hash partition of (id, block_key) rows → (candidate pairs,
    {"dropped": n}). Buckets over ``cap`` members are deterministically
    truncated (sorted by id) and the pairs lost are counted out of band of
    the rows — never silent (same contract as the pages pairgen)."""
    if tbl.num_rows == 0:
        return _PAIRS_SCHEMA.empty_table(), {"dropped": 0}
    _, ids, starts, sizes, _ = key_buckets(tbl, "block_key", "id")
    # skew cap: deterministic truncation of the sorted bucket
    capped = np.minimum(sizes, cap)
    dropped = int((sizes * (sizes - 1) - capped * (capped - 1)).sum()) // 2
    lidx, ridx, _, _ = bucket_pairs(starts, capped)
    if lidx.size == 0:
        return _PAIRS_SCHEMA.empty_table(), {"dropped": dropped}
    left, right = ids[lidx], ids[ridx]
    sel = _distinct(left, right)
    return pa.table([left[sel], right[sel]], schema=_PAIRS_SCHEMA), {"dropped": dropped}


def _verified(ids: np.ndarray, flat: tuple, lidx: np.ndarray, ridx: np.ndarray, threshold: float) -> pa.Table:
    """Shared tail of the verify partitions: candidate row-index pairs into
    the sorted layout → partition-local pair dedup, exact Jaccard over the
    flat token layout, threshold. Empty-set semantics: both docs empty →
    1.0 inside the kernel; empty vs non-empty → 0.0."""
    if lidx.size == 0:
        return _VERIFY_SCHEMA.empty_table()
    sel = _distinct(ids[lidx], ids[ridx])
    lidx, ridx = lidx[sel], ridx[sel]
    jac = _grouped_jaccard_flat(*flat, lidx, ridx)
    keep = jac >= threshold
    return pa.table([ids[lidx[keep]], ids[ridx[keep]], jac[keep]], schema=_VERIFY_SCHEMA)


def _pair_verify_partition(tbl: pa.Table, cap: int, threshold: float) -> tuple[pa.Table, dict]:
    """One hash partition of fat (id, token_ids, block_key[, salt]) rows →
    (VERIFIED edges (exact Jaccard ≥ threshold), {"dropped": n}). Pairs
    form within each bucket; the cap remains as the backstop for salt hash
    variance, and the pairs it loses are counted out of band of the rows,
    so a partition whose every pair is capped away still reports them."""
    if tbl.num_rows == 0:
        return _VERIFY_SCHEMA.empty_table(), {"dropped": 0}
    _, ids, flat, starts, sizes, _ = bucket_layout(tbl, "id")
    capped = np.minimum(sizes, cap)
    dropped = int((sizes * (sizes - 1) - capped * (capped - 1)).sum()) // 2
    lidx, ridx, _, _ = bucket_pairs(starts, capped)
    return _verified(ids, flat, lidx, ridx, threshold), {"dropped": dropped}


def _cross_verify_partition(tbl: pa.Table, cap: int, threshold: float) -> tuple[pa.Table, dict]:
    """One hash partition of fat (id, token_ids, block_key[, salt], side)
    rows → (verified NEW x OLD edges, {"dropped": n}). Pair generation is
    the CROSS product of a bucket's side=1 (new) and side=0 (old) members —
    new x new and old x old pairs are never formed. ``cap`` bounds each
    side of a bucket; the pairs it loses are counted out of band."""
    if tbl.num_rows == 0:
        return _VERIFY_SCHEMA.empty_table(), {"dropped": 0}
    sides = _int64(tbl["side"])
    # side DESC inside each bucket: new (1) rows first, then old (0)
    order, ids, flat, starts, sizes, _ = bucket_layout(tbl, "id", -sides)
    sides = sides[order]
    lefts, rights = [], []
    dropped = 0
    for s, m in zip(starts, sizes):
        n_new = int(sides[s : s + m].sum())
        n_old = m - n_new
        use_new, use_old = min(n_new, cap), min(n_old, cap)
        dropped += n_new * n_old - use_new * use_old
        if use_new == 0 or use_old == 0:
            continue
        lefts.append(np.repeat(np.arange(use_new, dtype=np.int64), use_old) + s)
        rights.append(np.tile(np.arange(use_old, dtype=np.int64), use_new) + s + n_new)
    if not lefts:
        return _VERIFY_SCHEMA.empty_table(), {"dropped": dropped}
    return _verified(ids, flat, np.concatenate(lefts), np.concatenate(rights), threshold), {
        "dropped": dropped
    }


# process-global featureizer cache (the stages/block.featurize_batch
# pattern): plain-function map_batches tasks schedule elastically with no
# actor-pool ramp-up — measured 1.8 s → 0.4 s at 5k docs — while each worker
# process still builds coefficient tables / token caches once per config
_DEDUP_FEATURE_STATE: dict[tuple, _DedupFeatures] = {}


def _dedup_featurize_batch(batch: pa.Table, **kw) -> pa.Table:
    key = tuple(sorted(kw.items()))
    state = _DEDUP_FEATURE_STATE.get(key)
    if state is None:
        state = _DedupFeatures(**kw)
        _DEDUP_FEATURE_STATE[key] = state
    return state(batch)


def near_dup_edges(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.7,
    num_perm: int = 63,
    bands: int = 21,
    k: int = 3,
    mode: str = "token_shingle",
    max_block_size: int = 256,
    num_partitions: int | None = None,
    featurize_batch_size: int = 512,
):
    """(id, text) → (verified edge Dataset (left_id, right_id, jaccard),
    dropped_pair_count). Fully distributed: one featurize pass, then the
    blocked-pair driver (``pairs.blocked_pair_edges``): the fat band
    explode, singleton prune and hot-key salt run in the split tasks of one
    chained exchange whose first stage pairs and verifies each bucket and
    whose second dedups the pairs; the cap's dropped count comes back out
    of band of the rows."""
    import ray.data as rd

    if bands > num_perm or num_perm % bands != 0:
        raise ValueError(
            f"num_perm ({num_perm}) must be a multiple of bands ({bands}) — "
            "bands > num_perm degenerates every band key to a constant "
            "(whole corpus in one bucket) and a remainder silently discards "
            "permutations"
        )
    # materialize once: the count guard, the featurize pass (and, in
    # near_dup_clusters, the ids_only attach) would otherwise each re-run
    # an unmaterialized upstream pipeline
    ds = ds.materialize()
    # zero-row inputs skip lazy transforms, leaving blocks with the SOURCE
    # schema — the exchange would then see no block_key column; short-circuit
    if ds.count() == 0:
        return rd.from_arrow(_VERIFY_SCHEMA.empty_table()), 0

    feats = ds.map_batches(
        _dedup_featurize_batch,
        fn_kwargs={
            "id_col": id_col,
            "text_col": text_col,
            "num_perm": num_perm,
            "bands": bands,
            "k": k,
            "mode": mode,
        },
        batch_format="pyarrow",
        # featurization is the per-doc-Python stage; parallelism before the
        # first shuffle is bounded by batch count, so heavy modes (char
        # n-grams: ~6x the set size of token shingles) pass a smaller size
        batch_size=featurize_batch_size,
    ).materialize()

    edges, dropped = blocked_pair_edges(
        feats,
        functools.partial(_pair_verify_partition, cap=max_block_size, threshold=threshold),
        _dedup_pairs,
        payload=("id", "token_ids"),
        hash_col="id",
        cap=max_block_size,
        n_key_rows=feats.count() * bands,
        num_partitions=num_partitions,
    )
    return edges, int(dropped)


def _prefix_keys_batch(batch: pa.Table, threshold: float) -> pa.Table:
    """Replace LSH ``band_keys`` with the PPJoin-style prefix of the sorted
    unique shingle ids: for a set of size n and Jaccard threshold t, any
    pair with J >= t shares >= ceil(t*n) elements (J = i/(nx+ny-i) >= t and
    ny >= i give i >= t*nx), so by the prefix-filtering principle
    (Chaudhuri/Ganti/Kaushik 2006; Bayardo AllPairs; Xiao PPJoin) the first
    n - ceil(t*n) + 1 elements under ANY common total order must intersect
    across the pair. The order here is the int64 shingle hash itself —
    token_ids is already sorted — which avoids the global document-frequency
    aggregate the classic rare-first ordering needs (df order is a
    candidate-count heuristic, never a correctness requirement).

    +2 margin on the prefix length: one element for float-ceil landing on
    the wrong side of an integer boundary, one for the verify kernel's
    double-rounded J >= t compare at the exact threshold — costs O(1)
    extra candidates per doc, removes every borderline-ulp concern."""
    tok = batch["token_ids"]
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    offs = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    n = offs[1:] - offs[:-1]
    alpha = np.ceil(threshold * n).astype(np.int64)
    plen = np.minimum(n, n - alpha + 3)
    plen[n == 0] = 0
    starts = np.repeat(offs[:-1], plen)
    within = np.arange(int(plen.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(plen) - plen, plen
    )
    vals = tok.values.take(pa.array(starts + within, type=pa.int64()))
    new_offs = pa.array(np.r_[0, np.cumsum(plen)], type=pa.int32())
    return pa.table(
        {
            "id": batch["id"],
            "token_ids": tok,
            "band_keys": pa.ListArray.from_arrays(new_offs, vals),
        }
    )


def _list_values(t: pa.Table, col: str) -> pa.Table:
    import pyarrow.compute as pc

    n = pc.sum(pc.list_value_length(t[col])).as_py() if t.num_rows else 0
    return pa.table({"n": pa.array([n or 0], type=pa.int64())})


def n_list_values(ds, col: str) -> int:
    """Total list values of ``col`` over ``ds`` — the exploded row count
    that sizes a pair exchange — with one plain task per in-memory block
    (no Ray Data execution)."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import _map_block_refs

    parts = _map_block_refs(ds, functools.partial(_list_values, col=col))
    return sum(t["n"][0].as_py() for t in ray.get([t for t, _ in parts]))


def prefix_jaccard_self_join(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.7,
    k: int = 3,
    max_block_size: int = 4096,
    num_partitions: int | None = None,
    featurize_batch_size: int = 512,
):
    """EXACT set-similarity self-join: all pairs with k-shingle Jaccard >=
    threshold, via lossless prefix filtering — no LSH, no recall asterisk.

    The scale path LSH cannot offer: candidate generation is deterministic
    and complete (prefix-filtering principle), so the result equals the
    exhaustive O(n²) answer by construction, not by a calibrated-recall
    argument. Shares near_dup_edges' entire exchange/verify/dedup tail
    (``pairs.blocked_pair_edges``); only the band_keys column differs.
    Cost profile: ~(1-t)*|set| prefix keys per doc (vs a constant
    ``bands`` for LSH), so prefix keys ship MORE fat rows at low thresholds
    — the operator is the right tool for high thresholds / exactness
    contracts, LSH for recall-tolerant bulk dedup.

    Returns (edges Dataset (left_id, right_id, jaccard), dropped). dropped
    counts pairs lost to the skew cap; exactness holds iff dropped == 0 —
    the default cap is high because a drop here is a WRONG ANSWER, not a
    recall trade (callers on adversarial data should check and raise it)."""
    import ray.data as rd

    ds = ds.materialize()
    if ds.count() == 0:
        return rd.from_arrow(_VERIFY_SCHEMA.empty_table()), 0

    feats = (
        ds.map_batches(
            _dedup_featurize_batch,
            fn_kwargs={
                "id_col": id_col,
                "text_col": text_col,
                # minhash signature is computed then discarded (band_keys are
                # overwritten); 1 perm / 1 band keeps that throwaway work nil
                "num_perm": 1,
                "bands": 1,
                "k": k,
                "mode": "token_shingle",
            },
            batch_format="pyarrow",
            batch_size=featurize_batch_size,
        )
        .map_batches(
            _prefix_keys_batch,
            fn_kwargs={"threshold": threshold},
            batch_format="pyarrow",
        )
        .materialize()
    )
    edges, dropped = blocked_pair_edges(
        feats,
        functools.partial(_pair_verify_partition, cap=max_block_size, threshold=threshold),
        _dedup_pairs,
        payload=("id", "token_ids"),
        hash_col="id",
        cap=max_block_size,
        # exact exploded key count (prefix lengths vary per doc, unlike
        # LSH's constant bands-per-doc)
        n_key_rows=max(n_list_values(feats, "band_keys"), 1),
        num_partitions=num_partitions,
    )
    return edges, int(dropped)


def near_dup_clusters(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.7,
    num_perm: int = 63,
    bands: int = 21,
    k: int = 3,
    mode: str = "token_shingle",
    max_block_size: int = 256,
    num_partitions: int | None = None,
    featurize_batch_size: int = 512,
):
    """Generic near-dup clustering: (id, text) → Dataset (doc_id, cluster_id,
    cluster_size). Candidate pairs verified with EXACT Jaccard ≥ threshold;
    cluster_id = min doc_id of the connected component on both finish paths.

    Size-gated finish, on the gate the flagship pages pipeline reads
    (stages/cluster.DRIVER_EDGE_LIMIT): at or below it, the driver-side
    connected-components kernel (stages/cluster.cluster_label_map → sorted
    ``(nodes, roots)`` arrays over CONNECTED nodes only) + one broadcast
    attach task per block that also looks up cluster sizes. Above it — a
    web corpus where 30-50% of docs are near-dups makes the connected-node
    set O(corpus) — the fully-distributed labelprop CC
    (connected_components_labelprop_ids) + a co-partitioned exchange
    attach (stages/cluster.attach_labels) + one slim sizes exchange:
    nothing driver-side ever materializes the node set."""
    import ray
    import ray.data as rd

    from entity_resolution_engine_ray.stages import cluster
    from entity_resolution_engine_ray.stages.cluster import label_of
    from entity_resolution_engine_ray.stages.exchange import map_blocks

    ds = ds.materialize()  # consumed by the guard, near_dup_edges and the attach
    if ds.count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "cluster_id": pa.array([], type=pa.int64()),
                    "cluster_size": pa.array([], type=pa.int64()),
                }
            )
        )

    edges, dropped = near_dup_edges(
        ds,
        id_col=id_col,
        text_col=text_col,
        threshold=threshold,
        num_perm=num_perm,
        bands=bands,
        k=k,
        mode=mode,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        featurize_batch_size=featurize_batch_size,
    )
    n_edges = edges.count()

    if n_edges <= cluster.DRIVER_EDGE_LIMIT:
        nodes, roots = cluster.cluster_label_map(edges)
        # non-singleton cluster sizes come from the roots driver-side; ids
        # with no edge are singletons of size 1
        state_ref = ray.put((nodes, roots, *np.unique(roots, return_counts=True)))

        def attach(t: pa.Table) -> pa.Table:
            nodes, roots, clusters, sizes = ray.get(state_ref)
            ids = _int64(t[id_col]) if t.num_rows else np.empty(0, np.int64)
            labels = label_of(nodes, roots, ids)
            return pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "cluster_id": pa.array(labels, type=pa.int64()),
                    "cluster_size": pa.array(
                        label_of(clusters, sizes, labels, default=1), type=pa.int64()
                    ),
                }
            )

        return map_blocks(ds, attach)

    # the id projection runs in the attach exchange's split tasks
    labels = cluster.connected_components_labelprop_ids(edges, num_partitions=num_partitions)
    labeled = cluster.attach_labels(ds, id_col, labels, num_partitions, columns=[id_col])

    def sizes_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        size = pdf.groupby("cluster_label")[id_col].transform("size")
        return pd.DataFrame(
            {
                "doc_id": pdf[id_col].to_numpy(dtype=np.int64),
                "cluster_id": pdf["cluster_label"].to_numpy(dtype=np.int64),
                "cluster_size": size.to_numpy(dtype=np.int64),
            }
        )

    return partition_map_groups(labeled, ["cluster_label"], sizes_partition, num_partitions)


def minhash_near_dup_clusters(ds, id_col="doc_id", text_col="text", **kw):
    return near_dup_clusters(ds, id_col=id_col, text_col=text_col, mode="token_shingle", **kw)


def ngram_near_dup_clusters(ds, id_col="doc_id", text_col="text", n: int = 3, **kw):
    # char n-gram sets are ~6x the size of token-shingle sets per doc, so
    # the verify kernel + exchange payload still cost more than
    # near_dup_minhash (set size is the lever — r3 batch-size A/B); the
    # former featurization hot spot (per-gram Python hashing + per-doc
    # sorted()) is gone: char_ngram_hashes is n shifted vector ops per doc
    return near_dup_clusters(ds, id_col=id_col, text_col=text_col, mode="char_ngram", k=n, **kw)


# process-global token-hash cache of ``simhash_stage`` (one per worker
# process, bounded by similarity.hash_uniques)
_SIMHASH_TOKEN_CACHE: dict[str, int] = {}


def simhash_stage(ds, id_col="doc_id", text_col="text"):
    """(id, text) → (id, simhash:int64) — vectorized fingerprints: the
    tokenizer front end (block.token_hashes) + similarity.simhash64_flat."""
    from entity_resolution_engine_ray.functions.similarity import simhash64_flat
    from entity_resolution_engine_ray.stages.block import token_hashes

    def fp(batch: pa.Table) -> pa.Table:
        flat_h, counts = token_hashes(batch[text_col], _SIMHASH_TOKEN_CACHE)
        out = simhash64_flat(flat_h, np.r_[0, counts.cumsum()])
        return pa.table({id_col: batch[id_col], "simhash": pa.array(out, type=pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow")


def exact_dedup(ds, id_col: str, content_col: str, num_partitions: int | None = None):
    """Exact dedup: hash-partition on a 64-bit content hash, keep min id per
    group (first-per-key). Returns (id, n_dupes)."""
    import ray.data as rd

    # zero-row inputs skip the lazy hash map, so the exchange would hand
    # first_per_key a SOURCE-schema frame with no 'h' column
    if ds.count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_dupes": pa.array([], type=pa.int64()),
                }
            )
        )

    def add_hash(t: pa.Table) -> pa.Table:
        h = pa.array([stable_hash64(x or "") for x in t[content_col].to_pylist()], type=pa.int64())
        return pa.table({id_col: t[id_col], "h": h})

    def first_per_key(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("h", as_index=False).agg(**{id_col: (id_col, "min"), "n_dupes": (id_col, "size")})
        g["n_dupes"] = g["n_dupes"].astype(np.int64)
        return g[[id_col, "n_dupes"]]

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return partition_map_groups(hashed, ["h"], first_per_key, num_partitions)


def simhash_near_dup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    num_partitions: int | None = None,
    bucket_cap: int = 4096,
):
    """SimHash near-dup: (id, text) → verified pairs (left_id, right_id,
    hamming) with hamming(simhash) <= ``max_hamming``.

    Banded hamming-LSH with GUARANTEED recall: the 64-bit fingerprint splits
    into B = max_hamming+1 contiguous bands; two fingerprints within
    ``max_hamming`` differing bits agree exactly on at least one band
    (pigeonhole), so bucketing on (band_index, band_bits) never misses a
    qualifying pair. Per-bucket membership beyond ``bucket_cap`` is
    deterministically truncated (sorted by id) — boilerplate-heavy web
    corpora hit this; lift it with the salting pattern of stages/pairs
    (_salt_batch) when precision-complete output matters. Each partition
    returns its truncation count out of band of the rows and the run's
    total is logged once. The band explode runs in the split tasks of one
    chained exchange whose second stage removes duplicate pair emissions
    across bands. max_hamming <= 7 keeps band width >= 8 bits."""
    if not 0 <= max_hamming <= 7:
        raise ValueError("simhash_near_dup_pairs: max_hamming must be in [0, 7]")
    n_bands = max_hamming + 1
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)

    import logging

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained
    from entity_resolution_engine_ray.stages.pairs import pair_partitions

    fp = simhash_stage(ds, id_col=id_col, text_col=text_col).materialize()

    def explode_bands(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({})
        ids = t[id_col].to_numpy()
        sh = t["simhash"].to_numpy().view(np.uint64)
        n = len(ids)
        key = np.empty(n * n_bands, dtype=np.uint64)
        for b in range(n_bands):
            bits = (sh >> np.uint64(b * width)) & mask
            key[b * n : (b + 1) * n] = (np.uint64(b) << np.uint64(58)) | bits
        return pa.table(
            {
                "band_key": pa.array(key.view(np.int64), type=pa.int64()),
                id_col: pa.array(np.tile(ids, n_bands), type=pa.int64()),
                "simhash": pa.array(np.tile(sh.view(np.int64), n_bands), type=pa.int64()),
            }
        )

    def hamming_pairs(t: pa.Table) -> tuple[pa.Table, dict]:
        if t.num_rows == 0:
            return _HAMMING_SCHEMA.empty_table(), {"truncated": 0}
        order, ids, starts, sizes, _ = key_buckets(t, "band_key", id_col)
        sh = _int64(t["simhash"])[order].view(np.uint64)
        capped = np.minimum(sizes, bucket_cap)
        lidx, ridx, _, _ = bucket_pairs(starts, capped)
        h = _popcount64(np.bitwise_xor(sh[lidx], sh[ridx]))
        keep = h <= max_hamming
        cols = [ids[lidx[keep]], ids[ridx[keep]], h[keep].astype(np.int64)]
        return pa.table(cols, schema=_HAMMING_SCHEMA), {"truncated": int((sizes - capped).sum())}

    parts = pair_partitions(fp.count() * n_bands, num_partitions)
    pairs, counts = hash_exchange_chained(
        fp,
        ["band_key"],
        hamming_pairs,
        parts,
        ["left_id", "right_id"],
        _dedup_pairs,
        parts,
        arrow_fns=True,
        block_fn=explode_bands,
    )
    if counts.get("truncated"):  # counted, never silent: once per run
        logging.getLogger(__name__).warning(
            "simhash_near_dup_pairs: %d bucket members beyond bucket_cap %d "
            "truncated (recall guarantee voided for them; lift with the "
            "stages/pairs salting pattern)",
            counts["truncated"],
            bucket_cap,
        )
    return pairs


def cross_corpus_near_dup_pairs(
    new_ds,
    old_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.7,
    num_perm: int = 63,
    bands: int = 21,
    k: int = 3,
    mode: str = "token_shingle",
    max_block_size: int = 256,
    num_partitions: int | None = None,
    featurize_batch_size: int = 512,
):
    """Incremental NEAR-dup screen: (new_id, old_id, jaccard) for every new
    doc whose k-shingle Jaccard against some ingested doc clears
    ``threshold`` — the fuzzy companion of the exact cross-corpus dedup.

    Both sides run the SAME MinHash featurizer (identical band keys), union
    with a side tag, and flow through ONE fat band exchange whose verify
    kernel forms only new x old pairs — the ingested corpus is never paired
    against itself, so a daily batch costs O(batch-side buckets), not
    O(corpus^2). Returns (edges Dataset(left_id=new, right_id=old,
    jaccard), dropped_pair_count)."""
    import ray.data as rd

    if bands > num_perm or num_perm % bands != 0:
        raise ValueError(
            f"num_perm ({num_perm}) must be a multiple of bands ({bands})"
        )
    kw = {
        "id_col": id_col,
        "text_col": text_col,
        "num_perm": num_perm,
        "bands": bands,
        "k": k,
        "mode": mode,
    }
    # materialize BEFORE the empty-side guard: count() on an unmaterialized
    # (typically filtered) dataset would execute each input pipeline once
    # for the guard and again for the featurize pass; after materialize the
    # counts are metadata-only and featurization reads the cached blocks
    new_ds = new_ds.materialize()
    old_ds = old_ds.materialize()
    if new_ds.count() == 0 or old_ds.count() == 0:
        return rd.from_arrow(_VERIFY_SCHEMA.empty_table()), 0

    def tag(side: int):
        def add(t: pa.Table) -> pa.Table:
            return t.append_column("side", pa.array(np.full(t.num_rows, side, dtype=np.int64)))

        return add

    feats = (
        new_ds.map_batches(_dedup_featurize_batch, fn_kwargs=kw, batch_format="pyarrow",
                           batch_size=featurize_batch_size).map_batches(tag(1), batch_format="pyarrow")
        .union(
            old_ds.map_batches(_dedup_featurize_batch, fn_kwargs=kw, batch_format="pyarrow",
                               batch_size=featurize_batch_size).map_batches(tag(0), batch_format="pyarrow")
        )
        .materialize()
    )

    edges, dropped = blocked_pair_edges(
        feats,
        functools.partial(_cross_verify_partition, cap=max_block_size, threshold=threshold),
        _dedup_pairs,
        payload=("id", "token_ids", "side"),
        hash_col="id",
        cap=max_block_size,
        n_key_rows=feats.count() * bands,
        num_partitions=num_partitions,
    )
    return edges, int(dropped)
