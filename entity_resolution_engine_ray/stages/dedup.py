"""Deduplication operators for training-data pipelines (SURVEY.md §2.7 +
driver brief): exact, MinHash-LSH, SimHash, n-gram Jaccard — each expressed
Ray-Data-first over an id+text Dataset of any size.

Shared shape with the flagship ER pipeline (stages/block, stages/pairs):
shingle → minhash → band → bucket groupby (partition-grouped, skew-capped) →
candidate pairs → exact verification → connected components. Ids here are
int64 (doc ids), so clustering uses numeric union semantics directly.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from entity_resolution_engine_ray.functions.similarity import (
    char_ngram_hashes,
    hash_tokens,
    lsh_band_keys,
    minhash_coefficients,
    minhash_signature,
    simhash64,
    stable_hash64,
)
from entity_resolution_engine_ray.oracle.serial import canonical_tokens
from entity_resolution_engine_ray.stages.grouping import auto_partitions, partition_map_groups


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
        """Flat whole-batch word-shingle featurization (same kernels as the
        pages FeatureExtractor — similarity.*_flat; per-doc values pinned
        identical to the scalar path by tests/test_dedup_flat_parity)."""
        import pyarrow.compute as pc

        from entity_resolution_engine_ray.stages.block import (
            _comb,
            _split_canonical_ascii,
        )
        from entity_resolution_engine_ray.functions.similarity import (
            hash_tokens_flat,
            lsh_band_keys_matrix,
            minhash_signatures_flat,
            shingle_hashes_flat,
        )

        n = batch.num_rows
        arr = pc.fill_null(_comb(batch[self.text_col]), "")
        if n and pc.all(pc.string_is_ascii(arr)).as_py():
            flat_vals, counts = _split_canonical_ascii(arr)
            denc = _comb(flat_vals).dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniq_toks = denc.dictionary.to_pylist()
            uh = np.empty(len(uniq_toks), dtype=np.int64)
            cache = self.cache
            for i, t in enumerate(uniq_toks):
                h = cache.get(t)
                if h is None:
                    h = stable_hash64(t)
                    cache[t] = h
                uh[i] = h
            flat_h = (
                uh.astype(np.uint64)[codes] if len(codes) else np.empty(0, dtype=np.uint64)
            )
        else:
            texts = arr.to_pylist()
            toks_per_doc = [canonical_tokens(t) for t in texts]
            counts = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64, count=n)
            flat_tokens = np.array(
                [t for toks in toks_per_doc for t in toks], dtype=object
            )
            flat_h = hash_tokens_flat(flat_tokens, self.cache)
        offsets = np.r_[0, counts.cumsum()]
        flat_sh, sh_counts = shingle_hashes_flat(flat_h, offsets, k=self.k)
        # per-doc sorted unique int64 SHINGLE ids (sort AFTER the int64
        # reinterpret — same order as np.sort(np.unique(sh).view(int64)))
        sv = flat_sh.view(np.int64)
        sh_doc = np.repeat(np.arange(n, dtype=np.int64), sh_counts)
        perm = np.lexsort((sv, sh_doc))
        dsr, vsr = sh_doc[perm], sv[perm]
        keep = (
            np.r_[True, (dsr[1:] != dsr[:-1]) | (vsr[1:] != vsr[:-1])]
            if len(dsr)
            else np.zeros(0, dtype=bool)
        )
        ucounts = np.bincount(dsr[keep], minlength=n) if len(dsr) else np.zeros(n, np.int64)
        token_ids_arr = pa.ListArray.from_arrays(
            pa.array(np.r_[0, ucounts.cumsum()].astype(np.int32)),
            pa.array(vsr[keep] if len(dsr) else np.zeros(0, np.int64), type=pa.int64()),
        )
        # MinHash over the per-doc UNIQUE shingles (duplicate-invariant —
        # identical signatures, smaller permute temp)
        sigs = minhash_signatures_flat(
            vsr[keep].view(np.uint64) if len(dsr) else np.empty(0, np.uint64),
            ucounts,
            *self.coeffs,
        )
        band_mat = lsh_band_keys_matrix(sigs, self.bands)
        band_keys_arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * self.bands, self.bands, dtype=np.int32)),
            pa.array(band_mat.reshape(-1), type=pa.int64()),
        )
        if len(self.cache) > 2_000_000:
            self.cache.clear()
        return pa.table(
            {
                "id": batch[self.id_col],
                "token_ids": token_ids_arr,
                "band_keys": band_keys_arr,
            }
        )


def _pairs_partition(pdf: pd.DataFrame, cap: int) -> pd.DataFrame:
    """One hash partition of (id, block_key) rows → candidate pairs.

    Buckets over ``cap`` members are deterministically truncated (sorted by
    id) and the dropped members are COUNTED in a ``dropped`` column — never
    silent (same contract as the pages pairgen, stages/pairs.py)."""
    from entity_resolution_engine_ray.stages.score import triu_pairs

    pdf = pdf.sort_values(["block_key", "id"], kind="mergesort")
    keys = pdf["block_key"].to_numpy()
    ids = pdf["id"].to_numpy()
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.r_[0, change]
    ends = np.r_[change, len(pdf)]
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(starts, ends):
        m = e - s
        if m < 2:
            continue
        if m > cap:  # skew cap: deterministic truncation of the sorted bucket
            dropped += (m * (m - 1) - cap * (cap - 1)) // 2
            e = s + cap
            m = cap
        ii, jj = triu_pairs(m)
        lefts.append(ids[s:e][ii])
        rights.append(ids[s:e][jj])
    if not lefts:
        return pd.DataFrame(
            {
                "left_id": pd.Series([], dtype=np.int64),
                "right_id": pd.Series([], dtype=np.int64),
                "dropped": pd.Series([], dtype=np.int64),
            }
        )
    out = pd.DataFrame(
        {"left_id": np.concatenate(lefts), "right_id": np.concatenate(rights)}
    ).drop_duplicates()
    drops = np.zeros(len(out), dtype=np.int64)
    drops[0] = dropped
    return out.assign(dropped=drops)


def _dedup_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.drop_duplicates(["left_id", "right_id"])


def _explode_fat(batch: pa.Table) -> pa.Table:
    """(id, token_ids, band_keys) → one (id, token_ids, block_key) row per
    band — ships the int64 token-id payload through ONE hash exchange
    instead of two join barriers (the pages pipeline's fat-block pattern,
    stages/block.py). Int lists stay zero-copy Arrow through the shuffle."""
    keys = batch["band_keys"]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    flat = keys.flatten()
    counts = np.diff(keys.offsets.to_numpy(zero_copy_only=False))
    idx = pa.array(np.repeat(np.arange(len(keys)), counts), type=pa.int64())
    cols = {"block_key": flat}
    payload = ["id", "token_ids"] + (["side"] if "side" in batch.column_names else [])
    for name in payload:
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[name] = col.take(idx)
    return pa.table(cols)


def _salted_fat_rows(batch: pa.Table, keep_ref, hot: dict[int, int]) -> pa.Table:
    """Split function of the verify exchange: the fat explode, the
    singleton-bucket prune (``keep_ref``: broadcast pairable keys, when
    known) and the hot-key salt with the doc id as the mixing hash. A
    zero-row block routes nothing; the exchange keeps a typed block for an
    empty partition when any block has one."""
    from entity_resolution_engine_ray.stages.pairs import _salt_batch
    from entity_resolution_engine_ray.stages.score import _keep_block_keys

    if batch.num_rows == 0:
        return pa.table({})
    fat = _explode_fat(batch)
    if keep_ref is not None:
        fat = _keep_block_keys(fat, keep_ref)
    return _salt_batch(fat, hot, hash_col="id")


_VERIFY_COLS = ["left_id", "right_id", "jaccard", "dropped", "is_marker"]

_VERIFY_SCHEMA = pa.schema(
    [
        ("left_id", pa.int64()),
        ("right_id", pa.int64()),
        ("jaccard", pa.float64()),
        ("dropped", pa.int64()),
        ("is_marker", pa.bool_()),
    ]
)


def _verify_stats_batch(t: pa.Table) -> pa.Table:
    """Per-batch (dropped total, non-marker survivor count) over a verify
    output — shared by the single-corpus and cross-corpus edge tails so the
    marker/dropped accounting can never drift between them."""
    import pyarrow.compute as pc

    return pa.table(
        {
            "dropped": pa.array([pc.sum(t["dropped"]).as_py() or 0], type=pa.int64()),
            "n_real": pa.array(
                [t.num_rows - (pc.sum(pc.cast(t["is_marker"], pa.int64())).as_py() or 0)],
                type=pa.int64(),
            ),
        }
    )


def _marker_table(dropped: int) -> pa.Table:
    return pa.table(
        {
            "left_id": pa.array([0], type=pa.int64()),
            "right_id": pa.array([0], type=pa.int64()),
            "jaccard": pa.array([0.0], type=pa.float64()),
            "dropped": pa.array([dropped], type=pa.int64()),
            "is_marker": pa.array([True], type=pa.bool_()),
        }
    )


def _pair_verify_partition(tbl: pa.Table, cap: int, threshold: float) -> pa.Table:
    """One hash partition of fat (id, token_ids, block_key[, salt]) rows →
    VERIFIED edges (exact Jaccard ≥ threshold). Hot buckets arrive pre-split
    by salt; the cap + ``dropped`` counter remain as the backstop for salt
    hash variance.

    Arrow-native (same layout trick as the pages scorer,
    stages/score._pair_score_partition): keys sort via ``np.lexsort``,
    Jaccard runs on the grouped-searchsorted kernel over the token
    ListArray's flat (values, offsets) buffers — no pandas conversion, no
    per-row numpy objects, no Python set objects. When drops occur but no
    pair clears the threshold, the count rides on an ``is_marker=True`` row
    (NEVER an id sentinel: any int64 — including negative values — is a
    legal document id)."""
    from entity_resolution_engine_ray.stages.score import (
        _combined,
        _grouped_jaccard_flat,
        triu_pairs,
    )

    if tbl.num_rows == 0:
        return _VERIFY_SCHEMA.empty_table()
    keys = tbl["block_key"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    ids = tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    if "salt" in tbl.column_names:
        salts = tbl["salt"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    else:
        salts = np.zeros(len(keys), dtype=np.int64)
    order = np.lexsort((ids, salts, keys))  # primary key: block_key
    keys, salts, ids = keys[order], salts[order], ids[order]
    tok = _combined(tbl["token_ids"])
    toffs = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    tvals = tok.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    tstarts = toffs[:-1][order]
    tlens = (toffs[1:] - toffs[:-1])[order]
    change = np.flatnonzero((keys[1:] != keys[:-1]) | (salts[1:] != salts[:-1])) + 1
    starts = np.r_[0, change]
    ends = np.r_[change, tbl.num_rows]
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(starts, ends):
        m = e - s
        if m < 2:
            continue
        if m > cap:
            dropped += (m * (m - 1) - cap * (cap - 1)) // 2
            e = s + cap
            m = cap
        ii, jj = triu_pairs(m)
        lefts.append(ii + s)
        rights.append(jj + s)
    if not lefts:
        return _marker_table(dropped) if dropped else _VERIFY_SCHEMA.empty_table()
    lidx = np.concatenate(lefts)
    ridx = np.concatenate(rights)
    # partition-local pair dedup before the (expensive) exact verify
    pl, pr = ids[lidx], ids[ridx]
    perm = np.lexsort((pr, pl))
    pls, prs = pl[perm], pr[perm]
    first = np.r_[True, (pls[1:] != pls[:-1]) | (prs[1:] != prs[:-1])]
    sel = perm[first]
    lidx, ridx = lidx[sel], ridx[sel]
    # empty-set semantics match the old string-set path: union==0 (both
    # docs empty) → 1.0 inside the kernel; empty vs non-empty → 0.0
    jac = _grouped_jaccard_flat(tvals, tstarts, tlens, lidx, ridx)
    keep = jac >= threshold
    n_keep = int(keep.sum())
    if n_keep == 0:
        return _marker_table(dropped) if dropped else _VERIFY_SCHEMA.empty_table()
    drops = np.zeros(n_keep, dtype=np.int64)
    drops[0] = dropped
    return pa.table(
        {
            "left_id": pa.array(ids[lidx[keep]], type=pa.int64()),
            "right_id": pa.array(ids[ridx[keep]], type=pa.int64()),
            "jaccard": pa.array(jac[keep], type=pa.float64()),
            "dropped": pa.array(drops, type=pa.int64()),
            "is_marker": pa.array(np.zeros(n_keep, dtype=bool), type=pa.bool_()),
        }
    )


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
    dropped_pair_count). Fully distributed: feature → fat band explode →
    ONE hash exchange with in-partition pair-gen + exact-Jaccard verify →
    one slim dedup exchange."""
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
        empty = pa.table(
            {
                "left_id": pa.array([], type=pa.int64()),
                "right_id": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
        return rd.from_arrow(empty), 0

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

    return _edges_from_feats(
        feats,
        threshold=threshold,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        n_fat=feats.count() * bands,
    )


def _edges_from_feats(feats, *, threshold, max_block_size, num_partitions, n_fat):
    """Shared candidate→verify→dedup tail over a materialized
    (id, token_ids, band_keys) feature Dataset. Candidate semantics are
    whatever produced ``band_keys`` — LSH bands (near_dup_edges) or the
    lossless PPJoin prefix (prefix_jaccard_self_join); everything after the
    key column is identical: ONE salted fat hash exchange with in-partition
    pair-gen + exact-Jaccard verify, then one slim pair-dedup exchange.
    ``n_fat`` is the exploded (id, key) row count for partition sizing."""
    import ray.data as rd

    # hot-bucket salting (same scheme as the pages pipeline, same vectorized
    # kernel — stages/pairs._salt_batch with the doc id as the mixing hash):
    # buckets over the cap are split into deterministic id-hash sub-buckets
    # instead of being truncated — identical docs beyond the cap still pair
    # (within their salt; cross-salt recall is carried by the other bands).
    # The count pass runs over key-only rows — no token payload.
    import ray

    from entity_resolution_engine_ray.stages.block import block_keys
    from entity_resolution_engine_ray.stages.pairs import key_stats

    # the key-only explode runs inside key_stats' split tasks; the
    # metadata-only count on the materialized features sizes its exchange
    hot, pairable, n_pruned = key_stats(feats, max_block_size, n_rows_hint=n_fat, block_fn=block_keys)
    # singleton-bucket prune: keys with one member can never pair — their
    # fat (token-payload) rows are dropped in the split tasks, before the
    # hash exchange (exactly output-preserving; see pairs.key_stats)
    keep_ref = None if pairable is None else ray.put(pairable)
    # partition counts scale with the PRUNED row count (the rows that
    # actually enter the exchange) AND the cluster; ~200k rows/partition —
    # the fused-exchange cost model from the 1M sweep (pairs.key_stats
    # docstring) — unless the caller pins an explicit count
    fat_parts = (
        auto_partitions(n_pruned if pairable is not None else n_fat,
                        rows_per_partition=200_000)
        if num_partitions is None
        else int(np.clip(n_fat // 50_000 + 1, 4, num_partitions))
    )
    raw = partition_map_groups(
        feats,
        ["block_key", "salt"],
        lambda p: _pair_verify_partition(p, max_block_size, threshold),
        fat_parts,
        arrow_fns=True,
        block_fn=functools.partial(_salted_fat_rows, keep_ref=keep_ref, hot=hot),
    ).materialize()
    # ONE pass over raw computes both the dropped total (over ALL rows —
    # is_marker rows exist exactly so a partition with drops but no
    # surviving pair still reports them) and the survivor count
    parts = raw.map_batches(_verify_stats_batch, batch_format="pyarrow").take_all()
    dropped = sum(r["dropped"] for r in parts)
    n_real = sum(r["n_real"] for r in parts)
    edges = raw.filter(expr="is_marker == False")
    # an all-marker result would leave zero-row (or zero-column) blocks that
    # crash the downstream exchange — short-circuit to the typed empty table
    if n_real == 0:
        empty = pa.table(
            {
                "left_id": pa.array([], type=pa.int64()),
                "right_id": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
        return rd.from_arrow(empty), dropped
    dedup_parts = (
        auto_partitions(n_real, rows_per_partition=100_000)
        if num_partitions is None
        else int(np.clip(n_real // 100_000 + 1, 4, num_partitions))
    )
    edges = partition_map_groups(
        edges.drop_columns(["dropped", "is_marker"]),
        ["left_id", "right_id"],
        _dedup_pairs,
        dedup_parts,
    )
    return edges, dropped


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


def _key_count_batch(t: pa.Table) -> pa.Table:
    keys = t["band_keys"]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pa.table({"n": pa.array([len(keys.values)], type=pa.int64())})


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
    (_edges_from_feats); only the band_keys column differs. Cost profile:
    ~(1-t)*|set| prefix keys per doc (vs a constant ``bands`` for LSH), so
    prefix keys ship MORE fat rows at low thresholds — the operator is the
    right tool for high thresholds / exactness contracts, LSH for recall-
    tolerant bulk dedup.

    Returns (edges Dataset (left_id, right_id, jaccard), dropped). dropped
    counts pairs lost to the skew cap; exactness holds iff dropped == 0 —
    the default cap is high because a drop here is a WRONG ANSWER, not a
    recall trade (callers on adversarial data should check and raise it)."""
    import ray.data as rd

    ds = ds.materialize()
    if ds.count() == 0:
        empty = pa.table(
            {
                "left_id": pa.array([], type=pa.int64()),
                "right_id": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
        return rd.from_arrow(empty), 0

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
    # exact exploded key count: one cheap offsets-only pass over the
    # materialized features (prefix lengths vary per doc, unlike LSH's
    # constant bands-per-doc)
    n_fat = sum(
        r["n"] for r in feats.map_batches(_key_count_batch, batch_format="pyarrow").take_all()
    )
    return _edges_from_feats(
        feats,
        threshold=threshold,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        n_fat=max(n_fat, 1),
    )


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
    local_cluster_edge_threshold: int = 2_000_000,
    featurize_batch_size: int = 512,
):
    """Generic near-dup clustering: (id, text) → Dataset (doc_id, cluster_id,
    cluster_size). Candidate pairs verified with EXACT Jaccard ≥ threshold;
    cluster_id = min doc_id of the connected component on both finish paths.

    Size-gated finish (the same gate as the flagship pages pipeline,
    pipelines/pages_er.py): at or below ``local_cluster_edge_threshold``
    verified edges, the driver-side connected-components kernel
    (stages/cluster.cluster_label_map → sorted ``(nodes, roots)`` arrays over
    CONNECTED nodes only) + one broadcast attach pass that also looks up
    cluster sizes. Above it — a web corpus where 30-50% of docs are
    near-dups makes the connected-node set O(corpus) — the fully-distributed
    labelprop CC (connected_components_labelprop_ids) + a co-partitioned
    exchange attach (stages/cluster.attach_labels) + one slim sizes
    exchange: nothing driver-side ever materializes the node set."""
    import ray
    import ray.data as rd

    from entity_resolution_engine_ray.stages.cluster import (
        attach_labels,
        cluster_label_map,
        connected_components_labelprop_ids,
        label_of,
    )

    ds = ds.materialize()  # consumed by the guard, near_dup_edges AND ids_only
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
    edges = edges.materialize()  # consumed by the gate count + clustering
    ids_only = ds.select_columns([id_col])
    n_edges = edges.count()

    if n_edges <= local_cluster_edge_threshold:
        nodes, roots = cluster_label_map(edges)
        # non-singleton cluster sizes come from the roots driver-side; ids
        # with no edge are singletons of size 1
        state_ref = ray.put((nodes, roots, *np.unique(roots, return_counts=True)))

        def attach(t: pa.Table) -> pa.Table:
            nodes, roots, clusters, sizes = ray.get(state_ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
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

        return ids_only.map_batches(attach, batch_format="pyarrow")

    int_edges = edges.map_batches(
        lambda t: pa.table({"src": t["left_id"], "dst": t["right_id"]}),
        batch_format="pyarrow",
    )
    labels = connected_components_labelprop_ids(int_edges, num_partitions=num_partitions)
    labeled = attach_labels(ids_only, id_col, labels, num_partitions)

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


def simhash_stage(ds, id_col="doc_id", text_col="text"):
    """(id, text) → (id, simhash:int64) — stateless vectorized fingerprints."""

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        out = np.empty(len(texts), dtype=np.int64)
        cache: dict[str, int] = {}
        for i, t in enumerate(texts):
            out[i] = simhash64(hash_tokens(canonical_tokens(t or ""), cache))
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
    (_salt_batch) when precision-complete output matters. Duplicate pair
    emissions across bands are removed by a second hash exchange keyed on
    the id pair. max_hamming <= 7 keeps band width >= 8 bits."""
    if not 0 <= max_hamming <= 7:
        raise ValueError("simhash_near_dup_pairs: max_hamming must be in [0, 7]")
    n_bands = max_hamming + 1
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)

    fp = simhash_stage(ds, id_col=id_col, text_col=text_col)

    def explode_bands(t: pa.Table) -> pa.Table:
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

    exploded = fp.map_batches(explode_bands, batch_format="pyarrow")

    empty_pairs = pd.DataFrame(
        {
            "left_id": pd.Series([], dtype=np.int64),
            "right_id": pd.Series([], dtype=np.int64),
            "hamming": pd.Series([], dtype=np.int64),
        }
    )

    def bucket_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return empty_pairs.copy()
        pdf = pdf.sort_values(["band_key", id_col], kind="mergesort")
        keys = pdf["band_key"].to_numpy()
        ids = pdf[id_col].to_numpy()
        sh = pdf["simhash"].to_numpy().view(np.uint64)
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.r_[0, change]
        ends = np.r_[change, len(pdf)]
        lefts, rights, hams = [], [], []
        truncated = 0
        for s, e in zip(starts, ends):
            m = min(e - s, bucket_cap)
            truncated += (e - s) - m
            if m < 2:
                continue
            ii, jj = np.triu_indices(m, k=1)
            sub_ids = ids[s : s + m]
            x = np.bitwise_xor(sh[s : s + m][ii], sh[s : s + m][jj])
            h = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
            keep = h <= max_hamming
            lefts.append(sub_ids[ii[keep]])
            rights.append(sub_ids[jj[keep]])
            hams.append(h[keep].astype(np.int64))
        if truncated:  # counted, never silent (same contract as _pairs_partition)
            import logging

            logging.getLogger(__name__).warning(
                "simhash_near_dup_pairs: %d bucket members beyond bucket_cap %d "
                "truncated in one partition (recall guarantee voided for them; "
                "lift with the stages/pairs salting pattern)",
                truncated,
                bucket_cap,
            )
        if not lefts:
            return empty_pairs.copy()
        return pd.DataFrame(
            {
                "left_id": np.concatenate(lefts),
                "right_id": np.concatenate(rights),
                "hamming": np.concatenate(hams),
            }
        )

    pairs = partition_map_groups(exploded, ["band_key"], bucket_pairs, num_partitions)

    def distinct_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return empty_pairs.copy()
        return pdf.drop_duplicates(["left_id", "right_id"])

    return partition_map_groups(pairs, ["left_id", "right_id"], distinct_pairs, num_partitions)


def _cross_verify_partition(tbl: pa.Table, cap: int, threshold: float) -> pa.Table:
    """One hash partition of fat (id, token_ids, block_key[, salt], side)
    rows → verified NEW x OLD edges (exact Jaccard >= threshold). Same
    Arrow-flat layout as ``_pair_verify_partition``, but pair generation is
    the CROSS product of a block's side=1 (new) and side=0 (old) members —
    new x new and old x old pairs are never formed. ``cap`` bounds each
    side of a block; capped pairs are counted in ``dropped``."""
    from entity_resolution_engine_ray.stages.score import _combined, _grouped_jaccard_flat

    if tbl.num_rows == 0:
        return _VERIFY_SCHEMA.empty_table()
    keys = tbl["block_key"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    ids = tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    sides = tbl["side"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    if "salt" in tbl.column_names:
        salts = tbl["salt"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    else:
        salts = np.zeros(len(keys), dtype=np.int64)
    # side DESC inside each block: new (1) rows first, then old (0)
    order = np.lexsort((ids, -sides, salts, keys))
    keys, salts, ids, sides = keys[order], salts[order], ids[order], sides[order]
    tok = _combined(tbl["token_ids"])
    toffs = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    tvals = tok.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    tstarts = toffs[:-1][order]
    tlens = (toffs[1:] - toffs[:-1])[order]
    change = np.flatnonzero((keys[1:] != keys[:-1]) | (salts[1:] != salts[:-1])) + 1
    starts = np.r_[0, change]
    ends = np.r_[change, tbl.num_rows]
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(starts, ends):
        n_new = int(sides[s:e].sum())
        n_old = (e - s) - n_new
        if n_new == 0 or n_old == 0:
            continue
        use_new, use_old = min(n_new, cap), min(n_old, cap)
        dropped += n_new * n_old - use_new * use_old
        ii = np.repeat(np.arange(use_new, dtype=np.int64), use_old) + s
        jj = np.tile(np.arange(use_old, dtype=np.int64), use_new) + s + n_new
        lefts.append(ii)
        rights.append(jj)
    if not lefts:
        return _marker_table(dropped) if dropped else _VERIFY_SCHEMA.empty_table()
    lidx = np.concatenate(lefts)
    ridx = np.concatenate(rights)
    pl, pr = ids[lidx], ids[ridx]
    perm = np.lexsort((pr, pl))
    pls, prs = pl[perm], pr[perm]
    first = np.r_[True, (pls[1:] != pls[:-1]) | (prs[1:] != prs[:-1])]
    sel = perm[first]
    lidx, ridx = lidx[sel], ridx[sel]
    jac = _grouped_jaccard_flat(tvals, tstarts, tlens, lidx, ridx)
    keep = jac >= threshold
    n_keep = int(keep.sum())
    if n_keep == 0:
        return _marker_table(dropped) if dropped else _VERIFY_SCHEMA.empty_table()
    drops = np.zeros(n_keep, dtype=np.int64)
    drops[0] = dropped
    return pa.table(
        {
            "left_id": pa.array(ids[lidx[keep]], type=pa.int64()),
            "right_id": pa.array(ids[ridx[keep]], type=pa.int64()),
            "jaccard": pa.array(jac[keep], type=pa.float64()),
            "dropped": pa.array(drops, type=pa.int64()),
            "is_marker": pa.array(np.zeros(n_keep, dtype=bool), type=pa.bool_()),
        }
    )


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
    empty = pa.table(
        {
            "left_id": pa.array([], type=pa.int64()),
            "right_id": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        }
    )
    # materialize BEFORE the empty-side guard: count() on an unmaterialized
    # (typically filtered) dataset would execute each input pipeline once
    # for the guard and again for the featurize pass; after materialize the
    # counts are metadata-only and featurization reads the cached blocks
    new_ds = new_ds.materialize()
    old_ds = old_ds.materialize()
    if new_ds.count() == 0 or old_ds.count() == 0:
        return rd.from_arrow(empty), 0

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

    import ray

    from entity_resolution_engine_ray.stages.block import block_keys
    from entity_resolution_engine_ray.stages.pairs import key_stats

    hot, pairable, n_pruned = key_stats(
        feats, max_block_size, n_rows_hint=feats.count() * bands, block_fn=block_keys
    )
    # singleton-bucket prune (output-preserving; see pairs.key_stats)
    keep_ref = None if pairable is None else ray.put(pairable)
    n_fat = feats.count() * bands
    fat_parts = (
        auto_partitions(n_pruned if pairable is not None else n_fat,
                        rows_per_partition=200_000)
        if num_partitions is None
        else int(np.clip(n_fat // 50_000 + 1, 4, num_partitions))
    )
    raw = partition_map_groups(
        feats,
        ["block_key", "salt"],
        lambda p: _cross_verify_partition(p, max_block_size, threshold),
        fat_parts,
        arrow_fns=True,
        block_fn=functools.partial(_salted_fat_rows, keep_ref=keep_ref, hot=hot),
    ).materialize()

    parts = raw.map_batches(_verify_stats_batch, batch_format="pyarrow").take_all()
    dropped = sum(r["dropped"] for r in parts)
    n_real = sum(r["n_real"] for r in parts)
    if n_real == 0:
        return rd.from_arrow(empty), dropped
    edges = raw.filter(expr="is_marker == False")
    dedup_parts = (
        auto_partitions(n_real, rows_per_partition=100_000)
        if num_partitions is None
        else int(np.clip(n_real // 100_000 + 1, 4, num_partitions))
    )
    edges = partition_map_groups(
        edges.drop_columns(["dropped", "is_marker"]),
        ["left_id", "right_id"],
        _dedup_pairs,
        dedup_parts,
    )
    return edges, dropped
