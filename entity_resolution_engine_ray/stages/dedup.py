"""Deduplication operators for training-data pipelines (SURVEY.md §2.7 +
driver brief): exact, MinHash-LSH, SimHash, n-gram Jaccard — each expressed
Ray-Data-first over an id+text Dataset of any size.

Shared shape with the flagship ER pipeline (stages/block, stages/pairs,
stages/score.fused_edges_stage): featurize once, then ONE candidate →
verify → dedup tail (``_edges_from_feats``) on a chained hash exchange
(stages/exchange.hash_exchange_chained). The band explode, singleton prune
and hot-key salt run in its split tasks; stage 1 forms each bucket's pairs
(skew-capped), verifies them exactly and returns the cap's dropped count
out of band of the rows; stage 2 dedups the pairs. No marker row, no
driver-side pass over the candidates. Connected components follow for the
clustering operators. Ids here are int64 (doc ids), so clustering uses
numeric union semantics directly.
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
from entity_resolution_engine_ray.stages.grouping import partition_map_groups


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


_PAIRS_SCHEMA = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])

_VERIFY_SCHEMA = _PAIRS_SCHEMA.append(pa.field("jaccard", pa.float64()))

_HAMMING_SCHEMA = _PAIRS_SCHEMA.append(pa.field("hamming", pa.int64()))


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _distinct(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row indices of the first occurrence of each distinct (left, right)
    pair, in pair order."""
    perm = np.lexsort((right, left))
    ls, rs = left[perm], right[perm]
    return perm[np.r_[True, (ls[1:] != ls[:-1]) | (rs[1:] != rs[:-1])][: len(perm)]]


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
    from entity_resolution_engine_ray.stages.score import triu_pairs

    if tbl.num_rows == 0:
        return _PAIRS_SCHEMA.empty_table(), {"dropped": 0}
    keys, ids = _int64(tbl["block_key"]), _int64(tbl["id"])
    order = np.lexsort((ids, keys))
    keys, ids = keys[order], ids[order]
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(np.r_[0, change], np.r_[change, len(ids)]):
        m = e - s
        if m > cap:  # skew cap: deterministic truncation of the sorted bucket
            dropped += (m * (m - 1) - cap * (cap - 1)) // 2
            e, m = s + cap, cap
        if m < 2:
            continue
        ii, jj = triu_pairs(m)
        lefts.append(ids[s:e][ii])
        rights.append(ids[s:e][jj])
    if not lefts:
        return _PAIRS_SCHEMA.empty_table(), {"dropped": dropped}
    left, right = np.concatenate(lefts), np.concatenate(rights)
    sel = _distinct(left, right)
    return pa.table([left[sel], right[sel]], schema=_PAIRS_SCHEMA), {"dropped": dropped}


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


def _bucket_layout(tbl: pa.Table, *minor: np.ndarray) -> tuple:
    """Shared layout of the verify partitions over fat (id, token_ids,
    block_key[, salt]) rows: rows sorted by (block_key, salt, *minor, id)
    → (order, sorted ids, the flat token layout (values, starts, lengths)
    in sorted row order, bucket starts, bucket ends). A bucket is one
    (block_key, salt); hot buckets arrive pre-split by salt (Arrow-native,
    the layout of the pages scorer, stages/score._pair_score_partition)."""
    from entity_resolution_engine_ray.stages.score import _combined

    keys, ids = _int64(tbl["block_key"]), _int64(tbl["id"])
    salts = _int64(tbl["salt"]) if "salt" in tbl.column_names else np.zeros(len(keys), np.int64)
    order = np.lexsort((ids, *minor, salts, keys))
    keys, salts = keys[order], salts[order]
    tok = _combined(tbl["token_ids"])
    toffs = _int64(tok.offsets)
    flat = (_int64(tok.values), toffs[:-1][order], (toffs[1:] - toffs[:-1])[order])
    change = np.flatnonzero((keys[1:] != keys[:-1]) | (salts[1:] != salts[:-1])) + 1
    return order, ids[order], flat, np.r_[0, change], np.r_[change, tbl.num_rows]


def _verified(ids: np.ndarray, flat: tuple, lefts: list, rights: list, threshold: float) -> pa.Table:
    """Shared tail of the verify partitions: candidate row-index pairs into
    the sorted layout → partition-local pair dedup, exact Jaccard over the
    flat token layout, threshold. Empty-set semantics: both docs empty →
    1.0 inside the kernel; empty vs non-empty → 0.0."""
    from entity_resolution_engine_ray.stages.score import _grouped_jaccard_flat

    if not lefts:
        return _VERIFY_SCHEMA.empty_table()
    lidx, ridx = np.concatenate(lefts), np.concatenate(rights)
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
    from entity_resolution_engine_ray.stages.score import triu_pairs

    if tbl.num_rows == 0:
        return _VERIFY_SCHEMA.empty_table(), {"dropped": 0}
    _, ids, flat, starts, ends = _bucket_layout(tbl)
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(starts, ends):
        m = e - s
        if m > cap:
            dropped += (m * (m - 1) - cap * (cap - 1)) // 2
            m = cap
        if m < 2:
            continue
        ii, jj = triu_pairs(m)
        lefts.append(ii + s)
        rights.append(jj + s)
    return _verified(ids, flat, lefts, rights, threshold), {"dropped": dropped}


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
    order, ids, flat, starts, ends = _bucket_layout(tbl, -sides)
    sides = sides[order]
    lefts, rights = [], []
    dropped = 0
    for s, e in zip(starts, ends):
        n_new = int(sides[s:e].sum())
        n_old = (e - s) - n_new
        use_new, use_old = min(n_new, cap), min(n_old, cap)
        dropped += n_new * n_old - use_new * use_old
        if use_new == 0 or use_old == 0:
            continue
        lefts.append(np.repeat(np.arange(use_new, dtype=np.int64), use_old) + s)
        rights.append(np.tile(np.arange(use_old, dtype=np.int64), use_new) + s + n_new)
    return _verified(ids, flat, lefts, rights, threshold), {"dropped": dropped}


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
    shared candidate → verify → dedup tail (``_edges_from_feats``): the fat
    band explode runs in the split tasks of one chained exchange whose
    first stage pairs and verifies each bucket and whose second dedups the
    pairs; the cap's dropped count comes back out of band of the rows."""
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

    return _edges_from_feats(
        feats,
        _pair_verify_partition,
        threshold=threshold,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        n_fat=feats.count() * bands,
    )


def _edges_from_feats(feats, verify, *, threshold, max_block_size, num_partitions, n_fat):
    """Shared candidate → verify → dedup tail over a materialized
    (id, token_ids, band_keys[, side]) feature Dataset. Candidate semantics
    are whatever produced ``band_keys`` — LSH bands (near_dup_edges,
    cross_corpus_near_dup_pairs) or the lossless PPJoin prefix
    (prefix_jaccard_self_join) — and ``verify`` forms the pairs of one
    partition: ``_pair_verify_partition`` (all pairs of a bucket) or
    ``_cross_verify_partition`` (new x old only).

    1. ``pairs.key_stats`` with the key-only explode as its split function
       → the hot keys and the pairable keys;
    2. one chained exchange (exchange.hash_exchange_chained): its split
       tasks run the fat explode, the singleton prune and the hot-key salt
       (``_salted_fat_rows``: buckets over the cap split into deterministic
       id-hash sub-buckets instead of being truncated), stage 1 runs
       ``verify`` per (block_key, salt) and returns its dropped count out
       of band, stage 2 dedups the (left_id, right_id) pairs.

    ``n_fat`` is the exploded (id, key) row count; the exchange is sized by
    ``pairs.pair_partitions`` over the rows that enter it."""
    import ray
    import ray.data as rd

    from entity_resolution_engine_ray.stages.block import block_keys
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_chained
    from entity_resolution_engine_ray.stages.pairs import key_stats, pair_partitions

    hot, pairable, n_pruned = key_stats(feats, max_block_size, n_rows_hint=n_fat, block_fn=block_keys)
    if pairable is not None and len(pairable) == 0:
        # no bucket has ≥ 2 members: no candidate pair, nothing dropped
        return rd.from_arrow(_VERIFY_SCHEMA.empty_table()), 0
    # singleton-bucket prune: keys with one member can never pair — their
    # fat rows are dropped in the split tasks (output-preserving, see
    # pairs.key_stats); when the prune is skipped every fat row ships
    keep_ref = None if pairable is None else ray.put(pairable)
    parts = pair_partitions(n_fat if pairable is None else n_pruned, num_partitions)
    edges, counts = hash_exchange_chained(
        feats,
        ["block_key", "salt"],
        functools.partial(verify, cap=max_block_size, threshold=threshold),
        parts,
        ["left_id", "right_id"],
        _dedup_pairs,
        parts,
        arrow_fns=True,
        block_fn=functools.partial(_salted_fat_rows, keep_ref=keep_ref, hot=hot),
    )
    return edges, counts.get("dropped", 0)


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
    # exact exploded key count (prefix lengths vary per doc, unlike LSH's
    # constant bands-per-doc)
    return _edges_from_feats(
        feats,
        _pair_verify_partition,
        threshold=threshold,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        n_fat=max(n_list_values(feats, "band_keys"), 1),
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

    def bucket_pairs(t: pa.Table) -> tuple[pa.Table, dict]:
        if t.num_rows == 0:
            return _HAMMING_SCHEMA.empty_table(), {"truncated": 0}
        keys, ids = _int64(t["band_key"]), _int64(t[id_col])
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        sh = _int64(t["simhash"])[order].view(np.uint64)
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        lefts, rights, hams = [], [], []
        truncated = 0
        for s, e in zip(np.r_[0, change], np.r_[change, len(ids)]):
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
        if not lefts:
            return _HAMMING_SCHEMA.empty_table(), {"truncated": truncated}
        cols = [np.concatenate(lefts), np.concatenate(rights), np.concatenate(hams)]
        return pa.table(cols, schema=_HAMMING_SCHEMA), {"truncated": truncated}

    parts = pair_partitions(fp.count() * n_bands, num_partitions)
    pairs, counts = hash_exchange_chained(
        fp,
        ["band_key"],
        bucket_pairs,
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

    return _edges_from_feats(
        feats,
        _cross_verify_partition,
        threshold=threshold,
        max_block_size=max_block_size,
        num_partitions=num_partitions,
        n_fat=feats.count() * bands,
    )
