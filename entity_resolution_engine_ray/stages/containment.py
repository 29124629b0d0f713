"""Exact shingle-containment self-join — the ASYMMETRIC near-dup modality:
C(src→dst) = |S(src) ∩ S(dst)| / |S(src)|. Jaccard (stages/dedup) misses a
short document quoted whole inside a long one (the union term dilutes it);
containment is how a corpus pipeline finds quote-inclusion, boilerplate
wrappers and near-supersets before training-data export.

No reference analogue (the reference has no set-similarity ops); the
blocking follows the prefix-filtering principle for overlap constraints
(Chaudhuri/Ganti/Kaushik 2006; Bayardo AllPairs) adapted to the asymmetric
measure, implemented on the same exchange machinery as the exact Jaccard
join (stages/dedup.prefix_jaccard_self_join).

Ray-Data-first shape:

1. featurize (shared with dedup: ``_dedup_featurize_batch``): per doc the
   SORTED UNIQUE int64 k-shingle hashes (the DuckDB oracle compares actual
   shingle STRINGS over the identical tokenization, so the driver gate
   certifies the hashes collision-free on the corpus).
2. slim explode: ONE (shingle, id, is_prefix) row per (doc, shingle) —
   int64+bool only, the token payload does NOT ride this shuffle.
   ``is_prefix`` marks the doc's first ``n - ceil(t*n) + 3`` sorted
   shingles (+2 margin as in the Jaccard prefix join: one for float-ceil
   boundary, one for the verify's rounded compare). LOSSLESS for the
   src side: if C(src→dst) ≥ t then |S∩D| ≥ ceil(t·n_src), and the
   non-prefix suffix holds only ceil(t·n_src) − 1 elements, so some
   shared shingle falls in src's prefix. The dst side must be indexed in
   FULL — a tiny doc can be contained in a huge one via shingles anywhere
   in the huge set, so no dst-side prefix bound exists (why containment
   joins index one side fully in the literature).
3. ONE chained exchange (exchange.hash_exchange_chained) whose split
   tasks run the slim explode. Stage 1, per shingle group: candidates =
   (prefix rows) × (all rows), src ≠ dst, deduped in-partition. Hot
   shingles (stopword phrases) are capped at ``max_block_size`` dst rows
   with every lost candidate COUNTED and returned out of band of the rows
   — for an exact operator a drop is a wrong answer, not a recall trade;
   callers assert dropped == 0. Stage 2 dedups the (src_id, dst_id) pairs.
4. two co-partitioned cogroups against the feature table attach src/dst
   token arrays and the second one verifies exactly: inter via
   sorted-array searchsorted, containment = inter / n_src, emit rows ≥
   threshold. Pair rows carry at most two token arrays each — candidate
   volume, not corpus volume, bounds the fat traffic.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from entity_resolution_engine_ray.stages.exchange import (
    hash_exchange_chained,
    hash_exchange_cogroup,
)

_CANDS = pa.schema([("src_id", pa.int64()), ("dst_id", pa.int64())])

_EMPTY_OUT = pa.table(
    {
        "src_id": pa.array([], type=pa.int64()),
        "dst_id": pa.array([], type=pa.int64()),
        "containment": pa.array([], type=pa.float64()),
    }
)


def _slim_explode(batch: pa.Table, threshold: float) -> pa.Table:
    """(id, token_ids) → one slim (block_key, id, is_prefix) row per
    shingle. Docs with zero shingles (< k tokens) emit nothing — an empty
    src set has no defined containment and cannot host a dst hit."""
    if batch.num_rows == 0:
        return pa.table({})
    tok = batch["token_ids"]
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    offs = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    n = offs[1:] - offs[:-1]
    ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    plen = np.minimum(n, n - np.ceil(threshold * n).astype(np.int64) + 3)
    plen[n == 0] = 0
    within = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    return pa.table(
        {
            "block_key": tok.values,
            "id": pa.array(np.repeat(ids, n), type=pa.int64()),
            "is_prefix": pa.array(within < np.repeat(plen, n), type=pa.bool_()),
        }
    )


def _candidate_partition(tbl: pa.Table, cap: int) -> tuple[pa.Table, dict]:
    """One hash partition of slim (block_key, id, is_prefix) rows →
    (deduped (src_id, dst_id) candidates, {"dropped": n}). The count is
    kept out of band of the rows, so a partition whose only candidates
    were capped away still reports its loss."""
    from entity_resolution_engine_ray.stages.pairs import _distinct, key_buckets

    if tbl.num_rows == 0:
        return _CANDS.empty_table(), {"dropped": 0}
    order, ids, starts, sizes, _ = key_buckets(tbl, "block_key", "id")
    pref = tbl["is_prefix"].to_numpy(zero_copy_only=False)[order]
    srcs, dsts = [], []
    dropped = 0
    for s, m in zip(starts, sizes):
        if m < 2:
            continue
        e = s + m
        g_ids = ids[s:e]
        g_pref = pref[s:e]
        n_pref = int(g_pref.sum())
        if n_pref == 0:
            continue
        if m > cap:  # skew cap: deterministic truncation of the sorted dst side
            # UPPER BOUND on lost candidates: n_pref × truncated-dst counts
            # src==dst self-pairs and candidates this (src, dst) pair would
            # re-derive from other shared shingles among the losses; the
            # nonzero-flag contract (dropped > 0 ⇔ possible loss) is what
            # downstream relies on, not the exact magnitude
            dropped += n_pref * (m - cap)
            g_ids_dst = g_ids[:cap]
        else:
            g_ids_dst = g_ids
        src = np.repeat(g_ids[g_pref], len(g_ids_dst))
        dst = np.tile(g_ids_dst, n_pref)
        keep = src != dst
        srcs.append(src[keep])
        dsts.append(dst[keep])
    if not srcs:
        return _CANDS.empty_table(), {"dropped": dropped}
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    sel = _distinct(src, dst)
    return pa.table([src[sel], dst[sel]], schema=_CANDS), {"dropped": dropped}


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for two sorted unique int64 arrays via one searchsorted —
    the per-pair form of the flagship's grouped Jaccard kernel."""
    if len(a) == 0 or len(b) == 0:
        return 0
    pos = a.searchsorted(b)
    pos[pos >= len(a)] = len(a) - 1
    return int((a[pos] == b).sum())


def containment_self_join(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    k: int = 3,
    max_block_size: int = 4096,
    num_partitions: int | None = None,
    featurize_batch_size: int = 512,
):
    """EXACT containment self-join: all ordered pairs (src, dst), src ≠ dst,
    with k-shingle containment |S(src) ∩ S(dst)| / |S(src)| ≥ threshold.

    Returns (Dataset(src_id, dst_id, containment), dropped). Exactness
    holds iff dropped == 0 (hot-shingle cap losses are counted, never
    silent); the default cap is high because a drop here is a wrong
    answer. Both directions of a mutually-containing pair are emitted —
    the output is a directed edge list (src contained-in dst).

    Short-doc rule (shared featurizer, functions/similarity.shingle_hashes):
    a doc with 0 < tokens < k contributes its whole text as ONE shingle —
    the SQL oracle's window construction emits no shingles there, so the
    oracle gate certifies parity only on corpora without sub-k-token docs
    (true of the fixtures; same caveat as prefix_jaccard_self_join)."""
    import ray.data as rd

    from entity_resolution_engine_ray.stages.dedup import (
        _dedup_featurize_batch,
        _dedup_pairs,
        n_list_values,
    )
    from entity_resolution_engine_ray.stages.pairs import pair_partitions

    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    ds = ds.materialize()
    if ds.count() == 0:
        return rd.from_arrow(_EMPTY_OUT), 0

    feats = (
        ds.map_batches(
            _dedup_featurize_batch,
            fn_kwargs={
                "id_col": id_col,
                "text_col": text_col,
                # minhash signature discarded — only token_ids are used
                "num_perm": 1,
                "bands": 1,
                "k": k,
                "mode": "token_shingle",
            },
            batch_format="pyarrow",
            batch_size=featurize_batch_size,
        )
        .select_columns(["id", "token_ids"])
        .materialize()
    )

    n_slim = n_list_values(feats, "token_ids")
    parts = pair_partitions(max(n_slim, 1), num_partitions)
    cands, counts = hash_exchange_chained(
        feats,
        ["block_key"],
        functools.partial(_candidate_partition, cap=max_block_size),
        parts,
        ["src_id", "dst_id"],
        functools.partial(_dedup_pairs, left="src_id", right="dst_id"),
        parts,
        arrow_fns=True,
        block_fn=functools.partial(_slim_explode, threshold=threshold),
    )
    dropped = counts.get("dropped", 0)
    if cands.count() == 0:
        return rd.from_arrow(_EMPTY_OUT), dropped

    def attach_src(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        f = rpdf.rename(columns={"id": "src_id", "token_ids": "src_tokens"})
        return lpdf.merge(f, on="src_id", how="inner")

    def attach_dst_verify(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "src_id": pd.Series([], dtype=np.int64),
                "dst_id": pd.Series([], dtype=np.int64),
                "containment": pd.Series([], dtype=np.float64),
            }
        )
        if len(lpdf) == 0:
            return empty
        f = rpdf.rename(columns={"id": "dst_id", "token_ids": "dst_tokens"})
        m = lpdf.merge(f, on="dst_id", how="inner")
        if len(m) == 0:
            return empty
        src_arrs = m["src_tokens"].to_numpy()
        dst_arrs = m["dst_tokens"].to_numpy()
        cont = np.empty(len(m), dtype=np.float64)
        for i in range(len(m)):
            a = np.asarray(src_arrs[i], dtype=np.int64)
            cont[i] = (
                _intersect_sorted(a, np.asarray(dst_arrs[i], dtype=np.int64)) / len(a)
                if len(a)
                else 0.0
            )
        keep = cont >= threshold
        return pd.DataFrame(
            {
                "src_id": m["src_id"].to_numpy(np.int64)[keep],
                "dst_id": m["dst_id"].to_numpy(np.int64)[keep],
                "containment": cont[keep],
            }
        )

    with_src = hash_exchange_cogroup(cands, feats, ["src_id"], ["id"], attach_src)
    out = hash_exchange_cogroup(with_src, feats, ["dst_id"], ["id"], attach_dst_verify)
    return out, dropped
