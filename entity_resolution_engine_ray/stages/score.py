"""Stage 4 — pairwise scoring + three-way gate.

    score = w_j * token_jaccard  +  w_s * simhash_similarity  +  w_t * jaro_winkler(title)

``fused_edges_stage`` is a thin caller of the one blocked-pair driver
(``pairs.blocked_pair_edges``, shared with the dedup operators): it plugs
in the pages' fat-row payload (url_hash, token_ids, simhash, title_norm —
IDS ONLY: url strings never enter the pair shuffle, the scored output, or
the edge-dedup exchange; they rejoin from the features side table after
clustering), ``url_hash`` as the salt's mixing hash, the pair function
``_pair_score_partition`` and the edge dedup ``_dedup_edges_partition``.
Each partition runs without a per-bucket or per-doc Python loop: it sorts
its rows into (block_key, salt) buckets (``pairs.bucket_layout``), forms
every bucket's capped, drop-counted pairs in one call
(``pairs.bucket_pairs``), pre-dedups them and scores them as arrays:
SimHash via uint64 XOR + popcount, Jaccard via the chunked packed-key
``searchsorted`` kernel (``_grouped_jaccard_flat``), Jaro-Winkler via the
length-bucketed batch kernel over unique title pairs. It is the only
pair-scoring path: candidate pairs are generated from the block keys
inside the exchange, never joined in from a url-keyed pair list.

The gate reproduces the reference router's three-way semantics
(validation/router.py:165-170): ``score < low → reject``;
``score >= high → auto_approve``; gray zone resolves via the configured
fallback (``auto_approve`` default / ``review``) exactly like the reference's
LLM-disabled path (router.py:81-94). With ``enable_llm_validation`` on,
the pages pipeline's stage 4b (``stages/validate.validate_gray_zone``)
then validates the ``review`` rows.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.functions.similarity import flat_ranges, jaro_winkler_batch
from entity_resolution_engine_ray.stages.block import _comb, low32_codes
from entity_resolution_engine_ray.stages.pairs import (
    _distinct,
    _int64,
    blocked_pair_edges,
    bucket_layout,
    bucket_pairs,
)

# the fat rows' payload: ids only (see block.fat_block_rows)
PAGE_PAYLOAD = ("url_hash", "token_ids", "simhash", "title_norm")


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def _jw_from_codes(
    cl: np.ndarray, cr: np.ndarray, dict_l: np.ndarray, dict_r: np.ndarray
) -> np.ndarray:
    """Jaro-Winkler per pair over dictionary-encoded titles, computed once
    per UNIQUE (left, right) code pair; the ``max(len, 1)`` guard keeps an
    empty right dictionary from dividing by zero."""
    nd = np.int64(max(len(dict_r), 1))
    code = cl.astype(np.int64) * nd + cr
    uniq, inv = np.unique(code, return_inverse=True)
    return jaro_winkler_batch(dict_l[uniq // nd], dict_r[uniq % nd])[inv]


_EDGE_SCHEMA = pa.schema(
    [
        ("left_id", pa.int64()),
        ("right_id", pa.int64()),
        ("block_key", pa.int64()),
        ("score", pa.float64()),
        ("jaccard", pa.float64()),
        ("simhash_sim", pa.float64()),
        ("title_sim", pa.float64()),
        ("decision", pa.string()),
    ]
)


# left-side tokens per ``_grouped_jaccard_flat`` chunk: its haystack and
# the needles gathered against it stay cache-sized
_JACCARD_CHUNK_TOKENS = 1 << 14


def _grouped_jaccard_flat(
    tvals: np.ndarray, tstarts: np.ndarray, tlens: np.ndarray, lidx: np.ndarray, ridx: np.ndarray
) -> np.ndarray:
    """Exact Jaccard of each (``lidx[p]``, ``ridx[p]``) row pair over a
    FLAT token-id layout: row i's sorted unique ids are
    ``tvals[tstarts[i] : tstarts[i]+tlens[i]]`` (the Arrow ListArray's
    (values, offsets) buffers, read without a per-row object).

    Pairs are grouped by left row, and the left rows are cut into chunks
    of about ``_JACCARD_CHUNK_TOKENS`` tokens. Per chunk, one sorted int64
    haystack holds ``(local left << 32) | token`` for every token of its
    left rows (already sorted: the rows come in order and each row's ids
    are sorted); every pair's right-side tokens are gathered as needles
    under its left row's prefix, one ``searchsorted`` finds them and a
    ``bincount`` of the hits gives each pair's intersection. The token
    goes in the low 32 bits as its ``block.low32_codes`` code: its offset
    for the pages' int32 ids, its rank among the partition's distinct ids
    for the dedup operators' int64 shingle ids, so the packing never
    merges two ids and keeps each row's ids sorted. A chunk keeps each
    search inside a cache-sized haystack, where one partition-wide
    haystack is cache-hostile (a 2,000-page partition's 9,286 pairs on a
    shared 4-vCPU Xeon host: 2^14-token chunks 24 ms, 2^16 29 ms, 2^18 39
    ms, against 60–89 ms for the per-left-row loop this replaces)."""
    n = len(lidx)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    tstarts = np.asarray(tstarts, dtype=np.int64)
    tlens = np.asarray(tlens, dtype=np.int64)
    if tvals.dtype.itemsize <= 4:  # converted only where gathered
        codes, shift = tvals, np.iinfo(tvals.dtype).min
    else:
        codes, shift = low32_codes(tvals)[0], 0

    def packed(prefix: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # row i's tokens under prefix[i]
        lens = tlens[rows]
        return np.repeat(prefix, lens) | (codes[flat_ranges(tstarts[rows], lens)].astype(np.int64) - shift)

    order = np.argsort(lidx, kind="stable")
    lo, ro = lidx[order], ridx[order]
    gstart = np.r_[0, np.flatnonzero(lo[1:] != lo[:-1]) + 1]
    gsize = np.diff(np.r_[gstart, n])
    lefts = lo[gstart]
    glen = tlens[lefts]
    chunk = (glen.cumsum() - glen) // _JACCARD_CHUNK_TOKENS
    cuts = np.r_[0, np.flatnonzero(chunk[1:] != chunk[:-1]) + 1, len(gstart)]
    inter = np.zeros(n, dtype=np.int64)
    for g0, g1 in zip(cuts[:-1], cuts[1:]):
        p0, p1 = gstart[g0], gstart[g0] + gsize[g0:g1].sum()
        local = np.arange(g1 - g0, dtype=np.int64) << 32
        hay = packed(local, lefts[g0:g1])
        needles = packed(np.repeat(local, gsize[g0:g1]), ro[p0:p1])
        if len(hay) == 0 or len(needles) == 0:
            continue
        pos = hay.searchsorted(needles)
        pos[pos >= len(hay)] = len(hay) - 1
        pair = np.repeat(np.arange(p1 - p0), tlens[ro[p0:p1]])
        inter[p0:p1] = np.bincount(pair[hay[pos] == needles], minlength=p1 - p0)
    la_, lb_ = tlens[lo], tlens[ro]
    union = la_ + lb_ - inter
    jac_o = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    jac = np.empty(n, dtype=np.float64)
    jac[order] = jac_o
    return jac


def _pair_score_partition(tbl: pa.Table, cfg: PagesERConfig) -> tuple[pa.Table, dict]:
    """One hash partition of fat (block_key, salt) sub-blocks → (scored,
    gated edges, counts): ``counts`` holds the pairs the cap dropped
    (``dropped``) and those the SimHash prefilter dropped (``prefiltered``),
    out of band of the edge rows, so a partition that keeps no pair still
    reports them. Edges are IDS ONLY (left_id/right_id int64 url hashes — no url
    strings ride the pair shuffle or the edge output; urls rejoin from the
    features side table after clustering). Sub-block members order by
    url_hash — the serial oracle orders identically, so pair identity, cap
    truncation and left/right orientation stay in exact parity.

    Arrow-native: the partition table is consumed column-by-column
    (``pairs.bucket_layout``: one ``np.lexsort`` over int64 keys, token ids
    via the ListArray's flat (values, offsets) buffers; titles
    dictionary-encoded in C++ so only UNIQUE title strings ever
    materialize as Python objects), and the pairs of every bucket come
    from one ``pairs.bucket_pairs`` call in the bucket-by-bucket,
    row-major order of the oracle's per-block loop."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return _EDGE_SCHEMA.empty_table(), {}
    order, url_hashes, flat, starts, sizes, bucket_keys = bucket_layout(tbl, "url_hash")
    sims = _int64(tbl["simhash"])[order]
    tenc = pc.dictionary_encode(_comb(tbl["title_norm"]))
    tcodes = _int64(tenc.indices)[order]
    tdict = np.asarray(tenc.dictionary.to_pylist(), dtype=object)

    lidx, ridx, bucket, dropped = bucket_pairs(starts, sizes, cfg.pair_sample_cap)
    okey = bucket_keys[bucket]
    counts = {"dropped": dropped, "prefiltered": 0}
    if lidx.size == 0:
        return _EDGE_SCHEMA.empty_table(), counts
    # partition-local pre-dedup (same pair emitted by several bands that
    # hashed into this partition): keep min block_key, skip re-scoring.
    # The global cross-partition dedup still runs downstream.
    sel = _distinct(url_hashes[lidx], url_hashes[ridx], okey)
    lidx, ridx, okey = lidx[sel], ridx[sel], okey[sel]
    n = len(lidx)
    sim_sim = 1.0 - _popcount64(
        np.bitwise_xor(sims[lidx].astype(np.uint64), sims[ridx].astype(np.uint64))
    ) / 64.0
    if cfg.simhash_prefilter is not None:
        # Hamming prefilter BEFORE the exact-Jaccard / title kernels (the
        # two dominant per-pair costs) — same rule as the serial oracle
        # (oracle/serial.py run_serial_er), counted as prefiltered_pairs.
        # Count semantics: a pair colliding in several bands that hash to
        # different partitions is prefiltered (and counted) once per
        # partition, where the oracle counts the unique pair once; the
        # EDGE SET stays exactly oracle-equal either way (pinned by
        # test_simhash_prefilter_parity_and_pruning).
        keepm = sim_sim >= cfg.simhash_prefilter
        counts["prefiltered"] = int(n - keepm.sum())
        if not keepm.all():
            lidx, ridx, okey, sim_sim = lidx[keepm], ridx[keepm], okey[keepm], sim_sim[keepm]
            n = len(lidx)
            if n == 0:
                return _EDGE_SCHEMA.empty_table(), counts
    jac = _grouped_jaccard_flat(*flat, lidx, ridx)
    jw = _jw_from_codes(tcodes[lidx], tcodes[ridx], tdict, tdict)

    score = cfg.weight_jaccard * jac + cfg.weight_simhash * sim_sim + cfg.weight_title * jw
    gray_label = "gray_approve" if cfg.fallback_mode == "auto_approve" else "review"
    dec_code = np.where(
        score < cfg.gate_low, 0, np.where(score >= cfg.gate_high, 2, 1)
    ).astype(np.int8)
    decision = pc.take(
        pa.array(["reject", gray_label, "auto_approve"], type=pa.string()),
        pa.array(dec_code),
    )
    return pa.table(
        {
            "left_id": pa.array(url_hashes[lidx], type=pa.int64()),
            "right_id": pa.array(url_hashes[ridx], type=pa.int64()),
            "block_key": pa.array(okey, type=pa.int64()),
            "score": pa.array(score, type=pa.float64()),
            "jaccard": pa.array(jac, type=pa.float64()),
            "simhash_sim": pa.array(sim_sim, type=pa.float64()),
            "title_sim": pa.array(jw, type=pa.float64()),
            "decision": decision,
        }
    ), counts


def _dedup_edges_partition(tbl: pa.Table) -> pa.Table:
    """Keep the min-block_key instance of each scored pair (scores of
    duplicate instances are identical by construction). Keyed on the int64
    url-hash ids — 16-byte keys hash/sort far cheaper than url strings at
    web scale (pair sets reach ~80 rows/page on dense fixtures). Arrow
    take keyed by ``pairs._distinct`` — the string decision column never
    converts to Python objects."""
    if tbl.num_rows == 0:
        return tbl
    cols = [_int64(tbl[c]) for c in ("left_id", "right_id", "block_key")]
    return tbl.take(pa.array(_distinct(*cols)))


def fused_edges_stage(
    features,
    cfg: PagesERConfig | None = None,
    num_partitions: int | None = None,
    key_filter=None,
    fold_in=None,
    sink=None,
):
    """features → scored+gated edges through the one blocked-pair driver
    (``pairs.blocked_pair_edges``): ``PAGE_PAYLOAD`` fat rows salted by
    ``url_hash``, ``_pair_score_partition`` as the pair function and
    ``_dedup_edges_partition`` as the edge dedup. Returns ``(edges,
    dropped)``: ``edges`` an ``exchange.Blocks`` (from features given as
    Blocks or a Dataset), ``dropped`` the cap's dropped-pair count as a
    ``pairs.DroppedPairs`` int, whose ``prefiltered`` holds the SimHash
    prefilter's count and ``prune_skipped`` whether the singleton prune was
    skipped.

    Both passes of the driver read the in-memory features blocks directly;
    the band explodes run as map-side functions inside the exchanges'
    split tasks (stages/exchange), so neither the key rows nor the fat rows
    (features × bands, each carrying its token list) are ever materialized
    whole. The score and edge-dedup shuffles are CHAINED
    (exchange.hash_exchange_chained): the edge dedup split for partition p
    is scheduled directly on the score reduce ref for p, so dedup starts
    the moment each score partition finishes.

    ``key_filter``: optional sorted int64 array of block keys — only blocks
    with those keys are paired/scored (the incremental-resolution path:
    blocks untouched by a new batch keep their previously-scored edges).
    ``fold_in``: those previous edges, deduped together with the rescored
    ones in the edge-dedup exchange (min ``block_key`` kept), so the result
    is the fold's whole edge set. ``sink``: a ``state.checkpoint.PartSink``
    the edge-dedup tasks write the edges to.

    ``num_partitions=None`` scales with BOTH the cluster and the data
    (``pairs.pair_partitions``, the width rule of every blocked-pair
    exchange): ``grouping.auto_partitions`` at 200k PRUNED fat rows per
    partition — max(1.5 × cluster CPUs, rows / 200k), never finer than 2k
    rows per partition, capped at 65,536; a fixed count would under-split
    a 256-node cluster and over-split a laptop. The 200k-pruned-rows
    target replaces the old 50k-unpruned target after a 1M-page sweep
    (BASELINE r5): each partition costs ~0.1 s of fixed task/ref overhead
    in the chained exchange, so P=421 ran the stage in 107 s where P=96
    ran it in 50 s with identical edges; at sf0.1 the formula still lands
    on the 1.5×CPU floor (48, the measured best there). Partition payload
    at the target is ~60 MB of fat rows + in-flight pair arrays — well
    inside a worker heap; at the 65,536 cap (~13G pruned rows ≈ 6×10⁸
    pages) shard the corpus via the incremental ``key_filter`` path
    instead."""
    from entity_resolution_engine_ray.stages.exchange import as_blocks

    cfg = cfg or PagesERConfig()
    features = as_blocks(features)
    return blocked_pair_edges(
        features,
        functools.partial(_pair_score_partition, cfg=cfg),
        _dedup_edges_partition,
        payload=PAGE_PAYLOAD,
        hash_col="url_hash",
        cap=cfg.max_block_size,
        n_key_rows=features.count() * cfg.bands,
        num_partitions=num_partitions,
        key_filter=key_filter,
        fold_in=fold_in,
        sink=sink,
    )


def _decision_counts(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return pa.table({"decision": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    vc = pc.value_counts(t["decision"])
    return pa.table({"decision": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})


def sum_decision_counts(tables) -> dict[str, int]:
    """decision → edges, summed over ``_decision_counts`` tables."""
    counts: dict[str, int] = {}
    for t in tables:
        for d, n in zip(t["decision"].to_pylist(), t["n"].to_pylist()):
            counts[d] = counts.get(d, 0) + n
    return counts


def gate_metrics(edges, counts: dict[str, int] | None = None) -> dict:
    """Per-run routing metrics mirroring the reference's
    pipeline_run_metrics fields (validation/router.py:227-245).

    ``counts``: the edges' decision counts when a pass over them already
    made them (the pages pipeline's approved-ids pass does). Without it
    they come from one plain task per block of the edges (``Blocks`` or a
    Dataset; ``value_counts`` of the ``decision`` column) — the edges are
    already in memory when the pipeline asks, so no Ray Data execution
    runs."""
    if counts is None:
        import ray

        from entity_resolution_engine_ray.stages.exchange import _map_block_refs

        counts = sum_decision_counts(ray.get([t for t, _ in _map_block_refs(edges, _decision_counts)]))
    # post-validation edges carry llm_approve/llm_reject (stages/validate
    # rewrites gray-zone 'review' rows) — they must count toward totals and
    # the gray-zone figures, or every metric shrinks when validation is on
    llm_match = counts.get("llm_approve", 0)
    llm_no_match = counts.get("llm_reject", 0)
    approved = counts.get("auto_approve", 0) + counts.get("gray_approve", 0) + llm_match
    review = counts.get("review", 0)
    rejected = counts.get("reject", 0) + llm_no_match
    total = approved + review + rejected
    llm_ran = (llm_match + llm_no_match) > 0
    return {
        "total_candidates": total,
        "auto_match_count": counts.get("auto_approve", 0),
        "auto_reject_count": counts.get("reject", 0),
        "gray_zone_sent_count": counts.get("gray_approve", 0)
        + review
        + llm_match
        + llm_no_match,
        "llm_match_count": llm_match,
        "llm_no_match_count": llm_no_match,
        "llm_review_count": review,
        "llm_call_count": llm_match + llm_no_match,
        "llm_error_count": 0,
        "llm_invalid_json_retry_count": 0,
        "llm_avg_latency_ms": None,
        "llm_fallback_mode": None,
        "llm_disabled_reason": None if llm_ran else "llm_unavailable",
        "approved_count": approved,
    }
