"""Stage 4 — pairwise scoring + three-way gate.

    score = w_j * token_jaccard  +  w_s * simhash_similarity  +  w_t * jaro_winkler(title)

``fused_edges_stage`` runs ONE fat-block hash exchange carrying
(url_hash, token_ids, simhash, title_norm) per band row (IDS ONLY: url
strings never enter the pair shuffle, the scored output, or the edge-dedup
exchange — they rejoin from the features side table after clustering);
each partition generates pairs (salted, capped, drop-counted), pre-dedups,
and scores fully vectorized: SimHash via uint64 XOR + popcount, Jaccard
via the grouped int64 ``searchsorted`` kernel (``_grouped_jaccard_flat``),
Jaro-Winkler via the length-bucketed batch kernel over unique title pairs.
It is the only pair-scoring path: candidate pairs are generated from the
block keys inside the exchange, never joined in from a url-keyed pair list.

The gate reproduces the reference router's three-way semantics
(validation/router.py:165-170): ``score < low → reject``;
``score >= high → auto_approve``; gray zone resolves via the configured
fallback (``auto_approve`` default / ``review``) exactly like the reference's
LLM-disabled path (router.py:81-94). An optional LLM validator would slot in
as a second actor-pool stage over ``decision == "review"`` rows only.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.functions.similarity import jaro_winkler_batch


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


# np.triu_indices has ~40µs fixed overhead per call — with thousands of tiny
# LSH blocks per partition that's pure overhead; cache per block size
# (bounded: sizes ≤ max salted sub-block, a few hundred entries)
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    out = _TRIU_CACHE.get(m)
    if out is None:
        out = np.triu_indices(m, k=1)
        if len(_TRIU_CACHE) < 4096:
            _TRIU_CACHE[m] = out
    return out


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


def _grouped_jaccard_flat(
    tvals: np.ndarray, tstarts: np.ndarray, tlens: np.ndarray, lidx: np.ndarray, ridx: np.ndarray
) -> np.ndarray:
    """Grouped exact Jaccard over a FLAT token-id layout: doc i's sorted
    unique ids are ``tvals[tstarts[i] : tstarts[i]+tlens[i]]``. Consuming
    the Arrow ListArray's (values, offsets) buffers directly skips the
    to_pandas conversion that would allocate one numpy object per row.

    Shape note (measured on the flagship fixture): a fully-vectorized
    variant — rank tokens, build one global sorted ``(row<<32)|rank`` key
    array, one searchsorted for ALL pairs — is 5× SLOWER here: with
    hundreds of tokens per doc the global binary search touches a ~128 MB
    key array per probe (cache-hostile) and the gathered right-side
    buffers run to GBs. The per-left-doc loop keeps every search inside a
    doc-sized, cache-resident window; its cost is ~50 µs/group of numpy
    call overhead, minimized below (bound-method calls, no ``np.r_`` in
    the loop)."""
    n = len(lidx)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    order = np.argsort(lidx, kind="stable")
    lo, ro = lidx[order], ridx[order]
    bounds = np.r_[0, np.flatnonzero(lo[1:] != lo[:-1]) + 1, n]
    inter = np.zeros(n, dtype=np.int64)
    for gi in range(len(bounds) - 1):
        s, e = bounds[gi], bounds[gi + 1]
        left = lo[s]
        la = tlens[left]
        if la == 0:
            continue
        A = tvals[tstarts[left] : tstarts[left] + la]
        rr = ro[s:e]
        blens = tlens[rr]
        nz = np.flatnonzero(blens)
        if len(nz) == 0:
            continue
        cat = np.concatenate(
            [tvals[tstarts[j] : tstarts[j] + tlens[j]] for j in rr[nz]]
        )
        pos = A.searchsorted(cat)
        pos[pos >= la] = la - 1
        hit = (A[pos] == cat).astype(np.int64)
        # reduceat is undefined for zero-length segments — filtered above
        cs = blens[nz].cumsum()
        inter[s + nz] = np.add.reduceat(hit, cs - blens[nz])
    la_, lb_ = tlens[lo], tlens[ro]
    union = la_ + lb_ - inter
    jac_o = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    jac = np.empty(n, dtype=np.float64)
    jac[order] = jac_o
    return jac


def _combined(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _keep_block_keys(t: pa.Table, allowed_ref) -> pa.Table:
    """Keep rows whose block_key is in the broadcast sorted int64 array
    (``ray.put`` once, zero-copy plasma read per task, vectorized
    searchsorted per batch). Used by the dedup operators' singleton-bucket
    prune."""
    import ray

    from entity_resolution_engine_ray.stages.block import in_sorted

    if t.num_rows == 0:
        return t
    k = t["block_key"].to_numpy(zero_copy_only=False)
    return t.filter(pa.array(in_sorted(k, ray.get(allowed_ref))))


def _band_keys(t: pa.Table, allowed_ref) -> pa.Table:
    """Split function of the ``key_stats`` pass: the key-only band explode,
    restricted to the broadcast ``key_filter`` keys when there are any."""
    from entity_resolution_engine_ray.stages.block import block_keys

    keys = block_keys(t)
    return keys if allowed_ref is None else _keep_block_keys(keys, allowed_ref)


def _fat_rows(t: pa.Table, keep_ref, hot: dict[int, int]) -> pa.Table:
    """Split function of the pair exchange: the fat band explode, restricted
    to the broadcast keys that can pair (``keep_ref``, when known), then the
    hot-key salt."""
    import ray

    from entity_resolution_engine_ray.stages.block import fat_block_rows
    from entity_resolution_engine_ray.stages.pairs import _salt_batch

    allowed = None if keep_ref is None else ray.get(keep_ref)
    return _salt_batch(fat_block_rows(t, allowed), hot)


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
    (``np.lexsort`` over int64 keys, token ids via the ListArray's flat
    (values, offsets) buffers, titles dictionary-encoded in C++ so only
    UNIQUE title strings ever materialize as Python objects). The previous
    pandas form paid one numpy-object allocation per row for the token
    list column plus a full-frame mergesort that copied every list —
    conversion cost rivaled kernel cost on the hottest stage."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return _EDGE_SCHEMA.empty_table(), {}
    keys = tbl["block_key"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    salts = tbl["salt"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    url_hashes = tbl["url_hash"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    order = np.lexsort((url_hashes, salts, keys))  # primary key: block_key
    keys, salts, url_hashes = keys[order], salts[order], url_hashes[order]

    tok = _combined(tbl["token_ids"])
    toffs = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    # keep the values buffer in its native dtype (int32 since the 32-bit
    # Jaccard ids — an astype(int64) here would copy the fattest buffer)
    tvals = tok.values.to_numpy(zero_copy_only=False)
    tstarts = toffs[:-1][order]
    tlens = (toffs[1:] - toffs[:-1])[order]

    sims = tbl["simhash"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)[order]
    tenc = pc.dictionary_encode(_combined(tbl["title_norm"]))
    tcodes = tenc.indices.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)[order]
    tdict = np.asarray(tenc.dictionary.to_pylist(), dtype=object)

    change = np.flatnonzero((keys[1:] != keys[:-1]) | (salts[1:] != salts[:-1])) + 1
    starts = np.r_[0, change]
    ends = np.r_[change, tbl.num_rows]
    li, ri, okeys = [], [], []
    dropped = 0
    cap = cfg.pair_sample_cap
    for s, e in zip(starts, ends):
        m = e - s
        if m < 2:
            continue
        ii, jj = triu_pairs(m)
        if len(ii) > cap:
            dropped += len(ii) - cap
            ii, jj = ii[:cap], jj[:cap]
        li.append(ii + s)
        ri.append(jj + s)
        okeys.append(np.full(len(ii), keys[s], dtype=np.int64))
    counts = {"dropped": dropped, "prefiltered": 0}
    if not li:
        return _EDGE_SCHEMA.empty_table(), counts
    lidx = np.concatenate(li)
    ridx = np.concatenate(ri)
    okey = np.concatenate(okeys)
    if lidx.size == 0:  # cap=0 edge: appended slices can all be empty
        return _EDGE_SCHEMA.empty_table(), counts
    # partition-local pre-dedup (same pair emitted by several bands that
    # hashed into this partition): keep min block_key, skip re-scoring.
    # The global cross-partition dedup still runs downstream.
    pl, pr = url_hashes[lidx], url_hashes[ridx]
    perm = np.lexsort((okey, pr, pl))
    pls, prs = pl[perm], pr[perm]
    first = np.r_[True, (pls[1:] != pls[:-1]) | (prs[1:] != prs[:-1])]
    sel = perm[first]
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
    jac = _grouped_jaccard_flat(tvals, tstarts, tlens, lidx, ridx)
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
    take keyed by a numpy lexsort — the string decision column never
    converts to Python objects."""
    if tbl.num_rows == 0:
        return tbl
    l = tbl["left_id"].to_numpy(zero_copy_only=False)
    r = tbl["right_id"].to_numpy(zero_copy_only=False)
    k = tbl["block_key"].to_numpy(zero_copy_only=False)
    perm = np.lexsort((k, r, l))
    ls, rs = l[perm], r[perm]
    first = np.r_[True, (ls[1:] != ls[:-1]) | (rs[1:] != rs[:-1])]
    return tbl.take(pa.array(perm[first]))


class DroppedPairs(int):
    """The pairs the sample cap dropped — an int, as every caller reads it —
    with the pairs the SimHash prefilter dropped in ``prefiltered``, and
    ``prune_skipped``: the pairable key set went over its broadcast limit
    (``pairs.key_stats``), so the singleton prune was skipped and every
    band row was shipped."""

    prefiltered: int
    prune_skipped: bool

    def __new__(cls, dropped: int = 0, prefiltered: int = 0, prune_skipped: bool = False):
        out = super().__new__(cls, dropped)
        out.prefiltered = int(prefiltered)
        out.prune_skipped = bool(prune_skipped)
        return out


def fused_edges_stage(
    features,
    cfg: PagesERConfig | None = None,
    num_partitions: int | None = None,
    key_filter=None,
):
    """features → scored+gated edges in two shuffles (fat-block hash
    shuffle + slim edge dedup), replacing the pairgen + 2-join + score
    chain. Returns ``(edges, dropped)``: ``edges`` an ``exchange.Blocks``
    (from features given as Blocks or a Dataset), ``dropped`` the cap's
    dropped-pair count as a ``DroppedPairs`` int, whose ``prefiltered``
    holds the SimHash prefilter's count and ``prune_skipped`` whether the
    singleton prune was skipped.

    Both passes read the in-memory features blocks directly; the band
    explodes run as map-side functions inside the exchanges' split tasks
    (stages/exchange), so neither the key rows nor the fat rows (features ×
    bands, each carrying its token list) are ever materialized whole:

    1. ``pairs.key_stats`` with the key-only explode (``_band_keys``) as
       its split function → the hot keys and the pairable keys;
    2. the pair exchange with the fat explode, the singleton prune and the
       hot-key salt (``_fat_rows``) as its split function.

    The two shuffles of step 2 are CHAINED (exchange.hash_exchange_chained):
    the edge dedup split for partition p is scheduled directly on the score
    reduce ref for p, so dedup starts the moment each score partition
    finishes — no driver barrier between the waves, and the per-partition
    counts come back beside the reduce outputs instead of through a
    driver-side column scan.

    ``key_filter``: optional sorted int64 array of block keys — only blocks
    with those keys are paired/scored (the incremental-resolution path:
    blocks untouched by a new batch keep their previously-scored edges).
    Broadcast once via ``ray.put`` and applied by a vectorized searchsorted
    in the split tasks, so untouched blocks never enter the shuffle at all.

    ``num_partitions=None`` scales with BOTH the cluster and the data
    (``pairs.pair_partitions``, the width rule of every blocked-pair
    exchange): ``grouping.auto_partitions`` at 200k PRUNED fat rows per
    partition — max(1.5 × cluster CPUs, rows / 200k), never finer than 2k
    rows per partition, capped at 65,536; a fixed count would under-split
    a 256-node cluster and over-split a laptop. The 200k-pruned-rows
    target replaces the old 50k-unpruned target after a 1M-page sweep
    (BASELINE r5): each partition costs ~0.1 s of fixed task/ref overhead
    in the chained exchange, so P=421 ran the stage in 107 s where P=96
    ran it in 50 s with identical edges; at sf0.1 the formula still lands on the 1.5×CPU floor (48,
    the measured best there). Partition payload at the target is ~60 MB
    of fat rows + in-flight pair arrays — well inside a worker heap; at
    the 65,536 cap (~13G pruned rows ≈ 6×10⁸ pages) shard the corpus via
    the incremental ``key_filter`` path instead."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import (
        Blocks,
        as_blocks,
        hash_exchange_chained,
    )
    from entity_resolution_engine_ray.stages.pairs import key_stats, pair_partitions

    cfg = cfg or PagesERConfig()
    features = as_blocks(features)
    n_band_rows = features.count() * cfg.bands
    filter_ref = None if key_filter is None else ray.put(np.asarray(key_filter, dtype=np.int64))
    hot, pairable, n_pruned = key_stats(
        features,
        cfg.max_block_size,
        n_rows_hint=n_band_rows,
        block_fn=functools.partial(_band_keys, allowed_ref=filter_ref),
    )
    # when the pairable set exceeded its broadcast limit the prune is
    # skipped, so the exchange really carries every band row — size for it
    num_partitions = pair_partitions(
        n_band_rows if pairable is None else n_pruned, num_partitions
    )
    keep_ref = filter_ref
    if pairable is not None:
        if len(pairable) == 0:
            # no bucket has ≥2 members ⇒ no candidate pairs at all: TYPED
            # empty edges, so downstream decision filters see the schema
            return Blocks.of(_EDGE_SCHEMA.empty_table()), DroppedPairs()
        # singleton-bucket prune: fat rows whose block key can never pair
        # (35% of band rows on the dense sf0.1 fixture, more on sparse
        # corpora) are dropped BEFORE the fat hash exchange — exactly
        # output-preserving, see pairs.key_stats. key_stats counted only
        # the key_filter rows, so the pairable keys already lie inside it.
        keep_ref = ray.put(pairable)
    edges, counts = hash_exchange_chained(
        features,
        ["block_key", "salt"],
        functools.partial(_pair_score_partition, cfg=cfg),
        num_partitions,
        ["left_id", "right_id"],
        _dedup_edges_partition,
        num_partitions,
        arrow_fns=True,
        block_fn=functools.partial(_fat_rows, keep_ref=keep_ref, hot=hot),
    )
    return edges, DroppedPairs(
        counts.get("dropped", 0), counts.get("prefiltered", 0), prune_skipped=pairable is None
    )


def _decision_counts(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return pa.table({"decision": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    vc = pc.value_counts(t["decision"])
    return pa.table({"decision": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})


def gate_metrics(edges) -> dict:
    """Per-run routing metrics mirroring the reference's
    pipeline_run_metrics fields (validation/router.py:227-245).

    Decision counts come from one plain task per block of the edges
    (``Blocks`` or a Dataset; ``value_counts`` of the ``decision`` column)
    — the edges are already in memory when the pipeline asks, so no Ray
    Data execution runs."""
    import ray

    from entity_resolution_engine_ray.stages.exchange import _map_block_refs

    tables = ray.get([t for t, _ in _map_block_refs(edges, _decision_counts)])
    counts: dict[str, int] = {}
    for t in tables:
        for d, n in zip(t["decision"].to_pylist(), t["n"].to_pylist()):
            counts[d] = counts.get(d, 0) + n
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
