"""Driver-graded query registry over the testdata tables.

Each entry implements one operator family from SURVEY.md §2 (plus the
training-data-pipeline operators) as an idiomatic Ray Data pipeline over
``{sf_dir}/*.parquet``, paired with an ANSI-SQL oracle DuckDB runs on the
same tables. Column names and dtypes match the oracle exactly (the driver
hashes values column-name-sorted).

Scale idioms demonstrated and used throughout:
- column pruning at the read (``read_parquet(columns=[...])``)
- partial per-batch aggregation before the global groupby shuffle
- broadcast lookup joins for small dimension tables
- task-level hash cogroups (stages/exchange) for large-large joins
- partition-grouped vectorized processing (stages/grouping) for argmax /
  sessionization / dedup instead of per-group Python
- per-batch top-k before a tiny global top-k

Rounding: DuckDB ``ROUND`` is round-half-away-from-zero; numpy/pyarrow round
half-to-even. ``round_half_away`` reproduces DuckDB's ``std::round(x*p)/p``
bit-for-bit so value hashes match.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from entity_resolution_engine_ray.functions.textstats import (
    PUNCT_PATTERN,
    TOKEN_PATTERN,
    detect_language,
    md5_fingerprint,
)
from entity_resolution_engine_ray.stages.grouping import partition_map_groups


def round_half_away(x: np.ndarray, decimals: int) -> np.ndarray:
    # floor(x*p + 0.5) — NOT np.round, which is half-EVEN and diverges from
    # DuckDB when x*p lands exactly on .5 (dyadic values do: the EWMA's
    # sums-over-powers-of-8 hit 0.65625-style boundaries; found by the
    # daily_revenue_ewma oracle gate)
    return _rha(x, decimals)


def _rha(x, decimals):
    """round-half-away matching DuckDB's std::round(x*p)/p.

    The fractional part is compared against 0.5 EXACTLY (scaled − floor is
    exact in IEEE by Sterbenz), not via floor(scaled + 0.5): adding 0.5 to
    a value one ulp below .5 (0.49999999999999994) rounds the SUM to 1.0,
    so the floor form returns 1 where std::round returns 0 — pinned in
    test_round_half_away_matches_duckdb_on_dyadic_boundaries."""
    p = 10.0**decimals
    x = np.asarray(x, dtype=np.float64)
    scaled = x * p
    f = np.floor(scaled)
    up = f + (scaled - f >= 0.5)
    c = np.ceil(scaled)
    down = c - (c - scaled >= 0.5)
    return np.where(scaled >= 0, up, down) / p


def _cents_from_lanes(w, r) -> np.ndarray:
    """Recombine split whole-dollar / 1e-4-dollar-remainder lanes in Python
    big-int and round to exact cents, half away from zero ((u+50)//100,
    u ≥ 0) — the shared finish of every money aggregate that splits its
    1e-4-dollar sums per partition to dodge int64 saturation (see
    q_lineitem_pricing's headroom note)."""
    return np.array(
        [(int(a) * 10_000 + int(b) + 50) // 100 for a, b in zip(w, r)], dtype=np.int64
    )


def _knuth32(ids: np.ndarray) -> np.ndarray:
    """(id * 2654435761) mod 2^32 — Knuth multiplicative hash, computed in
    uint64 so it is exact for EVERY int64 id: the multiply wraps mod 2^64 and
    2^32 | 2^64, so the final mod-2^32 result is unaffected by wraparound.
    (int64 arithmetic silently wrapped for id >= ~3.47e9.) The SQL oracles
    mirror it via a HUGEINT cast so DuckDB's BIGINT-overflow raise can't
    diverge either — see ``_knuth32_sql``."""
    return (
        (np.asarray(ids).astype(np.uint64) * np.uint64(2654435761)) % np.uint64(4294967296)
    ).astype(np.int64)


def _knuth32_sql(col: str) -> str:
    """DuckDB twin of ``_knuth32``: HUGEINT (int128) can't overflow for any
    BIGINT id, and for non-negative ids the exact mod equals the uint64
    wraparound result."""
    return f"((CAST({col} AS HUGEINT) * 2654435761) % 4294967296)"


# ---------------------------------------------------------------------------
# documents: dedup / text analysis
# ---------------------------------------------------------------------------


def q_exact_dedup_docs(sf_dir: str):
    """Exact dedup on text: representative doc_id + duplicate count per
    distinct text. Hash-partition + per-group first (SURVEY.md §2.7).

    Grouping is on a 64-bit stable content hash so the shuffle moves 8-byte
    keys, not full documents. HASH-exact: a blake2b-64 collision
    (probability ~ n²/2⁶⁵) would merge two distinct texts; resolve within
    the partition against the text itself if that ever matters."""
    from entity_resolution_engine_ray.functions.similarity import stable_hash64

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = pa.array([stable_hash64(x) for x in t["text"].to_pylist()], type=pa.int64())
        return pa.table({"doc_id": t["doc_id"], "h": h})

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dupes"))
        .select_columns(["doc_id", "n_dupes"])
    )


def q_doc_stats_by_lang(sf_dir: str):
    """Per-language corpus stats with partial per-batch pre-aggregation
    before the (tiny) global groupby."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
        chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        tmp = pa.table({"lang": t["lang"], "toks": toks, "chars": chars}).to_pandas()
        g = tmp.groupby("lang", as_index=False).agg(
            n_docs=("toks", "size"), total_tokens=("toks", "sum"), sum_chars=("chars", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
    ).to_pandas()
    agg["avg_chars"] = _rha(agg["sum_chars"] / agg["n_docs"], 2)
    out = agg[["lang", "n_docs", "total_tokens", "avg_chars"]].copy()
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_tokens"] = out["total_tokens"].astype(np.int64)
    return out


def q_doc_stats_rollup(sf_dir: str):
    """Multi-level (ROLLUP) corpus stats: (lang, len_bucket) -> (lang, ALL)
    -> (ALL, ALL). The finest level aggregates distributed (per-batch
    partials + one tiny groupby); the coarser levels derive EXACTLY from the
    finest aggregate on the driver (sums/counts are re-aggregable), so the
    rollup costs zero extra passes over the data. Rolled-up keys use the
    'ALL' sentinel (= SQL's COALESCE over ROLLUP NULLs) to keep the value
    hash engine-independent."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
        bucket = pc.if_else(pc.less(toks, 50), "short", "long")
        tmp = pa.table({"lang": t["lang"], "len_bucket": bucket, "toks": toks}).to_pandas()
        g = tmp.groupby(["lang", "len_bucket"], as_index=False).agg(
            n_docs=("toks", "size"), total_tokens=("toks", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "len_bucket"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
        )
    ).to_pandas()
    by_lang = fine.groupby("lang", as_index=False)[["n_docs", "total_tokens"]].sum()
    by_lang["len_bucket"] = "ALL"
    grand = pd.DataFrame(
        {
            "lang": ["ALL"],
            "len_bucket": ["ALL"],
            "n_docs": [fine["n_docs"].sum()],
            "total_tokens": [fine["total_tokens"].sum()],
        }
    )
    out = pd.concat([fine, by_lang, grand], ignore_index=True)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_tokens"] = out["total_tokens"].astype(np.int64)
    return out[["lang", "len_bucket", "n_docs", "total_tokens"]].sort_values(
        ["lang", "len_bucket"], kind="mergesort"
    ).reset_index(drop=True)


def q_doc_quality(sf_dir: str):
    """Per-document quality features (length / punctuation ratios) with a
    quality filter — vectorized Arrow kernels, no Python row loop."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def features(t: pa.Table) -> pa.Table:
        n_tokens = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        n_punct = pc.cast(pc.count_substring_regex(t["text"], PUNCT_PATTERN), pa.float64())
        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        nt = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
        punct_ratio = _rha(np.where(nc > 0, n_punct.to_numpy(zero_copy_only=False) / nc, 0.0), 4)
        mean_token_len = _rha(np.where(nt > 0, nc / nt, 0.0), 4)
        out = pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
                "mean_token_len": pa.array(mean_token_len, type=pa.float64()),
            }
        )
        return out.filter(pc.greater_equal(out["n_tokens"], 10))

    return ds.map_batches(features, batch_format="pyarrow")


def q_doc_stats_incremental(sf_dir: str):
    """Incremental aggregate maintenance: per-lang corpus stats kept
    current as a new batch lands WITHOUT rescanning the ingested corpus —
    the pattern that makes a daily 100 TB stats refresh cost one batch,
    not one corpus. The 'ingested' aggregate (sources < 'src5') stands in
    for yesterday's saved stats table; only the incoming shard is scanned
    today and its DELTA partials merge in with a tiny aligned add (sums
    and counts are re-aggregable; non-mergeable stats would keep sketches
    instead). The oracle recomputes over the full union — equality IS the
    maintenance-invariant check."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
        tmp = pa.table({"lang": t["lang"], "toks": toks}).to_pandas()
        g = tmp.groupby("lang", as_index=False).agg(
            n_docs=("toks", "size"), total_tokens=("toks", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def agg(part_ds) -> pd.DataFrame:
        return (
            part_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("lang")
            .aggregate(
                Sum("n_docs", alias_name="n_docs"),
                Sum("total_tokens", alias_name="total_tokens"),
            )
        ).to_pandas()

    saved = agg(ds.filter(expr="source < 'src5'"))  # stands in for the stored table
    delta = agg(ds.filter(expr="source >= 'src5'"))  # the only scan a real refresh runs
    merged = (
        pd.concat([saved, delta], ignore_index=True)
        .groupby("lang", as_index=False)[["n_docs", "total_tokens"]]
        .sum()
    )
    merged["n_docs"] = merged["n_docs"].astype(np.int64)
    merged["total_tokens"] = merged["total_tokens"].astype(np.int64)
    return merged.sort_values("lang", kind="mergesort").reset_index(drop=True)


def q_doc_quality_decile(sf_dir: str):
    """Distributed GLOBAL ranking → quality-decile assignment, the
    stratification step before per-stratum sampling or curriculum
    ordering. Exact rank (not quantile-boundary buckets, so ties split
    deterministically like SQL ROW_NUMBER): one distributed sort by
    (n_tokens, doc_id), then each block learns its global row offset from
    block METADATA only (stages/scan's prefix-offset walk — O(blocks)
    driver work, rows never leave their block), and rank = offset + local
    position. decile = (rank-1)*10 // N with pure-integer math."""
    from entity_resolution_engine_ray.stages.scan import grouped_prefix_sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def features(t: pa.Table) -> pa.Table:
        n_tokens = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": n_tokens,
                "one": pa.array(np.ones(n, dtype=np.int64)),
                "g": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    feat = ds.map_batches(features, batch_format="pyarrow")
    ranked = grouped_prefix_sum(feat, ["g"], ["n_tokens", "doc_id"], "one", "rk")
    n_total = ranked.count()

    def decile(t: pa.Table) -> pa.Table:
        rk = t["rk"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "decile": pa.array((rk - 1) * 10 // n_total),
            }
        )

    return ranked.map_batches(decile, batch_format="pyarrow")


def q_doc_fingerprint(sf_dir: str):
    """Deterministic md5 document fingerprint (DuckDB-identical)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fp": pa.array(md5_fingerprint(t["text"].to_pylist()), type=pa.string()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


def q_lang_id(sf_dir: str):
    """Stopword-profile language id (no SQL oracle — heuristic model)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def lid(t: pa.Table) -> pa.Table:
        pred = detect_language(t["text"].to_pylist())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "lang_pred": pa.array(list(pred), type=pa.string()),
            }
        )

    return ds.map_batches(lid, batch_format="pyarrow")


def q_near_dup_minhash(sf_dir: str):
    """MinHash-LSH near-dup clustering of documents (shingle → minhash →
    band → bucket groupby → exact shingle-Jaccard verify → connected
    components; cluster_id = min doc_id of the component).

    Oracle-checked: the verify pass computes EXACT Jaccard in the same
    3-shingle space the MinHash sketches, so the output equals the SQL
    oracle's exhaustive cross-join + recursive-closure answer whenever LSH
    recall is 100% — which it provably is on these fixtures (every true
    near-dup pair has shingle Jaccard ≥ 0.97; the 63-perm/21-band sketch
    misses such a pair with probability < 1e-20)."""
    from entity_resolution_engine_ray.stages.dedup import minhash_near_dup_clusters

    return minhash_near_dup_clusters(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
    )


def q_near_dup_ngram(sf_dir: str):
    """Char-3-gram Jaccard near-dup clustering (the short/noisy-string
    dedup mode — same MinHash-LSH machinery as near_dup_minhash but the
    set elements are character trigrams of the raw lowered text).
    Threshold 0.85 sits in this fixture's distribution GAP (background
    pairs top out at 0.73, true near-dups start at 0.92), so LSH recall is
    provable (miss probability < 1e-13 per pair at j=0.92 with 21 bands)
    and the output equals the SQL oracle's exhaustive gram cross-join +
    recursive closure."""
    from entity_resolution_engine_ray.stages.dedup import ngram_near_dup_clusters

    return ngram_near_dup_clusters(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
        n=3,
        threshold=0.85,
    )


def q_dup_cluster_histogram(sf_dir: str):
    """Near-dup cluster-size distribution — the corpus-health report a
    dedup run ships (how much of the crawl is singleton vs boilerplate
    families). Downstream of the MinHash-LSH clustering, the histogram is
    two cheap aggregations: one int64-keyed groupby counts docs per
    cluster (the only corpus-sized shuffle, 8-byte keys), then a per-batch
    partial histogram collapses into a tiny global groupby over the
    distinct sizes. n_docs = size x n_clusters is derived exactly on the
    driver from the aggregate (no extra pass)."""
    from entity_resolution_engine_ray.stages.dedup import minhash_near_dup_clusters

    clusters = minhash_near_dup_clusters(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
    )
    per_cluster = clusters.groupby("cluster_id").aggregate(Count(alias_name="sz"))

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"cluster_size": t["sz"]})
            .to_pandas()
            .groupby("cluster_size", as_index=False)
            .agg(n_clusters=("cluster_size", "size"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = (
        per_cluster.map_batches(partial, batch_format="pyarrow")
        .groupby("cluster_size")
        .aggregate(Sum("n_clusters", alias_name="n_clusters"))
    ).to_pandas()
    hist["cluster_size"] = hist["cluster_size"].astype(np.int64)
    hist["n_clusters"] = hist["n_clusters"].astype(np.int64)
    hist["n_docs"] = (hist["cluster_size"] * hist["n_clusters"]).astype(np.int64)
    return hist.sort_values("cluster_size", kind="mergesort").reset_index(drop=True)


def q_near_dup_keep_best(sf_dir: str):
    """The dedup pipeline's actual DELIVERABLE: one representative document
    kept per near-dup cluster (longest text wins, ties → min doc_id) — what
    a training-corpus export writes after MinHash-LSH clustering. One
    doc_id hash-cogroup attaches n_chars to the cluster labels, then a
    cluster_id-partitioned grouped argmax picks the keeper. Oracle: the
    near_dup_minhash recursive-closure SQL extended with a per-cluster
    ROW_NUMBER window."""
    from entity_resolution_engine_ray.stages.dedup import minhash_near_dup_clusters
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    clusters = minhash_near_dup_clusters(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
    )
    meta = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def join_meta(c_pdf: pd.DataFrame, d_pdf: pd.DataFrame) -> pd.DataFrame:
        if c_pdf.empty:
            return pd.DataFrame(
                {
                    "cluster_id": pd.Series([], dtype=np.int64),
                    "doc_id": pd.Series([], dtype=np.int64),
                    "n_chars": pd.Series([], dtype=np.int64),
                    "cluster_size": pd.Series([], dtype=np.int64),
                }
            )
        m = c_pdf.merge(d_pdf, on="doc_id")
        return m[["cluster_id", "doc_id", "n_chars", "cluster_size"]]

    joined = hash_exchange_cogroup(
        clusters, meta, ["doc_id"], ["doc_id"], join_meta, default_join_partitions()
    )

    def best(pdf: pd.DataFrame) -> pd.DataFrame:
        top = (
            pdf.sort_values(
                ["cluster_id", "n_chars", "doc_id"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .drop_duplicates("cluster_id", keep="first")
            .rename(columns={"doc_id": "kept_doc_id"})
        )
        return top[["cluster_id", "kept_doc_id", "cluster_size"]]

    out = partition_map_groups(joined, ["cluster_id"], best).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("cluster_id", kind="mergesort").reset_index(drop=True)


def q_corpus_export(sf_dir: str):
    """END-TO-END training-corpus export, hash-checked as ONE pipeline:
    quality filter (≥30 tokens) → benchmark decontamination (broadcast
    snippet screen) → MinHash-LSH near-dup clustering over the survivors →
    keep-best representative per cluster → deterministic shard assignment.
    The composition is the point: each stage streams Arrow batches into the
    next (the two filters fuse into a single map over the read), and the
    whole thing still matches a single DuckDB query built from the same
    pieces — filter predicates, EXISTS screen, recursive closure, window."""
    import ray

    from entity_resolution_engine_ray.functions.textstats import token_count
    from entity_resolution_engine_ray.stages.dedup import minhash_near_dup_clusters
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"])

    def make_snips(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = t.filter(pa.array(ids % 25 == 0))
        if len(sel) == 0:
            return pa.table({"s": pa.array([], type=pa.string())})
        words = pc.split_pattern(sel["text"].combine_chunks(), " ")
        return pa.table({"s": pc.binary_join(pc.list_slice(words, 0, 5), " ")})

    snips = sorted(set(docs.map_batches(make_snips, batch_format="pyarrow").to_pandas()["s"]))
    snip_ref = ray.put(snips)

    def prefilter(t: pa.Table) -> pa.Table:
        from entity_resolution_engine_ray.stages.decontaminate import cached_matcher

        ntok = pc.cast(token_count(t["text"]), pa.int64())
        t = t.append_column("n_tokens", ntok)
        t = t.filter(pc.greater_equal(t["n_tokens"], 30))
        if t.num_rows == 0:
            return t
        # decontamination here only needs the BOOLEAN any-snippet mask —
        # one grouped-alternation DFA pass (stages/decontaminate), not one
        # kernel pass per snippet
        hit = cached_matcher(snip_ref).hit_mask(t["text"])
        return t.filter(pa.array(~hit))

    clean = docs.map_batches(prefilter, batch_format="pyarrow").materialize()
    clusters = minhash_near_dup_clusters(
        clean.select_columns(["doc_id", "text"]), id_col="doc_id", text_col="text"
    )
    meta = clean.select_columns(["doc_id", "n_chars", "n_tokens"])

    def join_meta(c_pdf: pd.DataFrame, m_pdf: pd.DataFrame) -> pd.DataFrame:
        if c_pdf.empty:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype=np.int64)
                    for c in ("cluster_id", "doc_id", "n_chars", "n_tokens", "cluster_size")
                }
            )
        m = c_pdf.merge(m_pdf, on="doc_id")
        return m[["cluster_id", "doc_id", "n_chars", "n_tokens", "cluster_size"]]

    joined = hash_exchange_cogroup(
        clusters, meta, ["doc_id"], ["doc_id"], join_meta, default_join_partitions()
    )

    def best(pdf: pd.DataFrame) -> pd.DataFrame:
        top = pdf.sort_values(
            ["cluster_id", "n_chars", "doc_id"], ascending=[True, False, True], kind="mergesort"
        ).drop_duplicates("cluster_id", keep="first")
        return top[["doc_id", "n_tokens", "cluster_size"]]

    out = partition_map_groups(joined, ["cluster_id"], best).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    out["shard"] = _knuth32(out["doc_id"].to_numpy(np.int64)) % 8
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_simhash_fingerprint(sf_dir: str):
    """64-bit SimHash per document (no SQL oracle)."""
    from entity_resolution_engine_ray.stages.dedup import simhash_stage

    return simhash_stage(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
    )


# ---------------------------------------------------------------------------
# relational: aggregates / joins / argmax / anti-join
# ---------------------------------------------------------------------------


def q_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-shaped pricing summary: filter at the read, partial per-batch
    aggregation, tiny global groupby. Money columns sum as INTEGER CENTS
    (prices and discounts are exact 2-decimal values): float partial sums
    are order-dependent across parallel partitions and drifted from the
    serial DuckDB sum at the 2nd decimal of ~2.7e9 by sf0.1 — integer sums
    are associative, so distributed == serial independent of partitioning;
    the oracle mirrors with DECIMAL(18,2) arithmetic. disc_price
    accumulates in 1e-4 dollars (cents × discount-hundredths) and rounds
    to cents in integer math ((u+50)//100, u ≥ 0 — half away from zero
    like ROUND). Headroom: a single int64 lane in 1e-4 dollars saturates
    near $9.2e14 per group (~TPC-H sf9k), so each per-batch partial splits
    into whole-dollar + 1e-4-remainder lanes recombined in Python big-int
    on the driver — the whole-dollar lane wraps only past $9.2e18 per
    group; cents-lane sums elsewhere (nation_revenue etc.) bound at
    $9.2e16 per group."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"), type=t["l_shipdate"].type))
        t = t.filter(mask)
        qty = np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        ext_c = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        disc_h = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pd.DataFrame(
            {
                "l_returnflag": t["l_returnflag"].to_numpy(zero_copy_only=False),
                "l_linestatus": t["l_linestatus"].to_numpy(zero_copy_only=False),
                "qty": qty,
                "base_c": ext_c,
                "disc_u": ext_c * (100 - disc_h),  # exact 1e-4 dollars
            }
        )
        g = pdf.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty", "sum"), sum_base=("base_c", "sum"), sum_disc=("disc_u", "sum"), n=("qty", "size")
        )
        for c in ("sum_qty", "sum_base", "sum_disc", "n"):
            g[c] = g[c].astype(np.int64)
        # split the 1e-4-dollar lane per batch so the GLOBAL sums never
        # approach int64 saturation (see docstring headroom note)
        g["disc_w"] = g["sum_disc"] // 10_000
        g["disc_r"] = g["sum_disc"] % 10_000
        return pa.Table.from_pandas(g.drop(columns="sum_disc"), preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base", alias_name="sum_base"),
            Sum("disc_w", alias_name="disc_w"),
            Sum("disc_r", alias_name="disc_r"),
            Sum("n", alias_name="n"),
        )
    ).to_pandas()
    disc_cents = _cents_from_lanes(agg["disc_w"], agg["disc_r"])
    out = pd.DataFrame(
        {
            "l_returnflag": agg["l_returnflag"],
            "l_linestatus": agg["l_linestatus"],
            "sum_qty": agg["sum_qty"].to_numpy(np.int64).astype(np.float64),
            "sum_base_price": agg["sum_base"].to_numpy(np.int64) / 100.0,
            "sum_disc_price": disc_cents / 100.0,
            "avg_qty": _rha(agg["sum_qty"].to_numpy(np.int64) / agg["n"].to_numpy(np.int64), 2),
            "n_rows": agg["n"].astype(np.int64),
        }
    )
    return out


def q_top_customer_order(sf_dir: str):
    """Argmax-per-key (the reference's top-1-per-left-key matcher selection,
    SURVEY.md §2.3): each customer's highest-value order, ties → min
    orderkey. Partition-grouped vectorized sort + first."""
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )

    def top1(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return pdf.drop_duplicates("o_custkey", keep="first")

    return partition_map_groups(ds, ["o_custkey"], top1)


def q_nation_revenue(sf_dir: str):
    """customer ⋈ orders revenue per nation: ONE task-level hash cogroup
    (orders.custkey × customer.custkey) with in-partition merge + partial
    aggregation by nationkey; the ≤ P×25-row partials fold on the driver and
    the tiny nation dimension is a broadcast lookup — no join-actor barriers
    (replaces two isolated Dataset.join materializations, ~2× faster)."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nation_tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )

    def per_partition(o_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        if o_pdf.empty or c_pdf.empty:
            return pd.DataFrame(
                {
                    "c_nationkey": pd.Series([], dtype=np.int64),
                    "rev_c": pd.Series([], dtype=np.int64),
                    "n_orders": pd.Series([], dtype=np.int64),
                }
            )
        m = o_pdf.merge(c_pdf, left_on="o_custkey", right_on="c_custkey")
        # integer cents: order-invariant partial sums (float drifted vs the
        # serial oracle at sf0.1 elsewhere; see q_lineitem_pricing)
        m["rev_c"] = np.round(m["o_totalprice"].to_numpy(np.float64) * 100).astype(np.int64)
        g = m.groupby("c_nationkey", as_index=False).agg(
            rev_c=("rev_c", "sum"), n_orders=("rev_c", "size")
        )
        g["rev_c"] = g["rev_c"].astype(np.int64)
        return g

    partials = hash_exchange_cogroup(
        orders, customer, ["o_custkey"], ["c_custkey"], per_partition, default_join_partitions()
    ).to_pandas()
    agg = partials.groupby("c_nationkey", as_index=False).agg(
        rev_c=("rev_c", "sum"), n_orders=("n_orders", "sum")
    )
    agg["n_name"] = agg["c_nationkey"].map(nation_map)
    agg["revenue"] = agg["rev_c"].to_numpy(np.int64) / 100.0
    agg["n_orders"] = agg["n_orders"].astype(np.int64)
    return agg[["n_name", "revenue", "n_orders"]]


def q_customers_no_orders(sf_dir: str):
    """Anti join: customers with no FINISHED ('F') order — predicate pushed
    to the read, per-batch key dedup to slim the shuffle, then one hash
    cogroup with an in-partition ``isin`` anti (no join actors, no barrier)."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    order_keys = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus"],
        filter=(pc.field("o_orderstatus") == "F"),
    ).map_batches(
        lambda t: pa.table({"o_custkey": pc.unique(t["o_custkey"])}), batch_format="pyarrow"
    )

    def anti(c_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if c_pdf.empty:
            return pd.DataFrame({"c_custkey": pd.Series([], dtype=np.int64)})
        return c_pdf[~c_pdf["c_custkey"].isin(o_pdf["o_custkey"])][["c_custkey"]]

    return hash_exchange_cogroup(
        customer, order_keys, ["c_custkey"], ["o_custkey"], anti, default_join_partitions()
    )


def q_supplier_region_stats(sf_dir: str):
    """Dimension-chain broadcast join: supplier → nation → region (both dims
    broadcast once, no shuffle), then a tiny groupby."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    n2r = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()))
    r2name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    supplier = rd.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"])

    def add_region(t: pa.Table) -> pa.Table:
        names = [r2name[n2r[k]] for k in t["s_nationkey"].to_pylist()]
        # integer cents: float partial sums drift vs the serial oracle by
        # sf0.1 (order-dependent); exact-2-decimal money sums associatively
        cents = np.round(t["s_acctbal"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"r_name": pa.array(names, type=pa.string()), "bal_c": pa.array(cents)})

    agg = (
        supplier.map_batches(add_region, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Sum("bal_c", alias_name="sum_c"), Count(alias_name="n_suppliers"))
    ).to_pandas()
    out = pd.DataFrame(
        {
            "r_name": agg["r_name"],
            "n_suppliers": agg["n_suppliers"].astype(np.int64),
            "avg_acctbal": _rha(
                (agg["sum_c"].to_numpy(np.int64) / 100.0) / agg["n_suppliers"].to_numpy(np.int64), 2
            ),
        }
    )
    return out


def q_orders_priority_count(sf_dir: str):
    """Semi join (EXISTS), TPC-H Q4 shape: orders with ≥1 deep-discount
    lineitem, counted per priority. Lineitem side is reduced to
    per-batch-unique orderkeys before the ONE hash cogroup; the
    per-partition semi (isin) feeds a partial count that folds to ≤ P×5
    rows on the driver."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    disc_keys = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_discount"],
        filter=(pc.field("l_discount") > 0.05),
    ).map_batches(
        lambda t: pa.table({"l_orderkey": pc.unique(t["l_orderkey"])}), batch_format="pyarrow"
    )

    def semi_count(o_pdf: pd.DataFrame, l_pdf: pd.DataFrame) -> pd.DataFrame:
        if o_pdf.empty:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_orders": pd.Series([], dtype=np.int64),
                }
            )
        hit = o_pdf[o_pdf["o_orderkey"].isin(l_pdf["l_orderkey"])]
        return hit.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("o_orderkey", "size")
        )

    partials = hash_exchange_cogroup(
        orders, disc_keys, ["o_orderkey"], ["l_orderkey"], semi_count, default_join_partitions()
    ).to_pandas()
    out = partials.groupby("o_orderpriority", as_index=False).agg(n_orders=("n_orders", "sum"))
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out


def q_region_top_supplier(sf_dir: str):
    """Per-region argmax (highest account balance, ties → min suppkey):
    nation→region broadcast lookup, per-batch partial argmax, 5-row driver
    final — no shuffle at all."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    n2r = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()))
    r2name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    supplier = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"]
    )

    def partial_top(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        pdf["r_name"] = [r2name[n2r[k]] for k in pdf["s_nationkey"]]
        pdf = pdf.sort_values(
            ["r_name", "s_acctbal", "s_suppkey"], ascending=[True, False, True], kind="mergesort"
        ).drop_duplicates("r_name", keep="first")
        return pa.Table.from_pandas(
            pdf[["r_name", "s_suppkey", "s_name", "s_acctbal"]], preserve_index=False
        ).replace_schema_metadata(None)

    partials = supplier.map_batches(partial_top, batch_format="pyarrow").to_pandas()
    out = partials.sort_values(
        ["r_name", "s_acctbal", "s_suppkey"], ascending=[True, False, True], kind="mergesort"
    ).drop_duplicates("r_name", keep="first")
    return out.reset_index(drop=True)


def q_doc_distinct_by_lang(sf_dir: str):
    """COUNT DISTINCT per group at scale: texts reduce to 64-bit content
    hashes per batch (8-byte shuffle keys, no full text movement), then one
    hash partition per language computes HASH-EXACT distinct counts — a
    blake2b-64 collision (probability ≈ n²/2⁶⁵, ~3e-12 at a billion docs
    per language) would undercount by one vs the oracle's COUNT(DISTINCT
    text); shuffling full texts to resolve that is not worth it at scale."""
    from entity_resolution_engine_ray.functions.similarity import stable_hash64

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = pa.array([stable_hash64(x) for x in t["text"].to_pylist()], type=pa.int64())
        return pa.table({"lang": t["lang"], "h": h})

    def per_lang(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("lang", as_index=False).agg(
            n_docs=("h", "size"), n_distinct=("h", "nunique")
        )
        g["dup_rate"] = _rha(1.0 - g["n_distinct"] / g["n_docs"], 4)
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["n_distinct"] = g["n_distinct"].astype(np.int64)
        return g

    return partition_map_groups(
        ds.map_batches(add_hash, batch_format="pyarrow"), ["lang"], per_lang, 8
    )


def q_ann_ivf_top10(sf_dir: str):
    """IVF approximate top-k: 2 distributed Lloyd refinement passes over
    seeded centroids, then probe the nearest centroid lists only — no
    SQL oracle (approximate index)."""
    from entity_resolution_engine_ray.stages.knn import knn_ivf

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)
    out = knn_ivf(ds, q, k=10, id_col="vec_id", n_centroids=16, n_probe=8, n_iters=2)
    out["cos"] = _rha(out["cos"], 4)
    return out


def q_doc_top_tokens(sf_dir: str):
    """Token explode (vectorized Arrow list-flatten) → partial per-batch
    counts → global groupby → top 20 tokens (count desc, token asc)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        # split on whitespace runs; RE2 semantics identical to the oracle
        lists = pc.split_pattern_regex(t["text"], "[ \t\n\r]+")
        flat = lists.combine_chunks().flatten() if isinstance(lists, pa.ChunkedArray) else lists.flatten()
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        vc = pc.value_counts(flat)
        return pa.table(
            {"token": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    out = agg.sort_values(["n", "token"], ascending=[False, True], kind="mergesort").head(20)
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


def q_event_audience_overlap(sf_dir: str):
    """Audience-overlap matrix: Jaccard of the USER SETS of every event-type
    pair — the segmentation diagnostic behind "do buyers also click?".
    Fully distributed set algebra: per-batch (event_type, user) dedup
    partials, ONE user-keyed exchange where each user's sorted type set
    emits its within-user type pairs (types-per-user is small and bounded —
    the pair fan-out is O(users · t²/2) slim rows, never events²), then an
    O(type-pairs) count finish. Jaccard is one float division of three
    exact integers, so the oracle matches bit-for-bit under ROUND."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def dedup_partial(t: pa.Table) -> pd.DataFrame:
        pdf = pd.DataFrame(
            {
                "event_type": t["event_type"].to_pylist(),
                "user_id": t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        return pdf.drop_duplicates()

    def per_user(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame(
                {
                    "etype_a": pd.Series([], dtype=object),
                    "etype_b": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        pdf = pdf.drop_duplicates()  # across-batch duplicates meet here
        rows_a, rows_b = [], []
        for _, grp in pdf.groupby("user_id", sort=False):
            ts = sorted(grp["event_type"].tolist())
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    rows_a.append(ts[i])
                    rows_b.append(ts[j])
        # per-type presence rides the same partition as singleton rows
        pres = pdf.groupby("event_type", as_index=False).agg(n=("user_id", "size"))
        pairs = (
            pd.DataFrame({"etype_a": rows_a, "etype_b": rows_b})
            .groupby(["etype_a", "etype_b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
            if rows_a
            else pd.DataFrame(
                {
                    "etype_a": pd.Series([], dtype=object),
                    "etype_b": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        )
        # is_size marks per-type presence rows vs pair rows — a dedicated
        # flag instead of an etype_b == "" sentinel, which would fold a
        # genuine empty-string event_type into the size map
        single = pd.DataFrame(
            {"etype_a": pres["event_type"], "etype_b": "", "n": pres["n"]}
        )
        single["is_size"] = True
        pairs = pairs.copy()
        pairs["is_size"] = False
        out = pd.concat([pairs, single], ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = partition_map_groups(
        ds.map_batches(dedup_partial, batch_format="pyarrow"), ["user_id"], per_user
    ).to_pandas()
    empty = pd.DataFrame(
        {
            "etype_a": pd.Series([], dtype=object),
            "etype_b": pd.Series([], dtype=object),
            "n_a": pd.Series([], dtype=np.int64),
            "n_b": pd.Series([], dtype=np.int64),
            "n_both": pd.Series([], dtype=np.int64),
            "jaccard": pd.Series([], dtype=np.float64),
        }
    )
    if parts.empty:
        return empty
    folded = parts.groupby(["etype_a", "etype_b", "is_size"], as_index=False).agg(
        n=("n", "sum")
    )
    sizes = dict(
        zip(
            folded.loc[folded["is_size"], "etype_a"],
            folded.loc[folded["is_size"], "n"].astype(int),
        )
    )
    co = folded[~folded["is_size"]].copy()
    if co.empty:
        return empty
    na = co["etype_a"].map(sizes).to_numpy(np.int64)
    nb = co["etype_b"].map(sizes).to_numpy(np.int64)
    both = co["n"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "etype_a": co["etype_a"].to_numpy(),
            "etype_b": co["etype_b"].to_numpy(),
            "n_a": na,
            "n_b": nb,
            "n_both": both,
            "jaccard": round_half_away(both / (na + nb - both), 4),
        }
    )
    return out.sort_values(["etype_a", "etype_b"], kind="mergesort").reset_index(drop=True)


def q_token_zipf_slope(sf_dir: str):
    """Zipf rank–frequency fit over the top-100 tokens — the corpus-health
    diagnostic (natural text fits slope ≈ −1; templated/boilerplate corpora
    flatten, spam steepens). Distributed work is ONE token-count aggregate
    (per-batch `value_counts` partials — the doc_top_tokens machinery);
    rank, logs and the OLS closed form run on the 100-row result. Slope /
    intercept are ROUND(…, 4): with 100 terms the two-pass closed form and
    the oracle's regr_slope accumulation agree far below the grid."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(t["text"], "[ \t\n\r]+")
        flat = (
            lists.combine_chunks().flatten()
            if isinstance(lists, pa.ChunkedArray)
            else lists.flatten()
        )
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        vc = pc.value_counts(flat)
        return pa.table(
            {"token": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    if agg.empty:
        return pd.DataFrame(
            {
                "n_top": pd.Series([], dtype=np.int64),
                "slope": pd.Series([], dtype=np.float64),
                "intercept": pd.Series([], dtype=np.float64),
            }
        )
    top = agg.sort_values(["n", "token"], ascending=[False, True], kind="mergesort").head(100)
    y = np.log(top["n"].to_numpy(np.float64))
    x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
    xm, ym = x.mean(), y.mean()
    denom = ((x - xm) ** 2).sum()
    slope = float(((x - xm) * (y - ym)).sum() / denom) if denom > 0 else 0.0
    intercept = ym - slope * xm
    return pd.DataFrame(
        {
            "n_top": pd.Series([len(top)], dtype=np.int64),
            "slope": pd.Series(round_half_away(np.array([slope]), 4)),
            "intercept": pd.Series(round_half_away(np.array([intercept]), 4)),
        }
    )


def _explode_tokens(t: pa.Table, text_col: str = "text") -> tuple[np.ndarray, np.ndarray]:
    """Vectorized single-space tokenize of a batch: returns (row_index,
    token) numpy arrays with empty tokens removed — the exact semantics of
    the oracles' ``list_filter(string_split(text, ' '), x -> x <> '')``.
    Row boundaries are preserved via the repeat of the ListArray offsets."""
    col = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    lists = pc.split_pattern(col, " ")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    row_idx = np.repeat(
        np.arange(len(lists)), pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    )
    mask = flat != ""
    return row_idx[mask], flat[mask]


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination screen — the eval-leak guard a training
    corpus runs before export. The "benchmark set" is a deterministic
    stand-in (first 5 words of every 25th doc); at 100 TB it would be the
    real eval suites. Snippets are a SMALL side: collected once,
    deduplicated, broadcast via ``ray.put``, and scanned per batch with
    Arrow's vectorized ``match_substring`` — O(snippets) kernel passes per
    batch, zero shuffle of the corpus. With a large benchmark set, swap the
    per-snippet pass for an Aho-Corasick automaton built once per actor (or
    an n-gram-hash join); the broadcast/scan shape is unchanged."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def make_snips(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = t.filter(pa.array(ids % 25 == 0))
        if len(sel) == 0:
            return pa.table({"s": pa.array([], type=pa.string())})
        words = pc.split_pattern(sel["text"].combine_chunks(), " ")
        first5 = pc.binary_join(pc.list_slice(words, 0, 5), " ")
        return pa.table({"s": first5})

    snips = sorted(
        set(ds.map_batches(make_snips, batch_format="pyarrow").to_pandas()["s"])
    )
    snip_ref = ray.put(snips)

    def scan(t: pa.Table) -> pa.Table:
        from entity_resolution_engine_ray.stages.decontaminate import cached_matcher

        # grouped RE2-alternation automaton (Aho-Corasick equivalent),
        # built once per worker process — one DFA pass per 512-snippet
        # group instead of one kernel pass per snippet, exact distinct
        # counts via the two-phase scan (stages/decontaminate)
        counts = cached_matcher(snip_ref).hit_counts(t["text"])
        keep = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(t["doc_id"].to_numpy(zero_copy_only=False)[keep]),
                "n_hits": pa.array(counts[keep]),
            }
        )

    out = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_corpus_diff(sf_dir: str):
    """Dataset diff / drift detection between two corpus versions — the
    anti-entropy check run after a migration or re-export. Version B is a
    deterministic mutation of the corpus (every 53rd doc dropped, every
    37th rewritten), so both engines derive the same two sides. Each side
    reduces to (doc_id, content md5) map-side — the shuffle ships 16-byte
    digests, never text — and ONE doc_id-keyed cogroup classifies rows as
    'missing' (in A only) or 'changed' (digest differs)."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def side_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "h": pa.array(md5_fingerprint(t["text"].to_pylist()))}
        )

    def side_b(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % 53 != 0
        texts = pd.Series(t["text"].to_pylist())[keep]
        kept_ids = ids[keep]
        texts = texts.where(pd.Series(kept_ids % 37 != 0, index=texts.index), texts.str.upper())
        return pa.table(
            {"doc_id": pa.array(kept_ids), "h": pa.array(md5_fingerprint(texts.tolist()))}
        )

    a = ds.map_batches(side_a, batch_format="pyarrow")
    b = ds.map_batches(side_b, batch_format="pyarrow")

    def classify(a_pdf: pd.DataFrame, b_pdf: pd.DataFrame) -> pd.DataFrame:
        if a_pdf.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64), "status": pd.Series([], dtype=str)}
            )
        m = a_pdf.merge(b_pdf, on="doc_id", how="left", suffixes=("_a", "_b"))
        missing = m["h_b"].isna()
        changed = ~missing & (m["h_a"] != m["h_b"])
        out = m[missing | changed][["doc_id"]].copy()
        out["status"] = np.where(missing[missing | changed], "missing", "changed")
        return out

    out = hash_exchange_cogroup(
        a, b, ["doc_id"], ["doc_id"], classify, default_join_partitions()
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_export_manifest(sf_dir: str):
    """Merkle-style export manifest: one digest per language that commits to
    every document's content AND its position in the export order — the
    reproducibility check two runs of a corpus export compare. Level 1
    hashes each doc (md5, matching DuckDB); level 2 digests each
    (lang, shard=doc_id//64) group over its docs in doc_id order; level 3
    digests each lang over its shard digests in shard order. Every level is
    a bounded ordered reduction: the corpus-sized pass is embarrassingly
    parallel, the shard level shuffles 8-byte keys + 32-char digests, and
    the per-lang level sees one ROW per shard (add more levels log-wise if
    a single lang's shard list outgrows a partition)."""
    import hashlib

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"])

    def doc_level(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "lang": t["lang"],
                "shard": pa.array(ids // 64),
                "h": pa.array(md5_fingerprint(t["text"].to_pylist())),
            }
        )

    def shard_level(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame({"lang": [], "shard": [], "sh": []})
        pdf = pdf.sort_values("doc_id", kind="mergesort")
        g = pdf.groupby(["lang", "shard"], as_index=False)["h"].agg("".join)
        g["sh"] = [hashlib.md5(x.encode()).hexdigest() for x in g["h"]]
        return g[["lang", "shard", "sh"]]

    def lang_level(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame({"lang": [], "digest": [], "n_shards": []})
        pdf = pdf.sort_values("shard", kind="mergesort")
        g = pdf.groupby("lang", as_index=False).agg(cat=("sh", "".join), n_shards=("sh", "size"))
        g["digest"] = [hashlib.md5(x.encode()).hexdigest() for x in g["cat"]]
        g["n_shards"] = g["n_shards"].astype(np.int64)
        return g[["lang", "digest", "n_shards"]]

    docs = ds.map_batches(doc_level, batch_format="pyarrow")
    shards = partition_map_groups(docs, ["lang", "shard"], shard_level)
    out = partition_map_groups(shards, ["lang"], lang_level, num_partitions=4).to_pandas()
    return out.sort_values("lang", kind="mergesort").reset_index(drop=True)


_BM25_TERMS = ("hash", "vector", "merge")
_BM25_K1 = 1.2
_BM25_B = 0.75


def q_bm25_search(sf_dir: str):
    """BM25 keyword search (top-20 docs for a fixed 3-term query) without an
    inverted index — the retrieval primitive for corpus triage / dataset
    search. Two streaming passes: (1) tiny global stats — per-term document
    frequency plus N and avg doc length — from per-batch partials; (2)
    per-doc scoring with the stats broadcast in the closure, per-batch
    local top-20, global top-20 from the <=20-per-block survivors. The
    corpus itself is never shuffled or materialized.

    Scores are round-half-away to 6 dp in BOTH engines so the float SUM
    over terms hashes identically; ranking ties break on doc_id."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _tok_frame(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(
            t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"],
            " ",
        )
        return pd.DataFrame(
            {
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
                "toks": toks.to_pylist(),
                "dl": pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )

    def stats_partial(t: pa.Table) -> pa.Table:
        f = _tok_frame(t)
        ex = f[["doc_id", "toks"]].explode("toks")
        ex = ex[ex["toks"].isin(_BM25_TERMS)]
        df_counts = ex.groupby("toks")["doc_id"].nunique()
        return pa.table(
            {
                "term": pa.array(list(_BM25_TERMS)),
                "df": pa.array(
                    [int(df_counts.get(x, 0)) for x in _BM25_TERMS], type=pa.int64()
                ),
                "n_docs": pa.array([len(f)] * len(_BM25_TERMS), type=pa.int64()),
                "sum_dl": pa.array([int(f["dl"].sum())] * len(_BM25_TERMS), type=pa.int64()),
            }
        )

    st = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(
            Sum("df", alias_name="df"),
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_dl", alias_name="sum_dl"),
        )
    ).to_pandas()
    n_total = int(st["n_docs"].iloc[0])
    avgdl = float(st["sum_dl"].iloc[0]) / n_total
    idf = {
        r["term"]: np.log((n_total - r["df"] + 0.5) / (r["df"] + 0.5) + 1.0)
        for _, r in st.iterrows()
    }

    def score_topk(t: pa.Table) -> pa.Table:
        f = _tok_frame(t)
        if f.empty:
            return pa.table(
                {"doc_id": pa.array([], type=pa.int64()), "score": pa.array([], type=pa.float64())}
            )
        ex = f[["doc_id", "toks"]].explode("toks")
        ex = ex[ex["toks"].isin(_BM25_TERMS)]
        tf = ex.groupby(["doc_id", "toks"], as_index=False).size()
        tf = tf.merge(f[["doc_id", "dl"]], on="doc_id")
        norm = tf["size"] * (_BM25_K1 + 1.0) / (
            tf["size"] + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * tf["dl"] / avgdl)
        )
        tf["part"] = tf["toks"].map(idf).to_numpy() * norm.to_numpy()
        sc = tf.groupby("doc_id", as_index=False)["part"].sum()
        sc["score"] = _rha(sc["part"], 6)
        sc = sc.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort")
        top = sc.head(20)
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].astype(np.int64)),
                "score": pa.array(top["score"].astype(np.float64)),
            }
        )

    cand = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["score", "doc_id"], ascending=[False, True], kind="mergesort")
    return cand.head(20).reset_index(drop=True)


def q_cross_corpus_near_dup(sf_dir: str):
    """Incremental NEAR-dup screen — the fuzzy companion of
    ``cross_corpus_dedup``: every incoming-crawl doc (sources >= 'src5')
    whose 3-shingle Jaccard against some ingested doc (sources < 'src5')
    clears 0.7. Both sides share one MinHash featurizer and ONE fat band
    exchange whose kernel forms only new x old pairs (the corpus is never
    re-paired against itself — a daily batch costs O(batch buckets), not
    O(corpus^2)); exact Jaccard verification makes the output oracle-exact
    whenever LSH recall is 100%, which these fixtures guarantee (see
    q_near_dup_minhash)."""
    from entity_resolution_engine_ray.stages.dedup import cross_corpus_near_dup_pairs

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    new_ds = ds.filter(expr="source >= 'src5'").select_columns(["doc_id", "text"])
    old_ds = ds.filter(expr="source < 'src5'").select_columns(["doc_id", "text"])
    edges, _dropped = cross_corpus_near_dup_pairs(new_ds, old_ds)
    out = edges.to_pandas()
    out = out.rename(columns={"left_id": "new_doc_id", "right_id": "old_doc_id"})
    out["jaccard"] = _rha(out["jaccard"], 4)
    out["new_doc_id"] = out["new_doc_id"].astype(np.int64)
    out["old_doc_id"] = out["old_doc_id"].astype(np.int64)
    return out[["new_doc_id", "old_doc_id", "jaccard"]].sort_values(
        ["new_doc_id", "old_doc_id"], kind="mergesort"
    ).reset_index(drop=True)


def q_lang_balanced_sample(sf_dir: str):
    """Temperature-balanced language resampling — the multilingual-corpus
    rebalancer (upweight low-resource languages relative to raw frequency,
    alpha = 0.5). Two passes, no shuffle of the corpus: a tiny per-lang
    count aggregate (per-batch partials), then a map-side deterministic
    filter with the per-lang quotas broadcast in the closure.

    All quota math is INTEGER (isqrt weights, floor divisions, Knuth
    multiplicative hash threshold scaled by n_l so no float division
    happens anywhere) — the SQL oracle reproduces every boundary doc
    bit-for-bit. Quota: k_l = min(n_l, (0.6*N) * isqrt(n_l) / sum isqrt);
    keep doc iff hash32(doc_id) * n_l < 2^32 * k_l (expected k_l keeps,
    deterministic in doc_id)."""
    import math

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def count_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"lang": t["lang"]})
            .to_pandas()
            .groupby("lang", as_index=False)
            .agg(n=("lang", "size"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    n_by_lang = dict(zip(counts["lang"], counts["n"].astype(int)))
    total = sum(n_by_lang.values())
    weights = {lang: math.isqrt(n) for lang, n in n_by_lang.items()}
    sum_w = sum(weights.values())
    target = (6 * total) // 10
    quota = {
        lang: min(n_by_lang[lang], (target * weights[lang]) // sum_w) for lang in n_by_lang
    }

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hkey = _knuth32(ids)
        langs = pd.Series(t["lang"].to_pylist())
        n = langs.map(n_by_lang).to_numpy(dtype=np.int64)
        k = langs.map(quota).to_numpy(dtype=np.int64)
        mask = hkey * n < 4294967296 * k
        return pa.table(
            {"doc_id": pa.array(ids[mask]), "lang": pa.array(langs[mask].tolist())}
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def q_source_mixture_sample(sf_dir: str):
    """Data-mixing sampler — EXACT per-source counts (the contract a
    training-mixture spec needs: "40% of the budget at weights w_s", not
    "expected 40%"): per-source quota k_s = min(n_s, B·w_s // Σw) with
    B = 40% of the corpus and w_s a deterministic function of the source
    name, then the k_s docs with the SMALLEST Knuth hash per source win.
    Exact-k stratified sampling is a per-key top-k, not a threshold filter
    (contrast lang_balanced_sample's expected-count keep): it rides
    ``grouped_topk``'s combiner — each batch forwards at most max(k_s)
    rows per source it saw, so the exchange ships O(k·sources), never the
    corpus. Determinism: hash ties break by doc_id, mirroring the
    oracle's ROW_NUMBER order exactly."""
    from entity_resolution_engine_ray.stages.grouping import grouped_topk

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def count_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"source": t["source"]})
            .to_pandas()
            .groupby("source", as_index=False)
            .agg(n=("source", "size"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=np.int64),
            "source": pd.Series([], dtype=object),
        }
    )
    if counts.empty:
        return empty
    n_by_src = dict(zip(counts["source"], counts["n"].astype(int)))
    total = sum(n_by_src.values())
    weights = {s: int(s[3:]) % 3 + 1 for s in n_by_src}
    sum_w = sum(weights.values())
    budget = (4 * total) // 10
    quota = {s: min(n_by_src[s], budget * weights[s] // sum_w) for s in n_by_src}
    k_max = max(quota.values())
    if k_max == 0:
        return empty

    def hkey(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"doc_id": t["doc_id"], "source": t["source"], "hkey": pa.array(_knuth32(ids))}
        )

    top = grouped_topk(
        ds.map_batches(hkey, batch_format="pyarrow"),
        key_col="source",
        order_col="hkey",
        k=k_max,
        tie_cols=["doc_id"],
        descending=False,
    ).to_pandas()
    if top.empty:
        return empty
    keep = top["rn"].to_numpy() <= top["source"].map(quota).to_numpy()
    out = top.loc[keep, ["doc_id", "source"]]
    return out.sort_values(["source", "doc_id"], kind="mergesort").reset_index(drop=True)


def q_cross_corpus_dedup(sf_dir: str):
    """Cross-corpus dedup — the incremental-ingestion guard: drop incoming
    crawl docs whose content key (5-word prefix fingerprint) already exists
    in the ingested corpus. "Ingested" = sources lexically < 'src5',
    "incoming" = the rest (deterministic split of the fixture's source
    column; at 100 TB these are yesterday's corpus and today's crawl).

    Scale shape: the ingested side is only sketched — a Bloom filter built
    distributed (per-batch partials, OR-merged bit arrays) and broadcast
    once via ``ray.put``. Incoming docs that MISS the bloom are guaranteed
    non-duplicates (no false negatives) and go straight to the output with
    ZERO shuffle; only the ~(dup_rate + fpp) bloom hits enter the exact
    hash-cogroup anti-join, which compares the full key string so bloom /
    hash collisions can never drop a unique doc. The marked key table
    (doc_id + key + side, no text) is materialized once so the count, the
    bloom build and both branches never re-scan the corpus text."""
    from entity_resolution_engine_ray.stages.bloom import build_bloom, bloom_prefilter
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])

    def add_key(t: pa.Table) -> pa.Table:
        texts = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        words = pc.split_pattern(texts, " ")
        key5 = pc.binary_join(pc.list_slice(words, 0, 5), " ")
        khash = pd.util.hash_array(np.asarray(key5.to_pylist(), dtype=object)).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "key5": key5,
                "khash": pa.array(khash, type=pa.int64()),
                "incoming": pc.greater_equal(t["source"], "src5"),
            }
        )

    keyed = ds.map_batches(add_key, batch_format="pyarrow").materialize()
    old_keys = keyed.filter(expr="incoming == False").select_columns(["key5", "khash"])
    n_old = old_keys.count()
    bf = build_bloom(old_keys, "khash", n_expected=max(n_old, 1), fpp=0.01)
    incoming = keyed.filter(expr="incoming == True").select_columns(
        ["doc_id", "key5", "khash"]
    )

    import ray

    bf_ref = ray.put(bf)

    def bloom_miss(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64())})
        hit = ray.get(bf_ref).contains(t["khash"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": t.filter(pa.array(~hit))["doc_id"]})

    fast_keep = incoming.map_batches(bloom_miss, batch_format="pyarrow").to_pandas()

    candidates = bloom_prefilter(incoming, bf, "khash")

    def anti(new_pdf: pd.DataFrame, old_pdf: pd.DataFrame) -> pd.DataFrame:
        if new_pdf.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64)})
        return new_pdf[~new_pdf["key5"].isin(old_pdf["key5"])][["doc_id"]]

    confirmed = hash_exchange_cogroup(
        candidates, old_keys, ["khash"], ["khash"], anti, default_join_partitions()
    )
    cdf = confirmed if isinstance(confirmed, pd.DataFrame) else confirmed.to_pandas()
    out = pd.concat([fast_keep, cdf], ignore_index=True)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_tfidf_top3(sf_dir: str):
    """Per-document top-3 TF-IDF terms (sklearn-style smooth IDF:
    ``ln((1+N)/(1+df)) + 1``). Two passes, both shuffle-light:

    1. document frequency: per-batch distinct (doc, term) pairs reduce to
       (term, partial_df) — exact because each doc lives in one batch row —
       then one small ``groupby(term).sum()``. The resulting IDF map is
       broadcast via ``ray.put`` (vocab ≪ corpus; for an unbounded vocab,
       replace the broadcast with a term-hash cogroup of the same two
       datasets — stages/exchange — and the rest is unchanged).
    2. score: per-batch vectorized tf × idf and a per-doc top-3; the driver
       only concatenates pre-reduced 3-rows-per-doc partials."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = float(ds.count())  # parquet metadata, no execution

    def df_partial(t: pa.Table) -> pa.Table:
        row_idx, toks = _explode_tokens(t)
        if len(toks) == 0:
            return pa.table(
                {"term": pa.array([], type=pa.string()), "df": pa.array([], type=pa.int64())}
            )
        pairs = pd.DataFrame({"d": row_idx, "term": toks}).drop_duplicates()
        vc = pairs["term"].value_counts()
        return pa.table(
            {"term": pa.array(vc.index.to_numpy()), "df": pa.array(vc.to_numpy(np.int64))}
        )

    df_tbl = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    ).to_pandas()
    idf = dict(
        zip(df_tbl["term"], np.log((1.0 + n_docs) / (1.0 + df_tbl["df"].to_numpy(np.float64))) + 1.0)
    )
    idf_ref = ray.put(idf)

    def top3(t: pa.Table) -> pa.Table:
        row_idx, toks = _explode_tokens(t)
        if len(toks) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "raw": pa.array([], type=pa.float64()),
                }
            )
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tf = (
            pd.DataFrame({"doc_id": ids[row_idx], "term": toks})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        tf["raw"] = tf["tf"].to_numpy(np.float64) * tf["term"].map(ray.get(idf_ref)).to_numpy()
        tf = tf.sort_values(
            ["doc_id", "raw", "term"], ascending=[True, False, True], kind="mergesort"
        )
        top = tf.groupby("doc_id", sort=False).head(3)
        return pa.Table.from_pandas(
            top[["doc_id", "term", "raw"]], preserve_index=False
        ).replace_schema_metadata(None)

    out = ds.map_batches(top3, batch_format="pyarrow").to_pandas()
    out = out.sort_values(
        ["doc_id", "raw", "term"], ascending=[True, False, True], kind="mergesort"
    ).reset_index(drop=True)
    out["tfidf"] = _rha(out["raw"], 6)
    return out[["doc_id", "term", "tfidf"]]


def q_doc_top_bigrams(sf_dir: str):
    """Corpus top-20 word bigrams: per-batch vectorized bigram forming
    (adjacent tokens within a doc after empty-token removal) + per-batch
    value_counts partial, one small ``groupby(bigram).sum()``, 20-row
    driver final. The n-gram-counting primitive under shingle dedup and
    contamination screens, demonstrated as a standalone aggregate."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        row_idx, toks = _explode_tokens(t)
        if len(toks) < 2:
            return pa.table({"bigram": pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())})
        same = row_idx[:-1] == row_idx[1:]
        bigrams = pd.Series(toks[:-1][same]) + " " + pd.Series(toks[1:][same])
        vc = bigrams.value_counts()
        return pa.table(
            {"bigram": pa.array(vc.index.to_numpy()), "n": pa.array(vc.to_numpy(np.int64))}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    out = agg.sort_values(["n", "bigram"], ascending=[False, True], kind="mergesort").head(20)
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


def q_doc_dup_windows(sf_dir: str):
    """Exact substring-duplication stats: per doc, how many of its 8-token
    windows occur more than once in the corpus (stages/substr — rolling-hash
    windows through ONE slim int64 shuffle; the suffix-array-dedup stand-in).
    Oracle compares actual window STRINGS, so it also certifies the rolling
    hash collision-free on this corpus."""
    from entity_resolution_engine_ray.stages.substr import substring_dup_counts

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = substring_dup_counts(ds, "doc_id", "text", window_tokens=8).to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_dup_spans(sf_dir: str):
    """Maximal duplicated token spans per doc — the cut list a
    substring-dedup export applies (duplicated 8-token windows merged
    gaps-and-islands into [start_tok, end_tok) spans)."""
    from entity_resolution_engine_ray.stages.substr import substring_dup_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = substring_dup_spans(ds, "doc_id", "text", window_tokens=8).to_pandas()
    return out.sort_values(["doc_id", "start_tok"], kind="mergesort").reset_index(drop=True)


def q_doc_cut_dup_spans(sf_dir: str):
    """Substring-dedup export: duplicated 8-token spans removed from every
    occurrence, survivors re-joined single-spaced (whitespace-normalized
    output). The SQL oracle reconstructs the same text token-by-token
    (unnest WITH ORDINALITY anti-joined to the span islands + ordered
    string_agg)."""
    from entity_resolution_engine_ray.stages.substr import cut_dup_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = cut_dup_spans(ds, "doc_id", "text", window_tokens=8).to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality rule: per-doc token totals, distinct
    counts, duplicate-token ratio and most-frequent-token fraction. Entirely
    embarrassing-parallel — each doc is complete inside its batch, so the
    per-batch partials ARE the final rows; no shuffle at all."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        row_idx, toks = _explode_tokens(t)
        if len(toks) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "n_distinct": pa.array([], type=pa.int64()),
                    "dup_ratio": pa.array([], type=pa.float64()),
                    "top_token_frac": pa.array([], type=pa.float64()),
                }
            )
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tf = (
            pd.DataFrame({"doc_id": ids[row_idx], "term": toks})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        g = tf.groupby("doc_id", as_index=False).agg(
            n_tokens=("c", "sum"), n_distinct=("c", "size"), mx=("c", "max")
        )
        nt = g["n_tokens"].to_numpy(np.float64)
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
                "n_tokens": pa.array(g["n_tokens"].to_numpy(np.int64)),
                "n_distinct": pa.array(g["n_distinct"].to_numpy(np.int64)),
                "dup_ratio": pa.array(_rha(1.0 - g["n_distinct"].to_numpy(np.float64) / nt, 4)),
                "top_token_frac": pa.array(_rha(g["mx"].to_numpy(np.float64) / nt, 4)),
            }
        )

    out = ds.map_batches(per_doc, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_token_counts(sf_dir: str):
    """Per-doc token counts, whitespace AND BPE-ish (GPT-2-style regex
    pre-tokenizer shape) — the training-cost estimate a corpus pipeline
    computes before packing/pricing. Both counts are single vectorized RE2
    kernels per batch; the oracle runs the IDENTICAL pattern strings
    through DuckDB's RE2 (``len(regexp_extract_all(...))``)."""
    from entity_resolution_engine_ray.functions.textstats import bpe_token_count, token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_ws_tokens": pc.cast(token_count(t["text"]), pa.int64()),
                "n_bpe_tokens": pc.cast(bpe_token_count(t["text"]), pa.int64()),
            }
        )

    out = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_shuffle_shards(sf_dir: str):
    """Deterministic export sharding — the write-side partitioning a
    resumable 100-TB corpus export needs (restart skips finished shards,
    any worker recomputes the same assignment). Shard id is a pure
    function of the key (Knuth multiplicative hash mod 8) computed
    vectorized per batch; the per-shard manifest (count / min / max /
    checksum) folds from per-batch partials through one 8-group groupby."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    empty = pa.table(
        {
            "shard": pa.array([], type=pa.int64()),
            "n_docs": pa.array([], type=pa.int64()),
            "min_doc": pa.array([], type=pa.int64()),
            "max_doc": pa.array([], type=pa.int64()),
            "sum_doc": pa.array([], type=pa.int64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        shard = _knuth32(ids) % 8
        pdf = pd.DataFrame({"shard": shard, "doc_id": ids})
        g = pdf.groupby("shard", as_index=False).agg(
            n_docs=("doc_id", "size"),
            min_doc=("doc_id", "min"),
            max_doc=("doc_id", "max"),
            sum_doc=("doc_id", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Min("min_doc", alias_name="min_doc"),
            Max("max_doc", alias_name="max_doc"),
            Sum("sum_doc", alias_name="sum_doc"),
        )
    ).to_pandas()
    agg = agg.sort_values("shard", kind="mergesort").reset_index(drop=True)
    for c in ("shard", "n_docs", "min_doc", "max_doc", "sum_doc"):
        agg[c] = agg[c].astype(np.int64)
    return agg


def q_knn_label_vote(sf_dir: str):
    """k-NN label vote (k=10) for the first 100 vectors — the label-noise
    audit: a vector whose neighbors outvote its own label is mislabeled or
    sits on a cluster boundary. The 100 query vectors broadcast in the
    closure (bounded by construction); each batch computes its (rows × 100)
    cosine block and forwards ONLY its per-query top-10 (an exact combiner
    under the global (cos DESC, vec_id ASC) order — O(batches · 100 · 10)
    slim partial rows, never the n×100 matrix); the driver finishes the
    top-10 merge and the majority vote (ties → smaller label), mirroring
    the oracle's ROW_NUMBER orders exactly."""
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    empty = pd.DataFrame(
        {
            "vec_id": pd.Series([], dtype=np.int64),
            "true_label": pd.Series([], dtype=np.int32),
            "pred_label": pd.Series([], dtype=np.int32),
            "votes": pd.Series([], dtype=np.int64),
        }
    )
    qdf = ds.filter(expr="vec_id < 100").to_pandas()
    if qdf.empty:
        return empty
    qdf = qdf.sort_values("vec_id", kind="mergesort").reset_index(drop=True)
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = np.stack([np.asarray(e, dtype=np.float64) for e in qdf["embedding"]])
    qnorms = np.linalg.norm(qmat, axis=1, keepdims=True)
    qnorms[qnorms == 0] = 1.0  # all-zero query embedding → cosine 0, not NaN
    qn = qmat / qnorms
    true_label = dict(zip(qids, qdf["label"].to_numpy()))

    def partial(t: pa.Table) -> pd.DataFrame:
        cols = {
            "qid": pd.Series([], dtype=np.int64),
            "nid": pd.Series([], dtype=np.int64),
            "nlabel": pd.Series([], dtype=np.int32),
            "cos": pd.Series([], dtype=np.float64),
        }
        if t.num_rows == 0:
            return pd.DataFrame(cols)
        from entity_resolution_engine_ray.stages.knn import _to_matrix

        m = _to_matrix(t["embedding"])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        labels = t["label"].to_numpy(zero_copy_only=False)
        C = (m @ qn.T) / norms[:, None]
        qs, ns, ls, cs = [], [], [], []
        for j in range(len(qids)):
            keep = ids != qids[j]  # a vector never votes on itself
            cj, ij, lj = C[keep, j], ids[keep], labels[keep]
            order = np.lexsort((ij, -cj))[:10]
            qs.append(np.full(len(order), qids[j], dtype=np.int64))
            ns.append(ij[order])
            ls.append(lj[order])
            cs.append(cj[order])
        return pd.DataFrame(
            {
                "qid": np.concatenate(qs),
                "nid": np.concatenate(ns),
                "nlabel": np.concatenate(ls),
                "cos": np.concatenate(cs),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return empty
    top = (
        parts.sort_values(["qid", "cos", "nid"], ascending=[True, False, True], kind="mergesort")
        .groupby("qid", sort=False)
        .head(10)
    )
    votes = top.groupby(["qid", "nlabel"], as_index=False).size().rename(columns={"size": "c"})
    pred = (
        votes.sort_values(["qid", "c", "nlabel"], ascending=[True, False, True], kind="mergesort")
        .groupby("qid", sort=False)
        .head(1)
    )
    out = pd.DataFrame(
        {
            "vec_id": pred["qid"].to_numpy(np.int64),
            "true_label": pred["qid"].map(true_label).to_numpy(),
            "pred_label": pred["nlabel"].to_numpy(),
            "votes": pred["c"].to_numpy(np.int64),
        }
    )
    return out.sort_values("vec_id", kind="mergesort").reset_index(drop=True)


def q_label_cohesion(sf_dir: str):
    """Embedding-cluster cohesion: per label, the mean and worst cosine of
    members to their own label centroid — the vector-quality gate run
    before trusting labels for semantic dedup / retrieval eval (a label
    whose min_cos is low is mislabeled or multi-modal). Two cheap passes,
    no vector shuffle: the (label × dim) centroid fold (label_centroids
    machinery), then the tiny centroid matrix rides the closure into ONE
    cosine map with per-batch (sum, min, n) partials. Cosines are float64
    expressions over exactly-widened float32 inputs; 4-dp ROUND absorbs
    the partial-sum association difference vs the oracle."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    cent = q_label_centroids(sf_dir)  # (label, dim, centroid) — tiny
    empty = pd.DataFrame(
        {
            "label": pd.Series([], dtype=np.int32),
            "n": pd.Series([], dtype=np.int64),
            "mean_cos": pd.Series([], dtype=np.float64),
            "min_cos": pd.Series([], dtype=np.float64),
        }
    )
    if len(cent) == 0:
        return empty
    piv = cent.pivot(index="label", columns="dim", values="centroid").sort_index()
    labels_order = piv.index.to_numpy()
    cmat = piv.to_numpy(np.float64)
    cnorm = np.sqrt((cmat**2).sum(axis=1))
    lab_pos = {int(lb): i for i, lb in enumerate(labels_order)}

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame(
                {
                    "label": pd.Series([], dtype=np.int32),
                    "s": pd.Series([], dtype=np.float64),
                    "mn": pd.Series([], dtype=np.float64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        emb = (
            t["embedding"].combine_chunks()
            if isinstance(t["embedding"], pa.ChunkedArray)
            else t["embedding"]
        )
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        d = cmat.shape[1]
        mat = flat.reshape(-1, d)
        labels = t["label"].to_numpy(zero_copy_only=False)
        pos = np.array([lab_pos[int(lb)] for lb in labels], dtype=np.int64)
        dots = (mat * cmat[pos]).sum(axis=1)
        cos = dots / (np.sqrt((mat**2).sum(axis=1)) * cnorm[pos])
        g = pd.DataFrame({"label": labels, "cos": cos}).groupby("label", as_index=False)
        out = g.agg(s=("cos", "sum"), mn=("cos", "min"), n=("cos", "size"))
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return empty
    g = parts.groupby("label", as_index=False).agg(
        s=("s", "sum"), mn=("mn", "min"), n=("n", "sum")
    )
    out = pd.DataFrame(
        {
            "label": g["label"].to_numpy(),
            "n": g["n"].to_numpy(np.int64),
            "mean_cos": round_half_away(g["s"].to_numpy() / g["n"].to_numpy(), 4),
            "min_cos": round_half_away(g["mn"].to_numpy(np.float64), 4),
        }
    )
    return out.sort_values("label", kind="mergesort").reset_index(drop=True)


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids — the vector aggregate under k-means /
    IVF training. Per-batch partial (label, dim) sums via one
    ``np.add.at`` over the ListArray's flat buffer (no per-row Python),
    then a small ``groupby(label, dim).sum()`` and a driver divide: the
    shuffle moves labels × dims rows, never the vectors."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "label": pa.array([], type=pa.int32()),
                    "dim": pa.array([], type=pa.int64()),
                    "s": pa.array([], type=pa.float64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        emb = t["embedding"].combine_chunks() if isinstance(t["embedding"], pa.ChunkedArray) else t["embedding"]
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        d = int(pc.list_value_length(emb)[0].as_py())
        mat = flat.reshape(-1, d)
        labels = t["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), d), dtype=np.float64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, d)),
                "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), len(uniq))),
                "s": pa.array(sums.reshape(-1)),
                "n": pa.array(np.repeat(cnt, d)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
    ).to_pandas()
    if agg.empty:  # zero-row reads skip the lazy map — typed empty
        return pd.DataFrame(
            {
                "label": pd.Series([], dtype=np.int32),
                "dim": pd.Series([], dtype=np.int64),
                "centroid": pd.Series([], dtype=np.float64),
            }
        )
    agg = agg.sort_values(["label", "dim"], kind="mergesort").reset_index(drop=True)
    agg["centroid"] = _rha(agg["s"] / agg["n"], 6)
    agg["dim"] = agg["dim"].astype(np.int64)
    agg["label"] = agg["label"].astype(np.int32)  # parquet/oracle dtype
    return agg[["label", "dim", "centroid"]]


def q_doc_top_tokens_sketch(sf_dir: str):
    """Top-20 tokens via the self-certifying heavy-hitters sketch
    (stages/sketch.heavy_hitters) instead of the exact vocab-wide groupby —
    the O(sketch)-traffic path doc_top_tokens would take at an unbounded
    vocab. The sketch is asked for k=40 with an 8× candidate budget; on
    this fixture the budget exceeds the vocab so ε=0 and the certificate
    (``exact``) is asserted before the counts are returned — i.e. the
    query REFUSES to silently approximate, which is what makes the exact
    SQL oracle legitimate here."""
    from entity_resolution_engine_ray.stages.sketch import heavy_hitters

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def toks(t: pa.Table) -> pa.Table:
        _, flat = _explode_tokens(t)
        return pa.table({"token": pa.array(flat, type=pa.string())})

    hh = heavy_hitters(ds.map_batches(toks, batch_format="pyarrow"), "token", k=40)
    if not bool(hh["exact"].all()):
        raise RuntimeError(
            "heavy-hitters certificate failed on this fixture — counts would "
            "be approximate; raise candidates_per_batch"
        )
    out = (
        hh.rename(columns={"count_lo": "n"})[["token", "n"]]
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(20)
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype(np.int64)
    return out


def q_pagerank_top20(sf_dir: str):
    """Link-graph authority ranking (simplified fixed-iteration PageRank, 3
    rounds, d=0.85) over the customer→supplier purchase graph — the
    quality-weighting signal a web corpus computes over its hyperlink graph.
    Edge build: ONE orderkey hash-cogroup with per-partition dedup, then
    ``stages/pagerank.pagerank`` (stationary src-partitioned edges,
    partition-local rank joins, O(|V|) contribution rows per round, zero
    driver syncs inside the loop). Oracle: the same three rounds as layered
    SQL CTEs."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions
    from entity_resolution_engine_ray.stages.pagerank import pagerank

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    lineitem = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"])

    def edge_pairs(o_pdf: pd.DataFrame, l_pdf: pd.DataFrame) -> pd.DataFrame:
        if o_pdf.empty or l_pdf.empty:
            return pd.DataFrame(
                {"src": pd.Series([], dtype=np.int64), "dst": pd.Series([], dtype=np.int64)}
            )
        m = o_pdf.merge(l_pdf, left_on="o_orderkey", right_on="l_orderkey")
        return pd.DataFrame(
            {"src": m["o_custkey"].to_numpy(np.int64), "dst": m["l_suppkey"].to_numpy(np.int64) + 1000000}
        ).drop_duplicates()

    edges = hash_exchange_cogroup(
        orders, lineitem, ["o_orderkey"], ["l_orderkey"], edge_pairs, default_join_partitions()
    )
    ranks = pagerank(edges, n_iters=3, damping=0.85)
    top = ranks.sort_values(["r", "node"], ascending=[False, True], kind="mergesort").head(20)
    out = pd.DataFrame(
        {"node": top["node"].to_numpy(np.int64), "pr": _rha(top["r"], 6)}
    )
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# events: windows / sessionization / top-k
# ---------------------------------------------------------------------------


def q_events_hourly(sf_dir: str):
    """Tumbling-window aggregate: (event_type, hour) counts + value sums.
    Partial per-batch pre-agg, global groupby on the partials."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        # integer cents: order-invariant partial sums (see q_lineitem_pricing)
        cents = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pa.table({"event_type": t["event_type"], "hour": hour}).to_pandas()
        pdf["val_c"] = cents
        g = pdf.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("val_c", "size"), sum_c=("val_c", "sum")
        )
        g["n_events"] = g["n_events"].astype(np.int64)
        g["sum_c"] = g["sum_c"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("sum_c", alias_name="sum_c"))
    ).to_pandas()
    agg["n_events"] = agg["n_events"].astype(np.int64)
    agg["sum_value"] = agg["sum_c"].to_numpy(np.int64) / 100.0
    agg["hour"] = agg["hour"].astype("datetime64[us]")  # match DuckDB TIMESTAMP
    return agg[["event_type", "hour", "n_events", "sum_value"]]


def q_user_sessions(sf_dir: str):
    """Sessionization (30-minute inactivity gap) per user — the streaming-
    window analog (ray_guide 'Streaming-shaped workloads'): partition by key,
    sort by ts within the partition group, vectorized gap detection."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def sessions(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = pdf["user_id"].ne(pdf["user_id"].shift())
        gap = pdf["ts"].diff() > pd.Timedelta(minutes=30)
        new_session = (new_user | gap).astype(np.int64)
        out = pdf.assign(ns=new_session).groupby("user_id", as_index=False).agg(
            n_sessions=("ns", "sum"), n_events=("ns", "size")
        )
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return partition_map_groups(ds, ["user_id"], sessions)


def q_sliding_window(sf_dir: str):
    """Sliding window (size 2h, slide 1h) per user over events — the
    overlapping-window operator (stages/windows.sliding_window)."""
    from entity_resolution_engine_ray.stages.windows import sliding_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        # integer cents BEFORE the window stage: its per-window sums become
        # order-invariant ints (see q_lineitem_pricing)
        cents = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"user_id": t["user_id"], "ts": t["ts"], "value": pa.array(cents)})

    out = sliding_window(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        "user_id", "ts", "value", size_s=7200, slide_s=3600,
    ).to_pandas()
    out["sum_value"] = out["sum_value"].to_numpy(np.int64) / 100.0
    out["window_start"] = out["window_start"].astype("datetime64[us]")
    out["n_events"] = out["n_events"].astype(np.int64)
    return out[["user_id", "window_start", "n_events", "sum_value"]]


def q_top_events(sf_dir: str):
    """Global top-k: per-batch partial top-k, tiny driver-side final merge."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    k = 20

    def partial_topk(t: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(t, k, [("value", "descending"), ("event_id", "ascending")])
        return t.take(idx)

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    partials = partials.sort_values(["value", "event_id"], ascending=[False, True], kind="mergesort").head(k)
    partials["value"] = _rha(partials["value"], 2)
    return partials.reset_index(drop=True)


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------


def q_knn_cosine_top10(sf_dir: str):
    """Brute-force cosine top-k against a broadcast query vector: per-batch
    numpy matmul + partial top-k, tiny global merge (the IVF/LSH variant is
    stages/knn.py)."""
    from entity_resolution_engine_ray.stages.knn import knn_brute_force

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)  # row-group-pruned, never the whole table
    out = knn_brute_force(ds, q, k=10, id_col="vec_id", exclude_ids={0})
    out["cos"] = _rha(out["cos"], 4)
    return out


def q_mmr_diverse_top10(sf_dir: str, pool: int = 50, k: int = 10, lam: float = 0.7):
    """Maximal-marginal-relevance diverse top-k (Carbonell & Goldstein '98)
    — the curation pattern for picking eval/few-shot sets that are relevant
    but not redundant. Scale shape: relevance is the SAME distributed
    broadcast-query partial-top-k as knn_cosine_top10, widened to a
    ``pool`` of 50 candidates; only those 50 vectors are then fetched by
    predicate-pushdown read (the embedding table never reaches the driver)
    and the inherently-sequential greedy re-rank runs on the driver over a
    pool×pool sim matrix — MMR's data dependency chain (each pick needs
    max-sim against all PRIOR picks) caps the parallel part at candidate
    generation, which is where all the data volume lives. Rows-only by
    design (greedy sequential selection has no SQL oracle); the serial pin
    test recomputes the whole selection from a flat numpy scan."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.knn import knn_brute_force

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)
    cand = knn_brute_force(ds, q, k=pool, id_col="vec_id", exclude_ids={0})
    ids = cand["vec_id"].to_numpy(np.int64)
    rel = cand["cos"].to_numpy(np.float64)

    vec_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", ids.tolist())],
    )
    order = {int(v): i for i, v in enumerate(vec_tbl["vec_id"].to_pylist())}
    m = np.stack([np.asarray(e, dtype=np.float64) for e in vec_tbl["embedding"].to_pylist()])
    m = m[[order[int(v)] for v in ids]]  # align rows to candidate order
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    sim = mn @ mn.T

    picked: list[int] = []
    scores: list[float] = []
    remaining = np.ones(len(ids), dtype=bool)
    for _ in range(min(k, len(ids))):
        if picked:
            max_sim = sim[:, picked].max(axis=1)
        else:
            max_sim = np.zeros(len(ids))
        mmr = lam * rel - (1.0 - lam) * max_sim
        mmr[~remaining] = -np.inf
        # deterministic argmax: max score, ties -> min vec_id
        best = np.lexsort((ids, -mmr))[0]
        picked.append(int(best))
        scores.append(float(mmr[best]))
        remaining[best] = False
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(picked) + 1, dtype=np.int64),
            "vec_id": ids[picked],
            "rel": _rha(rel[picked], 6),
            "mmr_score": _rha(np.array(scores), 6),
        }
    )


def q_knn_int8_recall(sf_dir: str):
    """Scalar int8 quantization audit for the embedding store — the 4×
    memory/IO lever a 100-TB vector corpus takes before anything else, and
    the recall check that decides whether it's safe. Pass 1 computes global
    per-dimension min/max as per-batch Arrow partials (2 rows × d per
    batch, driver-combined — a bounded aggregate); the (scale, offset)
    pair broadcasts once via ``ray.put``. Pass 2 quantizes each batch to
    int8, DEquantizes, and runs the same broadcast-query cosine top-k as
    knn_cosine_top10; the output row compares the quantized top-k id set
    against the exact one (rows-only — recall of a lossy codec has no SQL
    oracle; the test pins recall and the error bound)."""
    import ray

    from entity_resolution_engine_ray.stages.knn import _to_matrix, knn_brute_force

    # materialize: three consumers (min/max, quantized top-k, exact top-k)
    # would otherwise each re-read and re-decode the parquet
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    q = _query_vector(sf_dir)
    k = 10

    def minmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lo": pa.array([], type=pa.float64()), "hi": pa.array([], type=pa.float64())})
        m = _to_matrix(t["embedding"])
        return pa.table(
            {
                "lo": pa.array(m.min(axis=0).astype(np.float64)),
                "hi": pa.array(m.max(axis=0).astype(np.float64)),
            }
        )

    mm = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
    d = len(q)
    lo = mm["lo"].to_numpy().reshape(-1, d).min(axis=0)
    hi = mm["hi"].to_numpy().reshape(-1, d).max(axis=0)
    scale = np.maximum(hi - lo, 1e-12) / 255.0
    params_ref = ray.put((lo, scale))

    qn = q / np.linalg.norm(q)

    def quant_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"vec_id": pa.array([], type=pa.int64()), "cos": pa.array([], type=pa.float64())}
            )
        lo_, scale_ = ray.get(params_ref)
        m = _to_matrix(t["embedding"])
        codes = np.clip(np.round((m - lo_) / scale_), 0, 255).astype(np.uint8)
        deq = codes.astype(np.float64) * scale_ + lo_
        norms = np.linalg.norm(deq, axis=1)
        norms[norms == 0] = 1.0
        cos = (deq @ qn) / norms
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        keep = ids != 0
        cos, ids = cos[keep], ids[keep]
        # tie-break by vec_id like the exact path: quantization collapses
        # nearby vectors to equal cos, and a row-order break would make the
        # reported recall depend on batch layout
        top = np.lexsort((ids, -cos))[:k]
        return pa.table(
            {"vec_id": pa.array(ids[top]), "cos": pa.array(cos[top], type=pa.float64())}
        )

    parts = ds.map_batches(quant_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["cos", "vec_id"], ascending=[False, True], kind="mergesort")
    quant_ids = set(parts.head(k)["vec_id"].astype(np.int64))

    exact = knn_brute_force(ds, q, k=k, id_col="vec_id", exclude_ids={0})
    exact_ids = set(exact["vec_id"].astype(np.int64))
    exact_cos = dict(zip(exact["vec_id"].astype(np.int64), exact["cos"]))
    quant_cos = dict(zip(parts["vec_id"].astype(np.int64), parts["cos"]))
    common = exact_ids & quant_ids
    err = max((abs(quant_cos[i] - exact_cos[i]) for i in common), default=0.0)
    return pd.DataFrame(
        {
            "k": pd.Series([k], dtype=np.int64),
            "recall": pd.Series([_rha(len(common) / k, 4)], dtype=np.float64),
            "max_abs_cos_err": pd.Series([float(err)], dtype=np.float64),
        }
    )


def q_knn_pq_recall(sf_dir: str):
    """Product-quantization ANN audit — the 32× compression lever a 100-TB
    vector corpus takes after int8 (8 uint8 codes per 64-float vector), and
    the recall check that decides whether it's safe. Codebooks train on a
    bounded deterministic sample (stages/knn.pq_train_codebooks, Knuth-hash
    partial-top-k sample, driver Lloyd per subspace), broadcast once; the
    scan scores by ADC table lookup + sum — no corpus-side float matmul —
    then exact-re-ranks only each batch's local 4k ADC winners (two-stage
    IVFADC-style retrieval). Output compares the PQ top-k id set against
    the exact brute-force path (rows-only — recall of a lossy codec has no
    SQL oracle; the pytest pins recall ≥ 0.7 and run-to-run determinism)."""
    from entity_resolution_engine_ray.stages.knn import knn_brute_force, knn_pq, pq_train_codebooks

    # materialize: three consumers (sample pass, ADC scan, exact scan)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    q = _query_vector(sf_dir)
    k = 10
    books = pq_train_codebooks(ds, m_sub=8, k_cent=32)
    pq_top = knn_pq(ds, q, k=k, books=books, exclude_ids={0})
    exact = knn_brute_force(ds, q, k=k, exclude_ids={0})
    common = set(pq_top["vec_id"].astype(np.int64)) & set(exact["vec_id"].astype(np.int64))
    return pd.DataFrame(
        {
            "k": pd.Series([k], dtype=np.int64),
            "m_sub": pd.Series([8], dtype=np.int64),
            "recall": pd.Series([_rha(len(common) / k, 4)], dtype=np.float64),
        }
    )


def q_reciprocal_nn(sf_dir: str):
    """Mutual (reciprocal) 10-NN pairs over the embedding table — the
    high-confidence match filter (b in a's top-10 AND a in b's). EXACT
    path (the oracle twin): blocked distributed matmul emits per-row
    local-top-k SUPERSETS, a src-keyed hash partition merges them into
    exact global ROW_NUMBER top-10s, and an unordered-pair groupby keeps
    only pairs seen from both sides (see stages/knn.reciprocal_topk_pairs;
    ``reciprocal_nn_ivf`` is the sub-quadratic scale path)."""
    from entity_resolution_engine_ray.stages.knn import reciprocal_topk_pairs

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return reciprocal_topk_pairs(ds, k=10, id_col="vec_id", method="exact")


def q_reciprocal_nn_ivf(sf_dir: str):
    """Reciprocal 10-NN via IVF candidate lists — the 100-TB path (no SQL
    oracle: candidate recall is approximate by design; its exact twin
    ``reciprocal_nn`` is the hash-checked query, and the paths-agree test
    pins IVF == exact on clustered fixtures). Pair work is Σ(list size)²
    instead of n², nothing materializes on the driver."""
    from entity_resolution_engine_ray.stages.knn import reciprocal_topk_pairs

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return reciprocal_topk_pairs(ds, k=10, id_col="vec_id", method="ivf", n_iters=2)


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (no SQL oracle — uses the
    LSH-bucketed scale path with exact verification; its ~94% bucket recall
    at this threshold is by design, so the hash-checked twin is
    ``embedding_near_dup_exact``)."""
    from entity_resolution_engine_ray.stages.knn import cosine_near_dup_pairs

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # the synthetic embeddings top out ≈0.51 pairwise cosine; 0.4 with short
    # 4-bit bands (16 bands → ~94% bucket recall at cos 0.4) keeps the
    # operator exercised end-to-end
    return cosine_near_dup_pairs(ds, id_col="vec_id", threshold=0.4, band_bits=4)


def q_embedding_near_dup_exact(sf_dir: str):
    """EXACT embedding near-dup pairs: distributed blocked all-pairs cosine
    (one matmul task per block pair) — oracle-checked against DuckDB's
    exhaustive cross join."""
    from entity_resolution_engine_ray.stages.knn import cosine_all_pairs_exact

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return cosine_all_pairs_exact(ds, id_col="vec_id", threshold=0.4)


def q_near_dup_simhash(sf_dir: str):
    """SimHash near-dup pairs over documents: banded hamming-LSH (pigeonhole
    recall = 100% at hamming <= 3) + vectorized XOR-popcount verify.
    Rows-only driver check (the 64-bit token-hash SimHash isn't
    SQL-expressible); exact parity vs an all-pairs brute force is pinned in
    tests/test_dedup_simhash.py."""
    from entity_resolution_engine_ray.stages.dedup import simhash_near_dup_pairs

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_near_dup_pairs(ds, max_hamming=3)


def q_events_asof(sf_dir: str):
    """Distributed AS-OF join (stages/joins.asof_join): every event picks the
    same user's most recent *purchase* value at-or-before its timestamp
    (backward, exact matches allowed); users with no prior purchase get
    -1.0. Oracle: DuckDB ``ASOF LEFT JOIN`` on the same predicate."""
    from entity_resolution_engine_ray.stages.joins import asof_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    purchases = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "value"]
    )

    def prep_right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        return pa.table(
            {"user_id": t["user_id"], "ts": t["ts"], "last_purchase": t["value"]}
        )

    joined = asof_join(ev, purchases.map_batches(prep_right, batch_format="pyarrow"),
                       by="user_id", on="ts")

    def finish(t: pa.Table) -> pa.Table:
        lp = pc.coalesce(pc.round(t["last_purchase"], 2), pa.scalar(-1.0))
        return pa.table(
            {"event_id": t["event_id"], "user_id": t["user_id"], "last_purchase": lp}
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_events_range_join(sf_dir: str):
    """Distributed range join (stages/joins.range_join): each purchase opens
    a 1-hour window [ts, ts+1h]; emit every (event, purchase) pair of the
    same user whose event ts falls inside the window. Partitioning
    assumption holds here: windows and events are per-user bounded.
    Oracle: DuckDB inequality join on the same predicate."""
    from entity_resolution_engine_ray.stages.joins import range_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    purchases = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def prep_right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        one_hour = pa.scalar(3_600_000_000, type=pa.duration("us"))
        return pa.table(
            {
                "user_id": t["user_id"],
                "purchase_id": t["event_id"],
                "start_ts": t["ts"],
                "end_ts": pc.add(t["ts"], one_hour),
            }
        )

    joined = range_join(
        ev,
        purchases.map_batches(prep_right, batch_format="pyarrow"),
        by="user_id",
        on="ts",
        start="start_ts",
        end="end_ts",
    )
    return joined.map_batches(
        lambda t: t.select(["event_id", "user_id", "purchase_id"]),
        batch_format="pyarrow",
    )


def q_lineitem_quantiles(sf_dir: str):
    """Exact grouped quantiles (stages/quantiles.grouped_quantiles): p50 /
    p90 / p99 extended price per return flag — two passes, no sort shuffle
    (per-batch (key, value, cnt) compression, one hash exchange, vectorized
    count-weighted selection). Values are picked from the data, never
    interpolated, so they hash-match DuckDB ``quantile_disc`` exactly."""
    from entity_resolution_engine_ray.stages.quantiles import grouped_quantiles

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )
    return grouped_quantiles(
        ds,
        ["l_returnflag"],
        "l_extendedprice",
        {"p50": 0.5, "p90": 0.9, "p99": 0.99},
    )


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped 3-way join + grouped revenue + global top-10.
    Shape for scale: the BUILDING customer keys are deduped per batch and
    cogrouped with orders (semi join, no customer payload shipped); the
    filtered slim orders then cogroup with per-batch pre-aggregated lineitem
    revenue on l_orderkey. Each order's rows land in one partition, so the
    per-partition groupby is final and each partition emits only its local
    top-10 — the driver merges P×10 rows, never the full join."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    cutoff = pd.Timestamp("1998-06-01")
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filter=(pc.field("c_mktsegment") == "BUILDING"),
    ).map_batches(
        lambda t: pa.table({"c_custkey": pc.unique(t["c_custkey"])}),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pc.field("o_orderdate") < cutoff),
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") > cutoff),
    )

    def li_partial(t: pa.Table) -> pa.Table:
        # revenue in exact 1e-4 dollars (cents x discount-hundredths):
        # order-invariant integer sums, see q_lineitem_pricing
        ext_c = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        disc_h = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pd.DataFrame(
            {"l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False), "rev": ext_c * (100 - disc_h)}
        )
        g = pdf.groupby("l_orderkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def semi(o_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        keep = o_pdf[o_pdf["o_custkey"].isin(c_pdf["c_custkey"])]
        return keep[["o_orderkey", "o_orderdate", "o_orderpriority"]]

    slim_orders = hash_exchange_cogroup(
        orders, cust, ["o_custkey"], ["c_custkey"], semi, default_join_partitions()
    )

    def join_topk(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or o_pdf.empty:
            return pd.DataFrame(
                {
                    "l_orderkey": pd.Series([], dtype=np.int64),
                    # revenue is int 1e-4 dollars until the final rounding
                    "revenue": pd.Series([], dtype=np.int64),
                    "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                    "o_orderpriority": pd.Series([], dtype=object),
                }
            )
        g = l_pdf.groupby("l_orderkey", as_index=False)["rev"].sum()
        m = g.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        m = m.rename(columns={"rev": "revenue"})
        m = m.sort_values(
            ["revenue", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(10)
        return m[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]

    partials = hash_exchange_cogroup(
        lineitem.map_batches(li_partial, batch_format="pyarrow"),
        slim_orders,
        ["l_orderkey"],
        ["o_orderkey"],
        join_topk,
        default_join_partitions(),
    ).to_pandas()
    top = partials.sort_values(
        ["revenue", "o_orderdate", "l_orderkey"],
        ascending=[False, True, True],
        kind="mergesort",
    ).head(10)
    # exact integer 1e-4 dollars -> half-away-rounded cents -> dollars
    top["revenue"] = ((top["revenue"].to_numpy(np.int64) + 50) // 100) / 100.0
    return top.reset_index(drop=True)


def q_user_event_pivot(sf_dir: str):
    """Pivot / conditional aggregation: one row per user with per-event-type
    counts as columns plus the value total — per-batch one-hot partials
    (vectorized ``pd.get_dummies``), then one hash exchange where a plain
    per-partition sum finishes every user (combine-then-reduce; only
    ~n_types+1 numeric cells per (batch, user) cross the shuffle)."""
    types = ["click", "error", "purchase", "signup", "view"]

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"])

    def partial(pdf: pd.DataFrame) -> pa.Table:
        oh = pd.get_dummies(pdf["event_type"]).reindex(columns=types, fill_value=0)
        oh = oh.astype(np.int64)
        oh.columns = [f"n_{t}" for t in types]
        oh["user_id"] = pdf["user_id"].to_numpy()
        # integer cents: order-invariant partial sums (see q_lineitem_pricing)
        oh["val_c"] = np.round(pdf["value"].to_numpy(np.float64) * 100).astype(np.int64)
        return pa.Table.from_pandas(
            oh.groupby("user_id", as_index=False).sum(), preserve_index=False
        )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        cols = [f"n_{t}" for t in types]
        if pdf.empty:
            empty = {"user_id": pd.Series([], dtype=np.int64)}
            empty.update({c: pd.Series([], dtype=np.int64) for c in cols})
            empty["sum_value"] = pd.Series([], dtype=np.float64)
            return pd.DataFrame(empty)
        g = pdf.groupby("user_id", as_index=False).sum()
        g["sum_value"] = g["val_c"].to_numpy(np.int64) / 100.0
        return g.drop(columns="val_c")

    return partition_map_groups(
        ds.map_batches(partial, batch_format="pandas"), ["user_id"], finish, 8
    )


def q_nation_revenue_share(sf_dir: str):
    """Percent-of-parent (ratio-to-region revenue share) — the windowed
    SUM-over-partition pattern without a second shuffle: the per-nation
    aggregate IS tiny, so region totals fold on the driver and the share
    divides rounded revenue by rounded region total (both engines divide
    the same 2 dp numbers, so 6 dp shares hash-match)."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nation_tbl = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region_tbl = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    n_name = dict(zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist()))
    n_region = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_regionkey"].to_pylist())
    )
    r_name = dict(zip(region_tbl["r_regionkey"].to_pylist(), region_tbl["r_name"].to_pylist()))

    def per_partition(o_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        if o_pdf.empty or c_pdf.empty:
            return pd.DataFrame(
                {
                    "c_nationkey": pd.Series([], dtype=np.int64),
                    "rev_c": pd.Series([], dtype=np.int64),
                }
            )
        m = o_pdf.merge(c_pdf, left_on="o_custkey", right_on="c_custkey")
        # integer cents: order-invariant partial sums (see q_lineitem_pricing)
        m["rev_c"] = np.round(m["o_totalprice"].to_numpy(np.float64) * 100).astype(np.int64)
        g = m.groupby("c_nationkey", as_index=False).agg(rev_c=("rev_c", "sum"))
        g["rev_c"] = g["rev_c"].astype(np.int64)
        return g

    partials = hash_exchange_cogroup(
        orders, customer, ["o_custkey"], ["c_custkey"], per_partition, default_join_partitions()
    ).to_pandas()
    agg = partials.groupby("c_nationkey", as_index=False)["rev_c"].sum()
    agg["revenue"] = agg["rev_c"].to_numpy(np.int64) / 100.0
    agg["n_name"] = agg["c_nationkey"].map(n_name)
    agg["r_name"] = agg["c_nationkey"].map(n_region).map(r_name)
    # region totals in exact cents too, then one double division per nation
    tot_c = agg.groupby("r_name")["rev_c"].transform("sum")
    agg["share"] = _rha(agg["revenue"] / (tot_c.to_numpy(np.int64) / 100.0), 6)
    out = agg[["r_name", "n_name", "revenue", "share"]].sort_values(
        ["r_name", "n_name"], kind="mergesort"
    )
    return out.reset_index(drop=True)


def q_daily_revenue_ewma(sf_dir: str):
    """EWMA-smoothed daily GMV (α = 1/8) — the anomaly-baseline smoother a
    revenue monitor runs next to the CUSUM changepoint screen. Distributed
    work is ONE per-day exact-cents aggregate (per-batch partials, money
    lane); the recurrence s_t = (x_t + 7·s_{t−1}) / 8 then runs over the
    few-thousand day rows on the driver. A sequential recurrence has no
    summation-order freedom, so the doubles match the oracle's recursive
    CTE bit-for-bit (ROUND 4 is belt-and-braces)."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pd.DataFrame:
        # datetime64[D].astype(str) is the C fast path; pandas strftime
        # formats row-by-row and dominated the whole query (8 s at sf0.1)
        days = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(str)
        )
        pdf = pd.DataFrame(
            {
                "day": days,
                "cents": np.round(
                    t["o_totalprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        return pdf.groupby("day", as_index=False).agg(cents=("cents", "sum"))

    # day cardinality is tiny (one row per calendar day): fold the
    # per-batch partials on the driver — a string-keyed sort shuffle for a
    # 2.4k-group aggregate cost 8 s at sf0.1, the partial fold costs ~0.3 s
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:  # zero-row reads drop columns on to_pandas
        parts = pd.DataFrame(
            {"day": pd.Series([], dtype=object), "cents": pd.Series([], dtype=np.int64)}
        )
    agg = parts.groupby("day", as_index=False).agg(cents=("cents", "sum"))
    if agg.empty:
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype=object),
                "gmv_cents": pd.Series([], dtype=np.int64),
                "ewma_cents": pd.Series([], dtype=np.float64),
            }
        )
    agg = agg.sort_values("day", kind="mergesort").reset_index(drop=True)
    x = agg["cents"].to_numpy(np.int64)
    s = np.empty(len(x), dtype=np.float64)
    s[0] = float(x[0])
    for i in range(1, len(x)):
        s[i] = (float(x[i]) + 7.0 * s[i - 1]) / 8.0
    return pd.DataFrame(
        {
            "day": agg["day"].to_numpy(),
            "gmv_cents": x,
            "ewma_cents": round_half_away(s, 4),
        }
    )


def q_daily_new_users(sf_dir: str):
    """Cumulative DISTINCT users per day via the first-occurrence trick:
    a running COUNT(DISTINCT) never has to merge per-prefix sets — one
    user_id-keyed min-date aggregate marks each user's first active day,
    a tiny per-day count follows, and the cumulative sum runs over the
    handful of day rows on the driver. The corpus shuffles once, by
    user_id."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def first_day_partial(t: pa.Table) -> pa.Table:
        pdf = pa.table({"user_id": t["user_id"], "ts": t["ts"]}).to_pandas()
        g = pdf.groupby("user_id", as_index=False)["ts"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    firsts = (
        ds.map_batches(first_day_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("ts", alias_name="ts"))
    ).to_pandas()
    days = (
        pd.to_datetime(firsts["ts"]).dt.strftime("%Y-%m-%d").to_frame("day")
        .groupby("day", as_index=False)
        .agg(new_users=("day", "size"))
        .sort_values("day", kind="mergesort")
        .reset_index(drop=True)
    )
    days["new_users"] = days["new_users"].astype(np.int64)
    days["cum_users"] = days["new_users"].cumsum().astype(np.int64)
    return days


def q_supplier_triangles(sf_dir: str, _broadcast_limit_nodes: int = 20_000_000):
    """Distributed triangle counting on the supplier co-occurrence graph
    (suppliers sharing >= 5 orders — the count threshold keeps the graph
    sparse instead of degenerating to a complete graph whose wedge count is
    THE n^3 hazard of triangle counting; at sf0.1 it cuts 454k edges / 62M
    wedges to 49k / ~1M) — the standard degree-oriented wedge-join
    algorithm (Suri & Vassilvitskii's MR node-iterator):

    1. edge build: one l_orderkey hash partition → per-order distinct
       supplier pairs (vectorized triu over group boundaries, no per-order
       Python), then a (s1,s2)-keyed count partition keeps pairs
       co-occurring in >= 5 orders;
    2. orientation: each edge points low→high in (degree, id) order, which
       bounds every out-neighborhood by ~sqrt(m) — hub-proof wedge counts
       (degree attach is size-gated: one ray.put broadcast of the sorted
       degree arrays below ``_broadcast_limit_nodes``, two degree cogroups
       above it — the scale path a web graph's node set needs);
    3. wedges: one src hash partition emits each out-neighbor pair
       (vectorized triu again);
    4. count: wedge ∩ edge via one (v,w)-keyed hash cogroup — a wedge
       closed by an existing edge is a triangle, counted exactly once."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.pairs import bucket_pairs

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"])

    def order_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {"s1": pd.Series([], dtype=np.int64), "s2": pd.Series([], dtype=np.int64)}
            )
        pdf = pdf.drop_duplicates().sort_values(["l_orderkey", "l_suppkey"])
        ok = pdf["l_orderkey"].to_numpy()
        sk = pdf["l_suppkey"].to_numpy().astype(np.int64)
        starts = np.r_[0, np.flatnonzero(ok[1:] != ok[:-1]) + 1]
        ii, jj, _, _ = bucket_pairs(starts, np.diff(np.r_[starts, len(ok)]))
        s1, s2 = sk[ii], sk[jj]
        lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
        # per-order distinct pairs (the triu over deduped rows guarantees
        # it) — cross-order multiplicity is the co-occurrence count and is
        # aggregated by the next partition
        return pd.DataFrame({"s1": lo, "s2": hi})

    def count_filter(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {"s1": pd.Series([], dtype=np.int64), "s2": pd.Series([], dtype=np.int64)}
            )
        g = pdf.groupby(["s1", "s2"], as_index=False).size()
        return g[g["size"] >= 5][["s1", "s2"]]

    raw_pairs = partition_map_groups(li, ["l_orderkey"], order_pairs)
    edges = partition_map_groups(raw_pairs, ["s1", "s2"], count_filter).materialize()

    def degree_partial(t: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [
                t["s1"].to_numpy(zero_copy_only=False),
                t["s2"].to_numpy(zero_copy_only=False),
            ]
        )
        u, c = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(u, type=pa.int64()), "deg": pa.array(c, type=pa.int64())})

    degs_ds = (
        edges.map_batches(degree_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
    ).materialize()

    def _orient_table(t: pa.Table, d1: np.ndarray, d2: np.ndarray) -> pa.Table:
        s1 = t["s1"].to_numpy(zero_copy_only=False)
        s2 = t["s2"].to_numpy(zero_copy_only=False)
        fwd = (d1 < d2) | ((d1 == d2) & (s1 < s2))
        return pa.table(
            {
                "src": pa.array(np.where(fwd, s1, s2), type=pa.int64()),
                "dst": pa.array(np.where(fwd, s2, s1), type=pa.int64()),
            }
        )

    # degree attach is size-gated: at or below the limit, ONE ray.put of a
    # sorted (node, deg) array pair, read (not re-pickled) by every orient
    # task; above it — a web-graph node set outgrows any single-machine
    # broadcast — two co-partitioned degree cogroups attach d1/d2 without
    # the driver ever materializing the node set.
    if degs_ds.count() <= _broadcast_limit_nodes:
        import ray

        degs = degs_ds.to_pandas()
        order = np.argsort(degs["node"].to_numpy())
        deg_ref = ray.put(
            (
                degs["node"].to_numpy().astype(np.int64)[order],
                degs["deg"].to_numpy().astype(np.int64)[order],
            )
        )

        def orient(t: pa.Table) -> pa.Table:
            nodes_s, deg_s = ray.get(deg_ref)
            s1 = t["s1"].to_numpy(zero_copy_only=False)
            s2 = t["s2"].to_numpy(zero_copy_only=False)
            # every edge endpoint has a degree row, so searchsorted is exact
            d1 = deg_s[np.searchsorted(nodes_s, s1)]
            d2 = deg_s[np.searchsorted(nodes_s, s2)]
            return _orient_table(t, d1, d2)

        oriented = edges.map_batches(orient, batch_format="pyarrow")
    else:

        def attach_deg(col: str, out_col: str):
            def fn(e_pdf: pd.DataFrame, d_pdf: pd.DataFrame) -> pd.DataFrame:
                if e_pdf.empty:
                    out = e_pdf.copy()
                    out[out_col] = pd.Series([], dtype=np.int64)
                    return out
                return e_pdf.merge(
                    d_pdf.rename(columns={"node": col, "deg": out_col}), on=col, how="left"
                )

            return fn

        with_d1 = hash_exchange_cogroup(
            edges, degs_ds, ["s1"], ["node"], attach_deg("s1", "d1"), None
        )
        with_deg = hash_exchange_cogroup(
            with_d1, degs_ds, ["s2"], ["node"], attach_deg("s2", "d2"), None
        )

        def orient_merged(t: pa.Table) -> pa.Table:
            d1 = t["d1"].to_numpy(zero_copy_only=False).astype(np.int64)
            d2 = t["d2"].to_numpy(zero_copy_only=False).astype(np.int64)
            return _orient_table(t, d1, d2)

        oriented = with_deg.map_batches(orient_merged, batch_format="pyarrow")

    def wedges(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {"v": pd.Series([], dtype=np.int64), "w": pd.Series([], dtype=np.int64)}
            )
        pdf = pdf.sort_values(["src", "dst"])
        src = pdf["src"].to_numpy()
        dst = pdf["dst"].to_numpy().astype(np.int64)
        starts = np.r_[0, np.flatnonzero(src[1:] != src[:-1]) + 1]
        ii, jj, _, _ = bucket_pairs(starts, np.diff(np.r_[starts, len(src)]))
        a, b = dst[ii], dst[jj]
        return pd.DataFrame({"v": np.minimum(a, b), "w": np.maximum(a, b)})

    wedge_ds = partition_map_groups(oriented, ["src"], wedges)

    def close_count(w_pdf: pd.DataFrame, e_pdf: pd.DataFrame) -> pd.DataFrame:
        if w_pdf.empty or e_pdf.empty:
            return pd.DataFrame({"n": pd.Series([], dtype=np.int64)})
        hits = w_pdf.merge(
            e_pdf[["s1", "s2"]], left_on=["v", "w"], right_on=["s1", "s2"], how="inner"
        )
        return pd.DataFrame({"n": np.array([len(hits)], dtype=np.int64)})

    closed = hash_exchange_cogroup(
        wedge_ds, edges, ["v", "w"], ["s1", "s2"], close_count, None
    ).to_pandas()
    total = int(closed["n"].sum()) if not closed.empty else 0
    return pd.DataFrame({"n_triangles": np.array([total], dtype=np.int64)})


def q_funnel_conversion(sf_dir: str):
    """Ordered funnel analysis (view → click → purchase): how many users
    completed each stage IN ORDER (a click only counts after the first
    view, a purchase only after the first qualifying click). One hash
    partition per user set, then fully vectorized per-partition stage
    timestamps (grouped mins via pandas, no per-user Python) — the classic
    sessionized-funnel shape: the corpus shuffles ONCE on user_id and every
    stage's qualification is a column comparison."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"],
        filter=pc.field("event_type").isin(["view", "click", "purchase"]),
    )

    def funnel(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "stage": pd.Series([], dtype=str),
                    "n_users": pd.Series([], dtype=np.int64),
                }
            )
        t0 = (
            pdf[pdf["event_type"] == "view"].groupby("user_id")["ts"].min().rename("t_view")
        )
        clicks = pdf[pdf["event_type"] == "click"].merge(
            t0, left_on="user_id", right_index=True
        )
        t1 = (
            clicks[clicks["ts"] > clicks["t_view"]]
            .groupby("user_id")["ts"]
            .min()
            .rename("t_click")
        )
        buys = pdf[pdf["event_type"] == "purchase"].merge(
            t1, left_on="user_id", right_index=True
        )
        t2 = buys[buys["ts"] > buys["t_click"]].groupby("user_id")["ts"].min()
        return pd.DataFrame(
            {
                "stage": ["view", "view_click", "view_click_purchase"],
                "n_users": np.array([len(t0), len(t1), len(t2)], dtype=np.int64),
            }
        )

    out = (
        partition_map_groups(ds, ["user_id"], funnel)
        .groupby("stage")
        .aggregate(Sum("n_users", alias_name="n_users"))
    ).to_pandas()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("stage", kind="mergesort").reset_index(drop=True)


def q_doc_quality_gate(sf_dir: str):
    """Quantile-threshold quality gate — the training-data use the quantile
    stage exists for: compute each language's median token count
    (grouped_quantiles → tiny table), broadcast it, keep only docs strictly
    above their language's median, count survivors per language. Thresholds
    are O(n_languages) rows, so the driver pull + in-task lookup is the
    broadcast-small-side pattern, never a shuffle join."""
    from entity_resolution_engine_ray.functions.textstats import token_count
    from entity_resolution_engine_ray.stages.quantiles import grouped_quantiles

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def tok(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"], "n_tokens": token_count(t["text"])})

    toks = ds.map_batches(tok, batch_format="pyarrow")
    thr = grouped_quantiles(toks, ["lang"], "n_tokens", {"p50": 0.5}, 4).to_pandas()
    p50 = dict(zip(thr["lang"], thr["p50"]))

    def gate(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = pdf[pdf["n_tokens"] > pdf["lang"].map(p50)]
        return keep.groupby("lang", as_index=False).size().rename(columns={"size": "n_docs_kept"})

    partials = toks.map_batches(gate, batch_format="pandas").to_pandas()
    out = partials.groupby("lang", as_index=False)["n_docs_kept"].sum()
    out["n_docs_kept"] = out["n_docs_kept"].astype(np.int64)
    return out


def q_user_cumulative_value(sf_dir: str):
    """Per-key running aggregate — the ORDER-BY window family
    (``SUM(...) OVER (PARTITION BY k ORDER BY ts ROWS UNBOUNDED
    PRECEDING)``). Events hash-partition ONCE on user_id; inside each
    partition a single lexsort + pandas groupby-cumsum produces every
    user's running total vectorized. No global sort shuffle: ordering is
    only ever needed WITHIN a key, so a hash exchange + in-partition sort
    is the 100-TB shape (partitioning assumption: one user's events fit a
    worker — true for per-user event streams)."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def running(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype=np.int64),
                    "user_id": pd.Series([], dtype=np.int64),
                    "cum_value": pd.Series([], dtype=np.float64),
                }
            )
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        pdf["cum_value"] = _rha(pdf.groupby("user_id")["value"].cumsum(), 2)
        return pdf[["event_id", "user_id", "cum_value"]]

    return partition_map_groups(ds, ["user_id"], running)


def q_user_event_rank(sf_dir: str):
    """SQL window ranks — RANK()/DENSE_RANK() OVER (PARTITION BY user_id
    ORDER BY value DESC). Real ties exist (2-decimal values repeat within a
    user), so min-rank gaps and dense ranks genuinely diverge. One hash
    exchange, no sort (stages/windows.partitioned_rank)."""
    from entity_resolution_engine_ray.stages.windows import partitioned_rank

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])
    out = partitioned_rank(ds, "user_id", "value", ["event_id"], descending=True).to_pandas()
    return out[["user_id", "event_id", "rnk", "drnk"]]


def q_user_event_gaps(sf_dir: str):
    """LAG window — microseconds since the same user's previous event
    (LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)); each key's
    first event is dropped (prev IS NULL). Integer-µs output keeps the
    engine/oracle compare exact (stages/windows.partitioned_lag)."""
    from entity_resolution_engine_ray.stages.windows import partitioned_lag

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    out = partitioned_lag(ds, "user_id", ["ts", "event_id"], "ts", out_col="prev_ts").to_pandas()
    out = out[out["prev_ts"].notna()].copy()
    gap = out["ts"].astype("datetime64[us]").astype(np.int64) - out["prev_ts"].astype(
        "datetime64[us]"
    ).astype(np.int64)
    out["gap_us"] = gap.astype(np.int64)
    return out[["event_id", "user_id", "gap_us"]]


def q_user_value_moving_sum(sf_dir: str):
    """Bounded-frame window — SUM(value) OVER (PARTITION BY user_id ORDER BY
    ts, event_id ROWS BETWEEN 3 PRECEDING AND CURRENT ROW). The value column
    is converted to integer cents BEFORE the rolling pass so every frame sum
    is exact at any partition count (the money-lane discipline);
    stages/windows.rolling_frame_sum."""
    from entity_resolution_engine_ray.stages.windows import rolling_frame_sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {"event_id": t["event_id"], "user_id": t["user_id"], "ts": t["ts"], "val_c": pa.array(cents)}
        )

    out = rolling_frame_sum(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"], "val_c", frame_rows=4, out_col="mov_c",
    ).to_pandas()
    out["mov_sum"] = out["mov_c"].to_numpy(np.int64) / 100.0
    return out[["event_id", "user_id", "mov_sum"]]


def q_events_scd2(sf_dir: str):
    """SCD type-2 dimension build from a change stream: per user, collapse
    consecutive same-type events into validity intervals
    (event_type, valid_from, valid_to) — run-collapse via LAG-compare, then
    LEAD for the interval end (open interval = NULL on the current state).
    The standard warehouse deliverable for "history of each key's state";
    one hash exchange on user_id, everything else vectorized shifts inside
    the partition (the same window-family machinery as user_event_gaps)."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def scd2(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "event_type": pd.Series([], dtype=object),
                    "valid_from": pd.Series([], dtype="datetime64[us]"),
                    "valid_to": pd.Series([], dtype="datetime64[us]"),
                }
            )
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = pdf.groupby("user_id", sort=False)["event_type"].shift(1)
        change = prev.isna() | (pdf["event_type"] != prev)
        c = pdf.loc[change, ["user_id", "event_type", "ts"]].copy()
        c["valid_to"] = c.groupby("user_id", sort=False)["ts"].shift(-1)
        c = c.rename(columns={"ts": "valid_from"})
        c["user_id"] = c["user_id"].astype(np.int64)
        return c[["user_id", "event_type", "valid_from", "valid_to"]]

    out = hash_exchange_map_groups(ds, ["user_id"], scd2).to_pandas()
    return out.sort_values(
        ["user_id", "valid_from", "event_type"], kind="mergesort"
    ).reset_index(drop=True)


def q_customer_top3_orders(sf_dir: str):
    """Per-key top-k with k>1 (ROW_NUMBER() <= 3 per customer by totalprice
    DESC): the combiner pattern — each batch forwards at most 3 rows per
    customer it saw BEFORE the hash exchange, so the shuffle ships O(3·keys)
    instead of every order (stages/grouping.grouped_topk)."""
    from entity_resolution_engine_ray.stages.grouping import grouped_topk

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    out = grouped_topk(ds, "o_custkey", "o_totalprice", 3, ["o_orderkey"]).to_pandas()
    return out[["o_custkey", "o_orderkey", "o_totalprice", "rn"]]


def q_user_event_quartiles(sf_dir: str):
    """NTILE(4) OVER (PARTITION BY user_id ORDER BY value, event_id) — SQL
    bucket-split semantics (first n%4 buckets one row larger), vectorized
    in one hash exchange (stages/windows.partitioned_ntile)."""
    from entity_resolution_engine_ray.stages.windows import partitioned_ntile

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])
    out = partitioned_ntile(ds, "user_id", ["value", "event_id"], 4, out_col="q").to_pandas()
    return out[["event_id", "user_id", "q"]]


def q_lang_len_token_corr(sf_dir: str):
    """Per-language Pearson correlation between document length (n_chars)
    and whitespace-token count — the algebraic-moment aggregate family:
    each batch emits EXACT INTEGER partials (n, Σx, Σy, Σxy, Σx², Σy²) per
    lang, six int64 lanes shuffle through one tiny groupby, and the driver
    finish mirrors the SQL moment formula float-op-for-float-op (Python
    big-int products → IEEE double cast → sqrt → divide), so distributed ==
    serial at ANY partition count by construction (same discipline as the
    integer-cents money sums)."""
    from entity_resolution_engine_ray.functions.textstats import token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = pc.cast(token_count(t["text"]), pa.int64()).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame(
            {"lang": t["lang"].to_pandas(), "n": 1, "sx": x, "sy": y,
             "sxy": x * y, "sxx": x * x, "syy": y * y}
        )
        g = pdf.groupby("lang", as_index=False).sum()
        for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]:
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(*[Sum(c, alias_name=c) for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]])
    ).to_pandas()
    # Python-int exact products (n·sxx can pass int64 at corpus scale), then
    # the identical IEEE double ops the SQL oracle performs
    import math

    corrs = []
    for _, r in agg.iterrows():
        n, sx, sy, sxy, sxx, syy = (int(r[c]) for c in ["n", "sx", "sy", "sxy", "sxx", "syy"])
        num = float(n * sxy - sx * sy)
        den = math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(float(n * syy - sy * sy))
        corrs.append(num / den)
    agg["corr_len_tokens"] = _rha(np.array(corrs), 4)
    out = agg[["lang", "corr_len_tokens"]].sort_values("lang", kind="mergesort")
    return out.reset_index(drop=True)


def q_lang_len_ols(sf_dir: str):
    """Per-language ordinary-least-squares fit of token count against
    document length (slope / intercept / R²) — the regression member of
    the algebraic-moment aggregate family next to lang_len_token_corr:
    identical exact-integer moment partials (n, Σx, Σy, Σxy, Σx², Σy² —
    six int64 lanes through one tiny groupby), then every statistic is a
    single float expression over exact big-int terms mirrored
    op-for-op in the SQL oracle (num/den division for slope, the
    (Σy − slope·Σx)/n form for intercept, num²/(denx·deny) for R²), so
    distributed == serial at any partition count by construction."""
    from entity_resolution_engine_ray.functions.textstats import token_count

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang", "n_chars"]
    )

    def partial(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = pc.cast(token_count(t["text"]), pa.int64()).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame(
            {"lang": t["lang"].to_pandas(), "n": 1, "sx": x, "sy": y,
             "sxy": x * y, "sxx": x * x, "syy": y * y}
        )
        g = pdf.groupby("lang", as_index=False).sum()
        for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]:
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(*[Sum(c, alias_name=c) for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]])
    ).to_pandas()

    slopes, intercepts, r2s = [], [], []
    for _, r in agg.iterrows():
        n, sx, sy, sxy, sxx, syy = (
            int(r[c]) for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]
        )
        num = n * sxy - sx * sy          # exact Python ints
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        slope = float(num) / float(denx)
        slopes.append(slope)
        intercepts.append((float(sy) - slope * float(sx)) / float(n))
        r2s.append(float(num * num) / float(denx * deny))
    agg["slope"] = _rha(np.array(slopes), 6)
    agg["intercept"] = _rha(np.array(intercepts), 6)
    agg["r2"] = _rha(np.array(r2s), 6)
    out = agg[["lang", "slope", "intercept", "r2"]].sort_values(
        "lang", kind="mergesort"
    )
    return out.reset_index(drop=True)


def q_user_click_purchase_outer(sf_dir: str):
    """FULL OUTER join of two grouped aggregates: per-user counts of
    high-value (>95) clicks vs high-value purchases — the threshold makes
    users appear on only one side, so both unmatched directions are
    genuinely exercised (pinned in tests/test_query_ops.py). Each side
    pre-aggregates per batch (combiner), then ONE hash cogroup aligns both
    sides' partials per user and an outer merge finishes with 0-fill — two
    shuffles' worth of grouped joins collapse into a single 8-byte-key
    exchange."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    def partial(kind: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(
                pc.and_(pc.equal(t["event_type"], kind), pc.greater(t["value"], 95.0))
            )
            pdf = pa.table({"user_id": t["user_id"]}).to_pandas()
            g = pdf.groupby("user_id", as_index=False).size().rename(columns={"size": "n"})
            g["n"] = g["n"].astype(np.int64)
            return pa.Table.from_pandas(g, preserve_index=False)

        return fn

    clicks = ev.map_batches(partial("click"), batch_format="pyarrow")
    purchases = ev.map_batches(partial("purchase"), batch_format="pyarrow")

    def outer(c_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        c = c_pdf.groupby("user_id", as_index=False)["n"].sum().rename(columns={"n": "n_clicks"})
        p = (
            p_pdf.groupby("user_id", as_index=False)["n"]
            .sum()
            .rename(columns={"n": "n_purchases"})
        )
        m = c.merge(p, on="user_id", how="outer")
        m["user_id"] = m["user_id"].astype(np.int64)
        m["n_clicks"] = m["n_clicks"].fillna(0).astype(np.int64)
        m["n_purchases"] = m["n_purchases"].fillna(0).astype(np.int64)
        return m

    return hash_exchange_cogroup(clicks, purchases, ["user_id"], ["user_id"], outer)


def q_doc_sample_per_lang(sf_dir: str):
    """Deterministic stratified sampling — k docs per language, chosen as
    the k smallest Knuth multiplicative hashes of doc_id: uniform,
    seed-free, identical across engines/runs/cluster sizes (the property a
    training-data pipeline needs for reproducible eval splits). Per-batch
    partial top-k bounds shuffle traffic to batches x langs x k rows; a
    tiny driver final picks per language. The hash is SQL-expressible, so
    the sample is value-hash-checked against a ROW_NUMBER oracle."""
    k = 10
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.copy()
        pdf["hkey"] = _knuth32(pdf["doc_id"].to_numpy(np.int64))
        pdf = pdf.sort_values(["lang", "hkey", "doc_id"], kind="mergesort")
        return pdf.groupby("lang", as_index=False).head(k)

    partials = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        partials.sort_values(["lang", "hkey", "doc_id"], kind="mergesort")
        .groupby("lang", as_index=False)
        .head(k)
    )
    return out[["lang", "doc_id", "hkey"]].reset_index(drop=True)


def q_doc_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling WITHOUT replacement (top-20 docs,
    weight = token count) via Efraimidis–Spirakis exponential keys: key =
    u^(1/w) with u a (0,1) uniform derived from the Knuth hash of doc_id —
    the length-weighted corpus subsample a curriculum or eval split draws.
    Map-side key computation + per-batch partial top-k + tiny global merge;
    nothing shuffles. Keys are round-half-away to 12 dp in BOTH engines
    (libm pow differs in final ulps across engines; ranking ties then break
    on doc_id)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keys(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = (
            pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        u = (_knuth32(ids) + 1.0) / 4294967297.0
        key = _rha(np.power(u, 1.0 / np.maximum(w, 1.0)), 12)
        out = pd.DataFrame({"doc_id": ids, "w": w.astype(np.int64), "skey": key})
        out = out.sort_values(["skey", "doc_id"], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(out.head(20), preserve_index=False)

    cand = ds.map_batches(keys, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["skey", "doc_id"], ascending=[False, True], kind="mergesort")
    return cand.head(20).reset_index(drop=True)


def q_doc_overlap_chunks(sf_dir: str):
    """Sliding-window chunking with overlap (window 40 tokens, stride 32)
    — the RAG / long-context prep step. Pure map-side: each doc emits its
    (chunk_idx, token_start, token_len) plan rows from one vectorized
    repeat/arange expansion; no shuffle, no driver loop, and the plan
    (not the text) is what downstream chunk extraction streams against.
    Every doc emits >= 1 chunk (a short doc is one truncated chunk)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    window, stride = 40, 32

    def chunks(t: pa.Table) -> pa.Table:
        n_tok = (
            pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # chunk count: 1 + ceil(max(0, n - window) / stride)
        n_chunks = 1 + np.maximum(n_tok - window + stride - 1, 0) // stride
        total = int(n_chunks.sum())
        cum = np.cumsum(n_chunks) - n_chunks
        cidx = np.arange(total, dtype=np.int64) - np.repeat(cum, n_chunks)
        starts = cidx * stride
        lens = np.minimum(window, np.repeat(n_tok, n_chunks) - starts)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, n_chunks)),
                "chunk_idx": pa.array(cidx),
                "token_start": pa.array(starts),
                "token_len": pa.array(lens),
            }
        )

    return ds.map_batches(chunks, batch_format="pyarrow")


def q_events_latest_state(sf_dir: str):
    """Latest-wins compaction (the upsert-log → current-state view): per
    (user_id, event_type), the value at the max ts (ties break on max
    event_id). One hash shuffle, then a vectorized grouped argmax — no
    per-group Python."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts", "event_id", "value"]
    )

    def latest(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "event_type": pd.Series([], dtype=str),
                    "value": pd.Series([], dtype=np.float64),
                }
            )
        pdf = pdf.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        keep = pdf.groupby(["user_id", "event_type"], as_index=False).tail(1)
        return keep[["user_id", "event_type", "value"]]

    return partition_map_groups(ds, ["user_id", "event_type"], latest)


def q_events_value_mad_outliers(sf_dir: str):
    """Robust (median/MAD) outlier screen per event type — the companion to
    the z-score screen that heavy tails can't fool (mean and sigma are
    themselves dragged by the outliers they're meant to catch; the median
    and the median absolute deviation are not). ONE event_type-keyed
    exchange; each group computes med, MAD and the |v−med| > 3·MAD count
    in-partition (exact selection, no float-sum drift — med/MAD are order
    statistics and the threshold compare uses their full-precision values
    on both engines). Partitioning assumption, documented like asof_join's:
    one event type's rows co-reside in one partition — event-type
    cardinality is tiny and per-type volume bounded by a worker's heap; a
    corpus where one type outgrows a worker needs the histogram-quantile
    sketch path (stages/quantiles) instead."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def per_type(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "med": pd.Series([], dtype=np.float64),
                "mad": pd.Series([], dtype=np.float64),
                "n_outliers": pd.Series([], dtype=np.int64),
            }
        )
        if len(pdf) == 0:
            return empty
        rows = []
        for et, grp in pdf.groupby("event_type", sort=False):
            v = grp["value"].to_numpy(np.float64)
            med = float(np.median(v))
            ad = np.abs(v - med)
            mad = float(np.median(ad))
            rows.append(
                {
                    "event_type": et,
                    "n": np.int64(len(v)),
                    "med": med,
                    "mad": mad,
                    "n_outliers": np.int64(int((ad > 3.0 * mad).sum())),
                }
            )
        return pd.DataFrame(rows)

    out = partition_map_groups(ds, ["event_type"], per_type).to_pandas()
    if out.empty:
        return per_type(pd.DataFrame())
    out["med"] = round_half_away(out["med"].to_numpy(np.float64), 4)
    out["mad"] = round_half_away(out["mad"].to_numpy(np.float64), 4)
    return out.sort_values("event_type", kind="mergesort").reset_index(drop=True)


def q_events_value_outliers(sf_dir: str):
    """Z-score outlier screen per event type (value > mean + 3*sigma_pop) —
    the metrics-hygiene pass before aggregating noisy telemetry. Pass 1:
    per-type (n, sum, sum-of-squares) partials fold into a tiny stats
    table; pass 2: map-side filter with the thresholds broadcast in the
    closure. Mean/std computed from the SAME moments formula DuckDB's
    STDDEV_POP uses; boundary floats are not ties in this data."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        pdf = pa.table({"event_type": t["event_type"], "value": t["value"]}).to_pandas()
        g = pdf.groupby("event_type")["value"]
        out = pd.DataFrame(
            {
                "event_type": g.count().index,
                "n": g.count().to_numpy(dtype=np.int64),
                "s1": g.sum().to_numpy(dtype=np.float64),
                "s2": g.apply(lambda v: float((v.to_numpy() ** 2).sum())).to_numpy(),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    st = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"), Sum("s1", alias_name="s1"), Sum("s2", alias_name="s2")
        )
    ).to_pandas()
    st["mean"] = st["s1"] / st["n"]
    st["std"] = np.sqrt(st["s2"] / st["n"] - st["mean"] ** 2)
    thr = dict(zip(st["event_type"], (st["mean"] + 3.0 * st["std"]).astype(float)))

    def outliers(t: pa.Table) -> pa.Table:
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        types = pd.Series(t["event_type"].to_pylist())
        cut = types.map(thr).to_numpy(dtype=np.float64)
        keep = vals > cut
        return pa.table(
            {
                "event_id": pa.array(
                    t["event_id"].to_numpy(zero_copy_only=False)[keep], type=pa.int64()
                ),
                "event_type": pa.array(types[keep].tolist(), type=pa.string()),
                "value": pa.array(vals[keep], type=pa.float64()),
            }
        )

    return ds.map_batches(outliers, batch_format="pyarrow")


def q_doc_pack_chunks(sf_dir: str):
    """Concat-and-chunk sequence packing — the LLM-training-data operator:
    per language, documents are (logically) concatenated in doc_id order
    and split at exact 2048-token boundaries; emit each doc's first/last
    training-chunk index. The global per-key running token total comes from
    the distributed scan (stages/scan.grouped_prefix_sum): one range-shuffle
    sort, per-block boundary metadata, an O(blocks) driver carry walk, and
    a vectorized per-block finish. Integer token counts stay integers, so
    the result hash-matches the SQL window-SUM oracle exactly."""
    from entity_resolution_engine_ray.functions.textstats import token_count
    from entity_resolution_engine_ray.stages.scan import grouped_prefix_sum

    budget = 2048
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"])

    def tok(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "lang": t["lang"], "n_tokens": token_count(t["text"])}
        )

    cum = grouped_prefix_sum(
        ds.map_batches(tok, batch_format="pyarrow"), ["lang"], ["doc_id"], "n_tokens", "cum"
    )

    def chunks(t: pa.Table) -> pa.Table:
        c = t["cum"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": t["n_tokens"],
                "start_chunk": pa.array((c - n) // budget, type=pa.int64()),
                "end_chunk": pa.array((c - 1) // budget, type=pa.int64()),
            }
        )

    return cum.map_batches(chunks, batch_format="pyarrow")


def q_approx_distinct_by_lang(sf_dir: str):
    """HyperLogLog approximate distinct texts per language
    (stages/sketch.hll_count_distinct, p=14 → ~0.8% standard error): the
    shuffle carries at most 2^14 register rows per (batch, key) instead of
    one row per document — the honest 100-TB path when distinct counts
    feed monitoring rather than billing. Rows-only driver check (a sketch
    has no SQL twin); accuracy vs exact COUNT DISTINCT is pinned to <2%
    in tests/test_sketch.py."""
    from entity_resolution_engine_ray.stages.sketch import hll_count_distinct

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def add_hash(pdf: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(pdf["text"].to_numpy(), hash_key="0123456789abcdef")
        return pd.DataFrame({"lang": pdf["lang"], "h": h.astype(np.uint64)})

    return hll_count_distinct(
        ds.map_batches(add_hash, batch_format="pandas"), ["lang"], "h", p=14
    )


# ---------------------------------------------------------------------------
# training-data additions: LM quality scoring, semantic dedup, leak-free split
# ---------------------------------------------------------------------------


def q_doc_lm_score(sf_dir: str):
    """CCNet-style bigram-LM quality scoring (stages/lm): train a top-V
    vocab + add-one-smoothed bigram LM over the corpus in two
    partial-aggregation passes (everything broadcast is vocab-bounded,
    never corpus-bounded), then score each document's average token
    log-probability in one vectorized pass — the classic keep-the-
    low-perplexity-head filter. V=32 here so ``<unk>`` mapping is
    exercised on the fixture vocabulary."""
    from entity_resolution_engine_ray.stages.lm import bigram_lm_logprob

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = bigram_lm_logprob(ds, id_col="doc_id", text_col="text", vocab_size=32).to_pandas()
    out["avg_logp"] = _rha(out["avg_logp"], 4)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_semantic_dedup_keep(sf_dir: str):
    """SemDeDup-style semantic dedup over the embedding table: connected
    components over exact cosine ≥ 0.4 pairs, keep ONE representative (min
    vec_id) per component — the embedding-space companion of
    near_dup_keep_best. Oracle-checked because the candidate stage here is
    the exact blocked all-pairs matmul; at 100 TB swap it for the SRP-LSH
    bucketed pairs (``cosine_near_dup_pairs``) and the labelprop CC — the
    keep logic is unchanged (same size gate as ``near_dup_clusters``)."""
    import ray

    from entity_resolution_engine_ray.stages.cluster import cluster_label_map
    from entity_resolution_engine_ray.stages.knn import cosine_all_pairs_exact

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pairs = cosine_all_pairs_exact(ds, id_col="vec_id", threshold=0.4)
    # label = min vec_id of the component; drop everything that isn't its
    # component's representative. The drop set is O(near-dup vectors) — the
    # small side — broadcast once via ray.put.
    nodes, roots = cluster_label_map(pairs)
    drop = nodes[nodes != roots]
    drop_ref = ray.put(drop)

    def keep(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = ray.get(drop_ref)
        mask = ~np.isin(ids, d) if len(d) else np.ones(len(ids), dtype=bool)
        return pa.table({"vec_id": pa.array(ids[mask], type=pa.int64())})

    return ds.select_columns(["vec_id"]).map_batches(keep, batch_format="pyarrow")


def q_doc_split_assign(sf_dir: str):
    """Leakage-free train/val/test split: the split is decided by a hash of
    the GROUP key (``source`` — the domain stand-in), so all documents of a
    domain (and hence their near-duplicates) land in ONE split — the
    standard guard against train/test contamination. 80/10/10 by
    md5(source) mod 10; output is per-(split, lang) doc and char counts.
    Map-side only: the md5 runs once per UNIQUE source per batch, partial
    counts reduce through one tiny groupby."""
    import hashlib

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"])

    def assign(pdf: pd.DataFrame) -> pd.DataFrame:
        b = {
            s: int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % 10
            for s in pdf["source"].unique()
        }
        buck = pdf["source"].map(b).to_numpy()
        split = np.where(buck < 8, "train", np.where(buck == 8, "val", "test"))
        return (
            pdf.assign(split=split)
            .groupby(["split", "lang"], as_index=False)
            .agg(n_docs=("n_chars", "size"), total_chars=("n_chars", "sum"))
        )

    out = (
        ds.map_batches(assign, batch_format="pandas")
        .groupby(["split", "lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("total_chars", alias_name="total_chars"))
    ).to_pandas()
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_chars"] = out["total_chars"].astype(np.int64)
    return out.sort_values(["split", "lang"], kind="mergesort").reset_index(drop=True)


def q_doc_quality_classifier(sf_dir: str):
    """Model-based quality filtering (the GPT-3/FineWeb-style third leg next
    to heuristic rules and LM perplexity): train a fastText-style linear
    classifier (hashed unigram+bigram features, distributed full-batch
    logistic regression — stages/classifier) on a SEED-LABELED SAMPLE
    (every 5th doc), then score the whole corpus in one vectorized pass.
    The deterministic seed label (contains the token "spark") stands in
    for a curated quality label — the fixture's langs share one
    vocabulary, so only a content-derived signal is learnable. Rows-only
    (iterative float training isn't SQL-expressible); serial parity, loss
    decrease, accuracy and partition invariance are pinned in
    tests/test_classifier.py."""
    from entity_resolution_engine_ray.stages.classifier import score_logreg, train_logreg

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def seed_label(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 5 == 0))
        hit = pc.match_substring_regex(t["text"], r"(^| )spark( |$)")
        return t.append_column(
            "label",
            pc.cast(hit, pa.int64()),
        )

    seed = ds.map_batches(seed_label, batch_format="pyarrow")
    w, b, _losses = train_logreg(seed, "label", dim=1024, n_iters=40, lr=2.0)
    out = score_logreg(ds, w, b).to_pandas()
    out["prob"] = _rha(out["prob"], 4)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_doc_stopword_prune(sf_dir: str):
    """Corpus-frequency stopword pruning — drop the top-K most frequent
    tokens (count DESC, token ASC; K=10) from every document and report the
    per-doc removal count. The drop set is SMALL by construction (the Zipf
    head), which fixes the 100-TB shape: vocab-bounded partial counts → a
    distributed ``sort + limit(K)`` (only K rows ever reach the driver) →
    ONE ``ray.put`` broadcast → an embarrassingly-parallel rewrite over the
    ListArray's flat buffers. Document text is never shuffled."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        flat = pc.split_pattern(col, " ").flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table(
            {"term": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )
    top = counts.sort(["n", "term"], descending=[True, False]).limit(10).to_pandas()
    stops = np.sort(top["term"].to_numpy(dtype=object).astype(str))
    stop_ref = ray.put(stops)

    def rewrite(t: pa.Table) -> pa.Table:
        stops_ = ray.get(stop_ref)  # node-local fetch, cached by the object store
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        lists = pc.split_pattern(col, " ")
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(lists)), lens)
        nonempty = flat != ""
        keep = nonempty & ~np.isin(flat, stops_)
        kept_per_row = np.bincount(row_idx[keep], minlength=len(lists))
        all_per_row = np.bincount(row_idx[nonempty], minlength=len(lists))
        offsets = np.concatenate([[0], np.cumsum(kept_per_row)]).astype(np.int32)
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(flat[keep], type=pa.string())
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": pc.binary_join(kept_list, " "),
                "n_removed": pa.array((all_per_row - kept_per_row).astype(np.int64)),
            }
        )

    out = ds.map_batches(rewrite, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_source_cap(sf_dir: str):
    """Per-domain quota capping — keep at most 15 docs per source, chosen
    by deterministic hash order (Knuth hash of doc_id, ties by doc_id):
    the anti-spam cap crawl curation applies to over-represented domains.
    One hash shuffle on source, then a vectorized per-partition rank —
    each partition holds whole sources, so the cap needs no global sort."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def cap(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64), "source": pd.Series([], dtype=str)}
            )
        pdf = pdf.assign(hk=_knuth32(pdf["doc_id"].to_numpy()))
        pdf = pdf.sort_values(["source", "hk", "doc_id"], kind="mergesort")
        return pdf.groupby("source").head(15)[["doc_id", "source"]]

    out = partition_map_groups(ds, ["source"], cap).to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_user_retention_cohorts(sf_dir: str):
    """Weekly cohort retention matrix — the engagement report every event
    warehouse runs: cohort = a user's first-event week (epoch-week), cell =
    distinct users of that cohort active ``week_offset`` weeks later. ONE
    hash shuffle on user_id: each partition derives its users' cohorts and
    distinct (cohort, offset) activity locally (vectorized), then tiny
    per-partition partial counts fold through a (cohort, offset) groupby."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def cohort(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "cohort_week": pd.Series([], dtype=np.int64),
                    "week_offset": pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        us = pdf["user_id"].to_numpy()
        wk = pdf["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64) // (604_800 * 1_000_000)
        d = pd.DataFrame({"u": us, "wk": wk})
        first = d.groupby("u")["wk"].transform("min")
        d = d.assign(cohort_week=first, week_offset=d["wk"] - first)
        g = d.drop_duplicates(["u", "cohort_week", "week_offset"]).groupby(
            ["cohort_week", "week_offset"], as_index=False
        )
        out = g.agg(n=("u", "size"))
        out["n"] = out["n"].astype(np.int64)
        return out

    out = (
        partition_map_groups(ds, ["user_id"], cohort)
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n", alias_name="n_users"))
    ).to_pandas()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values(["cohort_week", "week_offset"], kind="mergesort").reset_index(
        drop=True
    )


def q_doc_ngram_novelty(sf_dir: str):
    """Per-document n-gram novelty — share of a doc's DISTINCT token
    trigrams that appear in no other document (the memorization /
    boilerplate screen run before sampling training data). Scale shape:
    docs reduce map-side to slim (doc_id, gram-hash int64) pairs (a doc
    lives in one batch, so within-batch dedup is global dedup), gram
    doc-counts fold through one groupby, and ONE gram-keyed cogroup ships
    only (pair, count) ints back together — document text never shuffles.
    Counting is on 64-bit mixed token-hash triples; the SQL oracle groups
    the gram STRINGS, so a hash-collision-free run is itself certified by
    the oracle match (same self-certifying pattern as doc_fingerprint)."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    mix = np.uint64(0x9E3779B97F4A7C15)

    def grams(t: pa.Table) -> pa.Table:
        row_idx, toks = _explode_tokens(t)
        empty = pa.table(
            {"doc_id": pa.array([], type=pa.int64()), "gram": pa.array([], type=pa.int64())}
        )
        if len(toks) < 3:
            return empty
        h = pd.util.hash_array(toks.astype(object), hash_key="a3c95d1b07e64f28")
        valid = (row_idx[:-2] == row_idx[1:-1]) & (row_idx[1:-1] == row_idx[2:])
        if not valid.any():
            return empty
        gh = ((h[:-2] * mix) ^ h[1:-1]) * mix ^ h[2:]
        gh = gh[valid].view(np.int64)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)[row_idx[:-2][valid]]
        perm = np.lexsort((gh, doc_ids))
        ds_, gs_ = doc_ids[perm], gh[perm]
        first = np.r_[True, (ds_[1:] != ds_[:-1]) | (gs_[1:] != gs_[:-1])]
        return pa.table(
            {
                "doc_id": pa.array(ds_[first], type=pa.int64()),
                "gram": pa.array(gs_[first], type=pa.int64()),
            }
        )

    pairs = ds.map_batches(grams, batch_format="pyarrow").materialize()
    counts = pairs.groupby("gram").aggregate(Count(alias_name="nd"))

    def attach(pair_pdf: pd.DataFrame, cnt_pdf: pd.DataFrame) -> pd.DataFrame:
        if pair_pdf.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "n_unique": pd.Series([], dtype=np.int64),
                    "n_grams": pd.Series([], dtype=np.int64),
                }
            )
        m = pair_pdf.merge(cnt_pdf, on="gram", how="left")
        m["is_u"] = (m["nd"] == 1).astype(np.int64)
        g = m.groupby("doc_id", as_index=False).agg(
            n_unique=("is_u", "sum"), n_grams=("gram", "size")
        )
        g["n_unique"] = g["n_unique"].astype(np.int64)
        g["n_grams"] = g["n_grams"].astype(np.int64)
        return g

    per_doc = (
        hash_exchange_cogroup(pairs, counts, ["gram"], ["gram"], attach)
        .groupby("doc_id")
        .aggregate(Sum("n_unique", alias_name="n_unique"), Sum("n_grams", alias_name="n_grams"))
    ).to_pandas()
    per_doc["n_unique"] = per_doc["n_unique"].astype(np.int64)
    per_doc["n_grams"] = per_doc["n_grams"].astype(np.int64)
    per_doc["novelty"] = _rha(per_doc["n_unique"] / per_doc["n_grams"], 4)
    return per_doc.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_kmeans_clusters(sf_dir: str):
    """Distributed spherical k-means over the embedding table
    (stages/knn.kmeans_assign): 10 Lloyd passes where each pass ships only
    C×d float partials per batch, then one embarrassingly-parallel
    assignment pass — the corpus-partitioning primitive under
    cluster-balanced sampling and IVF list building. Rows-only (iterative
    float training isn't SQL-expressible); determinism, partition
    invariance and centroid quality are pinned in tests."""
    from entity_resolution_engine_ray.stages.knn import kmeans_assign

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = kmeans_assign(ds, n_clusters=8, n_iters=10).to_pandas()
    return out.sort_values("vec_id", kind="mergesort").reset_index(drop=True)


def q_events_window_dedup(sf_dir: str):
    """Telemetry debounce dedup: drop an event when the SAME (user_id,
    event_type) fired within the previous 300 s (gap measured to the
    previous raw event — the LAG semantics, so it stays SQL-checkable; a
    keep-anchored debounce would need a sequential scan). One hash shuffle
    on the group key, then a vectorized sorted-diff per partition — no
    per-group Python, no window library."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def dedup(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype=np.int64),
                    "user_id": pd.Series([], dtype=np.int64),
                    "event_type": pd.Series([], dtype=str),
                    "ts": pd.Series([], dtype="datetime64[us]"),
                }
            )
        pdf = pdf.sort_values(["user_id", "event_type", "ts", "event_id"], kind="mergesort")
        us = pdf["user_id"].to_numpy()
        et = pdf["event_type"].to_numpy()
        ts = pdf["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        same = np.r_[False, (us[1:] == us[:-1]) & (et[1:] == et[:-1])]
        gap = np.r_[np.int64(0), ts[1:] - ts[:-1]]
        keep = ~same | (gap > 300_000_000)  # strict >, microseconds
        return pdf.loc[keep, ["event_id", "user_id", "event_type", "ts"]]

    out = partition_map_groups(ds, ["user_id", "event_type"], dedup).to_pandas()
    return out.sort_values("event_id", kind="mergesort").reset_index(drop=True)


# ---------------------------------------------------------------------------
# flagship ER over synthesized pages (rows-only)
# ---------------------------------------------------------------------------


def q_er_pages_entities(sf_dir: str):
    """Flagship pages ER end-to-end on the deterministic synthetic pages
    fixture (2k pages, seed 42) — entities table out. Rows-only check."""
    import os

    from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er
    from entity_resolution_engine_ray.sources.pages import write_pages_fixture

    fix = write_pages_fixture("/tmp/er_fixture_q2000", 2000, seed=42)
    out_dir = "/tmp/er_query_out"
    res = run_pages_er(fix["pages"], out_dir)
    return res["entities"].select_columns(
        ["entity_id", "canonical_url", "domain", "lang", "n_members"]
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def q_relational_er_entities(sf_dir: str):
    """Reference-parity relational two-source ER over the seeded Alpha/Beta
    fixtures: per-entity-type match+route+merge counts plus routing metrics
    (rows-only — the pipeline the reference runs today, on Ray)."""
    import pandas as pd

    from entity_resolution_engine_ray.pipelines.relational_er import run_relational_er
    from entity_resolution_engine_ray.sources.relational import generate_relational_fixtures

    fx = generate_relational_fixtures()
    res = run_relational_er(fx["alpha"], fx["beta"])
    singular = {
        "teams": "team",
        "competitions": "competition",
        "seasons": "season",
        "players": "player",
        "matches": "match",
    }
    rows = []
    for etype, ents in res["entities"].items():
        m = next(x for x in res["metrics"] if x["entity_type"] == singular[etype])
        rows.append(
            {
                "entity_type": etype,
                "n_entities": len(ents),
                "total_candidates": m["total_candidates"],
                "auto_match_count": m["auto_match_count"],
                "auto_reject_count": m["auto_reject_count"],
                "gray_zone_sent_count": m["gray_zone_sent_count"],
            }
        )
    return pd.DataFrame(rows)


def q_doc_oov_rate(sf_dir: str):
    """Out-of-vocabulary audit against the corpus's own top-K vocabulary
    (K=20, count DESC / token ASC — the tie-break both sides share): per
    doc, total token count and how many tokens fall OUTSIDE the top-K set.
    The 100-TB shape is the stopword-prune one: vocab-bounded partial
    counts → distributed ``sort + limit(K)`` (only K rows reach the
    driver) → ONE ``ray.put`` broadcast → an embarrassingly-parallel
    per-doc ``np.isin`` scan. Counts are exact integers, so the oracle
    hash-compare needs no float rounding at all."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        flat = pc.split_pattern(col, " ").flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table(
            {"term": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )
    top = counts.sort(["n", "term"], descending=[True, False]).limit(20).to_pandas()
    vocab = np.sort(top["term"].to_numpy(dtype=object).astype(str))
    vocab_ref = ray.put(vocab)

    def scan(t: pa.Table) -> pa.Table:
        vocab_ = ray.get(vocab_ref)  # node-local fetch, cached by the object store
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        lists = pc.split_pattern(col, " ")
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(lists)), lens)
        nonempty = flat != ""
        oov = nonempty & ~np.isin(flat, vocab_)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(
                    np.bincount(row_idx[nonempty], minlength=len(lists)).astype(np.int64)
                ),
                "n_oov": pa.array(
                    np.bincount(row_idx[oov], minlength=len(lists)).astype(np.int64)
                ),
            }
        )

    out = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_source_dup_stats(sf_dir: str):
    """Per-source boilerplate triage — for every crawl source: doc count
    and how many of its docs share their 8-token HEAD SIGNATURE with any
    other doc CORPUS-WIDE (any source). Mirrored pages and templated
    articles open identically long before their bodies diverge, so the
    head signature is the cheap first-pass dup key crawl curation
    throttles feeds by (the fixtures contain real prefix dups but zero
    full-text dups). ONE fat shuffle: derive the signature vectorized in
    Arrow, hash-partition by it so each partition sees every copy
    (partition-local signature counts ARE global counts), emit one slim
    partial row per source per partition, then a tiny
    ``groupby(source).sum``. At 100 TB the partition key becomes the
    signature's 64-bit hash with the same layout; exact strings here keep
    the DuckDB oracle comparison hash-exact (same note as
    exact_dedup_docs, queries.py:65)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def sig(t: pa.Table) -> pa.Table:
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        lists = pc.list_slice(pc.split_pattern(col, " "), 0, 8)
        return pa.table({"source": t["source"], "sig": pc.binary_join(lists, " ")})

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=str),
                    "n_docs": pd.Series([], dtype=np.int64),
                    "n_dup_docs": pd.Series([], dtype=np.int64),
                }
            )
        n_per_sig = pdf.groupby("sig", sort=False)["sig"].transform("size")
        g = pdf.assign(dup=(n_per_sig > 1).astype(np.int64)).groupby("source", sort=False)
        out = g.agg(n_docs=("dup", "size"), n_dup_docs=("dup", "sum")).reset_index()
        out["n_docs"] = out["n_docs"].astype(np.int64)
        return out

    partials = partition_map_groups(
        ds.map_batches(sig, batch_format="pyarrow"), ["sig"], per_partition
    )
    agg = (
        partials.groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_dup_docs", alias_name="n_dup_docs"))
        .to_pandas()
    )
    agg["n_docs"] = agg["n_docs"].astype(np.int64)
    agg["n_dup_docs"] = agg["n_dup_docs"].astype(np.int64)
    return agg.sort_values("source", kind="mergesort").reset_index(drop=True)


def q_user_event_entropy(sf_dir: str):
    """Per-user event-type Shannon entropy (bits) — the bot-likeness
    signal: a scripted client hammering one endpoint scores ~0, an organic
    user scores high. ONE user_id hash shuffle total: per-batch
    ``(user_id, event_type)`` partial counts (slim — |users|×|types| rows
    per batch, never raw events) → hash-partition by user_id → inside the
    partition, finish the count sum AND the vectorized entropy in one
    pandas pass (every partial for a user lands in its partition, so the
    partition-local sum IS the global count). A first draft used Ray's
    multi-key ``groupby([user, type]).aggregate(Sum)`` for the finish sum
    and paid ~5.5 s of sort-based shuffle for 750 output rows — measured,
    rejected. Entropy is ROUND(Σ −p·log2 p, 4); both sides derive p from
    identical integer counts so the doubles agree bit-for-bit before
    rounding."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["user_id", "event_type"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    counts = ds.map_batches(partial, batch_format="pandas")

    def entropy(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "n_events": pd.Series([], dtype=np.int64),
                    "entropy": pd.Series([], dtype=np.float64),
                }
            )
        # finish the two-level aggregation: partials from different input
        # batches for the same (user, type) meet here
        pdf = (
            pdf.groupby(["user_id", "event_type"], sort=False)["n"].sum().reset_index(name="n")
        )
        tot = pdf.groupby("user_id", sort=False)["n"].transform("sum").to_numpy(np.float64)
        p = pdf["n"].to_numpy(np.float64) / tot
        h = pdf.assign(term=-p * np.log2(p)).groupby("user_id", sort=False).agg(
            n_events=("n", "sum"), entropy=("term", "sum")
        )
        h = h.reset_index()
        h["n_events"] = h["n_events"].astype(np.int64)
        h["entropy"] = h["entropy"].round(4)
        return h

    out = partition_map_groups(counts, ["user_id"], entropy).to_pandas()
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


def _doc_term_rows(
    t: pa.Table, id_col: str = "doc_id", text_col: str = "text", distinct: bool = False
) -> pd.DataFrame:
    """Explode a documents batch into slim (id, term) rows — single-space
    split, empty tokens dropped (the corpus tokenization contract shared by
    every term-level operator). ``distinct=True`` dedups within the batch,
    which IS per-document unique because a document lives in one row."""
    col = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    lists = pc.split_pattern(col, " ")
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False), lens)
    keep = flat != ""
    pdf = pd.DataFrame({id_col: ids[keep], "term": flat[keep]})
    return pdf.drop_duplicates() if distinct else pdf


def _query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """Row-group-pruned fetch of ONE query embedding (predicate + projection
    pushdown — the embedding table never reaches the driver)."""
    import pyarrow.parquet as pq

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"], filters=[("vec_id", "==", vec_id)]
    )
    return np.asarray(emb["embedding"][0].as_py(), dtype=np.float64)


def q_token_pmi(sf_dir: str):
    """Collocation mining — top-25 token pairs by pointwise mutual
    information over per-document co-occurrence (the classic corpus-
    linguistics screen for multiword expressions, and a cheap phrase-
    detection pass before tokenizer training). The 100-TB shape caps the
    pair space FIRST: a distributed doc-frequency pass picks the top-V
    vocabulary (V=16 here — smaller than the fixture's 31 terms so the cap
    genuinely binds; ``sort + limit`` means only V rows reach the driver),
    the vocab broadcasts once via ``ray.put``, and per-batch pair counting
    is a vocab-filtered self-merge per doc emitting ≤C(V,2) partial rows
    per batch — a bounded aggregate, so the driver finish-sum and the PMI
    arithmetic never see corpus-sized data."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = ds.count()

    def df_partial(t: pa.Table) -> pa.Table:
        d = _doc_term_rows(t, distinct=True)
        g = d.groupby("term", sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    dfreq = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )
    top = dfreq.sort(["n", "term"], descending=[True, False]).limit(16).to_pandas()
    n_of = dict(zip(top["term"], top["n"].astype(np.int64)))
    vocab_ref = ray.put(np.sort(top["term"].to_numpy(dtype=object).astype(str)))

    def pair_partial(t: pa.Table) -> pd.DataFrame:
        vocab = ray.get(vocab_ref)
        d = _doc_term_rows(t, distinct=True)
        d = d[np.isin(d["term"].to_numpy(), vocab)]
        if d.empty:
            return pd.DataFrame(
                {
                    "term_a": pd.Series([], dtype=str),
                    "term_b": pd.Series([], dtype=str),
                    "n_ab": pd.Series([], dtype=np.int64),
                }
            )
        m = d.merge(d, on="doc_id")
        m = m[m["term_x"] < m["term_y"]]
        g = (
            m.groupby(["term_x", "term_y"], sort=False)
            .size()
            .reset_index(name="n_ab")
            .rename(columns={"term_x": "term_a", "term_y": "term_b"})
        )
        g["n_ab"] = g["n_ab"].astype(np.int64)
        return g

    parts = ds.map_batches(pair_partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "term_a": pd.Series([], dtype=str),
                "term_b": pd.Series([], dtype=str),
                "n_ab": pd.Series([], dtype=np.int64),
                "n_a": pd.Series([], dtype=np.int64),
                "n_b": pd.Series([], dtype=np.int64),
                "pmi": pd.Series([], dtype=np.float64),
            }
        )
    out = (
        parts.groupby(["term_a", "term_b"], sort=False)["n_ab"].sum().reset_index(name="n_ab")
    )
    out["n_ab"] = out["n_ab"].astype(np.int64)
    out = out[out["n_ab"] >= 5]
    out["n_a"] = out["term_a"].map(n_of).astype(np.int64)
    out["n_b"] = out["term_b"].map(n_of).astype(np.int64)
    ratio = (
        out["n_ab"].to_numpy(np.float64)
        * np.float64(n_docs)
        / (out["n_a"].to_numpy(np.int64) * out["n_b"].to_numpy(np.int64)).astype(np.float64)
    )
    out["pmi"] = _rha(np.log2(ratio), 4)
    out = out.sort_values(
        ["pmi", "term_a", "term_b"], ascending=[False, True, True], kind="mergesort"
    ).head(25)
    return out.reset_index(drop=True)


def q_event_props_stats(sf_dir: str):
    """Semi-structured extraction — pull a typed field out of the JSON
    ``props`` payload column and aggregate it per event type (every
    telemetry pipeline's first JSON op). The engine never JSON-parses in
    Python: ``pc.extract_regex`` pulls the field vectorized in Arrow (the
    payload contract is flat single-level JSON, which a compiled RE2
    pattern handles zero-copy; a nested payload would swap this kernel for
    a real parser behind the same partial shape), per-batch partials carry
    only (event_type, n, n_with_k, sum_k), and the finish is a tiny
    single-key groupby. The DuckDB oracle uses real json_extract, so the
    match also certifies the regex against a actual JSON parser on every
    fixture row."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["props"].combine_chunks() if isinstance(t["props"], pa.ChunkedArray) else t["props"]
        # anchored to a member position ({ or , before the quote) so a
        # '"k": N' SUBSTRING inside a string value can't match; a non-integer
        # k fails the [,}] tail and stays NULL like the JSON parser's CAST
        ext = pc.extract_regex(col, r'[{,]\s*"k"\s*:\s*(?P<k>-?\d+)\s*[,}]')
        k = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        pdf = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "has_k": pc.is_valid(k).to_numpy(zero_copy_only=False),
                "k": k.fill_null(0).to_numpy(zero_copy_only=False),
            }
        )
        g = pdf.groupby("event_type", sort=False).agg(
            n=("k", "size"), n_with_k=("has_k", "sum"), sum_k=("k", "sum")
        )
        g = g.reset_index()
        for c in ("n", "n_with_k", "sum_k"):
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("event_type", sort=False, as_index=False).sum()
    for c in ("n", "n_with_k", "sum_k"):
        out[c] = out[c].astype(np.int64)
    out["avg_k"] = _rha(out["sum_k"].to_numpy(np.float64) / out["n_with_k"].to_numpy(np.float64), 4)
    return out.sort_values("event_type", kind="mergesort").reset_index(drop=True)


def q_doc_length_pctile(sf_dir: str):
    """Per-language length-percentile normalization (SQL PERCENT_RANK
    semantics: (RANK−1)/(count−1), ties share the min rank) — the
    group-relative score curation uses when absolute length thresholds
    don't transfer across languages. ONE lang hash shuffle; inside each
    partition every lang's ranks come from a vectorized groupby.rank
    (method='min' == SQL RANK), no per-group Python. Single-row groups
    score 0.0, matching the window function."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])

    def pctile(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "lang": pd.Series([], dtype=str),
                    "n_chars": pd.Series([], dtype=np.int64),
                    "pctile": pd.Series([], dtype=np.float64),
                }
            )
        g = pdf.groupby("lang", sort=False)["n_chars"]
        rank = g.rank(method="min").to_numpy(np.float64)
        cnt = g.transform("size").to_numpy(np.float64)
        pdf = pdf.copy()
        pdf["pctile"] = _rha(np.where(cnt > 1, (rank - 1) / np.maximum(cnt - 1, 1), 0.0), 4)
        return pdf[["doc_id", "lang", "n_chars", "pctile"]]

    out = partition_map_groups(ds, ["lang"], pctile).to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_training_shards(sf_dir: str):
    """END-TO-END tokenized-training-shard manifest, composed as ONE
    pipeline — the artifact an LLM data run actually ships: quality filter
    (≥30 whitespace tokens, fused into the read) → BPE tokenizer TRAINED on
    the surviving corpus (16 merges over the word-type table) → per-doc
    TRUE token counts under that tokenizer via a word-keyed COGROUP of the
    exploded (doc, word, count) rows against (word, tok_len) — no broadcast:
    at 10^12 docs the word-type table outgrows any driver dict, so the join
    ships both sides through the same hash exchange — → doc-keyed partial
    sum → concat-and-pack at a 4096-token budget in doc_id order
    (distributed grouped prefix-sum; a doc belongs to the shard its first
    token lands in) → per-shard manifest (docs, tokens, doc_id range).
    Rows-only: the tokenizer is iterative; the serial pin
    (tests/test_query_ops.py::test_training_shards_matches_serial) rebuilds
    the whole manifest single-process and compares frame-for-frame."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.scan import grouped_prefix_sum

    budget = 4096
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def prefilter(t: pa.Table) -> pa.Table:
        # count words with the SAME single-space split the BPE word table
        # and doc_word_counts use — a whitespace-regex count here would
        # disagree on tab/newline-separated tokens at the >=30 boundary
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        lists = pc.split_pattern(col, " ")
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(lens)), lens)
        n_words = np.bincount(row_idx[flat != ""], minlength=len(lens))
        return t.filter(pa.array(n_words >= 30))

    empty = pd.DataFrame(
        {
            "shard_id": pd.Series([], dtype=np.int64),
            "n_docs": pd.Series([], dtype=np.int64),
            "n_tokens": pd.Series([], dtype=np.int64),
            "min_doc_id": pd.Series([], dtype=np.int64),
            "max_doc_id": pd.Series([], dtype=np.int64),
        }
    )
    kept = docs.map_batches(prefilter, batch_format="pyarrow").materialize()
    if kept.count() == 0:
        return empty

    state = _bpe_word_state(sf_dir, ds=kept, keep_word=True)
    _, final = _bpe_train(state, 16)
    wlen = final.map_batches(
        lambda t: pa.table(
            {
                "word": t["word"],
                "tok_len": pc.cast(pc.list_value_length(t["syms"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def doc_word_counts(t: pa.Table) -> pa.Table:
        pdf = _doc_term_rows(t).rename(columns={"term": "word"})
        g = pdf.groupby(["doc_id", "word"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    dw = kept.map_batches(doc_word_counts, batch_format="pyarrow")

    def join_len(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        # left: (doc_id, word, cnt); right: (word, tok_len) — co-hashed on word
        if left.empty or right.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64), "tk": pd.Series([], dtype=np.int64)}
            )
        m = left.merge(right, on="word", how="inner")
        g = (
            m.assign(tk=m["cnt"].to_numpy(np.int64) * m["tok_len"].to_numpy(np.int64))
            .groupby("doc_id", sort=False)["tk"]
            .sum()
            .reset_index()
        )
        g["tk"] = g["tk"].astype(np.int64)
        return g

    parts = hash_exchange_cogroup(dw, wlen, ["word"], ["word"], join_len)

    def finish_doc(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "n_tokens": pd.Series([], dtype=np.int64),
                    "g": pd.Series([], dtype=np.int64),
                }
            )
        g = pdf.groupby("doc_id", sort=False)["tk"].sum().reset_index(name="n_tokens")
        g["n_tokens"] = g["n_tokens"].astype(np.int64)
        g["g"] = np.int64(0)  # single packing stream: constant scan key
        return g

    doctok = partition_map_groups(parts, ["doc_id"], finish_doc)
    cum = grouped_prefix_sum(doctok, ["g"], ["doc_id"], "n_tokens", "cum")

    def shard_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "shard_id": pa.array([], type=pa.int64()),
                    "n_docs": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "min_doc_id": pa.array([], type=pa.int64()),
                    "max_doc_id": pa.array([], type=pa.int64()),
                }
            )
        c = t["cum"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame(
            {
                "shard_id": (c - n) // budget,
                "n_tokens": n,
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = pdf.groupby("shard_id", sort=False).agg(
            n_docs=("doc_id", "size"),
            n_tokens=("n_tokens", "sum"),
            min_doc_id=("doc_id", "min"),
            max_doc_id=("doc_id", "max"),
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    sp = cum.map_batches(shard_partial, batch_format="pyarrow").to_pandas()
    if sp.empty:
        return empty
    out = sp.groupby("shard_id", as_index=False).agg(
        n_docs=("n_docs", "sum"),
        n_tokens=("n_tokens", "sum"),
        min_doc_id=("min_doc_id", "min"),
        max_doc_id=("max_doc_id", "max"),
    )
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("shard_id", kind="mergesort").reset_index(drop=True)


def q_event_transitions(sf_dir: str):
    """Per-user next-event Markov transition matrix — the sequence-mining
    primitive behind funnel discovery and bot fingerprinting: count every
    consecutive ``(prev_type → next_type)`` pair within a user's timeline
    and the conditional probability p(next|prev). ONE user_id hash shuffle;
    inside each partition the timeline sort, the LEAD pairing and the
    partial (prev, next) counts are all vectorized (the window-dedup
    pattern, queries.py:2996). The partials are bounded by
    |types|² × partitions, so the finish-sum is a driver-side pandas
    groupby over a tiny frame — a bounded aggregate, not a data collect."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def trans(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series([], dtype=str),
                    "next_type": pd.Series([], dtype=str),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        us = pdf["user_id"].to_numpy()
        et = pdf["event_type"].to_numpy()
        same = us[1:] == us[:-1]
        pairs = pd.DataFrame({"prev_type": et[:-1][same], "next_type": et[1:][same]})
        g = pairs.groupby(["prev_type", "next_type"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    partials = partition_map_groups(ds, ["user_id"], trans).to_pandas()
    if partials.empty:
        return pd.DataFrame(
            {
                "prev_type": pd.Series([], dtype=str),
                "next_type": pd.Series([], dtype=str),
                "n": pd.Series([], dtype=np.int64),
                "p": pd.Series([], dtype=np.float64),
            }
        )
    out = (
        partials.groupby(["prev_type", "next_type"], sort=False)["n"].sum().reset_index(name="n")
    )
    out["n"] = out["n"].astype(np.int64)
    tot = out.groupby("prev_type", sort=False)["n"].transform("sum").to_numpy(np.float64)
    out["p"] = _rha(out["n"].to_numpy(np.float64) / tot, 4)
    return out.sort_values(["prev_type", "next_type"], kind="mergesort").reset_index(drop=True)


def q_table_profile(sf_dir: str, n_distinct_mode: str = "exact"):
    """Data profiling — the first operator anyone runs on an unknown 100-TB
    table: per column, row count, null count, distinct count and numeric
    min/max (NULL for non-numeric columns). Two passes: (1) the narrow
    stats are per-batch Arrow partials (null_count off the validity
    bitmap, pc.min_max) combined on the driver — 6 rows per batch, a
    bounded aggregate; (2) EXACT distinct is per-batch ``np.unique`` THEN a
    64-bit value hash, so only unique slim (col, hash) pairs enter the ONE
    hash shuffle, with per-partition distinct partials summed in a tiny
    groupby. The DuckDB oracle's exact COUNT(DISTINCT) match certifies the
    hashed run collision-free on this input (same argument as
    doc_ngram_novelty). ``n_distinct_mode="sketch"`` is the 100-TB path:
    the same slim pairs feed stages/sketch.hll_count_distinct instead, so
    the shuffle carries only per-batch HLL register maxima (≤2^p rows per
    batch per column) — no pair ever crosses the wire; a paths-agree test
    pins the estimate within HLL error of exact."""
    from entity_resolution_engine_ray.functions.similarity import hash_tokens

    cols = [
        "o_orderkey",
        "o_custkey",
        "o_orderstatus",
        "o_totalprice",
        "o_orderdate",
        "o_orderpriority",
    ]
    numeric = {"o_orderkey", "o_custkey", "o_totalprice"}
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)

    def narrow(t: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            col = t[c].combine_chunks() if isinstance(t[c], pa.ChunkedArray) else t[c]
            if c in numeric:
                mm = pc.min_max(col)
                lo = mm["min"].as_py()
                hi = mm["max"].as_py()
                lo = float(lo) if lo is not None else None
                hi = float(hi) if hi is not None else None
            else:
                lo = hi = None
            rows.append((c, len(col), col.null_count, lo, hi))
        return pa.table(
            {
                "col_name": pa.array([r[0] for r in rows]),
                "n_rows": pa.array([r[1] for r in rows], type=pa.int64()),
                "n_nulls": pa.array([r[2] for r in rows], type=pa.int64()),
                "min_num": pa.array([r[3] for r in rows], type=pa.float64()),
                "max_num": pa.array([r[4] for r in rows], type=pa.float64()),
            }
        )

    stats = ds.map_batches(narrow, batch_format="pyarrow").to_pandas()
    agg = stats.groupby("col_name", sort=False).agg(
        n_rows=("n_rows", "sum"),
        n_nulls=("n_nulls", "sum"),
        min_num=("min_num", "min"),
        max_num=("max_num", "max"),
    )

    def uniq_hashes(t: pa.Table) -> pa.Table:
        names, hashes = [], []
        for c in cols:
            col = t[c].combine_chunks() if isinstance(t[c], pa.ChunkedArray) else t[c]
            col = col.drop_null()  # COUNT(DISTINCT) ignores NULLs
            vals = np.unique(pc.cast(col, pa.string()).to_numpy(zero_copy_only=False))
            if len(vals):
                names.append(np.full(len(vals), c, dtype=object))
                hashes.append(hash_tokens([f"{c}\x00{v}" for v in vals]).astype(np.int64))
        if not names:
            return pa.table(
                {
                    "col_name": pa.array([], type=pa.string()),
                    "vhash": pa.array([], type=pa.int64()),
                }
            )
        return pa.table(
            {
                "col_name": pa.array(np.concatenate(names)),
                "vhash": pa.array(np.concatenate(hashes)),
            }
        )

    pairs = ds.map_batches(uniq_hashes, batch_format="pyarrow")
    if n_distinct_mode == "sketch":
        from entity_resolution_engine_ray.stages.sketch import hll_count_distinct

        hdf = hll_count_distinct(pairs, ["col_name"], "vhash").to_pandas()
        nd = (
            hdf.set_index("col_name")["approx_distinct"]
            if not hdf.empty
            else pd.Series(dtype=np.int64)
        )
    else:

        def distinct_partial(pdf: pd.DataFrame) -> pd.DataFrame:
            if pdf.empty:
                return pd.DataFrame(
                    {"col_name": pd.Series([], dtype=str), "nd": pd.Series([], dtype=np.int64)}
                )
            d = pdf.drop_duplicates(["col_name", "vhash"])
            g = d.groupby("col_name", sort=False).size().reset_index(name="nd")
            g["nd"] = g["nd"].astype(np.int64)
            return g

        dparts = partition_map_groups(pairs, ["vhash"], distinct_partial).to_pandas()
        nd = (
            dparts.groupby("col_name", sort=False)["nd"].sum()
            if not dparts.empty
            else pd.Series(dtype=np.int64)
        )
    agg["n_distinct"] = nd.reindex(agg.index).fillna(0).astype(np.int64)
    out = agg.reset_index()[["col_name", "n_rows", "n_nulls", "n_distinct", "min_num", "max_num"]]
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_nulls"] = out["n_nulls"].astype(np.int64)
    return out.sort_values("col_name", kind="mergesort").reset_index(drop=True)


def _bpe_count_pairs(t: pa.Table) -> pa.Table:
    """Count-weighted adjacent symbol pairs in one vectorized pass: a
    boundary-masked shift-compare over the flat symbol buffer, np.unique +
    np.bincount for the weighted partial. Symbol ids stay < 2^22 (codepoints
    plus ≤ a few hundred merges), so key = a·2^22 + b is injective in int64."""
    syms = t["syms"].combine_chunks() if isinstance(t["syms"], pa.ChunkedArray) else t["syms"]
    n = t["n"].to_numpy(zero_copy_only=False)
    flat = syms.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) < 2:
        return pa.table(
            {"key": pa.array([], type=pa.int64()), "w": pa.array([], type=pa.int64())}
        )
    word_idx = np.repeat(np.arange(len(lens)), lens)
    a, b = flat[:-1], flat[1:]
    within = word_idx[:-1] == word_idx[1:]
    keys = a[within] * np.int64(1 << 22) + b[within]
    w = n[word_idx[:-1][within]]
    uk, inv = np.unique(keys, return_inverse=True)
    ws = np.bincount(inv, weights=w).astype(np.int64)
    return pa.table({"key": pa.array(uk), "w": pa.array(ws)})


def _bpe_apply_merge(t: pa.Table, a: int, b: int, new: int) -> pa.Table:
    """Replace left-to-right non-overlapping (a, b) adjacencies with `new`
    (runs of consecutive matches keep alternating positions — 'aaaa' merges
    to 'aa','aa'). Every non-syms column passes through untouched."""
    syms = t["syms"].combine_chunks() if isinstance(t["syms"], pa.ChunkedArray) else t["syms"]
    flat = syms.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) < 2:
        return t
    word_idx = np.repeat(np.arange(len(lens)), lens)
    m = np.flatnonzero((flat[:-1] == a) & (flat[1:] == b) & (word_idx[:-1] == word_idx[1:]))
    if len(m) == 0:
        return t
    starts = np.r_[True, np.diff(m) != 1]
    run_first = m[starts][np.cumsum(starts) - 1]
    keep = m[((m - run_first) % 2) == 0]
    flat[keep] = new
    drop = np.zeros(len(flat), dtype=bool)
    drop[keep + 1] = True
    new_lens = lens - np.bincount(word_idx[keep], minlength=len(lens))
    merged = pa.ListArray.from_arrays(
        pa.array(np.r_[np.int64(0), np.cumsum(new_lens)], type=pa.int32()),
        pa.array(flat[~drop]),
    )
    return pa.table({c: (merged if c == "syms" else t[c]) for c in t.column_names})


def _bpe_word_state(sf_dir: str, by_lang: bool = False, ds=None, keep_word: bool = False):
    """Collapse the corpus to the WORD-TYPE table and symbolize it — the
    classic trick that makes BPE trainable at 100 TB (Sennrich et al. 2016):
    iterations never touch raw text, only (word, count) rows, which are
    orders of magnitude fewer. Per-batch partial counts, ONE word-hash
    shuffle, then a one-time char→codepoint split (the only Python loop,
    over word TYPES, once — never per round). With by_lang the rows are
    (lang, word) — training totals are unchanged (weights just split per
    lang and pair counting re-sums them) but per-lang encode stats become a
    partition-local partial. ``ds`` overrides the read (an already-filtered
    corpus); ``keep_word`` carries the word string through symbolization
    (needed when the caller re-joins token lengths back onto documents).
    Returns None on an empty corpus."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups as pmg

    cols = ["text", "lang"] if by_lang else ["text"]
    if ds is None:
        ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
    else:
        ds = ds.select_columns(cols)
    # zero-row inputs skip lazy map_batches, so the word-key exchange would
    # see the SOURCE schema (no word column) — short-circuit (metadata count)
    if ds.count() == 0:
        return None
    keys = ["lang", "word"] if by_lang else ["word"]

    def word_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        words = pdf["text"].str.split(" ")
        ex = pdf[cols[1:]].join(pd.DataFrame({"word": words})).explode("word")
        ex = ex[ex["word"].astype(str) != ""]
        g = ex.groupby(keys, sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    def word_finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            out = {k: pd.Series([], dtype=str) for k in keys}
            out["n"] = pd.Series([], dtype=np.int64)
            return pd.DataFrame(out)
        g = pdf.groupby(keys, sort=False)["n"].sum().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    words = pmg(
        ds.map_batches(word_partial, batch_format="pandas"), ["word"], word_finish
    ).materialize()
    if words.count() == 0:
        return None

    def char_ids(t: pa.Table) -> pa.Table:
        ws = t["word"].to_pylist()
        out = {
            "syms": pa.array([[ord(c) for c in w] for w in ws], type=pa.list_(pa.int64())),
            "n": t["n"],
        }
        if by_lang:
            out["lang"] = t["lang"]
            out["n_chars"] = pa.array(
                np.fromiter((len(w) for w in ws), dtype=np.int64, count=len(ws))
            )
        if keep_word:
            out["word"] = t["word"]
        return pa.table(out)

    return words.map_batches(char_ids, batch_format="pyarrow").materialize()


def _bpe_train(state, n_merges: int = 16):
    """Run the merge rounds. Each round is one vectorized map_batches pass
    producing bounded (distinct adjacent pair, weight) partials summed on
    the driver; the argmax pair (tie-break: lexicographically smallest
    (left, right) strings — unambiguous because symbol→string is injective)
    is broadcast back into the next merge pass. The id→string vocab lives
    on the driver only; workers see ids. Returns (merges, final_state)."""
    # codepoints are the initial symbol ids; merged symbols get ids from 0x110000 up
    next_id = 0x110000
    merged_str: dict[int, str] = {}

    def sym_str(i: int) -> str:
        return merged_str[i] if i >= 0x110000 else chr(i)

    merges = []
    for rank in range(n_merges):
        partials = state.map_batches(_bpe_count_pairs, batch_format="pyarrow").to_pandas()
        if partials.empty:
            break
        counts = partials.groupby("key", sort=False)["w"].sum()
        best_w = int(counts.max())
        if best_w < 2:
            break
        cand = counts[counts == best_w].index.to_numpy()
        pairs = [(int(k) >> 22, int(k) & ((1 << 22) - 1)) for k in cand]
        a, b = min(pairs, key=lambda p: (sym_str(p[0]), sym_str(p[1])))
        new = next_id
        next_id += 1
        merged_str[new] = sym_str(a) + sym_str(b)
        merges.append((rank, sym_str(a), sym_str(b), merged_str[new], best_w))
        state = state.map_batches(
            _bpe_apply_merge, fn_kwargs={"a": a, "b": b, "new": new}, batch_format="pyarrow"
        ).materialize()
    return merges, state


_BPE_EMPTY = {
    "rank": np.int64,
    "left": str,
    "right": str,
    "merged": str,
    "n": np.int64,
}


def q_bpe_train_merges(sf_dir: str):
    """Distributed BPE tokenizer training (rows-only — iterative, not
    SQL-expressible; the serial Sennrich-reference oracle lives in
    tests/test_query_ops.py::test_bpe_train_matches_serial_reference).
    See _bpe_word_state / _bpe_train for the scale design."""
    state = _bpe_word_state(sf_dir)
    merges = [] if state is None else _bpe_train(state, 16)[0]
    if not merges:
        return pd.DataFrame({k: pd.Series([], dtype=v) for k, v in _BPE_EMPTY.items()})
    out = pd.DataFrame(merges, columns=["rank", "left", "right", "merged", "n"])
    out["rank"] = out["rank"].astype(np.int64)
    out["n"] = out["n"].astype(np.int64)
    return out


def q_bpe_encode_stats(sf_dir: str):
    """Apply the trained BPE to the corpus and report per-language tokenizer
    fertility — tokens/word and chars/token, THE acceptance metric for a
    tokenizer across a multilingual corpus (rows-only; serial parity test in
    tests/test_query_ops.py). Training and encoding both run on the
    (lang, word)-type table, so 'encoding' is free: after the merge rounds
    each row's symbol count IS its token count, and per-lang totals are
    count-weighted partials (Σn, Σn·chars, Σn·tokens) — one tiny driver sum,
    the corpus text is read exactly once."""
    state = _bpe_word_state(sf_dir, by_lang=True)
    empty = pd.DataFrame(
        {
            "lang": pd.Series([], dtype=str),
            "n_words": pd.Series([], dtype=np.int64),
            "n_chars": pd.Series([], dtype=np.int64),
            "n_tokens": pd.Series([], dtype=np.int64),
            "tokens_per_word": pd.Series([], dtype=np.float64),
            "chars_per_token": pd.Series([], dtype=np.float64),
        }
    )
    if state is None:
        return empty
    _, final = _bpe_train(state, 16)

    def lang_partial(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        toks = pc.list_value_length(t["syms"]).to_numpy(zero_copy_only=False).astype(np.int64)
        chars = t["n_chars"].to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame(
            {
                "lang": t["lang"].to_numpy(zero_copy_only=False),
                "n_words": n,
                "n_chars": n * chars,
                "n_tokens": n * toks,
            }
        )
        g = pdf.groupby("lang", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = final.map_batches(lang_partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return empty
    out = parts.groupby("lang", sort=False, as_index=False).sum()
    for c in ("n_words", "n_chars", "n_tokens"):
        out[c] = out[c].astype(np.int64)
    out["tokens_per_word"] = _rha(out["n_tokens"] / out["n_words"], 4)
    out["chars_per_token"] = _rha(out["n_chars"] / out["n_tokens"], 4)
    return out.sort_values("lang", kind="mergesort").reset_index(drop=True)


def q_inverted_index(sf_dir: str):
    """Sharded inverted-index build — term → document-frequency + the
    ordered posting list (the artifact behind any corpus-scale keyword
    retrieval; BM25 at query time reads THIS instead of rescanning text).
    Per-batch: tokenize, per-doc unique (term, doc_id) pairs; ONE term-hash
    shuffle co-locates every posting of a term, so the partition-local sort
    + join IS the final posting list. The df band [2, ⌊78% of corpus⌋] is
    the scale story: hapax terms are index bloat and stopword-frequency
    terms produce postings proportional to the corpus (at 100 TB those
    lists are unusable and get dropped or tiered — the fixtures' Zipf head
    sits at df 74–83% of 500 docs, so this cap really drops terms on every
    fixture and the branch is exercised). Postings serialize as a
    comma-joined string so the DuckDB string_agg oracle hash-matches."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = ds.count()
    df_max = max(2, int(np.floor(0.78 * n_docs)))

    def pairs(t: pa.Table) -> pa.Table:
        # per-doc unique (distinct=True): df counts DOCS, not occurrences
        return pa.Table.from_pandas(_doc_term_rows(t, distinct=True), preserve_index=False)

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "term": pd.Series([], dtype=str),
                    "df": pd.Series([], dtype=np.int64),
                    "postings": pd.Series([], dtype=str),
                }
            )
        pdf = pdf.drop_duplicates().sort_values(["term", "doc_id"], kind="mergesort")
        g = pdf.groupby("term", sort=False).agg(
            df=("doc_id", "size"),
            postings=("doc_id", lambda s: ",".join(map(str, s))),
        )
        g = g.reset_index()
        g["df"] = g["df"].astype(np.int64)
        return g[(g["df"] >= 2) & (g["df"] <= df_max)]

    out = partition_map_groups(
        ds.map_batches(pairs, batch_format="pyarrow"), ["term"], build
    ).to_pandas()
    return out.sort_values("term", kind="mergesort").reset_index(drop=True)


# ---------------------------------------------------------------------------
# relational: part-dimension join trees (TPC-H Q14 / Q9 / Q17 shapes)
# ---------------------------------------------------------------------------


def q_promo_revenue(sf_dir: str):
    """TPC-H Q14-shaped promo revenue share per ship month: lineitem ⋈ part
    on partkey through ONE task-level hash cogroup — part projects to just
    (p_partkey, is_promo) but at corpus scale the part dimension is ~2% of
    lineitem rows (far past any broadcast), so it rides the same exchange
    as the fact table. In-partition merge + partial aggregation by month
    leaves ≤ P×months partial rows for the driver fold. Money sums in
    exact 1e-4-dollar integer lanes split whole/remainder per partition so
    the global recombine is big-int exact (see q_lineitem_pricing); a
    per-(partition, month) lane saturates only past $9.2e14."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    part = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])

    _EMPTY = pd.DataFrame(
        {
            "month": pd.Series([], dtype=object),
            "promo_w": pd.Series([], dtype=np.int64),
            "promo_r": pd.Series([], dtype=np.int64),
            "total_w": pd.Series([], dtype=np.int64),
            "total_r": pd.Series([], dtype=np.int64),
        }
    )

    def per_partition(l_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or p_pdf.empty:
            return _EMPTY.copy()
        p_pdf = p_pdf.assign(is_promo=(p_pdf["p_type"] == "PROMO").to_numpy())
        m = l_pdf.merge(
            p_pdf[["p_partkey", "is_promo"]], left_on="l_partkey", right_on="p_partkey"
        )
        ext_c = np.round(m["l_extendedprice"].to_numpy(np.float64) * 100).astype(np.int64)
        disc_h = np.round(m["l_discount"].to_numpy(np.float64) * 100).astype(np.int64)
        u = ext_c * (100 - disc_h)  # exact 1e-4 dollars
        g = (
            pd.DataFrame(
                {
                    "month": pd.to_datetime(m["l_shipdate"]).dt.strftime("%Y-%m"),
                    "u": u,
                    "pu": np.where(m["is_promo"].to_numpy(), u, 0),
                }
            )
            .groupby("month", as_index=False)
            .agg(u=("u", "sum"), pu=("pu", "sum"))
        )
        return pd.DataFrame(
            {
                "month": g["month"],
                "promo_w": (g["pu"] // 10_000).astype(np.int64),
                "promo_r": (g["pu"] % 10_000).astype(np.int64),
                "total_w": (g["u"] // 10_000).astype(np.int64),
                "total_r": (g["u"] % 10_000).astype(np.int64),
            }
        )

    partials = hash_exchange_cogroup(
        li, part, ["l_partkey"], ["p_partkey"], per_partition, default_join_partitions()
    ).to_pandas()
    if partials.empty:
        partials = _EMPTY.copy()
    agg = partials.groupby("month", as_index=False).agg(
        promo_w=("promo_w", "sum"),
        promo_r=("promo_r", "sum"),
        total_w=("total_w", "sum"),
        total_r=("total_r", "sum"),
    )
    promo_c = _cents_from_lanes(agg["promo_w"], agg["promo_r"])
    total_c = _cents_from_lanes(agg["total_w"], agg["total_r"])
    out = pd.DataFrame(
        {
            "month": agg["month"],
            "promo_revenue": promo_c / 100.0,
            "total_revenue": total_c / 100.0,
            "promo_share": _rha(promo_c / np.maximum(total_c, 1), 6),
        }
    )
    return out.sort_values("month", kind="mergesort").reset_index(drop=True)


def q_brand_nation_revenue(sf_dir: str):
    """TPC-H Q9-shaped join tree: disc revenue per (part brand, supplier
    nation) — lineitem ⋈ part ⋈ supplier ⋈ nation as TWO slim task-level
    cogroups with aggregation pushed below each exchange. Stage 1 cogroups
    the fact table with part on partkey and immediately folds to
    (p_brand, l_suppkey) partials (brands × touched-suppliers rows — far
    smaller than the fact table); stage 2 cogroups those partials with
    supplier on suppkey and folds to (p_brand, s_nationkey). Only the tiny
    nation dimension is a driver-side lookup. Cents lanes stay split
    whole/remainder across BOTH exchanges so the final recombine is
    big-int exact regardless of partitioning."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    part = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    supplier = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation_tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )

    _E1 = pd.DataFrame(
        {
            "p_brand": pd.Series([], dtype=object),
            "l_suppkey": pd.Series([], dtype=np.int64),
            "rev_w": pd.Series([], dtype=np.int64),
            "rev_r": pd.Series([], dtype=np.int64),
        }
    )

    def stage1(l_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or p_pdf.empty:
            return _E1.copy()
        m = l_pdf.merge(p_pdf, left_on="l_partkey", right_on="p_partkey")
        ext_c = np.round(m["l_extendedprice"].to_numpy(np.float64) * 100).astype(np.int64)
        disc_h = np.round(m["l_discount"].to_numpy(np.float64) * 100).astype(np.int64)
        m = m.assign(u=ext_c * (100 - disc_h))
        g = m.groupby(["p_brand", "l_suppkey"], as_index=False)["u"].sum()
        return pd.DataFrame(
            {
                "p_brand": g["p_brand"],
                "l_suppkey": g["l_suppkey"].astype(np.int64),
                "rev_w": (g["u"] // 10_000).astype(np.int64),
                "rev_r": (g["u"] % 10_000).astype(np.int64),
            }
        )

    brand_supp = hash_exchange_cogroup(
        li, part, ["l_partkey"], ["p_partkey"], stage1, default_join_partitions()
    )

    _E2 = pd.DataFrame(
        {
            "p_brand": pd.Series([], dtype=object),
            "s_nationkey": pd.Series([], dtype=np.int64),
            "rev_w": pd.Series([], dtype=np.int64),
            "rev_r": pd.Series([], dtype=np.int64),
        }
    )

    def stage2(bs_pdf: pd.DataFrame, s_pdf: pd.DataFrame) -> pd.DataFrame:
        if bs_pdf.empty or s_pdf.empty:
            return _E2.copy()
        m = bs_pdf.merge(s_pdf, left_on="l_suppkey", right_on="s_suppkey")
        g = m.groupby(["p_brand", "s_nationkey"], as_index=False).agg(
            rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
        )
        g["s_nationkey"] = g["s_nationkey"].astype(np.int64)
        g["rev_w"] = g["rev_w"].astype(np.int64)
        g["rev_r"] = g["rev_r"].astype(np.int64)
        return g

    partials = hash_exchange_cogroup(
        brand_supp, supplier, ["l_suppkey"], ["s_suppkey"], stage2, default_join_partitions()
    ).to_pandas()
    if partials.empty:
        partials = _E2.copy()
    agg = partials.groupby(["p_brand", "s_nationkey"], as_index=False).agg(
        rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
    )
    rev_c = _cents_from_lanes(agg["rev_w"], agg["rev_r"])
    out = pd.DataFrame(
        {
            "p_brand": agg["p_brand"],
            "n_name": agg["s_nationkey"].map(nation_map),
            "revenue": rev_c / 100.0,
        }
    )
    return out.sort_values(["p_brand", "n_name"], kind="mergesort").reset_index(drop=True)


def q_small_qty_loss(sf_dir: str):
    """TPC-H Q17-shaped correlated-aggregate threshold: revenue locked in
    lineitems whose quantity is below 20% of their part's average quantity.
    Two passes over the fact table, both partition-parallel: pass 1 is a
    per-batch partial (partkey → Σqty, n) folded by ONE partkey groupby
    into a per-part threshold dataset (one row per part — at corpus scale
    that is itself large, so pass 2 cogroups it with lineitem on partkey
    rather than broadcasting). The filter compares in pure integers
    (5·qty·n < Σqty ⟺ qty < 0.2·avg, quantities are integral), so
    distributed == serial with no float boundary cases; revenue sums as
    exact cents lanes."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def qty_partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "l_partkey": t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                "qty": np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64),
            }
        )
        g = pdf.groupby("l_partkey", as_index=False).agg(sq=("qty", "sum"), n=("qty", "size"))
        g["sq"] = g["sq"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    thresholds = (
        ds.map_batches(qty_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("sq", alias_name="sq"), Sum("n", alias_name="n"))
    )

    _E = pd.DataFrame(
        {
            "ext_w": pd.Series([], dtype=np.int64),
            "ext_r": pd.Series([], dtype=np.int64),
            "n_lines": pd.Series([], dtype=np.int64),
        }
    )

    def small_qty(l_pdf: pd.DataFrame, t_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or t_pdf.empty:
            return _E.copy()
        m = l_pdf.merge(t_pdf, on="l_partkey")
        qty = np.round(m["l_quantity"].to_numpy(np.float64)).astype(np.int64)
        keep = 5 * qty * m["n"].to_numpy(np.int64) < m["sq"].to_numpy(np.int64)
        ext_c = np.round(m["l_extendedprice"].to_numpy(np.float64)[keep] * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "ext_w": [int(ext_c.sum()) // 10_000],
                "ext_r": [int(ext_c.sum()) % 10_000],
                "n_lines": [int(keep.sum())],
            }
        )

    partials = hash_exchange_cogroup(
        ds, thresholds, ["l_partkey"], ["l_partkey"], small_qty, default_join_partitions()
    ).to_pandas()
    total_c = int(partials["ext_w"].sum()) * 10_000 + int(partials["ext_r"].sum())
    return pd.DataFrame(
        {
            "avg_yearly": [float(_rha(np.array([total_c / 100.0 / 7.0]), 2)[0])],
            "n_lines": [np.int64(partials["n_lines"].sum())],
        }
    )


def q_order_sole_late_supplier(sf_dir: str):
    """TPC-H Q21-shaped grouped existential filter: suppliers who were the
    ONLY late shipper in a multi-supplier finished order (late := shipped
    more than 90 days after the order date). Every predicate — EXISTS
    (another supplier), NOT EXISTS (another late supplier) — is local to
    one orderkey group, so the whole query is ONE orderkey hash cogroup
    (lineitem × status-filtered orders, predicate pushed to the read) with
    vectorized per-order set logic inside the partition, emitting per-
    supplier partial counts; the driver folds ≤ P×suppliers rows and
    takes the top 20."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
        filter=(pc.field("o_orderstatus") == "F"),
    )

    _E = pd.DataFrame(
        {
            "s_suppkey": pd.Series([], dtype=np.int64),
            "numwait": pd.Series([], dtype=np.int64),
        }
    )

    def per_partition(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or o_pdf.empty:
            return _E.copy()
        m = l_pdf.merge(
            o_pdf[["o_orderkey", "o_orderdate"]], left_on="l_orderkey", right_on="o_orderkey"
        )
        if m.empty:
            return _E.copy()
        m["late"] = (
            pd.to_datetime(m["l_shipdate"])
            > pd.to_datetime(m["o_orderdate"]) + pd.Timedelta(days=90)
        ).astype(np.int64)
        # per (order, supplier): did this supplier ship anything late?
        g = m.groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"].max()
        per_order = g.groupby("l_orderkey").agg(n_supp=("late", "size"), n_late=("late", "sum"))
        g = g.merge(per_order, left_on="l_orderkey", right_index=True)
        hit = g[(g["late"] == 1) & (g["n_supp"] >= 2) & (g["n_late"] == 1)]
        out = hit.groupby("l_suppkey", as_index=False).agg(numwait=("late", "size"))
        return pd.DataFrame(
            {
                "s_suppkey": out["l_suppkey"].astype(np.int64),
                "numwait": out["numwait"].astype(np.int64),
            }
        )

    partials = hash_exchange_cogroup(
        li, orders, ["l_orderkey"], ["o_orderkey"], per_partition, default_join_partitions()
    ).to_pandas()
    if partials.empty:
        partials = _E.copy()
    agg = partials.groupby("s_suppkey", as_index=False)["numwait"].sum()
    agg["numwait"] = agg["numwait"].astype(np.int64)
    agg = agg.sort_values(["numwait", "s_suppkey"], ascending=[False, True], kind="mergesort")
    return agg.head(20).reset_index(drop=True)


def q_part_supplier_concentration(sf_dir: str):
    """TPC-H Q20-flavored nested-aggregate concentration screen: for every
    part, WHO ships the most of it and what fraction of the part's total
    lineitem quantity that top supplier owns. Both aggregate levels — per
    (part, supplier) and per part — plus the argmax live under the same
    partkey, so the whole query is ONE partkey hash shuffle with vectorized
    two-level groupbys + first-row argmax (qty desc, suppkey asc tie-break)
    inside the partition; shares divide exact integer quantity sums, the
    output is one row per part at every scale (a fixed >50% dominance cut
    goes vacuous as supplier counts grow — a share column keeps the
    operator informative at any scale)."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey", "l_quantity"]
    )

    def top_share(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.assign(qty=np.round(pdf["l_quantity"].to_numpy(np.float64)).astype(np.int64))
        ps = pdf.groupby(["l_partkey", "l_suppkey"], as_index=False)["qty"].sum()
        ps["tot"] = ps.groupby("l_partkey")["qty"].transform("sum")
        ps = ps.sort_values(
            ["l_partkey", "qty", "l_suppkey"], ascending=[True, False, True], kind="mergesort"
        ).drop_duplicates("l_partkey", keep="first")
        return pd.DataFrame(
            {
                "p_partkey": ps["l_partkey"].astype(np.int64),
                "s_suppkey": ps["l_suppkey"].astype(np.int64),
                "top_share": _rha(
                    ps["qty"].to_numpy(np.int64) / ps["tot"].to_numpy(np.int64), 6
                ),
            }
        )

    out = partition_map_groups(ds, ["l_partkey"], top_share).to_pandas()
    return out.sort_values("p_partkey", kind="mergesort").reset_index(drop=True)


def q_doc_stats_cube(sf_dir: str):
    """Grouping-sets / CUBE aggregate: doc count + char volume by
    (lang, source) with all four margins — (lang, source), (lang), (source)
    and the grand total — from ONE pass. The corpus folds to per-batch
    (lang, source) integer partials (≤ langs×sources rows per batch), one
    tiny groupby merges them, and the driver expands the three coarser
    groupings from the finest cells — exact integer sums are re-aggregable,
    so no second scan and no shuffle beyond the partial fold. NULL keys are
    folded to '(null)' BEFORE grouping (pandas groupby would silently drop
    them; the oracle COALESCEs identically pre-CUBE) and margin markers are
    the string 'ALL' on both engines — both markers assume no genuine
    lang/source value collides with them."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "lang": pd.Series(t["lang"].to_numpy(zero_copy_only=False)).fillna("(null)"),
                "source": pd.Series(t["source"].to_numpy(zero_copy_only=False)).fillna("(null)"),
                "n_chars": t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = pdf.groupby(["lang", "source"], as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["sum_chars"] = g["sum_chars"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("sum_chars", alias_name="sum_chars"))
    ).to_pandas()
    pieces = [cells]
    for keys, fill in ((["lang"], "source"), (["source"], "lang"), ([], None)):
        if keys:
            m = cells.groupby(keys, as_index=False).agg(
                n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
            )
            m[fill] = "ALL"
        else:
            m = pd.DataFrame(
                {
                    "lang": ["ALL"],
                    "source": ["ALL"],
                    "n_docs": [cells["n_docs"].sum()],
                    "sum_chars": [cells["sum_chars"].sum()],
                }
            )
        pieces.append(m)
    out = pd.concat(pieces, ignore_index=True)[["lang", "source", "n_docs", "sum_chars"]]
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["sum_chars"] = out["sum_chars"].astype(np.int64)
    return out.sort_values(["lang", "source"], kind="mergesort").reset_index(drop=True)


def q_events_winsorized(sf_dir: str):
    """Percentile winsorization (robust feature scaling for ML prep): clip
    each event's value to its type's [p05, p95] band, then report per type
    the band and the winsorized mean. Cutoffs come from the exact grouped-
    quantile operator (actual data values, `quantile_disc` semantics) — a
    tiny per-type table broadcast into the clip pass; clipped values sum as
    exact integer cents so the mean is order-invariant (see
    q_lineitem_pricing)."""
    from entity_resolution_engine_ray.stages.quantiles import grouped_quantiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    cuts = grouped_quantiles(ds, ["event_type"], "value", {"lo": 0.05, "hi": 0.95}).to_pandas()
    lo = dict(zip(cuts["event_type"], cuts["lo"]))
    hi = dict(zip(cuts["event_type"], cuts["hi"]))

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "value": t["value"].to_numpy(zero_copy_only=False).astype(np.float64),
            }
        )
        lo_v = pdf["event_type"].map(lo).to_numpy(np.float64)
        hi_v = pdf["event_type"].map(hi).to_numpy(np.float64)
        clipped = np.minimum(np.maximum(pdf["value"].to_numpy(np.float64), lo_v), hi_v)
        cents = np.round(clipped * 100).astype(np.int64)  # values are 2-dec exact
        g = pd.DataFrame({"event_type": pdf["event_type"], "c": cents}).groupby(
            "event_type", as_index=False
        ).agg(sum_c=("c", "sum"), n=("c", "size"))
        g["sum_c"] = g["sum_c"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("sum_c", alias_name="sum_c"), Sum("n", alias_name="n"))
    ).to_pandas()
    agg["lo"] = agg["event_type"].map(lo)
    agg["hi"] = agg["event_type"].map(hi)
    agg["avg_winsorized"] = _rha(
        (agg["sum_c"].to_numpy(np.int64) / 100.0) / agg["n"].to_numpy(np.int64), 4
    )
    agg["n"] = agg["n"].astype(np.int64)
    out = agg[["event_type", "lo", "hi", "n", "avg_winsorized"]]
    return out.sort_values("event_type", kind="mergesort").reset_index(drop=True)


def q_part_fuzzy_names(sf_dir: str):
    """Edit-distance similarity self-join over the DISTINCT part-name
    domain: dedup-first (one combiner-backed groupby shrinks n rows to the
    value domain — the shape that keeps a 100-TB fuzzy join tractable),
    then FastSS deletion-variant blocking + pair-vectorized Levenshtein
    verify (stages/editsim) finds every name pair within distance 2.
    Lossless blocking ⇒ the DuckDB ``levenshtein`` cross-join oracle must
    match EXACTLY — no recall asterisk. Member counts ride along so the
    output is a usable merge plan (which dirty spelling is dominant)."""
    from entity_resolution_engine_ray.stages.editsim import fuzzy_self_join

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("p_name").aggregate([("p_partkey", "count")])
        return g.select(["p_name", "p_partkey_count"]).rename_columns(["p_name", "n_parts"])

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pdf
        return pdf.groupby("p_name", as_index=False)["n_parts"].sum()

    uniq = partition_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), ["p_name"], merge
    )
    pairs = fuzzy_self_join(
        uniq, key_col="p_name", text_col="p_name", max_dist=2, carry_cols=("n_parts",)
    ).to_pandas()
    out = pd.DataFrame(
        {
            "name_a": pairs["name_a"],
            "name_b": pairs["name_b"],
            "dist": pairs["dist"].astype(np.int64),
            "n_a": pairs["n_parts_a"].astype(np.int64),
            "n_b": pairs["n_parts_b"].astype(np.int64),
        }
    )
    return out.sort_values(["name_a", "name_b"], kind="mergesort").reset_index(drop=True)


def q_part_fuzzy_cross(sf_dir: str):
    """Cross-corpus edit-distance join (stages/editsim.fuzzy_join): the
    distinct name domains of two deterministic shards of ``part`` (even vs
    odd ``p_partkey`` — a stand-in for alpha×beta sources / new-batch ×
    settled-corpus) matched within distance 2, pairs generated ACROSS
    sides only through one shared variant exchange. Includes dist-0 rows —
    exact cross-source matches — unlike the self-join, which excludes
    self-pairs by key order."""
    from entity_resolution_engine_ray.stages.editsim import fuzzy_join

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])

    def shard(parity: int):
        def pick(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.subtract(
                    t["p_partkey"], pc.multiply(pc.divide(t["p_partkey"], 2), 2)
                ),
                parity,
            )
            g = t.filter(keep).group_by("p_name").aggregate([])
            return g.select(["p_name"])

        return pick

    def uniq(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates("p_name", ignore_index=True)

    sides = [
        partition_map_groups(
            ds.map_batches(shard(p), batch_format="pyarrow"), ["p_name"], uniq
        )
        for p in (0, 1)
    ]
    pairs = fuzzy_join(sides[0], sides[1], key_col="p_name", text_col="p_name", max_dist=2)
    out = pairs.to_pandas()
    out = pd.DataFrame(
        {"name_a": out["name_a"], "name_b": out["name_b"], "dist": out["dist"].astype(np.int64)}
    )
    return out.sort_values(["name_a", "name_b"], kind="mergesort").reset_index(drop=True)


def q_docs_cdc_merge(sf_dir: str):
    """MERGE INTO / CDC apply (stages/cdc.cdc_merge): a deterministic
    changeset derived from the base table — updates (doc_id%10==7 →
    source='cdc'), deletes (%10==3), inserts (new key doc_id+1,000,000 for
    %10==0), and one two-change precedence case (%100==47: seq-1 upsert
    then seq-2 delete → net delete) — applied with the bloom-gated
    zero-shuffle-for-misses path. The oracle mirrors the changeset CTE and
    applies it with ROW_NUMBER precedence; every untouched row must come
    back byte-identical."""
    from entity_resolution_engine_ray.stages.cdc import cdc_merge

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    base = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)

    def make_changes(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        m10 = did % 10
        m100 = did % 100
        parts = []
        up = np.flatnonzero(m10 == 7)
        if len(up):
            sub = t.take(up)
            parts.append(
                pa.table(
                    {
                        "doc_id": sub["doc_id"],
                        "op": pa.array(["upsert"] * len(up)),
                        "seq": pa.array(np.ones(len(up), dtype=np.int64)),
                        "text": sub["text"],
                        "lang": sub["lang"],
                        "source": pa.array(["cdc"] * len(up)),
                        "n_chars": sub["n_chars"],
                    }
                )
            )
        de = np.flatnonzero(m10 == 3)
        if len(de):
            sub = t.take(de)
            parts.append(
                pa.table(
                    {
                        "doc_id": sub["doc_id"],
                        "op": pa.array(["delete"] * len(de)),
                        "seq": pa.array(np.ones(len(de), dtype=np.int64)),
                        "text": pa.array([None] * len(de), type=pa.string()),
                        "lang": pa.array([None] * len(de), type=pa.string()),
                        "source": pa.array([None] * len(de), type=pa.string()),
                        "n_chars": pa.array([None] * len(de), type=pa.int64()),
                    }
                )
            )
        late = np.flatnonzero(m100 == 47)
        if len(late):
            sub = t.take(late)
            parts.append(
                pa.table(
                    {
                        "doc_id": sub["doc_id"],
                        "op": pa.array(["delete"] * len(late)),
                        "seq": pa.array(np.full(len(late), 2, dtype=np.int64)),
                        "text": pa.array([None] * len(late), type=pa.string()),
                        "lang": pa.array([None] * len(late), type=pa.string()),
                        "source": pa.array([None] * len(late), type=pa.string()),
                        "n_chars": pa.array([None] * len(late), type=pa.int64()),
                    }
                )
            )
        ins = np.flatnonzero(m10 == 0)
        if len(ins):
            sub = t.take(ins)
            new_text = pc.binary_join_element_wise(
                "new doc ", pc.cast(sub["doc_id"], pa.string()), ""
            )
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(did[ins] + 1_000_000),
                        "op": pa.array(["upsert"] * len(ins)),
                        "seq": pa.array(np.ones(len(ins), dtype=np.int64)),
                        "text": new_text,
                        "lang": sub["lang"],
                        "source": pa.array(["cdc_new"] * len(ins)),
                        "n_chars": pc.cast(pc.utf8_length(new_text), pa.int64()),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "op": pa.array([], type=pa.string()),
                    "seq": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                    "lang": pa.array([], type=pa.string()),
                    "source": pa.array([], type=pa.string()),
                    "n_chars": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(parts)

    changes = base.map_batches(make_changes, batch_format="pyarrow")
    merged = cdc_merge(base, changes, "doc_id", cols)
    out = merged.to_pandas()
    out["n_chars"] = out["n_chars"].astype(np.int64)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)[cols]


def q_doc_redact_pii(sf_dir: str):
    """PII redaction over the corpus (stages/redact): the fixture text is
    clean, so a deterministic dirty suffix derived from ``doc_id`` (email +
    IP + SSN + phone) is appended IDENTICALLY in both engines, then the
    four RE2 patterns scrub it in declaration order. Arrow's
    ``replace_substring_regex`` and DuckDB's ``regexp_replace(..., 'g')``
    are both RE2 with leftmost non-overlapping global semantics, so the
    redacted text and the per-doc span counts must match byte-for-byte —
    the oracle chains the SAME pattern strings through CTEs, counting each
    pattern on the previous pattern's output exactly like
    ``functions.textstats.redact_pii`` does."""
    from entity_resolution_engine_ray.stages.redact import redact_stage

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def dirty(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        sid = pc.cast(did, pa.string())
        oct3 = pc.cast(pc.subtract(did, pc.multiply(pc.divide(did, 256), 256)), pa.string())
        two = pc.utf8_lpad(
            pc.cast(pc.subtract(did, pc.multiply(pc.divide(did, 100), 100)), pa.string()),
            2,
            "0",
        )
        three = pc.utf8_lpad(
            pc.cast(pc.subtract(did, pc.multiply(pc.divide(did, 1000), 1000)), pa.string()),
            3,
            "0",
        )
        text = pc.binary_join_element_wise(
            t["text"],
            " contact user",
            sid,
            "@mail.example from 10.0.",
            oct3,
            ".1 ssn ",
            three,
            "-",
            two,
            "-",
            two,
            two,
            " call 555-01",
            two,
            "",  # binary_join_element_wise: LAST argument is the separator
        )
        return pa.table({"doc_id": did, "text": text})

    out = redact_stage(ds.map_batches(dirty, batch_format="pyarrow")).to_pandas()
    out["n_redacted"] = out["n_redacted"].astype(np.int64)
    return (
        out[["doc_id", "text", "n_redacted"]]
        .sort_values("doc_id", kind="mergesort")
        .reset_index(drop=True)
    )


def q_er_blocking_eval(sf_dir: str):
    """Blocking-scheme quality evaluation (the record-linkage methodology
    loop as an operator): precision/recall/F1 of two candidate-generation
    schemes — a 24-char text-prefix key and a naive (lang, length-bucket)
    key — against the VERIFIED near-dup truth pairs (exact 3-shingle
    Jaccard >= 0.7, the same certified machinery as near_dup_minhash).

    Everything stays distributed: truth pairs come from near_dup_edges'
    one-exchange LSH+verify path, predicted pairs from one hash exchange
    per scheme, and the TP/FP/FN intersection is one more exchange with
    O(partitions) integer partials (stages/evaluate.py). Ratios are single
    divisions of the same integers the oracle divides, so doubles are
    bit-identical. Reference parity: generalizes the reference's serial
    pair-level matcher assertions (its tests) to corpus-scale pair sets."""
    from entity_resolution_engine_ray.stages.dedup import near_dup_edges
    from entity_resolution_engine_ray.stages.evaluate import (
        block_pairs,
        blocking_eval_row,
        evaluate_pair_sets,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"],
    ).materialize()
    truth, _dropped = near_dup_edges(ds.select_columns(["doc_id", "text"]))
    truth = truth.select_columns(["left_id", "right_id"]).materialize()

    def key_prefix(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                # code-point slice == DuckDB substr(text, 1, 24)
                "k": pc.utf8_slice_codeunits(t["text"], 0, 24),
            }
        )

    def key_langlen(t: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.divide(t["n_chars"], pa.scalar(200, pa.int64())), pa.string()
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "k": pc.binary_join_element_wise(t["lang"], bucket, "|"),
            }
        )

    rows = []
    for scheme, keyer in (("prefix24", key_prefix), ("lang_len200", key_langlen)):
        pred = block_pairs(
            ds.map_batches(keyer, batch_format="pyarrow"), "doc_id", "k"
        )
        rows.append(blocking_eval_row(scheme, evaluate_pair_sets(pred, truth)))
    out = pd.DataFrame(rows)
    for c in ("n_pred", "n_truth", "tp", "fp", "fn"):
        out[c] = out[c].astype(np.int64)
    return out


def q_er_fs_weights(sf_dir: str):
    """Fellegi–Sunter m/u parameter estimation over blocked candidate pairs
    (the probabilistic-record-linkage core of Splink-style tooling): for
    each agreement pattern over (prefix24-equal, source-equal), count
    matching vs non-matching candidate pairs against the verified near-dup
    truth, then m = P(pattern|match), u = P(pattern|non-match) and the
    log2(m/u) match weight.

    Distributed: candidates + their pattern come out of ONE blocking
    exchange (block_pairs carries the attribute payload, no attribute
    cogroups), labels out of ONE pair-key exchange with O(patterns)
    partials (stages/evaluate.fs_pattern_counts). m/u are divisions of the
    same integers the oracle divides; the log2 weight is rounded to 4dp on
    both engines (numpy vs libm log2 can differ at most 1 ulp — far inside
    the rounding tolerance except on exact .00005 boundaries, which integer
    count ratios essentially never hit)."""
    from entity_resolution_engine_ray.stages.dedup import near_dup_edges
    from entity_resolution_engine_ray.stages.evaluate import (
        block_pairs,
        fs_pattern_counts,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars", "source"],
    ).materialize()
    truth, _dropped = near_dup_edges(ds.select_columns(["doc_id", "text"]))
    truth = truth.select_columns(["left_id", "right_id"]).materialize()

    def keyed(t: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.divide(t["n_chars"], pa.scalar(200, pa.int64())), pa.string()
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "k": pc.binary_join_element_wise(t["lang"], bucket, "|"),
                "pfx": pc.utf8_slice_codeunits(t["text"], 0, 24),
                "source": t["source"],
            }
        )

    cand = block_pairs(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "doc_id",
        "k",
        payload_cols=["pfx", "source"],
    )

    def pattern(t: pa.Table) -> pa.Table:
        b_pfx = pc.cast(pc.equal(t["left_pfx"], t["right_pfx"]), pa.int64())
        b_src = pc.cast(pc.equal(t["left_source"], t["right_source"]), pa.int64())
        return pa.table(
            {
                "left_id": t["left_id"],
                "right_id": t["right_id"],
                "pattern": pc.add(pc.multiply(b_pfx, pa.scalar(2, pa.int64())), b_src),
            }
        )

    counts = fs_pattern_counts(cand.map_batches(pattern, batch_format="pyarrow"), truth)
    tm = int(counts["n_match"].sum())
    tn = int(counts["n_nonmatch"].sum())
    m = counts["n_match"].to_numpy() / tm
    u = counts["n_nonmatch"].to_numpy() / tn
    with np.errstate(divide="ignore", invalid="ignore"):
        w = round_half_away(np.log2(m / u), 4)
    defined = (counts["n_match"].to_numpy() > 0) & (counts["n_nonmatch"].to_numpy() > 0)
    out = counts.copy()
    out["m"] = m
    out["u"] = u
    out["weight"] = np.where(defined, w, np.nan)
    return out


def q_er_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking (Hernández–Stolfo merge/purge), the
    third classic candidate-generation scheme next to standard blocking
    (er_blocking_eval) and LSH (near_dup_minhash): sort by a 16-char text
    prefix, emit every pair within a rank window of 10. Skew-immune by
    construction — a window bucket holds ≤ 2w records regardless of key
    distribution, which is the method's selling point over standard
    blocking on hot keys (stages/evaluate.sorted_neighborhood_pairs: one
    distributed sort + one slim int64 exchange)."""
    from entity_resolution_engine_ray.stages.evaluate import sorted_neighborhood_pairs

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "k": pc.utf8_slice_codeunits(t["text"], 0, 16),
            }
        )

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    pairs = typed_to_pandas(
        sorted_neighborhood_pairs(
            ds.map_batches(keyed, batch_format="pyarrow"), "doc_id", "k", window=10
        )
    )
    for c in ("left_id", "right_id", "gap"):
        pairs[c] = pairs[c].astype(np.int64)
    return pairs.sort_values(["left_id", "right_id"], kind="mergesort").reset_index(
        drop=True
    )


def q_er_meta_blocking(sf_dir: str):
    """Meta-blocking with weight-edge pruning (Papadakis et al.): three
    cheap blocking schemes (the 8-char text chunks at offsets 0/8/16, each
    key scheme-prefixed), blocks purged above 100 records, pair weight =
    number of co-blocking schemes (CBS), and only pairs with weight
    strictly above the global mean survive. The pruning turns N cheap
    high-recall schemes into one precise candidate set WITHOUT scoring —
    the standard pre-matcher step when no single key is trustworthy.
    Distributed: two exchanges + an O(batch) integer stats pass
    (stages/evaluate.meta_blocking_wep); the mean is the same int/int
    division the oracle performs, so the strict comparison is
    bit-identical."""
    from entity_resolution_engine_ray.stages.evaluate import meta_blocking_wep

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        parts = []
        for i, lo in enumerate((0, 8, 16)):
            parts.append(
                pa.table(
                    {
                        "doc_id": did,
                        "k": pc.binary_join_element_wise(
                            pa.array([f"{i}|"] * len(did), pa.string()),
                            pc.utf8_slice_codeunits(t["text"], lo, lo + 8),
                            "",
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    survivors, _stats = meta_blocking_wep(
        ds.map_batches(keyed, batch_format="pyarrow"), "doc_id", "k", max_block_size=100
    )
    out = typed_to_pandas(survivors)
    for c in ("left_id", "right_id", "weight"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["left_id", "right_id"], kind="mergesort").reset_index(
        drop=True
    )


def q_er_fs_em(sf_dir: str):
    """UNSUPERVISED Fellegi–Sunter estimation (Winkler's EM for the
    record-linkage mixture — the Splink/fastLink core): same blocked
    candidates as er_fs_weights but NO truth labels — m/u/λ come out of EM
    over the O(2^k) aggregated pattern counts. THREE agreement features
    (prefix24-equal, source-equal, exact-n_chars-equal), the classic
    Fellegi–Sunter identifiability minimum (k=2 puts 5 parameters on 3
    degrees of freedom). The distributed work is one blocking exchange +
    per-batch pattern partials (stages/evaluate.candidate_pattern_counts);
    EM itself never touches a pair, so corpus size only enters through the
    counts. Rows-only (an iterative fixpoint has no SQL form); tests pin
    planted-mixture recovery and partition invariance of the counts."""
    from entity_resolution_engine_ray.stages.evaluate import (
        block_pairs,
        candidate_pattern_counts,
        fs_em,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars", "source"],
    ).materialize()

    def keyed(t: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.divide(t["n_chars"], pa.scalar(200, pa.int64())), pa.string()
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "k": pc.binary_join_element_wise(t["lang"], bucket, "|"),
                "pfx": pc.utf8_slice_codeunits(t["text"], 0, 24),
                "source": t["source"],
                "n_chars": t["n_chars"],
            }
        )

    cand = block_pairs(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "doc_id",
        "k",
        payload_cols=["pfx", "source", "n_chars"],
    )

    def pattern(t: pa.Table) -> pa.Table:
        b_pfx = pc.cast(pc.equal(t["left_pfx"], t["right_pfx"]), pa.int64())
        b_src = pc.cast(pc.equal(t["left_source"], t["right_source"]), pa.int64())
        b_len = pc.cast(pc.equal(t["left_n_chars"], t["right_n_chars"]), pa.int64())
        return pa.table(
            {
                "pattern": pc.add(
                    pc.add(
                        pc.multiply(b_pfx, pa.scalar(4, pa.int64())),
                        pc.multiply(b_src, pa.scalar(2, pa.int64())),
                    ),
                    b_len,
                )
            }
        )

    counts = candidate_pattern_counts(cand.map_batches(pattern, batch_format="pyarrow"))
    est = fs_em(counts, n_features=3)
    w = round_half_away(np.log2(est["m"] / est["u"]), 4)
    return pd.DataFrame(
        {
            "feature": ["n_chars", "source", "pfx24"],  # bit 0, bit 1, bit 2
            "m": round_half_away(est["m"], 6),
            "u": round_half_away(est["u"], 6),
            "weight": w,
            "lam": round_half_away(np.full(3, est["lam"]), 6),
        }
    )


def q_er_cluster_metrics(sf_dir: str):
    """External cluster-evaluation metrics (the standard ER scoreboard:
    pairwise precision/recall/F1 + Adjusted Rand Index) comparing two
    predicted clusterings against a gold partition of the documents table.
    Gold = 8-char text-prefix groups; scheme 'prefix16' = the finer 16-char
    prefix clustering (over-splits: pairwise precision is exactly 1 by
    nesting, recall < 1); scheme 'lang_len' = (lang, n_chars//200) buckets
    (a deliberately orthogonal labeling — full contingency). Every metric
    is a single float expression over six exact integers
    (stages/evaluate.clustering_agreement_stats), so the SQL oracle
    computing the same expressions matches bit-for-bit. One record-scale
    exchange per scheme; cluster sizes come from the O(clusters) cell
    table."""
    from entity_resolution_engine_ray.stages.evaluate import clustering_agreement_stats

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang", "n_chars"]
    )

    def keyed(t: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.divide(t["n_chars"], pa.scalar(200, pa.int64())), pa.string()
        )
        return pa.table(
            {
                "tk": pc.utf8_slice_codeunits(t["text"], 0, 8),
                "pk_prefix16": pc.utf8_slice_codeunits(t["text"], 0, 16),
                "pk_lang_len": pc.binary_join_element_wise(t["lang"], bucket, "|"),
            }
        )

    kd = ds.map_batches(keyed, batch_format="pyarrow").materialize()
    rows = []
    for scheme, col in (("lang_len", "pk_lang_len"), ("prefix16", "pk_prefix16")):
        s = clustering_agreement_stats(kd.select_columns([col, "tk"]), col, "tk")
        sn, sa, sb, n = s["cell_pairs"], s["pred_pairs"], s["truth_pairs"], s["n"]
        t_pairs = n * (n - 1) // 2
        # identical expression trees to the SQL oracle: product rounded to
        # double FIRST, then one divide (see VERDICT float-parity rule)
        exp = float(sa * sb) / float(t_pairs) if t_pairs else 0.0
        den = float(sa + sb) / 2.0 - exp
        rows.append(
            {
                "scheme": scheme,
                "n": n,
                "pred_clusters": s["pred_clusters"],
                "truth_clusters": s["truth_clusters"],
                "pair_tp": sn,
                "pair_fp": sa - sn,
                "pair_fn": sb - sn,
                "pair_precision": float(sn) / float(sa) if sa else None,
                "pair_recall": float(sn) / float(sb) if sb else None,
                "pair_f1": 2.0 * sn / (sa + sb) if (sa + sb) else None,
                "ari": (float(sn) - exp) / den if den else None,
            }
        )
    out = pd.DataFrame(rows)
    for c in ("n", "pred_clusters", "truth_clusters", "pair_tp", "pair_fp", "pair_fn"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("scheme", kind="mergesort").reset_index(drop=True)


def q_er_block_filtering(sf_dir: str):
    """Block filtering (Papadakis et al.), the per-RECORD complement to
    meta-blocking's per-PAIR pruning: each document keeps only its
    ⌈0.6·|blocks|⌉ smallest blocks (most discriminative keys), and a
    candidate pair survives only if both sides retained a shared block.
    Same three 8-char-chunk schemes as er_meta_blocking, so the two prune
    strategies are directly comparable on identical raw blocks. The keep
    count is the exact integer ceiling (3·cnt+4)//5 — never a float
    multiply — mirrored in the oracle's ROW_NUMBER window
    (stages/evaluate.block_filtering_pairs: three slim exchanges)."""
    from entity_resolution_engine_ray.stages.evaluate import block_filtering_pairs

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        parts = []
        for i, lo in enumerate((0, 8, 16)):
            parts.append(
                pa.table(
                    {
                        "doc_id": did,
                        "k": pc.binary_join_element_wise(
                            pa.array([f"{i}|"] * len(did), pa.string()),
                            pc.utf8_slice_codeunits(t["text"], lo, lo + 8),
                            "",
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    pairs = typed_to_pandas(
        block_filtering_pairs(
            ds.map_batches(keyed, batch_format="pyarrow"),
            "doc_id",
            "k",
            ratio_num=3,
            ratio_den=5,
        )
    )
    for c in ("left_id", "right_id", "weight"):
        pairs[c] = pairs[c].astype(np.int64)
    return pairs.sort_values(["left_id", "right_id"], kind="mergesort").reset_index(
        drop=True
    )


def q_er_phonetic_blocking(sf_dir: str):
    """Phonetic (Soundex) blocking profile over part names — the classic
    recall-oriented blocking key for dirty name columns (Christen's
    indexing survey). Soundex code of the FIRST word of p_name; output one
    row per code with member count and the implied intra-block pair count
    C(n,2) — the cost/recall profile a blocking designer reads before
    committing to the scheme. Oracle-checked: Soundex is reproduced in
    pure SQL string ops (see ORACLE_SQL — translate + per-digit run
    collapse, fuzz-pinned equal to the Python encoder over 5k random
    strings); the encoder itself is also pinned against the published
    test vectors (tests/test_functions.py) and the per-batch path is
    dictionary-encode-first so only unique names are ever scanned
    (functions/phonetic.soundex_batch)."""
    from entity_resolution_engine_ray.functions.phonetic import soundex_batch

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_name"])

    def code(t: pa.Table) -> pa.Table:
        first = pc.replace_substring_regex(t["p_name"], r"\s.*$", "")
        return pa.table({"code": soundex_batch(first)})

    def partial(t: pa.Table) -> pa.Table:
        codes, counts = np.unique(
            t["code"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"code": pa.array(codes, pa.string()),
             "n": pa.array(counts.astype(np.int64))}
        )

    parts = (
        ds.map_batches(code, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    out = parts.groupby("code", as_index=False)["n"].sum()
    out["n"] = out["n"].astype(np.int64)
    out["n_pairs"] = (out["n"] * (out["n"] - 1) // 2).astype(np.int64)
    return out.sort_values("code", kind="mergesort").reset_index(drop=True)


def q_er_one_to_one(sf_dir: str):
    """One-to-one record linkage assignment (the 1:1 deliverable the
    reference's per-left argmax matchers stop short of): split documents
    into two sides by doc_id parity, block on the 8-char text prefix,
    score cross-side candidates by common-prefix length, then enforce a
    1:1 matching with the distributed greedy algorithm — rounds of
    locally-dominant (mutual-best) acceptance that reproduce the serial
    (score desc, left, right) greedy scan exactly (Preis's locally
    heaviest edges; stages/matching.one_to_one_match). Oracle-checked:
    the serial greedy scan is a recursive CTE (each step picks the best
    remaining candidate with both endpoints unused — see ORACLE_SQL);
    the distributed==serial pin also lives in tests/test_matching.py."""
    from entity_resolution_engine_ray.stages.evaluate import block_pairs
    from entity_resolution_engine_ray.stages.matching import one_to_one_match

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "k": pc.utf8_slice_codeunits(t["text"], 0, 8),
                "pfx": pc.utf8_slice_codeunits(t["text"], 0, 40),
            }
        )

    cand = block_pairs(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "doc_id",
        "k",
        payload_cols=["pfx"],
    )

    def score(t: pa.Table) -> pa.Table:
        li = t["left_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ri = t["right_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # cross-side only: left side = even doc_id, right side = odd
        keep = (li % 2) != (ri % 2)
        li, ri = li[keep], ri[keep]
        lp = np.asarray(t["left_pfx"].to_pylist(), dtype="U40")[keep]
        rp = np.asarray(t["right_pfx"].to_pylist(), dtype="U40")[keep]
        # orient: left column = the even-id side
        swap = (li % 2) == 1
        li2 = np.where(swap, ri, li)
        ri2 = np.where(swap, li, ri)
        n = len(li2)
        if n == 0:
            return pa.table(
                {
                    "left_id": pa.array([], pa.int64()),
                    "right_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        # common-prefix length over fixed-width codepoint lanes
        a = lp.view(np.uint32).reshape(n, 40)
        b = rp.view(np.uint32).reshape(n, 40)
        cpl = (a == b).cumprod(axis=1).sum(axis=1)
        return pa.table(
            {
                "left_id": pa.array(li2),
                "right_id": pa.array(ri2),
                "score": pa.array(cpl.astype(np.float64)),
            }
        )

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    out = typed_to_pandas(one_to_one_match(cand.map_batches(score, batch_format="pyarrow")))
    out["left_id"] = out["left_id"].astype(np.int64)
    out["right_id"] = out["right_id"].astype(np.int64)
    return out.sort_values(["left_id", "right_id"], kind="mergesort").reset_index(
        drop=True
    )


def q_local_supplier_revenue(sf_dir: str):
    """TPC-H Q5-shaped cycle join: 1996 revenue from lineitems whose
    CUSTOMER and SUPPLIER sit in the same nation — lineitem ⋈ orders ⋈
    customer ⋈ supplier with the c_nationkey = s_nationkey cycle predicate,
    grouped by nation. Three slim task-level cogroups with aggregation
    pushed below each exchange (same plan shape as brand_nation_revenue /
    Q9): orders are date-filtered BEFORE the first exchange, stage 1 folds
    lineitem⋈orders to (custkey, suppkey) revenue partials, stage 2 swaps
    custkey for the customer's nation, stage 3 keeps only suppliers of the
    SAME nation. Only the tiny nation-name dimension is a driver lookup.
    Cents lanes stay split whole/remainder across all exchanges."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    supplier = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation_tbl = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    def in_window(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy(zero_copy_only=False)
        keep = (d >= lo) & (d < hi)
        return pa.table(
            {
                "o_orderkey": pc.array_filter(t["o_orderkey"], pa.array(keep)),
                "o_custkey": pc.array_filter(t["o_custkey"], pa.array(keep)),
            }
        )

    orders96 = orders.map_batches(in_window, batch_format="pyarrow")

    _E1 = pd.DataFrame(
        {
            "o_custkey": pd.Series([], dtype=np.int64),
            "l_suppkey": pd.Series([], dtype=np.int64),
            "rev_w": pd.Series([], dtype=np.int64),
            "rev_r": pd.Series([], dtype=np.int64),
        }
    )

    def stage1(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or o_pdf.empty:
            return _E1.copy()
        m = l_pdf.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        if m.empty:
            return _E1.copy()
        ext_c = np.round(m["l_extendedprice"].to_numpy(np.float64) * 100).astype(np.int64)
        disc_h = np.round(m["l_discount"].to_numpy(np.float64) * 100).astype(np.int64)
        m = m.assign(u=ext_c * (100 - disc_h))
        g = m.groupby(["o_custkey", "l_suppkey"], as_index=False)["u"].sum()
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].astype(np.int64),
                "l_suppkey": g["l_suppkey"].astype(np.int64),
                "rev_w": (g["u"] // 10_000).astype(np.int64),
                "rev_r": (g["u"] % 10_000).astype(np.int64),
            }
        )

    cust_supp = hash_exchange_cogroup(
        li, orders96, ["l_orderkey"], ["o_orderkey"], stage1, default_join_partitions()
    )

    _E2 = pd.DataFrame(
        {
            "c_nationkey": pd.Series([], dtype=np.int64),
            "l_suppkey": pd.Series([], dtype=np.int64),
            "rev_w": pd.Series([], dtype=np.int64),
            "rev_r": pd.Series([], dtype=np.int64),
        }
    )

    def stage2(cs_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        if cs_pdf.empty or c_pdf.empty:
            return _E2.copy()
        m = cs_pdf.merge(c_pdf, left_on="o_custkey", right_on="c_custkey")
        if m.empty:
            return _E2.copy()
        g = m.groupby(["c_nationkey", "l_suppkey"], as_index=False).agg(
            rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
        )
        for c in ("c_nationkey", "l_suppkey", "rev_w", "rev_r"):
            g[c] = g[c].astype(np.int64)
        return g

    nat_supp = hash_exchange_cogroup(
        cust_supp, customer, ["o_custkey"], ["c_custkey"], stage2,
        default_join_partitions(),
    )

    _E3 = pd.DataFrame(
        {
            "nationkey": pd.Series([], dtype=np.int64),
            "rev_w": pd.Series([], dtype=np.int64),
            "rev_r": pd.Series([], dtype=np.int64),
        }
    )

    def stage3(ns_pdf: pd.DataFrame, s_pdf: pd.DataFrame) -> pd.DataFrame:
        if ns_pdf.empty or s_pdf.empty:
            return _E3.copy()
        m = ns_pdf.merge(s_pdf, left_on="l_suppkey", right_on="s_suppkey")
        m = m[m["c_nationkey"] == m["s_nationkey"]]
        if m.empty:
            return _E3.copy()
        g = m.groupby("c_nationkey", as_index=False).agg(
            rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
        )
        return pd.DataFrame(
            {
                "nationkey": g["c_nationkey"].astype(np.int64),
                "rev_w": g["rev_w"].astype(np.int64),
                "rev_r": g["rev_r"].astype(np.int64),
            }
        )

    partials = hash_exchange_cogroup(
        nat_supp, supplier, ["l_suppkey"], ["s_suppkey"], stage3,
        default_join_partitions(),
    ).to_pandas()
    if partials.empty:
        partials = _E3.copy()
    agg = partials.groupby("nationkey", as_index=False).agg(
        rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
    )
    rev_c = _cents_from_lanes(agg["rev_w"], agg["rev_r"])
    out = pd.DataFrame(
        {"n_name": agg["nationkey"].map(nation_map), "revenue": rev_c / 100.0}
    )
    return out.sort_values("revenue", ascending=False, kind="mergesort").reset_index(
        drop=True
    )


def q_customer_order_distribution(sf_dir: str):
    """TPC-H Q13-shaped distribution: how many customers placed exactly k
    orders, INCLUDING k = 0 (the left-join subtlety — zero-order customers
    exist only on the customer side). Plan: per-batch partial order counts
    per custkey → one custkey groupby → LEFT cogroup with the customer key
    column (missing side = count 0) that folds straight to per-partition
    (c_count, custdist) partials — the driver only ever sees the tiny
    histogram."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def order_partial(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals, cnt = np.unique(ck, return_counts=True)
        return pa.table(
            {"o_custkey": pa.array(vals), "n": pa.array(cnt.astype(np.int64))}
        )

    counts = (
        orders.map_batches(order_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("n", alias_name="n"))
    )

    _E = pd.DataFrame(
        {
            "c_count": pd.Series([], dtype=np.int64),
            "custdist": pd.Series([], dtype=np.int64),
        }
    )

    def hist_partial(c_pdf: pd.DataFrame, n_pdf: pd.DataFrame) -> pd.DataFrame:
        if c_pdf.empty:
            return _E.copy()
        m = c_pdf.merge(
            n_pdf, left_on="c_custkey", right_on="o_custkey", how="left"
        )
        cc = m["n"].fillna(0).astype(np.int64)
        vals, cnt = np.unique(cc.to_numpy(), return_counts=True)
        return pd.DataFrame(
            {"c_count": vals.astype(np.int64), "custdist": cnt.astype(np.int64)}
        )

    partials = hash_exchange_cogroup(
        customer, counts, ["c_custkey"], ["o_custkey"], hist_partial,
        default_join_partitions(),
    ).to_pandas()
    if partials.empty:
        partials = _E.copy()
    out = partials.groupby("c_count", as_index=False)["custdist"].sum()
    out["c_count"] = out["c_count"].astype(np.int64)
    out["custdist"] = out["custdist"].astype(np.int64)
    return out.sort_values(
        ["custdist", "c_count"], ascending=[False, False], kind="mergesort"
    ).reset_index(drop=True)


def q_rich_inactive_customers(sf_dir: str):
    """TPC-H Q22-shaped anti-join with a scalar-subquery threshold: per
    nation, the count and total balance of customers whose balance exceeds
    the average POSITIVE balance and who placed no order since 2000-01-01
    (every fixture customer has SOME order, so plain Q22 "never ordered"
    is vacuous — "gone quiet" is the same anti-join shape with a date
    predicate pushed into the read side). The threshold comparison runs in
    EXACT integers on both engines (cents·N > S ⟺ balance > S/N — no
    float average, no boundary drift, the third-scale-gate lesson), the
    global (S, N) pair is two per-batch integer partials, and the
    anti-join is one custkey cogroup against per-batch-deduped recent
    order keys. Totals are exact cents."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal"]
    ).materialize()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )
    nation_tbl = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        pos = cents[cents > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    bp = customer.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    s_total = int(bp["s"].sum())
    n_total = int(bp["n"].sum())

    def rich(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        keep = cents * n_total > s_total  # exact-int form of bal > S/N
        return pa.table(
            {
                "c_custkey": pc.array_filter(t["c_custkey"], pa.array(keep)),
                "c_nationkey": pc.array_filter(t["c_nationkey"], pa.array(keep)),
                "bal_c": pa.array(cents[keep]),
            }
        )

    rich_ds = customer.map_batches(rich, batch_format="pyarrow")

    cutoff = np.datetime64("2000-01-01")

    def order_keys(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"o_custkey": pa.array(np.unique(ck[d >= cutoff]))})

    okeys = orders.map_batches(order_keys, batch_format="pyarrow")

    _E = pd.DataFrame(
        {
            "c_nationkey": pd.Series([], dtype=np.int64),
            "numcust": pd.Series([], dtype=np.int64),
            "bal_c": pd.Series([], dtype=np.int64),
        }
    )

    def anti_fold(r_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if r_pdf.empty:
            return _E.copy()
        inactive = r_pdf[~r_pdf["c_custkey"].isin(set(o_pdf["o_custkey"].tolist()))]
        if inactive.empty:
            return _E.copy()
        g = inactive.groupby("c_nationkey", as_index=False).agg(
            numcust=("c_custkey", "size"), bal_c=("bal_c", "sum")
        )
        for c in ("c_nationkey", "numcust", "bal_c"):
            g[c] = g[c].astype(np.int64)
        return g

    partials = hash_exchange_cogroup(
        rich_ds, okeys, ["c_custkey"], ["o_custkey"], anti_fold,
        default_join_partitions(),
    ).to_pandas()
    if partials.empty:
        partials = _E.copy()
    agg = partials.groupby("c_nationkey", as_index=False).agg(
        numcust=("numcust", "sum"), bal_c=("bal_c", "sum")
    )
    out = pd.DataFrame(
        {
            "n_name": agg["c_nationkey"].map(nation_map),
            "numcust": agg["numcust"].astype(np.int64),
            "totacctbal": agg["bal_c"].to_numpy(dtype=np.int64) / 100.0,
        }
    )
    return out.sort_values("n_name", kind="mergesort").reset_index(drop=True)


def q_zone_pruned_stats(sf_dir: str):
    """Zone-map pruned scan (the Iceberg/Delta file-skipping idea at shard
    granularity): documents land as length-bucketed shards whose manifests
    carry per-shard [min, max] of n_chars; the length-band query then
    opens ONLY the shards whose zone can intersect — on a 100 TB corpus
    that is the difference between a full scan and a few directory reads.
    Zone maps only PRUNE (sources/sink.read_sharded_parquet), so an exact
    row filter follows; the aggregate matches the plain full-scan SQL
    oracle, certifying the pruning lost nothing. The write is resumable
    (per-shard manifests) and keyed by sf_dir, so repeat runs skip it."""
    import hashlib

    from entity_resolution_engine_ray.sources.sink import (
        read_sharded_parquet,
        write_sharded_parquet,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", pc.divide(t["n_chars"], pa.scalar(100, pa.int64()))
        )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/er_zone_shards_{tag}"
    write_sharded_parquet(
        ds.map_batches(bucketed, batch_format="pyarrow"),
        out_dir,
        "bucket",
        params_hash=f"zonev1|{sf_dir}",
        zone_cols=["n_chars"],
    )

    lo, hi = 200, 399
    pruned = read_sharded_parquet(out_dir, zone_filter={"n_chars": (lo, hi)})

    def exact(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t["n_chars"], pa.scalar(lo, pa.int64())),
            pc.less_equal(t["n_chars"], pa.scalar(hi, pa.int64())),
        )
        t = t.filter(keep)
        pdf = pd.DataFrame(
            {
                "lang": t["lang"].to_pylist(),
                "n_chars": t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = pdf.groupby("lang", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["sum_chars"] = g["sum_chars"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = pruned.map_batches(exact, batch_format="pyarrow").to_pandas()
    if partials.empty:
        return pd.DataFrame(
            {
                "lang": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype=np.int64),
                "sum_chars": pd.Series([], dtype=np.int64),
            }
        )
    out = partials.groupby("lang", as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["sum_chars"] = out["sum_chars"].astype(np.int64)
    return out.sort_values("lang", kind="mergesort").reset_index(drop=True)


def q_doc_char_entropy(sf_dir: str):
    """Per-doc character Shannon entropy (bits/char) — the cheap junk
    detector that catches what token rules miss: binary blobs and random
    padding read HIGH, repeated-character spam reads LOW; corpus pipelines
    band on it next to the Gopher rules. Embarrassingly parallel and fully
    vectorized: each batch builds ONE (rows × 256) byte-count matrix with a
    single ``np.add.at`` scatter (no per-doc Python loop), entropy is a
    rowwise log2 over it. 4-dp rounding absorbs the float-sum association
    difference vs the oracle's SUM (terms are ~dozens of doubles; drift is
    ~1e-10, four orders below the rounding grid — same money-lane argument
    as the ROUND aggregates)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_chars": pa.array([], type=pa.int64()),
                    "entropy": pa.array([], type=pa.float64()),
                }
            )
        texts = t["text"].to_pylist()
        # the fixture is single-byte text; non-ASCII would need a
        # codepoint histogram instead (the oracle splits on characters)
        joined = ("".join(s or "" for s in texts)).encode("utf-8", "surrogatepass")
        lens = np.array([len((s or "").encode("utf-8")) for s in texts], dtype=np.int64)
        row = np.repeat(np.arange(n, dtype=np.int64), lens)
        counts = np.zeros((n, 256), dtype=np.int64)
        if len(row):
            np.add.at(counts, (row, np.frombuffer(joined, dtype=np.uint8)), 1)
        tot = counts.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / np.maximum(tot, 1)[:, None]
            terms = np.where(counts > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        ent = terms.sum(axis=1)
        ent[tot == 0] = 0.0
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(tot, type=pa.int64()),
                "entropy": pa.array(_rha(ent, 4)),
            }
        )

    out = ds.map_batches(per_doc, batch_format="pyarrow").to_pandas()
    if out.empty:  # 0-row reads skip the lazy map — rebuild the typed frame
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "n_chars": pd.Series([], dtype=np.int64),
                "entropy": pd.Series([], dtype=np.float64),
            }
        )
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_range_sharded_export(sf_dir: str):
    """Range-partitioned export (the TeraSort layout): documents land in 8
    EQUAL-COUNT range shards of (n_chars, doc_id) order — the sorted,
    zone-mapped layout that makes later range scans open only the shards
    they need (zone_pruned_stats composes on exactly this). Shard
    assignment is the exact NTILE rule over the exact global rank
    (distributed sort + O(blocks) metadata prefix walk,
    stages/scan.grouped_prefix_sum — rows never leave their block), never
    a sampled-boundary approximation, so the layout is deterministic and
    the SQL oracle (`NTILE(8) OVER (ORDER BY n_chars, doc_id)`) matches
    it row-for-row. The returned per-shard stats (rows + [min, max]
    zones) are read from the MANIFESTS ALONE — zero data files opened —
    certifying both the assignment and the recorded zone maps."""
    import hashlib

    from entity_resolution_engine_ray.sources.sink import (
        shard_manifests,
        write_sharded_parquet,
    )
    from entity_resolution_engine_ray.stages.scan import grouped_prefix_sum

    n_shards = 8
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return t.append_column(
            "g", pa.array(np.zeros(n, dtype=np.int64), type=pa.int64())
        ).append_column("one", pa.array(np.ones(n, dtype=np.int64), type=pa.int64()))

    ranked = grouped_prefix_sum(
        ds.map_batches(tag, batch_format="pyarrow"), ["g"], ["n_chars", "doc_id"], "one", "rank"
    ).materialize()
    n_total = ranked.count()
    if n_total == 0:
        return pd.DataFrame(
            {
                "shard": pd.Series([], dtype=np.int64),
                "n_docs": pd.Series([], dtype=np.int64),
                "min_chars": pd.Series([], dtype=np.int64),
                "max_chars": pd.Series([], dtype=np.int64),
            }
        )
    q, m = divmod(n_total, n_shards)

    def assign(t: pa.Table) -> pa.Table:
        r0 = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64) - 1
        # NTILE: the first n_total % n_shards buckets take one extra row
        big = (q + 1) * m
        b = np.where(r0 < big, r0 // max(q + 1, 1), m + (r0 - big) // max(q, 1))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "bucket": pa.array(b + 1, type=pa.int64()),
            }
        )

    tagged = ranked.map_batches(assign, batch_format="pyarrow")
    tag_h = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/er_range_shards_{tag_h}"
    write_sharded_parquet(
        tagged, out_dir, "bucket", params_hash=f"rangev1|{sf_dir}", zone_cols=["n_chars"]
    )

    rows = [
        {
            "shard": np.int64(int(value)),
            "n_docs": np.int64(man["rows"]),
            "min_chars": np.int64(man["zones"]["n_chars"][0]),
            "max_chars": np.int64(man["zones"]["n_chars"][1]),
        }
        for value, man in shard_manifests(out_dir).items()
    ]
    out = pd.DataFrame(rows)
    return out.sort_values("shard", kind="mergesort").reset_index(drop=True)


def q_bloom_pruned_lookup(sf_dir: str):
    """Bloom-pruned point lookup — the equality-skipping complement of
    zone_pruned_stats: documents land HASH-scattered into 16 shards (so
    every shard's doc_id [min, max] spans the whole domain and zone maps
    can never prune), each manifest carrying a per-shard Bloom filter over
    doc_id; a 3-id lookup then opens only the shards whose filter may
    contain one of the ids — on a 100 TB corpus the difference between a
    full scan and ~3 directory reads. Blooms only PRUNE (false positives
    cost one extra shard read, false negatives cannot occur), an exact
    filter follows, and the plain full-scan SQL oracle certifies nothing
    was lost. A pruning-effectiveness floor is asserted: with 3 ids over
    16 shards at 1% fpp, at least half the shards must have been skipped."""
    import hashlib

    from entity_resolution_engine_ray.sources.sink import (
        pruned_shard_paths,
        read_sharded_parquet,
        write_sharded_parquet,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )

    def hash_shard(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shard = ((ids * np.uint64(2654435761)) % np.uint64(1 << 32)) % np.uint64(16)
        return t.append_column("bucket", pa.array(shard.astype(np.int64), type=pa.int64()))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/er_bloom_shards_{tag}"
    write_sharded_parquet(
        ds.map_batches(hash_shard, batch_format="pyarrow"),
        out_dir,
        "bucket",
        params_hash=f"bloomv1|{sf_dir}",
        bloom_cols=["doc_id"],
    )

    lookup_ids = [1, 2, 3]
    empty_out = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=np.int64),
            "lang": pd.Series([], dtype=object),
            "n_chars": pd.Series([], dtype=np.int64),
        }
    )
    from entity_resolution_engine_ray.sources.sink import shard_manifests

    if not shard_manifests(out_dir):  # empty corpus wrote no shards
        return empty_out
    _, skipped = pruned_shard_paths(out_dir, point_filter={"doc_id": lookup_ids})
    # pruning floor scales with the shards ACTUALLY present: a small or
    # skewed corpus can legitimately seal fewer than the nominal 16 shards,
    # and k lookup ids can keep at most k shards plus a false-positive
    # slack — only a shortfall beyond that means the filters aren't pruning
    n_shards = len(shard_manifests(out_dir))
    floor = max(0, n_shards - len(lookup_ids) - 5)
    if len(skipped) < floor:
        raise RuntimeError(
            f"bloom pruning skipped only {len(skipped)}/{n_shards} shards for a "
            f"{len(lookup_ids)}-id lookup (floor {floor}) — the filters are not pruning"
        )
    pruned = read_sharded_parquet(out_dir, point_filter={"doc_id": lookup_ids})

    def exact(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["doc_id"], value_set=pa.array(lookup_ids, type=pa.int64()))
        t = t.filter(keep)
        return t.select(["doc_id", "lang", "n_chars"])

    out = pruned.map_batches(exact, batch_format="pyarrow").to_pandas()
    if out.empty:
        return empty_out
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def _part_adjacency_edges(sf_dir: str):
    """(edges Dataset(s, t) both directions, materialized lineitem) for the
    part-adjacency graph: parts on CONSECUTIVE lineitem lines of the same
    order, undirected — the shared graph fixture of the BFS / k-core
    queries. Adjacency = the oracle's JOIN predicate exactly (ln_b =
    ln_a + 1 within the order) via a partition-local self-merge on one
    l_orderkey hash exchange."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_map_groups

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"],
    ).materialize()

    def consecutive(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame(
                {"s": pd.Series([], dtype="int64"), "t": pd.Series([], dtype="int64")}
            )
        # adjacency = the oracle's JOIN predicate exactly (ln_b = ln_a + 1
        # within the order) via a partition-local self-merge — the fixture
        # has duplicate (orderkey, linenumber) rows, so a sorted-adjacent
        # scan would MISS the cross-product pairs the join produces
        left = pd.DataFrame(
            {
                "l_orderkey": pdf["l_orderkey"].to_numpy(dtype=np.int64),
                "ln_next": pdf["l_linenumber"].to_numpy(dtype=np.int64) + 1,
                "pa": pdf["l_partkey"].to_numpy(dtype=np.int64),
            }
        )
        right = pd.DataFrame(
            {
                "l_orderkey": pdf["l_orderkey"].to_numpy(dtype=np.int64),
                "ln_next": pdf["l_linenumber"].to_numpy(dtype=np.int64),
                "pb": pdf["l_partkey"].to_numpy(dtype=np.int64),
            }
        )
        m = left.merge(right, on=["l_orderkey", "ln_next"])
        m = m[m["pa"] != m["pb"]]
        a = m["pa"].to_numpy(dtype=np.int64)
        b = m["pb"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "s": np.concatenate([a, b]),
                "t": np.concatenate([b, a]),
            }
        )

    edges = hash_exchange_map_groups(li, ["l_orderkey"], consecutive)
    return edges, li


def q_part_bfs_hops(sf_dir: str):
    """Distributed BFS hop distances (≤3) from the minimum part key over
    the part-adjacency graph (parts on CONSECUTIVE lineitem lines of the
    same order, undirected) — the iterative-frontier graph pattern next to
    PageRank's fixed-iteration one: edges are hash-partitioned ONCE and
    stay stationary; each round broadcasts only the frontier/visited id
    arrays and collects per-partition unvisited neighbors
    (stages/pagerank.bfs_hops). Layered BFS = minimal hop by construction,
    so the recursive-CTE MIN(d) oracle matches exactly (all 2000 parts
    reached within 3 hops at sf0.01)."""
    from entity_resolution_engine_ray.stages.pagerank import bfs_hops

    edges, li = _part_adjacency_edges(sf_dir)

    def min_part(t: pa.Table) -> pa.Table:
        return pa.table(
            {"m": pa.array([pc.min(t["l_partkey"]).as_py()], pa.int64())}
        )

    src = int(li.map_batches(min_part, batch_format="pyarrow").to_pandas()["m"].min())
    out = bfs_hops(edges, src, max_hops=3)
    return out.sort_values("node", kind="mergesort").reset_index(drop=True)


def q_part_kcore(sf_dir: str):
    """k-core membership (k=20) of the part-adjacency graph — the dense-
    subgraph screen (spam-cluster / community-core detection on link
    graphs). Iterative peel via stages/pagerank.kcore_nodes: stationary
    src-partitioned edges, each round broadcasts only the cumulative
    removed-node array; per-partition degree counts are FULL degrees (all
    of a src's edges co-locate), so no degree merge is needed. The k-core
    is unique, hence order-independent — the distributed peel equals the
    serial one exactly (pinned in tests); iterative fixpoint has no SQL
    form, so this entry is rows-only."""
    from entity_resolution_engine_ray.stages.pagerank import kcore_nodes

    edges, _ = _part_adjacency_edges(sf_dir)
    return kcore_nodes(edges, k=20)


def q_bucketed_join_segments(sf_dir: str):
    """Bucketed-storage join (the Hive/Spark bucketed-table pattern):
    customer and orders land ONCE as hash-bucketed tables (16 buckets on
    custkey, sealed resumable shards), then the join runs with ZERO
    exchange — one task per bucket reads bucket i of both sides straight
    from storage (sources/bucketed.bucketed_cogroup; the write IS the
    exchange, paid once and amortized over every future join of the
    table). Per-market-segment order count + exact-cents total price,
    certified against the plain-join SQL oracle."""
    import hashlib

    from entity_resolution_engine_ray.sources.bucketed import (
        bucketed_cogroup,
        write_bucketed_parquet,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    cdir = f"/tmp/er_bucketed_cust_{tag}"
    odir = f"/tmp/er_bucketed_ord_{tag}"
    write_bucketed_parquet(
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        ),
        cdir,
        "c_custkey",
        16,
        params_hash=f"bucketv1|{sf_dir}",
    )
    write_bucketed_parquet(
        rd.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ),
        odir,
        "o_custkey",
        16,
        params_hash=f"bucketv1|{sf_dir}",
    )

    _E = pd.DataFrame(
        {
            "c_mktsegment": pd.Series([], dtype=object),
            "n_orders": pd.Series([], dtype=np.int64),
            "price_c": pd.Series([], dtype=np.int64),
        }
    )

    def seg_fold(c_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if c_pdf.empty or o_pdf.empty:
            return _E.copy()
        m = c_pdf.merge(o_pdf, left_on="c_custkey", right_on="o_custkey")
        if m.empty:
            return _E.copy()
        m["price_c"] = np.round(
            m["o_totalprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        g = m.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("o_custkey", "size"), price_c=("price_c", "sum")
        )
        g["n_orders"] = g["n_orders"].astype(np.int64)
        g["price_c"] = g["price_c"].astype(np.int64)
        return g

    partials = bucketed_cogroup(cdir, odir, seg_fold).to_pandas()
    if partials.empty:
        partials = _E.copy()
    agg = partials.groupby("c_mktsegment", as_index=False).agg(
        n_orders=("n_orders", "sum"), price_c=("price_c", "sum")
    )
    out = pd.DataFrame(
        {
            "c_mktsegment": agg["c_mktsegment"],
            "n_orders": agg["n_orders"].astype(np.int64),
            "total_price": agg["price_c"].to_numpy(dtype=np.int64) / 100.0,
        }
    )
    return out.sort_values("c_mktsegment", kind="mergesort").reset_index(drop=True)


def q_doc_jaccard_join(sf_dir: str):
    """EXACT k-shingle Jaccard set-similarity self-join (threshold 0.7) via
    lossless PPJoin-style prefix filtering — the no-recall-asterisk
    counterpart of near_dup_minhash: candidates from the prefix-filtering
    principle (complete by construction), exact-Jaccard verify, same salted
    one-exchange machinery (stages/dedup.prefix_jaccard_self_join). The
    oracle is the exhaustive cross-join; equality certifies the blocking is
    lossless, not just well-calibrated. dropped is asserted zero — for an
    exact operator a skew-cap drop is a wrong answer, not a recall trade."""
    from entity_resolution_engine_ray.stages.dedup import prefix_jaccard_self_join

    edges, dropped = prefix_jaccard_self_join(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
        threshold=0.7,
    )
    if dropped:
        raise RuntimeError(
            f"prefix_jaccard_self_join dropped {dropped} pairs — raise "
            "max_block_size; an exact join must not drop"
        )
    out = edges.to_pandas()
    out["jaccard"] = round_half_away(out["jaccard"].to_numpy(), 4)
    return out.sort_values(["left_id", "right_id"], kind="mergesort").reset_index(
        drop=True
    )


def q_doc_containment(sf_dir: str):
    """EXACT asymmetric containment self-join (threshold 0.8): directed
    pairs where |S(src) ∩ S(dst)| / |S(src)| ≥ 0.8 over 3-token shingles —
    the quote-inclusion / near-superset detector Jaccard dilutes away
    (stages/containment: lossless src-side prefix filtering + full dst
    index, one slim shingle exchange, candidate dedup, two co-partitioned
    token-attach cogroups). The oracle is the exhaustive shingle join, so
    equality certifies the asymmetric prefix blocking lossless."""
    from entity_resolution_engine_ray.stages.containment import containment_self_join

    edges, dropped = containment_self_join(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
        threshold=0.8,
    )
    if dropped:
        raise RuntimeError(
            f"containment_self_join dropped up to {dropped} candidates (an "
            "upper bound — self-pairs and other-shingle re-derivations are "
            "counted too) — raise max_block_size; an exact join must not drop"
        )
    out = edges.to_pandas()
    if out.empty:  # zero-row Datasets drop columns on to_pandas
        return pd.DataFrame(
            {
                "src_id": pd.Series([], dtype=np.int64),
                "dst_id": pd.Series([], dtype=np.int64),
                "containment": pd.Series([], dtype=np.float64),
            }
        )
    out["containment"] = round_half_away(out["containment"].to_numpy(), 4)
    return out.sort_values(["src_id", "dst_id"], kind="mergesort").reset_index(drop=True)


def q_part_skyline(sf_dir: str):
    """Pareto skyline of parts (minimize p_retailprice AND p_size): exact
    two-phase dominance filter — streaming per-block local skyline, then
    one final pass over the (small) union of local survivors
    (stages/skyline.py). Values pass through unfiltered columns untouched,
    so doubles hash identically to the oracle's."""
    from entity_resolution_engine_ray.stages.skyline import skyline_stage

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_retailprice", "p_size"]
    )
    return skyline_stage(ds, "p_retailprice", "p_size")


def q_nation_trade_volume(sf_dir: str):
    """TPC-H Q7-shaped trade-flow matrix: 1996 revenue between every
    DIFFERENT (supplier nation → customer nation) pair — the cross-border
    complement of local_supplier_revenue's same-nation cycle join, same
    three-slim-cogroup plan with aggregation pushed below each exchange:
    orders date-filter before the first exchange, lineitem⋈orders folds to
    (custkey, suppkey) revenue lanes, customer swap-in attaches the buyer
    nation, supplier swap-in attaches the seller nation and keeps only
    cross pairs. Partials are bounded by |nations|² per partition; cents
    lanes stay split whole/remainder (exact at any partition count)."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    supplier = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation_tbl = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    def in_window(t: pa.Table) -> pa.Table:
        keep = pa.array(
            (t["o_orderdate"].to_numpy(zero_copy_only=False) >= lo)
            & (t["o_orderdate"].to_numpy(zero_copy_only=False) < hi)
        )
        return pa.table(
            {
                "o_orderkey": pc.array_filter(t["o_orderkey"], keep),
                "o_custkey": pc.array_filter(t["o_custkey"], keep),
            }
        )

    def _empty(cols: list[str]) -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})

    def stage1(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        cols = ["o_custkey", "l_suppkey", "rev_w", "rev_r"]
        if l_pdf.empty or o_pdf.empty:
            return _empty(cols)
        m = l_pdf.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        if m.empty:
            return _empty(cols)
        ext_c = np.round(m["l_extendedprice"].to_numpy(np.float64) * 100).astype(np.int64)
        disc_h = np.round(m["l_discount"].to_numpy(np.float64) * 100).astype(np.int64)
        g = m.assign(u=ext_c * (100 - disc_h)).groupby(
            ["o_custkey", "l_suppkey"], as_index=False
        )["u"].sum()
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].astype(np.int64),
                "l_suppkey": g["l_suppkey"].astype(np.int64),
                "rev_w": (g["u"] // 10_000).astype(np.int64),
                "rev_r": (g["u"] % 10_000).astype(np.int64),
            }
        )

    def stage2(cs_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        cols = ["c_nationkey", "l_suppkey", "rev_w", "rev_r"]
        if cs_pdf.empty or c_pdf.empty:
            return _empty(cols)
        m = cs_pdf.merge(c_pdf, left_on="o_custkey", right_on="c_custkey")
        if m.empty:
            return _empty(cols)
        g = m.groupby(["c_nationkey", "l_suppkey"], as_index=False).agg(
            rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
        )
        return g.astype({c: np.int64 for c in cols})

    def stage3(ns_pdf: pd.DataFrame, s_pdf: pd.DataFrame) -> pd.DataFrame:
        cols = ["s_nationkey", "c_nationkey", "rev_w", "rev_r"]
        if ns_pdf.empty or s_pdf.empty:
            return _empty(cols)
        m = ns_pdf.merge(s_pdf, left_on="l_suppkey", right_on="s_suppkey")
        m = m[m["c_nationkey"] != m["s_nationkey"]]
        if m.empty:
            return _empty(cols)
        g = m.groupby(["s_nationkey", "c_nationkey"], as_index=False).agg(
            rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
        )
        return g[cols].astype({c: np.int64 for c in cols})

    cust_supp = hash_exchange_cogroup(
        li,
        orders.map_batches(in_window, batch_format="pyarrow"),
        ["l_orderkey"], ["o_orderkey"], stage1, default_join_partitions(),
    )
    nat_supp = hash_exchange_cogroup(
        cust_supp, customer, ["o_custkey"], ["c_custkey"], stage2,
        default_join_partitions(),
    )
    partials = hash_exchange_cogroup(
        nat_supp, supplier, ["l_suppkey"], ["s_suppkey"], stage3,
        default_join_partitions(),
    ).to_pandas()
    if partials.empty:
        partials = _empty(["s_nationkey", "c_nationkey", "rev_w", "rev_r"])
    agg = partials.groupby(["s_nationkey", "c_nationkey"], as_index=False).agg(
        rev_w=("rev_w", "sum"), rev_r=("rev_r", "sum")
    )
    rev_c = _cents_from_lanes(agg["rev_w"], agg["rev_r"])
    out = pd.DataFrame(
        {
            "supp_nation": agg["s_nationkey"].map(nation_map),
            "cust_nation": agg["c_nationkey"].map(nation_map),
            "revenue": rev_c / 100.0,
        }
    )
    return out.sort_values(["supp_nation", "cust_nation"], kind="mergesort").reset_index(
        drop=True
    )


def q_customer_rfm(sf_dir: str):
    """RFM customer segmentation (recency / frequency / monetary) — the
    classic marketing-analytics composition: per-customer order aggregates,
    then THREE independent exact global rankings quantized to quintile
    scores 1–5 (5 = best). Aggregation is two-level (per-batch partial
    groupby → one custkey-partitioned finish), and each ranking reuses the
    doc_quality_decile machinery: distributed sort by (metric, custkey) +
    O(blocks) metadata prefix-offset walk — rows never leave their block
    and ties split deterministically like ROW_NUMBER. Monetary sums are
    exact integer cents, so rank order is drift-free at any partition
    count. Scores quantize with pure-integer math (1 + (rank-1)*5 // n)."""
    from entity_resolution_engine_ray.stages.scan import grouped_prefix_sum

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
        )
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        g = (
            pd.DataFrame({"c_custkey": ck, "last_us": d, "cents": cents})
            .groupby("c_custkey", as_index=False)
            .agg(last_us=("last_us", "max"), n_orders=("last_us", "size"), cents=("cents", "sum"))
        )
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        return g

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("c_custkey", as_index=False).agg(
            last_us=("last_us", "max"), n_orders=("n_orders", "sum"), cents=("cents", "sum")
        )
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        g["g"] = np.int64(0)
        g["one"] = np.int64(1)
        return g

    agg = partition_map_groups(
        orders.map_batches(partial, batch_format="pyarrow"), ["c_custkey"], finish
    )
    ranked = grouped_prefix_sum(agg, ["g"], ["last_us", "c_custkey"], "one", "rr")
    ranked = grouped_prefix_sum(ranked, ["g"], ["n_orders", "c_custkey"], "one", "fr")
    ranked = grouped_prefix_sum(ranked, ["g"], ["cents", "c_custkey"], "one", "mr")
    n_total = ranked.count()
    if n_total == 0:
        return pd.DataFrame(
            {
                c: pd.Series([], dtype=np.int64)
                for c in ("c_custkey", "r_score", "f_score", "m_score", "rfm")
            }
        )

    def score(t: pa.Table) -> pa.Table:
        def quint(col: str) -> np.ndarray:
            rk = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            return 1 + (rk - 1) * 5 // n_total

        r, f, m = quint("rr"), quint("fr"), quint("mr")
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "r_score": pa.array(r),
                "f_score": pa.array(f),
                "m_score": pa.array(m),
                "rfm": pa.array(r * 100 + f * 10 + m),
            }
        )

    out = ranked.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values("c_custkey", kind="mergesort").reset_index(drop=True)


def q_ab_test_welch(sf_dir: str):
    """A/B-experiment readout with Welch's unequal-variance t-test — the
    hypothesis-testing primitive behind every data-driven rollout: users
    are split into two arms by a deterministic hash (_knuth32 % 2, so the
    assignment is reproducible on any cluster with no stored mapping) and
    the purchase-value metric is compared. ONE streaming pass, NO shuffle:
    each batch emits exact integer-cents moment partials (n, Σc, Σc²) per
    arm — order-invariant ints, so distributed == serial at any partition
    count — and the driver sums the bounded partials in Python big-int
    (Σc² would saturate int64 only ~10⁵× past this fixture). Mean, sample
    variance, t and the Welch–Satterthwaite df are then evaluated as the
    SAME float64 expression the SQL oracle writes: identical operands in
    identical order → identical IEEE results."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    def moments(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        arm = _knuth32(t["user_id"].to_numpy(zero_copy_only=False)) % 2
        c = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        rows = []
        for a in (0, 1):
            ca = c[arm == a]
            rows.append((a, len(ca), int(ca.sum()), int((ca * ca).sum())))
        return pa.table(
            {
                "arm": pa.array([r[0] for r in rows], type=pa.int64()),
                "n": pa.array([r[1] for r in rows], type=pa.int64()),
                "s": pa.array([r[2] for r in rows], type=pa.int64()),
                "ssq": pa.array([r[3] for r in rows], type=pa.int64()),
            }
        )

    p = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    stat = {}
    for a in (0, 1):
        pa_rows = p[p["arm"] == a]
        # Python big-int finish: exact at any scale
        n = int(pa_rows["n"].sum())
        s = sum(int(v) for v in pa_rows["s"])
        ssq = sum(int(v) for v in pa_rows["ssq"])
        mean = s / (n * 100.0)
        var = float(n * ssq - s * s) / (n * (n - 1.0)) / 10000.0
        stat[a] = (n, mean, var)
    (n_a, mean_a, var_a), (n_b, mean_b, var_b) = stat[0], stat[1]
    se_a, se_b = var_a / n_a, var_b / n_b
    t_stat = (mean_a - mean_b) / np.sqrt(se_a + se_b)
    df = (se_a + se_b) * (se_a + se_b) / (
        se_a * se_a / (n_a - 1.0) + se_b * se_b / (n_b - 1.0)
    )
    r4 = lambda v: float(_rha(v, 4))  # noqa: E731
    return pd.DataFrame(
        {
            "n_a": pd.Series([n_a], dtype=np.int64),
            "n_b": pd.Series([n_b], dtype=np.int64),
            "mean_a": [r4(mean_a)],
            "mean_b": [r4(mean_b)],
            "var_a": [r4(var_a)],
            "var_b": [r4(var_b)],
            "t_stat": [r4(t_stat)],
            "df": [r4(df)],
        }
    )


def q_user_event_3grams(sf_dir: str):
    """Behavioral trigram mining — the sequence-mining primitive behind
    funnel discovery and session-pattern features: the 20 most common
    consecutive ``(t1, t2, t3)`` event-type triples within a user's
    timeline (ordered by ts, event_id). ONE user_id hash shuffle; inside
    each partition the timeline sort and the shifted triple pairing are
    vectorized (the event_transitions LEAD pattern extended to depth 2).
    Partials are bounded by |types|³ × partitions, so the finish-sum and
    global top-20 are a driver-side pandas groupby over a tiny frame.
    Ties at the top-20 boundary are broken by the total order
    (n desc, t1, t2, t3) — deterministic and mirrored in the oracle."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def tri(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "t1": pd.Series([], dtype=str),
                "t2": pd.Series([], dtype=str),
                "t3": pd.Series([], dtype=str),
                "n": pd.Series([], dtype=np.int64),
            }
        )
        if len(pdf) < 3:
            return empty
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        us = pdf["user_id"].to_numpy()
        et = pdf["event_type"].to_numpy()
        same = (us[2:] == us[:-2]) & (us[1:-1] == us[:-2])
        if not same.any():
            return empty
        g = (
            pd.DataFrame({"t1": et[:-2][same], "t2": et[1:-1][same], "t3": et[2:][same]})
            .groupby(["t1", "t2", "t3"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    partials = partition_map_groups(ds, ["user_id"], tri).to_pandas()
    if partials.empty:
        return partials
    out = partials.groupby(["t1", "t2", "t3"], sort=False)["n"].sum().reset_index(name="n")
    out["n"] = out["n"].astype(np.int64)
    out = out.sort_values(
        ["n", "t1", "t2", "t3"], ascending=[False, True, True, True], kind="mergesort"
    )
    return out.head(20).reset_index(drop=True)


def q_doc_filter_funnel(sf_dir: str):
    """Filter-cascade attrition report — the first diagnostic a training-
    data curator runs on a new quality pipeline: how many documents survive
    each successive filter (min tokens → mean token length → distinct-token
    ratio → language whitelist) and how many each stage drops. ONE
    streaming pass, NO shuffle: every batch computes its cumulative
    per-stage survivor counts (5 ints) and the driver sums the bounded
    partials — at 100 TB this is a single map_batches scan. All predicates
    are integer cross-multiplications (nc*10 >= 52*nt rather than
    nc/nt >= 5.2), so distributed == serial at any scale with no float
    drift. The per-row distinct-token count is fully vectorized:
    ascii whitespace split → dictionary-encode the flat token array →
    lexsort (row, code) → count adjacent transitions (assumes tokens are
    maximal ASCII-nonspace runs, which the TOKEN_PATTERN oracle certifies
    on this input)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "lang"])
    stage_names = [
        "all",
        "min_tokens_25",
        "mean_token_len_5.2",
        "distinct_ratio_0.4",
        "lang_whitelist",
    ]

    def partial(t: pa.Table) -> pa.Table:
        nt = pc.cast(pc.count_substring_regex(t["text"], TOKEN_PATTERN), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        nc = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy(zero_copy_only=False)
        # per-row distinct token count, vectorized end to end
        lst = pc.ascii_split_whitespace(t["text"])
        lst = lst.combine_chunks() if isinstance(lst, pa.ChunkedArray) else lst
        offs = lst.offsets.to_numpy(zero_copy_only=False)
        flat = lst.flatten()
        counts = np.diff(offs)
        rows = np.repeat(np.arange(len(t), dtype=np.int64), counts)
        codes = pc.indices_nonzero(pc.not_equal(flat, ""))  # indices of real tokens
        keep = codes.to_numpy(zero_copy_only=False)
        denc = pc.dictionary_encode(flat)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        tok_code = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rows_k, code_k = rows[keep], tok_code[keep]
        order = np.lexsort((code_k, rows_k))
        rk, ck = rows_k[order], code_k[order]
        new = np.ones(len(rk), dtype=np.int64)
        if len(rk) > 1:
            new[1:] = ((rk[1:] != rk[:-1]) | (ck[1:] != ck[:-1])).astype(np.int64)
        nd = np.zeros(len(t), dtype=np.int64)
        if len(rk):
            np.add.at(nd, rk, new)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        m1 = nt >= 25
        m2 = m1 & (nc * 10 >= 52 * nt)
        m3 = m2 & (nd * 5 >= 2 * nt)
        m4 = m3 & np.isin(lang, ("en", "de", "fr"))
        return pa.table(
            {
                "stage_idx": pa.array(np.arange(5, dtype=np.int64)),
                "n_pass": pa.array(
                    [len(t), int(m1.sum()), int(m2.sum()), int(m3.sum()), int(m4.sum())],
                    type=pa.int64(),
                ),
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if p.empty:
        sums = np.zeros(5, dtype=np.int64)
    else:
        sums = (
            p.groupby("stage_idx", sort=True)["n_pass"].sum().reindex(range(5), fill_value=0)
        ).to_numpy(np.int64)
    dropped = np.concatenate([[0], sums[:-1] - sums[1:]]).astype(np.int64)
    return pd.DataFrame(
        {
            "stage_idx": np.arange(5, dtype=np.int64),
            "stage": stage_names,
            "n_pass": sums,
            "n_dropped": dropped,
        }
    )


def q_events_hourly_gapfill(sf_dir: str):
    """Time-grid resample with gap filling (the time-series densify every
    metrics store needs): per user, ONE row for EVERY hour between the
    user's first and last event — hours with no events included — carrying
    the exact-integer-cents cumulative value as of that hour's end. One
    user_id hash exchange; inside each partition the dense grid is built
    fully vectorized (per-user spans via repeat + exclusive-prefix-sum
    offsets, hourly sums scattered by position, grouped cumsum with a
    base-subtract reset — no Python loop over users or hours). 100-TB
    shape: output is O(active user-hours) and ordering is only needed
    WITHIN a key, so no global sort; partitioning assumption: one user's
    hour span fits a worker (true for per-user event streams)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def gapfill(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "hour_bucket": pd.Series([], dtype=np.int64),
                    "cum_value": pd.Series([], dtype=np.float64),
                }
            )
        hb = pdf["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 3_600_000_000
        cents = np.round(pdf["value"].to_numpy(np.float64) * 100).astype(np.int64)
        g = (
            pd.DataFrame({"u": pdf["user_id"].to_numpy(np.int64), "hb": hb, "c": cents})
            .groupby(["u", "hb"], sort=True)["c"]
            .sum()
            .reset_index()
        )
        bounds = g.groupby("u", sort=True)["hb"].agg(["min", "max"])
        users = bounds.index.to_numpy(np.int64)
        h0 = bounds["min"].to_numpy(np.int64)
        spans = bounds["max"].to_numpy(np.int64) - h0 + 1
        starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        total = int(spans.sum())
        grid_u = np.repeat(users, spans)
        grid_h = np.repeat(h0, spans) + (np.arange(total) - np.repeat(starts, spans))
        vals = np.zeros(total, dtype=np.int64)
        uidx = np.searchsorted(users, g["u"].to_numpy(np.int64))
        pos = starts[uidx] + (g["hb"].to_numpy(np.int64) - h0[uidx])
        vals[pos] = g["c"].to_numpy(np.int64)
        cum = np.cumsum(vals)
        base = np.concatenate([[0], cum])[starts]
        cum -= np.repeat(base, spans)
        return pd.DataFrame(
            {
                "user_id": grid_u,
                "hour_bucket": grid_h,
                "cum_value": cum.astype(np.float64) / 100.0,
            }
        )

    return partition_map_groups(ds, ["user_id"], gapfill)


def q_zorder_pruned_scan(sf_dir: str):
    """Z-order (Morton) multi-column layout — the OPTIMIZE ZORDER BY idea:
    documents land z-ordered by (doc_id, n_chars) through
    sources/zorder.write_zordered_parquet (equi-depth buckets from the
    mergeable histogram sketch, bits interleaved into the shard id), so the
    per-shard zone maps stay tight on BOTH columns and a range predicate on
    EITHER prunes shards without opening a data file — a single-column sort
    can only do that for one column. Zones only prune; the exact row filter
    follows, and the per-lang aggregate matches the full-scan SQL oracle,
    certifying the layout lost nothing. Resumable: sealed shards keyed by
    sf_dir are skipped on repeat runs."""
    import hashlib

    from entity_resolution_engine_ray.sources.sink import read_sharded_parquet
    from entity_resolution_engine_ray.sources.zorder import write_zordered_parquet

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/er_zorder_shards_{tag}"
    write_zordered_parquet(
        ds, out_dir, ["doc_id", "n_chars"], bits=3, params_hash=f"zorderv1|{sf_dir}"
    )

    id_lo, id_hi, nc_lo, nc_hi = 10, 199, 150, 350
    pruned = read_sharded_parquet(
        out_dir, zone_filter={"doc_id": (id_lo, id_hi), "n_chars": (nc_lo, nc_hi)}
    )

    def exact(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(t["doc_id"], pa.scalar(id_lo, pa.int64())),
                pc.less_equal(t["doc_id"], pa.scalar(id_hi, pa.int64())),
            ),
            pc.and_(
                pc.greater_equal(t["n_chars"], pa.scalar(nc_lo, pa.int64())),
                pc.less_equal(t["n_chars"], pa.scalar(nc_hi, pa.int64())),
            ),
        )
        t = t.filter(keep)
        pdf = pd.DataFrame(
            {
                "lang": t["lang"].to_pylist(),
                "n_chars": t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = pdf.groupby("lang", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["sum_chars"] = g["sum_chars"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = pruned.map_batches(exact, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "lang": pd.Series([], dtype=str),
                "n_docs": pd.Series([], dtype=np.int64),
                "sum_chars": pd.Series([], dtype=np.int64),
            }
        )
    out = parts.groupby("lang", as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["sum_chars"] = out["sum_chars"].astype(np.int64)
    return out.sort_values("lang", kind="mergesort").reset_index(drop=True)


def q_doc_dsir_weights(sf_dir: str):
    """DSIR-style importance weights (data selection via importance
    resampling, hashed bag-of-words form): score every document by
    log p_target(doc) − log p_raw(doc) under Laplace-smoothed unigram
    models over 256 md5-hashed token buckets, target = the English slice
    of the corpus, raw = the whole corpus. The classic pretraining-data
    selection signal: resampling by these weights shifts the raw crawl
    toward the target distribution.

    100-TB shape: pass 1 emits O(256) integer bucket partials per batch
    (one tiny groupby — token text never shuffles); the 256-float
    log-ratio table broadcasts via ray.put; pass 2 scores every doc
    embarrassingly parallel (md5 once per UNIQUE token per batch via
    np.unique, per-doc weighted bincount). Weight rounded 4dp — the sum
    order differs between engines, same regime as user_event_entropy."""
    import hashlib

    import ray

    B = 256
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def _buckets_of(uniq: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % B for t in uniq),
            dtype=np.int64,
            count=len(uniq),
        )

    def _tok(t: pa.Table):
        col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        lists = pc.split_pattern(col, " ")
        flat = lists.flatten().to_numpy(zero_copy_only=False).astype(str)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(lens)), lens)
        keep = flat != ""
        return flat[keep], row_idx[keep]

    def partial(t: pa.Table) -> pa.Table:
        flat, row_idx = _tok(t)
        if len(flat) == 0:
            return pa.table(
                {
                    "b": pa.array([], type=pa.int64()),
                    "n_raw": pa.array([], type=pa.int64()),
                    "n_tgt": pa.array([], type=pa.int64()),
                }
            )
        uniq, inv = np.unique(flat, return_inverse=True)
        b = _buckets_of(uniq)[inv]
        is_en = (np.asarray(t["lang"].to_pylist()) == "en")[row_idx]
        return pa.table(
            {
                "b": pa.array(np.arange(B, dtype=np.int64)),
                "n_raw": pa.array(np.bincount(b, minlength=B).astype(np.int64)),
                "n_tgt": pa.array(np.bincount(b[is_en], minlength=B).astype(np.int64)),
            }
        )

    cnt = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("n_raw", alias_name="n_raw"), Sum("n_tgt", alias_name="n_tgt"))
        .to_pandas()
    )
    n_raw = np.zeros(B, dtype=np.int64)
    n_tgt = np.zeros(B, dtype=np.int64)
    n_raw[cnt["b"].to_numpy(np.int64)] = cnt["n_raw"].to_numpy(np.int64)
    n_tgt[cnt["b"].to_numpy(np.int64)] = cnt["n_tgt"].to_numpy(np.int64)
    traw, ttgt = float(n_raw.sum()), float(n_tgt.sum())
    # the oracle's exact float tree: ln((tgt+1)/(ttgt+B)) − ln((raw+1)/(traw+B))
    lr = np.log((n_tgt + 1.0) / (ttgt + float(B))) - np.log(
        (n_raw + 1.0) / (traw + float(B))
    )
    lr_ref = ray.put(lr)

    def score(t: pa.Table) -> pa.Table:
        flat, row_idx = _tok(t)
        n = len(t)
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "dsir_w": pa.array([], type=pa.float64()),
                }
            )
        lr_ = ray.get(lr_ref)
        uniq, inv = np.unique(flat, return_inverse=True)
        w = lr_[_buckets_of(uniq)[inv]]
        sums = np.bincount(row_idx, weights=w, minlength=n)
        has_tok = np.bincount(row_idx, minlength=n) > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[has_tok]),
                "dsir_w": pa.array(np.round(sums[has_tok], 4)),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def q_rolling_active_users(sf_dir: str):
    """Rolling 7-day active users (the WAU curve) — a windowed COUNT
    DISTINCT, which no window function computes directly. The exact
    distributed plan: slim (user, day) dedup rides one user_id hash
    exchange; inside each partition every user's active days collapse to
    MERGED COVERAGE INTERVALS (day d covers [d, d+6]; a new interval only
    when the gap ≥ 7), so each user ships O(activity runs) ±1 delta rows,
    never per-day rows; a tiny day-keyed groupby sums deltas and a driver
    cumsum over the bounded [min_day, max_day] grid yields the curve.
    100-TB shape: nothing is ever per-(user × day × window) — the oracle's
    grid JOIN blowup is exactly what this plan avoids."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def deltas(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "d": pd.Series([], dtype=np.int64),
                    "delta": pd.Series([], dtype=np.int64),
                }
            )
        day = pdf["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        u = pdf["user_id"].to_numpy(np.int64)
        pairs = np.unique(np.stack([u, day], axis=1), axis=0)
        uu, dd = pairs[:, 0], pairs[:, 1]
        # new interval at a user boundary or a gap >= 7 days
        new_run = np.ones(len(uu), dtype=bool)
        new_run[1:] = (uu[1:] != uu[:-1]) | (dd[1:] - dd[:-1] >= 7)
        starts = dd[new_run]
        # run end = last active day of the run, +6 coverage, +1 for the -1 delta
        run_id = np.cumsum(new_run) - 1
        last = np.zeros(run_id[-1] + 1, dtype=np.int64)
        np.maximum.at(last, run_id, dd)
        ends = last + 7
        return pd.DataFrame(
            {
                "d": np.concatenate([starts, ends]),
                "delta": np.concatenate(
                    [np.ones(len(starts), np.int64), -np.ones(len(ends), np.int64)]
                ),
            }
        )

    agg = (
        partition_map_groups(ds, ["user_id"], deltas)
        .groupby("d")
        .aggregate(Sum("delta", alias_name="delta"))
        .to_pandas()
    )
    # grid bounds come from the events themselves (min/max active day)
    stats = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"]).aggregate(
        Min("ts", alias_name="lo"), Max("ts", alias_name="hi")
    )
    d0 = int(pd.Timestamp(stats["lo"]).value // 1000 // 86_400_000_000)
    d1 = int(pd.Timestamp(stats["hi"]).value // 1000 // 86_400_000_000)
    dense = np.zeros(d1 - d0 + 2, dtype=np.int64)
    dv = agg["d"].to_numpy(np.int64)
    keep = dv <= d1  # deltas past the grid never affect reported days
    np.add.at(dense, np.clip(dv[keep] - d0, 0, None), agg["delta"].to_numpy(np.int64)[keep])
    active = np.cumsum(dense)[: d1 - d0 + 1]
    return pd.DataFrame(
        {
            "day_bucket": np.arange(d0, d1 + 1, dtype=np.int64),
            "active_users": active.astype(np.int64),
        }
    )


def q_event_type_lift(sf_dir: str):
    """Association-rule mining (support / confidence / lift) over
    (user, day) baskets of event types — the market-basket readout for
    behavioral data ("users who error also purchase?"). One user_id hash
    exchange; per partition the distinct (user, day, type) triples pair
    via a vectorized basket self-merge into O(|types|²) integer partials
    (plus per-type basket counts and the basket total — |types| is small
    by construction, the op contract); the driver finish is a bounded
    aggregate. Every ratio is a SINGLE float division (or one multiply
    each side then one divide) of exact integers, mirrored token-for-token
    in the SQL oracle, so the compare is bit-exact with no rounding."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=str),
                    "b": pd.Series([], dtype=str),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        day = pdf["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        trip = pd.DataFrame(
            {
                "u": pdf["user_id"].to_numpy(np.int64),
                "d": day,
                "t": pdf["event_type"].astype(str).to_numpy(),
            }
        ).drop_duplicates()
        nb = len(trip[["u", "d"]].drop_duplicates())
        na = trip.groupby("t").size()
        m = trip.merge(trip, on=["u", "d"])
        m = m[m["t_x"] != m["t_y"]]
        nab = m.groupby(["t_x", "t_y"]).size()
        return pd.concat(
            [
                pd.DataFrame({"a": ["#"], "b": ["#"], "n": [nb]}),
                pd.DataFrame(
                    {"a": na.index, "b": "#", "n": na.to_numpy(np.int64)}
                ),
                pd.DataFrame(
                    {
                        "a": nab.index.get_level_values(0),
                        "b": nab.index.get_level_values(1),
                        "n": nab.to_numpy(np.int64),
                    }
                ),
            ],
            ignore_index=True,
        )

    parts = (
        partition_map_groups(ds, ["user_id"], partial)
        .groupby(["a", "b"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    nb_total = int(parts.loc[(parts["a"] == "#") & (parts["b"] == "#"), "n"].iloc[0])
    na = parts[(parts["a"] != "#") & (parts["b"] == "#")].set_index("a")["n"]
    ab = parts[(parts["a"] != "#") & (parts["b"] != "#")].copy()
    n_a = na.loc[ab["a"]].to_numpy(np.int64)
    n_b = na.loc[ab["b"]].to_numpy(np.int64)
    n_ab = ab["n"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "antecedent": ab["a"].to_numpy(),
            "consequent": ab["b"].to_numpy(),
            "n_ab": n_ab,
            "support": n_ab.astype(np.float64) / np.float64(nb_total),
            "confidence": n_ab.astype(np.float64) / n_a.astype(np.float64),
            "lift": (n_ab.astype(np.float64) * np.float64(nb_total))
            / (n_a.astype(np.float64) * n_b.astype(np.float64)),
        }
    )
    return out.sort_values(["antecedent", "consequent"], kind="mergesort").reset_index(
        drop=True
    )


def q_doc_length_psi(sf_dir: str):
    """Population stability index (PSI) — the standard production drift
    monitor — between two corpus slices' document-length distributions
    (reference = sources src0–src9, current = the rest). Fixed integer
    bins (n_chars // 50, capped at 12) keep the bucketing deterministic;
    per-bin Laplace-smoothed shares p, q and the contribution
    (p − q)·ln(p/q) follow. 100-TB shape: ONE streaming pass of O(bins)
    integer bincount partials per batch per side, a tiny bin-keyed
    groupby, driver finish over 13 rows. p and q are single divisions of
    exact integers and the ln tree is mirrored in the oracle; ROUND 6 on
    the term absorbs libm's last ulp."""
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    NB = 13

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "bin": pa.array([], type=pa.int64()),
                    "n_ref": pa.array([], type=pa.int64()),
                    "n_cur": pa.array([], type=pa.int64()),
                }
            )
        nc = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.minimum(nc // 50, NB - 1)
        src = np.asarray(t["source"].to_pylist())
        # src0..src9 = reference (one trailing digit), src10+ = current
        is_ref = np.char.str_len(src.astype(str)) == 4
        return pa.table(
            {
                "bin": pa.array(np.arange(NB, dtype=np.int64)),
                "n_ref": pa.array(np.bincount(b[is_ref], minlength=NB).astype(np.int64)),
                "n_cur": pa.array(np.bincount(b[~is_ref], minlength=NB).astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n_ref", alias_name="n_ref"), Sum("n_cur", alias_name="n_cur"))
        .to_pandas()
    )
    n_ref = np.zeros(NB, dtype=np.int64)
    n_cur = np.zeros(NB, dtype=np.int64)
    n_ref[agg["bin"].to_numpy(np.int64)] = agg["n_ref"].to_numpy(np.int64)
    n_cur[agg["bin"].to_numpy(np.int64)] = agg["n_cur"].to_numpy(np.int64)
    p = (n_ref + 1.0) / np.float64(n_ref.sum() + NB)
    q = (n_cur + 1.0) / np.float64(n_cur.sum() + NB)
    term = (p - q) * np.log(p / q)
    return pd.DataFrame(
        {
            "bin": np.arange(NB, dtype=np.int64),
            "n_ref": n_ref,
            "n_cur": n_cur,
            "psi_term": _rha(term, 6),
        }
    )


def q_user_decayed_value(sf_dir: str):
    """Recency-weighted (exponential-decay) user value — the ranking signal
    behind 'recently valuable' user lists: Σ value·2^(−age_days/7) with a
    7-day half-life anchored at the corpus max timestamp. The decay term is
    an ALGEBRAIC aggregate (order-independent sum), so it streams as
    per-batch per-user float partials into one tiny user-keyed groupby —
    no sort, no window. Both engines evaluate the identical term tree
    (cents · 2^(−Δus/86400e6/7)); only the sum order differs, ROUND 4
    absorbs it (the user_event_entropy regime)."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    hi = (ds.aggregate(Max("ts", alias_name="hi")) or {}).get("hi")
    if hi is None:  # empty corpus
        return pd.DataFrame(
            {
                "user_id": pd.Series([], dtype=np.int64),
                "decayed_cents": pd.Series([], dtype=np.float64),
            }
        )
    t_max = pd.Timestamp(hi).value // 1000  # µs

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], type=pa.int64()),
                    "w": pa.array([], type=pa.float64()),
                }
            )
        ts_us = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        cents = np.round(t["value"].to_numpy(zero_copy_only=False).astype(np.float64) * 100)
        age_days = (np.float64(t_max) - ts_us.astype(np.float64)) / 86_400_000_000.0
        term = cents * np.power(2.0, -age_days / 7.0)
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uu = np.unique(u)
        sums = np.bincount(np.searchsorted(uu, u), weights=term, minlength=len(uu))
        return pa.table({"user_id": pa.array(uu), "w": pa.array(sums)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("w", alias_name="w"))
        .to_pandas()
    )
    out = pd.DataFrame(
        {
            "user_id": agg["user_id"].to_numpy(np.int64),
            "decayed_cents": _rha(agg["w"].to_numpy(np.float64), 4),
        }
    )
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


def q_purchase_attribution(sf_dir: str):
    """Last-touch attribution — every purchase is credited to the same
    user's LATEST click within the preceding 24 h (the marketing-analytics
    join). One user_id hash exchange; inside each partition a single
    ``pandas.merge_asof`` (backward, by=user, 24 h tolerance) matches all
    purchases against all clicks vectorized, then per-user integer partials
    (purchases, attributed purchases, attributed cents) fold through a tiny
    groupby. Exact integers end-to-end except the final cents→value
    division, mirrored in the oracle."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )

    def attribute(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series([], dtype=np.int64),
                "n_purchases": pd.Series([], dtype=np.int64),
                "n_attributed": pd.Series([], dtype=np.int64),
                "attr_cents": pd.Series([], dtype=np.int64),
            }
        )
        if pdf.empty:
            return empty
        pdf = pdf.copy()
        pdf["ts"] = pdf["ts"].astype("datetime64[us]")
        purch = pdf[pdf["event_type"] == "purchase"].sort_values("ts", kind="mergesort")
        clicks = pdf[pdf["event_type"] == "click"].sort_values("ts", kind="mergesort")
        if purch.empty:
            return empty
        m = pd.merge_asof(
            purch,
            clicks[["user_id", "ts"]].rename(columns={"ts": "click_ts"}),
            left_on="ts",
            right_on="click_ts",
            by="user_id",
            direction="backward",
            tolerance=pd.Timedelta(hours=24),
        )
        m["cents"] = np.round(m["value"].to_numpy(np.float64) * 100).astype(np.int64)
        hit = m["click_ts"].notna().to_numpy()
        m["h"] = hit.astype(np.int64)
        m["c"] = np.where(hit, m["cents"].to_numpy(np.int64), 0)
        g = m.groupby("user_id", sort=True)
        return pd.DataFrame(
            {
                "user_id": np.asarray(list(g.groups.keys()), dtype=np.int64),
                "n_purchases": g.size().to_numpy(np.int64),
                "n_attributed": g["h"].sum().to_numpy(np.int64),
                "attr_cents": g["c"].sum().to_numpy(np.int64),
            }
        )

    parts = partition_map_groups(ds, ["user_id"], attribute)
    agg = (
        parts.groupby("user_id")
        .aggregate(
            Sum("n_purchases", alias_name="n_purchases"),
            Sum("n_attributed", alias_name="n_attributed"),
            Sum("attr_cents", alias_name="attr_cents"),
        )
        .to_pandas()
    )
    if agg.empty:  # empty collects lose their columns
        return pd.DataFrame(
            {
                "user_id": pd.Series([], dtype=np.int64),
                "n_purchases": pd.Series([], dtype=np.int64),
                "n_attributed": pd.Series([], dtype=np.int64),
                "attributed_value": pd.Series([], dtype=np.float64),
            }
        )
    out = pd.DataFrame(
        {
            "user_id": agg["user_id"].to_numpy(np.int64),
            "n_purchases": agg["n_purchases"].to_numpy(np.int64),
            "n_attributed": agg["n_attributed"].to_numpy(np.int64),
            "attributed_value": agg["attr_cents"].to_numpy(np.int64).astype(np.float64)
            / 100.0,
        }
    )
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


def q_ordered_funnel_1h(sf_dir: str):
    """Windowed ORDERED funnel — users completing view → click → purchase
    where each hop happens strictly after the previous AND within one hour
    of it (the product-analytics conversion funnel; the lifetime funnel
    q_funnel_conversion ignores order and windows). ONE user_id exchange;
    per user the three sorted timestamp arrays resolve each stage with two
    searchsorted passes: a click qualifies if a view lies in [c−1h, c), a
    purchase if a QUALIFIED click lies in [p−1h, p) — no triple join ever
    materializes. Partial per-partition stage counts fold to one row."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    hour_us = 3_600_000_000

    def funnel(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "n_view": pd.Series([], dtype=np.int64),
                "n_view_click": pd.Series([], dtype=np.int64),
                "n_full_chain": pd.Series([], dtype=np.int64),
            }
        )
        if pdf.empty:
            return empty
        pdf = pdf.sort_values(["user_id", "ts"], kind="mergesort")
        us = pdf["ts"].to_numpy("datetime64[us]").astype(np.int64)
        users = pdf["user_id"].to_numpy(np.int64)
        et = pdf["event_type"].to_numpy()
        n1 = n2 = n3 = 0
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        bounds = np.r_[starts, len(pdf)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            t, e = us[a:b], et[a:b]
            v = t[e == "view"]
            if len(v) == 0:
                continue
            n1 += 1
            c = t[e == "click"]
            if len(c) == 0:
                continue
            # click qualified: a view in [c-1h, c)
            okc = c[
                (np.searchsorted(v, c, side="left") - np.searchsorted(v, c - hour_us, side="left"))
                > 0
            ]
            if len(okc) == 0:
                continue
            n2 += 1
            p = t[e == "purchase"]
            hit = (
                np.searchsorted(okc, p, side="left")
                - np.searchsorted(okc, p - hour_us, side="left")
            ) > 0
            if hit.any():
                n3 += 1
        return pd.DataFrame(
            {
                "n_view": pd.Series([n1], dtype=np.int64),
                "n_view_click": pd.Series([n2], dtype=np.int64),
                "n_full_chain": pd.Series([n3], dtype=np.int64),
            }
        )

    parts = partition_map_groups(ds, ["user_id"], funnel).to_pandas()
    if parts.empty:  # empty collects lose their columns
        parts = pd.DataFrame({"n_view": [0], "n_view_click": [0], "n_full_chain": [0]})
    return pd.DataFrame(
        {
            "n_view": pd.Series([int(parts["n_view"].sum())], dtype=np.int64),
            "n_view_click": pd.Series([int(parts["n_view_click"].sum())], dtype=np.int64),
            "n_full_chain": pd.Series([int(parts["n_full_chain"].sum())], dtype=np.int64),
        }
    )


def q_session_paths(sf_dir: str):
    """Top-10 session paths — the event-type sequences users actually walk
    (the clickstream product-analytics staple). ONE user_id exchange;
    in-partition: sort by (user, ts, event_id), 30-minute-gap
    sessionization (the q_user_sessions rule), per-session path strings
    via groupby string-join, partial (path, n) counts; a tiny path
    groupby + deterministic (n desc, path asc) top-10 finish."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "event_type"]
    )

    def paths(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"path": pd.Series([], dtype=object), "n": pd.Series([], dtype=np.int64)}
        )
        if pdf.empty:
            return empty
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = pdf["user_id"].ne(pdf["user_id"].shift())
        gap = pdf["ts"].diff() > pd.Timedelta(minutes=30)
        sid = (new_user | gap).cumsum()
        g = (
            pdf.assign(sid=sid)
            .groupby("sid", sort=False)["event_type"]
            .agg(">".join)
            .value_counts()
        )
        return pd.DataFrame({"path": g.index.to_numpy(object), "n": g.to_numpy(np.int64)})

    parts = partition_map_groups(ds, ["user_id"], paths).to_pandas()
    if parts.empty:  # empty collects lose their columns
        return pd.DataFrame(
            {"path": pd.Series([], dtype=object), "n": pd.Series([], dtype=np.int64)}
        )
    agg = parts.groupby("path", as_index=False)["n"].sum()
    agg["n"] = agg["n"].astype(np.int64)
    return (
        agg.sort_values(["n", "path"], ascending=[False, True], kind="mergesort")
        .head(10)
        .reset_index(drop=True)
    )


def q_user_survival_km(sf_dir: str):
    """Kaplan–Meier time-to-conversion curve — the product-limit estimator
    (Kaplan & Meier 1958) over days from a user's FIRST event to their
    FIRST purchase, with administrative right-censoring at day 7 (the
    7-day conversion window every growth readout uses; users converting
    later — or never, within their observed span — are censored, which is
    exactly the bias the naive CDF gets wrong). Distributed work:
    per-batch (user, first, last, first-purchase) partials → one user
    groupby → a second O(days) fold of (day, converted) counts; the
    driver finish is O(days): at-risk via suffix-sum, survival via
    exp(Σ ln(1 − d/n)) — the SAME ordered float tree the SQL window
    writes (days with d = 0 contribute ln 1 = 0), ROUND 6."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    sentinel = np.iinfo(np.int64).max

    def span_partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_p = pc.equal(t["event_type"], "purchase").to_numpy(zero_copy_only=False)
        uu = np.unique(u)
        idx = np.searchsorted(uu, u)
        f = np.full(len(uu), sentinel)
        l = np.full(len(uu), np.iinfo(np.int64).min)
        p = np.full(len(uu), sentinel)
        np.minimum.at(f, idx, us)
        np.maximum.at(l, idx, us)
        np.minimum.at(p, idx[is_p], us[is_p])
        return pa.table(
            {"user_id": pa.array(uu), "f": pa.array(f), "l": pa.array(l), "p": pa.array(p)}
        )

    per_user = (
        ds.map_batches(span_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("f", alias_name="f"), Max("l", alias_name="l"), Min("p", alias_name="p"))
    )
    day_us = 86_400_000_000
    window = 7

    def day_counts(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = t["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        has_p = p != sentinel
        pday = np.where(has_p, (p - f) // day_us, sentinel)
        span = (l - f) // day_us
        event = has_p & (pday <= window)
        day = np.where(event, pday, np.where(has_p, window, np.minimum(span, window)))
        pdf = pd.DataFrame(
            {"day": day.astype(np.int64), "d": event.astype(np.int64), "cnt": np.ones(len(day), dtype=np.int64)}
        )
        g = pdf.groupby("day", as_index=False).agg(d=("d", "sum"), cnt=("cnt", "sum"))
        return pa.Table.from_pandas(g.astype(np.int64), preserve_index=False)

    agg = (
        per_user.map_batches(day_counts, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("d", alias_name="d"), Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    if agg.empty:  # empty collects lose their columns — guard BEFORE use
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype=np.int64),
                "n_at_risk": pd.Series([], dtype=np.int64),
                "n_churned": pd.Series([], dtype=np.int64),
                "survival": pd.Series([], dtype=np.float64),
            }
        )
    agg = agg.sort_values("day", kind="mergesort").reset_index(drop=True)
    d = agg["d"].to_numpy(np.int64)
    cnt = agg["cnt"].to_numpy(np.int64)
    total = int(cnt.sum())
    at_risk = total - np.concatenate([[0], np.cumsum(cnt)[:-1]])
    # a day where EVERY at-risk user converts makes S exactly 0 from there
    # on; both engines substitute ln 1 for that term and zero the tail
    # explicitly (DuckDB LN(0) raises, numpy returns -inf)
    dead = d == at_risk
    term = np.where(dead, 1.0, 1.0 - d.astype(np.float64) / at_risk.astype(np.float64))
    surv = np.exp(np.cumsum(np.log(term)))
    surv[np.maximum.accumulate(dead)] = 0.0
    keep = d > 0
    return pd.DataFrame(
        {
            "day": agg["day"].to_numpy(np.int64)[keep],
            "n_at_risk": at_risk[keep].astype(np.int64),
            "n_churned": d[keep],
            "survival": _rha(surv[keep], 6),
        }
    )


def q_user_value_range_24h(sf_dir: str):
    """Time-RANGE window frame — SUM(value) OVER (PARTITION BY user_id
    ORDER BY ts RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW).
    Unlike the ROWS frame (q_user_value_moving_sum) the frame width varies
    per row with event density. ONE user_id exchange; inside the partition
    the per-user timeline sorts once and the interval sum is
    prefix-sum[i] − prefix-sum[searchsorted(ts − 24 h)] — two vectorized
    passes, no per-row loop. SQL RANGE frames include ALL ties of the
    current ts, so rows with equal (user, ts) share one frame — the
    searchsorted('right') upper bound reproduces that exactly. Integer
    cents throughout."""
    from entity_resolution_engine_ray.stages.grouping import partition_map_groups

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def range_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64),
                "range_sum": pd.Series([], dtype=np.float64),
            }
        )
        if pdf.empty:
            return empty
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = np.round(pdf["value"].to_numpy(np.float64) * 100).astype(np.int64)
        ts = pdf["ts"].to_numpy("datetime64[us]").astype(np.int64)
        users = pdf["user_id"].to_numpy(np.int64)
        out = np.zeros(len(pdf), dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        bounds = np.r_[starts, len(pdf)]
        day_us = 24 * 3600 * 1_000_000
        for a, b in zip(bounds[:-1], bounds[1:]):
            t = ts[a:b]
            ps = np.concatenate([[0], np.cumsum(cents[a:b])])
            lo = np.searchsorted(t, t - day_us, side="left")
            hi = np.searchsorted(t, t, side="right")  # include ts ties (SQL RANGE)
            out[a:b] = ps[hi] - ps[lo]
        return pd.DataFrame(
            {
                "event_id": pdf["event_id"].to_numpy(np.int64),
                "user_id": users,
                "range_sum": out.astype(np.float64) / 100.0,
            }
        )

    return partition_map_groups(ds, ["user_id"], range_sum)


_BENFORD_P = [np.log10(1 + 1 / d) for d in range(1, 10)]


def q_orders_benford(sf_dir: str):
    """Benford first-digit screen over order totals — the classic fraud /
    synthetic-data smell test. Single shuffle-free pass: each batch folds
    to 9 first-digit partial counts (digit via floor(x / 10^floor(log10 x))
    on integer cents — no string formatting); the driver emits observed vs
    expected share and the per-digit chi-square term. Counts are exact
    integers; the float finish (log10 expectation, χ² term) is the same
    expression tree the oracle writes, ROUND 6."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        cents = cents[cents > 0]
        if len(cents) == 0:
            return pa.table(
                {"digit": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
            )
        mag = np.floor(np.log10(cents.astype(np.float64))).astype(np.int64)
        first = cents // np.power(10, mag).astype(np.int64)
        # float log10 can land one magnitude low/high on exact powers —
        # correct integer-exactly
        too_big = first >= 10
        first[too_big] //= 10
        too_small = first == 0
        first[too_small] = 1
        cnt = np.bincount(first, minlength=10)[1:10]
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    if agg.empty:  # empty collects lose their columns — guard BEFORE use
        return pd.DataFrame(
            {
                "digit": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                "obs_share": pd.Series([], dtype=np.float64),
                "benford_share": pd.Series([], dtype=np.float64),
                "chi_term": pd.Series([], dtype=np.float64),
            }
        )
    agg = agg.sort_values("digit", kind="mergesort").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64)
    total = int(n.sum())
    exp = np.array(_BENFORD_P, dtype=np.float64)
    obs = n.astype(np.float64) / total
    chi = (obs - exp) ** 2 / exp
    return pd.DataFrame(
        {
            "digit": agg["digit"].to_numpy(np.int64),
            "n": n,
            "obs_share": _rha(obs, 6),
            "benford_share": _rha(exp, 6),
            "chi_term": _rha(chi, 6),
        }
    )


def q_key_skew_profile(sf_dir: str):
    """Shuffle-key skew diagnostic — the profile a 100-TB operator reads
    BEFORE choosing its partitioning (hot-key salting, bucket counts): per-
    key cardinality concentration over events.user_id as Gini coefficient +
    top-1/top-10 share. Distributed work is the per-key count table
    (per-batch partials → one key groupby); the Gini finish sorts the
    O(keys) count vector driver-side (at key cardinalities where that
    outgrows the driver, swap the finish for a distributed sort + the same
    prefix-sum — the formula Σ(2i−n−1)·c_(i) needs only ranks). Ties make
    the formula order-invariant, so engine and oracle agree exactly; all
    three ratios divide exact integers, ROUND 6."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uu, cnt = np.unique(u, return_counts=True)
        return pa.table({"user_id": pa.array(uu), "cnt": pa.array(cnt.astype(np.int64))})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    c = np.sort(agg["cnt"].to_numpy(np.int64)) if not agg.empty else np.array([], np.int64)
    n = len(c)
    if n == 0:
        return pd.DataFrame(
            {
                "n_keys": pd.Series([0], dtype=np.int64),
                "n_rows": pd.Series([0], dtype=np.int64),
                "gini": pd.Series([0.0]),
                "top1_share": pd.Series([0.0]),
                "top10_share": pd.Series([0.0]),
            }
        )
    total = int(c.sum())
    i = np.arange(1, n + 1, dtype=np.int64)
    # exact integers: int64 dot while Σ|w|·c ≤ (n−1)·total fits, Python
    # big ints past that (extreme key cardinalities)
    w = 2 * i - n - 1
    if (n - 1) * total < 2**62:
        num = int(np.dot(w, c))
    else:
        num = sum(int(a) * int(b) for a, b in zip(w, c))
    den = n * total
    return pd.DataFrame(
        {
            "n_keys": pd.Series([n], dtype=np.int64),
            "n_rows": pd.Series([total], dtype=np.int64),
            "gini": pd.Series([_rha(num / den, 6)]),
            "top1_share": pd.Series([_rha(int(c[-1]) / total, 6)]),
            "top10_share": pd.Series([_rha(int(c[-10:].sum()) / total, 6)]),
        }
    )


def q_events_cusum(sf_dir: str):
    """CUSUM changepoint monitor over hourly revenue — the classic
    sequential drift detector (Page 1954) for a telemetry/ingest stream.
    Distributed work is the hourly integer-cents aggregation (per-batch
    partials → one tiny hour-keyed groupby); the sequential recursion
    S_t = max(0, S_{t-1} + x_t − k) then runs on the BOUNDED hourly series
    (720 rows for a month — O(hours), not O(events), at any corpus size)
    via the exact vectorized identity S_t = P_t − min(0, min_{j≤t} P_j)
    with P = cumsum(x − k). All-integer: k = ⌊total/n⌋ cents, alert
    threshold 8·⌊MAD⌋ — no float boundary anywhere, so the recursive-CTE
    oracle matches value-for-value."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        cents = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pa.table({"hour": hour}).to_pandas()
        pdf["x"] = cents
        g = pdf.groupby("hour", as_index=False)["x"].sum()
        g["x"] = g["x"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Sum("x", alias_name="x"))
        .to_pandas()
    )
    if agg.empty:  # empty collects lose their columns — guard BEFORE use
        return pd.DataFrame(
            {
                "hour": pd.Series([], dtype="datetime64[us]"),
                "cusum_c": pd.Series([], dtype=np.int64),
                "alert": pd.Series([], dtype=np.int64),
            }
        )
    agg = agg.sort_values("hour", kind="mergesort").reset_index(drop=True)
    x = agg["x"].to_numpy(np.int64)
    n = len(x)
    k = int(x.sum()) // n
    y = x - k
    p = np.cumsum(y)
    s = p - np.minimum.accumulate(np.minimum(p, 0))
    mad = int(np.abs(y).sum()) // n
    return pd.DataFrame(
        {
            "hour": agg["hour"].astype("datetime64[us]"),
            "cusum_c": s.astype(np.int64),
            "alert": (s > 8 * mad).astype(np.int64),
        }
    )


def q_returned_item_revenue(sf_dir: str):
    """TPC-H Q10-shaped returned-item report: top-20 customers by lost
    revenue (ext·(1−disc)) over RETURNED ('R') lineitems of H1-1998 orders,
    with customer + nation names attached. Shape for scale: lineitem folds
    to per-batch (orderkey, rev) partials BEFORE the orderkey cogroup with
    the date-pruned orders; the custkey exchange then finalizes per-customer
    sums and each partition emits only its LOCAL top-20 (a customer's rows
    all land in one partition), so the driver merges P×20 rows — never the
    join. The two dimension attaches are key-lookup reads (predicate-pushdown
    parquet on 20 keys; a keyed store at 100 TB), not joins. Revenue sums in
    exact integer 1e-4 dollars — order/partition-invariant (see
    q_lineitem_pricing)."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    lo, hi = pd.Timestamp("1998-01-01"), pd.Timestamp("1998-07-01")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        filter=(pc.field("l_returnflag") == "R"),
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi)),
    )

    def li_partial(t: pa.Table) -> pa.Table:
        ext_c = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        disc_h = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pd.DataFrame(
            {
                "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                "rev": ext_c * (100 - disc_h),
            }
        )
        g = pdf.groupby("l_orderkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def to_cust(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "o_custkey": pd.Series([], dtype=np.int64),
                "rev": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or o_pdf.empty:
            return empty
        m = l_pdf.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        g = m.groupby("o_custkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return g

    cust_partials = hash_exchange_cogroup(
        li.map_batches(li_partial, batch_format="pyarrow"),
        orders,
        ["l_orderkey"],
        ["o_orderkey"],
        to_cust,
    )

    def local_top20(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series([], dtype=np.int64),
                    "rev": pd.Series([], dtype=np.int64),
                }
            )
        g = pdf.groupby("o_custkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return g.sort_values(
            ["rev", "o_custkey"], ascending=[False, True], kind="mergesort"
        ).head(20)

    cand = partition_map_groups(cust_partials, ["o_custkey"], local_top20).to_pandas()
    if cand.empty:  # empty collects lose their columns
        return pd.DataFrame(
            {
                "c_custkey": pd.Series([], dtype=np.int64),
                "c_name": pd.Series([], dtype=object),
                "n_name": pd.Series([], dtype=object),
                "revenue": pd.Series([], dtype=np.float64),
            }
        )
    top = cand.sort_values(
        ["rev", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(20)
    keys = top["o_custkey"].to_numpy(np.int64)
    cust_tbl = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=pc.field("c_custkey").isin(pa.array(keys)),
    ).to_pandas()
    nation_tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation_map = dict(
        zip(nation_tbl["n_nationkey"].to_pylist(), nation_tbl["n_name"].to_pylist())
    )
    out = top.merge(cust_tbl, left_on="o_custkey", right_on="c_custkey")
    # exact 1e-4 dollars -> half-away cents -> dollars (rev >= 0)
    cents = (out["rev"].to_numpy(np.int64) + 50) // 100
    return pd.DataFrame(
        {
            "c_custkey": out["c_custkey"].to_numpy(np.int64),
            "c_name": out["c_name"].astype(str),
            "n_name": out["c_nationkey"].map(nation_map).astype(str),
            "revenue": cents.astype(np.float64) / 100.0,
        }
    )


def q_large_orders(sf_dir: str):
    """TPC-H Q18-shaped large-volume-order screen: orders whose total
    lineitem quantity exceeds 200 units, with the order header joined back.
    The HAVING-on-fact shape: lineitem folds to per-batch (orderkey, qty)
    integer partials, ONE orderkey cogroup with orders both finalizes the
    per-order sum (all of an order's rows co-locate) and applies the
    HAVING filter, emitting only qualifying rows — the unfiltered join
    never exists. Quantities are integral-valued doubles in the data and
    sum as exact int64."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def qty_partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                "qty": np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64),
            }
        )
        g = pdf.groupby("l_orderkey", as_index=False)["qty"].sum()
        g["qty"] = g["qty"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def having_join(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "o_orderkey": pd.Series([], dtype=np.int64),
                "o_custkey": pd.Series([], dtype=np.int64),
                "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                "o_totalprice": pd.Series([], dtype=np.float64),
                "total_qty": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or o_pdf.empty:
            return empty
        g = l_pdf.groupby("l_orderkey", as_index=False)["qty"].sum()
        g = g[g["qty"] > 200]
        if g.empty:
            return empty
        m = g.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        return pd.DataFrame(
            {
                "o_orderkey": m["o_orderkey"].to_numpy(np.int64),
                "o_custkey": m["o_custkey"].to_numpy(np.int64),
                "o_orderdate": m["o_orderdate"].astype("datetime64[us]"),
                "o_totalprice": _rha(m["o_totalprice"].to_numpy(np.float64), 2),
                "total_qty": m["qty"].to_numpy(np.int64),
            }
        )

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    out = typed_to_pandas(
        hash_exchange_cogroup(
            li.map_batches(qty_partial, batch_format="pyarrow"),
            orders,
            ["l_orderkey"],
            ["o_orderkey"],
            having_join,
        )
    )
    return out.sort_values(
        ["total_qty", "o_orderkey"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


# (brand, size_lo, size_hi, qty_lo, qty_hi) — brands are distinct so the
# three disjuncts are mutually exclusive and each row maps to ≤1 band
_Q19_BANDS = (
    ("Brand#1", 1, 15, 1, 20),
    ("Brand#2", 10, 30, 10, 30),
    ("Brand#3", 20, 50, 20, 40),
)


def q_part_band_revenue(sf_dir: str):
    """TPC-H Q19-shaped disjunctive-predicate join: discounted revenue per
    brand/size/quantity band, where the predicate is an OR of three
    (brand, size-range, qty-range) conjunctions spanning BOTH join sides —
    so nothing can pre-aggregate below the join. Shape for scale: lineitem
    ships only (partkey, qty, rev-1e-4) through ONE partkey cogroup with the
    3-column part attribute table; the disjuncts evaluate as vectorized
    masks in-partition and fold to ≤3 rows per partition. Revenue in exact
    integer 1e-4 dollars."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    part = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"])

    def li_slim(t: pa.Table) -> pa.Table:
        ext_c = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        disc_h = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "qty": pa.array(
                    np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
                ),
                "rev": pa.array(ext_c * (100 - disc_h)),
            }
        )

    def band_partial(l_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "band": pd.Series([], dtype=np.int64),
                "rev": pd.Series([], dtype=np.int64),
                "n_items": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or p_pdf.empty:
            return empty
        m = l_pdf.merge(p_pdf, left_on="l_partkey", right_on="p_partkey")
        if m.empty:
            return empty
        qty = m["qty"].to_numpy(np.int64)
        size = m["p_size"].to_numpy(np.int64)
        brand = m["p_brand"].to_numpy()
        rev = m["rev"].to_numpy(np.int64)
        rows = []
        for b, (br, s0, s1, q0, q1) in enumerate(_Q19_BANDS, start=1):
            mask = (brand == br) & (size >= s0) & (size <= s1) & (qty >= q0) & (qty <= q1)
            if mask.any():
                rows.append((b, int(rev[mask].sum()), int(mask.sum())))
        if not rows:
            return empty
        return pd.DataFrame(rows, columns=["band", "rev", "n_items"]).astype(np.int64)

    partials = hash_exchange_cogroup(
        li.map_batches(li_slim, batch_format="pyarrow"),
        part,
        ["l_partkey"],
        ["p_partkey"],
        band_partial,
    ).to_pandas()
    if partials.empty:  # empty collects lose their columns
        return pd.DataFrame(
            {
                "band": pd.Series([], dtype=np.int64),
                "revenue": pd.Series([], dtype=np.float64),
                "n_items": pd.Series([], dtype=np.int64),
            }
        )
    agg = partials.groupby("band", as_index=False).agg(
        rev=("rev", "sum"), n_items=("n_items", "sum")
    )
    cents = (agg["rev"].to_numpy(np.int64) + 50) // 100
    return pd.DataFrame(
        {
            "band": agg["band"].to_numpy(np.int64),
            "revenue": cents.astype(np.float64) / 100.0,
            "n_items": agg["n_items"].to_numpy(np.int64),
        }
    ).sort_values("band", kind="mergesort").reset_index(drop=True)


def q_nation_market_share(sf_dir: str):
    """TPC-H Q8-shaped market share: per order-year, NATION_2's share of
    all PROMO-part revenue sold to ASIA-region customers. Five-table shape
    with every reduction pushed below the exchanges: part prunes to a
    deduped PROMO key set (partkey semi-cogroup slims lineitem to
    orderkey/suppkey/rev), ASIA customer keys (region resolved through the
    two tiny driver-side dimensions) semi-cogroup orders down to
    (orderkey, year), and the final orderkey cogroup folds straight to
    (year, numerator, denominator) integer partials — supplier→nation is a
    sorted-array broadcast lookup (tiny dimension). Share divides the two
    exact int64 1e-4-dollar sums in float64 identically to the oracle."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    nation_tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"])
    region_tbl = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    empty_out = pd.DataFrame(
        {"o_year": pd.Series([], dtype=np.int64), "mkt_share": pd.Series([], dtype=np.float64)}
    )
    rpdf = region_tbl.to_pandas()
    npdf = nation_tbl.to_pandas()
    if "ASIA" not in set(rpdf["r_name"]) or "NATION_2" not in set(npdf["n_name"]):
        return empty_out  # empty/absent dimensions → empty share table
    asia_key = rpdf.set_index("r_name")["r_regionkey"]["ASIA"]
    asia_nations = npdf.loc[npdf["n_regionkey"] == asia_key, "n_nationkey"].to_numpy(np.int64)
    target_nation = int(npdf.loc[npdf["n_name"] == "NATION_2", "n_nationkey"].iloc[0])
    supp_tbl = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas().sort_values("s_suppkey")
    supp_keys = supp_tbl["s_suppkey"].to_numpy(np.int64)
    supp_nation = supp_tbl["s_nationkey"].to_numpy(np.int64)

    promo_keys = rd.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_type"],
        filter=(pc.field("p_type") == "PROMO"),
    ).map_batches(
        lambda t: pa.table({"p_partkey": pc.unique(t["p_partkey"])}), batch_format="pyarrow"
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_semi(l_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "l_orderkey": pd.Series([], dtype=np.int64),
                "l_suppkey": pd.Series([], dtype=np.int64),
                "rev": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or p_pdf.empty:
            return empty
        keep = l_pdf[l_pdf["l_partkey"].isin(p_pdf["p_partkey"])]
        if keep.empty:
            return empty
        ext_c = np.round(keep["l_extendedprice"].to_numpy(np.float64) * 100).astype(np.int64)
        disc_h = np.round(keep["l_discount"].to_numpy(np.float64) * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "l_orderkey": keep["l_orderkey"].to_numpy(np.int64),
                "l_suppkey": keep["l_suppkey"].to_numpy(np.int64),
                "rev": ext_c * (100 - disc_h),
            }
        )

    li_promo = hash_exchange_cogroup(li, promo_keys, ["l_partkey"], ["p_partkey"], li_semi)

    asia_cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        filter=pc.field("c_nationkey").isin(pa.array(asia_nations)),
    ).map_batches(
        lambda t: pa.table({"c_custkey": pc.unique(t["c_custkey"])}), batch_format="pyarrow"
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def order_semi(o_pdf: pd.DataFrame, c_pdf: pd.DataFrame) -> pd.DataFrame:
        if o_pdf.empty:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype=np.int64),
                    "o_year": pd.Series([], dtype=np.int64),
                }
            )
        keep = o_pdf[o_pdf["o_custkey"].isin(c_pdf["c_custkey"])]
        return pd.DataFrame(
            {
                "o_orderkey": keep["o_orderkey"].to_numpy(np.int64),
                "o_year": keep["o_orderdate"].dt.year.to_numpy(np.int64),
            }
        )

    slim_orders = hash_exchange_cogroup(
        orders, asia_cust, ["o_custkey"], ["c_custkey"], order_semi
    )

    def share_partial(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "o_year": pd.Series([], dtype=np.int64),
                "num": pd.Series([], dtype=np.int64),
                "den": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or o_pdf.empty:
            return empty
        m = l_pdf.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        if m.empty:
            return empty
        idx = np.searchsorted(supp_keys, m["l_suppkey"].to_numpy(np.int64))
        nk = supp_nation[np.clip(idx, 0, len(supp_nation) - 1)]
        rev = m["rev"].to_numpy(np.int64)
        m2 = pd.DataFrame(
            {
                "o_year": m["o_year"].to_numpy(np.int64),
                "num": np.where(nk == target_nation, rev, 0),
                "den": rev,
            }
        )
        g = m2.groupby("o_year", as_index=False).agg(num=("num", "sum"), den=("den", "sum"))
        return g.astype(np.int64)

    partials = hash_exchange_cogroup(
        li_promo, slim_orders, ["l_orderkey"], ["o_orderkey"], share_partial
    ).to_pandas()
    if partials.empty:  # empty collects lose their columns
        return empty_out
    agg = partials.groupby("o_year", as_index=False).agg(num=("num", "sum"), den=("den", "sum"))
    return pd.DataFrame(
        {
            "o_year": agg["o_year"].to_numpy(np.int64),
            "mkt_share": _rha(
                agg["num"].to_numpy(np.int64).astype(np.float64)
                / agg["den"].to_numpy(np.int64).astype(np.float64),
                6,
            ),
        }
    ).sort_values("o_year", kind="mergesort").reset_index(drop=True)


def q_important_parts(sf_dir: str):
    """TPC-H Q11-shaped fraction-of-global screen: parts whose total
    discounted lineitem revenue exceeds 1.5× the AVERAGE part's revenue
    (the per-part-count form of Q11's SUM·fraction cut — a fixed global
    fraction goes vacuous as the part count grows; this one selects a
    stable tail at every scale). The global-scalar-HAVING shape: per-batch
    (partkey, rev) integer partials finalize per part in one partkey
    exchange; the global total AND part count are a second fold of the SAME
    materialized per-part aggregate (no second pass over the fact table),
    broadcast into a distributed filter as scalars. The threshold compare
    is exact integer (rev·2n > 3·total, int64 1e-4 dollars,
    overflow-asserted — at scales where it would saturate, split lanes as
    in q_lineitem_pricing)."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        ext_c = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        disc_h = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pdf = pd.DataFrame(
            {
                "l_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
                "rev": ext_c * (100 - disc_h),
            }
        )
        g = pdf.groupby("l_partkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "l_partkey": pd.Series([], dtype=np.int64),
                    "rev": pd.Series([], dtype=np.int64),
                }
            )
        g = pdf.groupby("l_partkey", as_index=False)["rev"].sum()
        g["rev"] = g["rev"].astype(np.int64)
        return g

    per_part = partition_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), ["l_partkey"], finalize
    ).materialize()
    fold = per_part.aggregate(
        Sum("rev", alias_name="t"), Count(alias_name="n"), Max("rev", alias_name="mx")
    )
    total, n_parts = int(fold["t"] or 0), int(fold["n"])
    if n_parts == 0:  # empty corpus: the mapped collect would lose columns
        return pd.DataFrame(
            {
                "p_partkey": pd.Series([], dtype=np.int64),
                "part_value": pd.Series([], dtype=np.float64),
            }
        )
    max_rev = int(fold["mx"] or 0)
    if n_parts and (max_rev * 2 * n_parts > 2**63 - 1 or 3 * total > 2**63 - 1):
        raise OverflowError("important_parts: rev*2n compare saturates int64 — split lanes")

    def over_threshold(t: pa.Table) -> pa.Table:
        rev = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = rev * (2 * n_parts) > 3 * total
        cents = (rev[keep] + 50) // 100
        return pa.table(
            {
                "p_partkey": pa.array(
                    t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
                ),
                "part_value": pa.array(cents.astype(np.float64) / 100.0),
            }
        )

    from entity_resolution_engine_ray.stages.exchange import typed_to_pandas

    out = typed_to_pandas(per_part.map_batches(over_threshold, batch_format="pyarrow"))
    return out.sort_values("p_partkey", kind="mergesort").reset_index(drop=True)


def q_supplier_diversity(sf_dir: str):
    """TPC-H Q16-shaped supplier diversity: distinct suppliers that shipped
    each (brand, size) part class, excluding flagged suppliers (negative
    account balance — the reference query's complaints NOT IN). Shape for
    scale: lineitem slims to per-batch-unique (partkey, suppkey) pairs with
    the tiny exclusion set applied at the read side, ONE partkey cogroup
    attaches brand/size and re-dedups, then the (brand, size) exchange does
    the global distinct count (cross-partition duplicate pairs from
    different partkeys meet there and drop)."""
    import pyarrow.parquet as pq

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).to_pandas()
    bad = np.sort(supp.loc[supp["s_acctbal"] < 0, "s_suppkey"].to_numpy(np.int64))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def uniq_pairs(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "l_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
                "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        pdf = pdf[~np.isin(pdf["l_suppkey"].to_numpy(np.int64), bad)]
        return pa.Table.from_pandas(pdf, preserve_index=False)

    part = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"])

    def attach(l_pdf: pd.DataFrame, p_pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "p_brand": pd.Series([], dtype=object),
                "p_size": pd.Series([], dtype=np.int64),
                "l_suppkey": pd.Series([], dtype=np.int64),
            }
        )
        if l_pdf.empty or p_pdf.empty:
            return empty
        m = l_pdf.merge(p_pdf, left_on="l_partkey", right_on="p_partkey")
        return m[["p_brand", "p_size", "l_suppkey"]].drop_duplicates()

    triples = hash_exchange_cogroup(
        li.map_batches(uniq_pairs, batch_format="pyarrow"),
        part,
        ["l_partkey"],
        ["p_partkey"],
        attach,
    )

    def distinct_count(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame(
                {
                    "p_brand": pd.Series([], dtype=object),
                    "p_size": pd.Series([], dtype=np.int64),
                    "supplier_cnt": pd.Series([], dtype=np.int64),
                }
            )
        g = (
            pdf.drop_duplicates()
            .groupby(["p_brand", "p_size"], as_index=False)["l_suppkey"]
            .nunique()
        )
        return pd.DataFrame(
            {
                "p_brand": g["p_brand"].astype(str),
                "p_size": g["p_size"].to_numpy(np.int64),
                "supplier_cnt": g["l_suppkey"].to_numpy(np.int64),
            }
        )

    out = partition_map_groups(triples, ["p_brand", "p_size"], distinct_count).to_pandas()
    if out.empty:  # empty collects lose their columns
        return pd.DataFrame(
            {
                "p_brand": pd.Series([], dtype=object),
                "p_size": pd.Series([], dtype=np.int64),
                "supplier_cnt": pd.Series([], dtype=np.int64),
            }
        )
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_size"], ascending=[False, True, True], kind="mergesort"
    ).reset_index(drop=True)


# ---------------------------------------------------------------------------
# relational: TPC-H classic-shape fill-ins (Q6 / Q15 / Q12 / Q2)
# ---------------------------------------------------------------------------


def q_revenue_band_forecast(sf_dir: str):
    """TPC-H Q6-shaped forecast-revenue scan: ONE column-pruned pass over
    lineitem with a pure per-batch filter+sum — no shuffle, no groupby; each
    batch emits a single (whole, remainder) 1e-4-dollar lane pair and the
    driver folds them in Python big-int. Predicates: shipped in 1996,
    discount in [0.05, 0.07] (compared in exact integer hundredths so a
    float-repr discount can't straddle the band differently from the
    oracle), quantity < 24."""
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy(zero_copy_only=False)
        disc_h = np.round(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep = (d >= lo) & (d < hi) & (disc_h >= 5) & (disc_h <= 7) & (qty < 24)
        ext_c = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep] * 100
        ).astype(np.int64)
        u = int((ext_c * disc_h[keep]).sum())
        return pa.table(
            {
                "w": pa.array([u // 10_000], pa.int64()),
                "r": pa.array([u % 10_000], pa.int64()),
            }
        )

    lanes = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    total = int(lanes["w"].sum()) * 10_000 + int(lanes["r"].sum())
    return pd.DataFrame({"revenue": [((total + 50) // 100) / 100.0]})


def q_top_supplier_quarter(sf_dir: str):
    """TPC-H Q15-shaped scalar-max screen: per-supplier 1996-Q1 revenue via
    per-batch partial pre-aggregation → one supplier-keyed groupby (the
    shuffle moves ≤ |suppliers|×P partial rows, never lineitems), then keep
    every supplier whose revenue equals the global max. The max compare runs
    on the raw 1e-4-dollar big-int lanes, so two suppliers that round to the
    same cents but differ in raw lanes can't diverge from the oracle. Names
    attach from the supplier dimension pruned to the winner keys."""
    import pyarrow.parquet as pq

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )
    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1996-04-01")

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = (d >= lo) & (d < hi)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)[keep]
        ext_c = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep] * 100
        ).astype(np.int64)
        disc_h = np.round(
            t["l_discount"].to_numpy(zero_copy_only=False)[keep] * 100
        ).astype(np.int64)
        g = pd.DataFrame({"l_suppkey": sk, "u": ext_c * (100 - disc_h)}).groupby(
            "l_suppkey", as_index=False
        )["u"].sum()
        return pa.table(
            {
                "l_suppkey": pa.array(g["l_suppkey"].to_numpy(np.int64)),
                "rev_w": pa.array((g["u"] // 10_000).to_numpy(np.int64)),
                "rev_r": pa.array((g["u"] % 10_000).to_numpy(np.int64)),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("rev_w", alias_name="rev_w"), Sum("rev_r", alias_name="rev_r"))
        .to_pandas()
    )
    empty = pd.DataFrame(
        {
            "s_suppkey": pd.Series([], dtype=np.int64),
            "s_name": pd.Series([], dtype=object),
            "total_revenue": pd.Series([], dtype=np.float64),
        }
    )
    if agg.empty:
        return empty
    u = [int(a) * 10_000 + int(b) for a, b in zip(agg["rev_w"], agg["rev_r"])]
    mx = max(u)
    winners = agg.loc[[x == mx for x in u], "l_suppkey"].to_numpy(np.int64)
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", winners.tolist())],
    ).to_pandas()
    out = supp.sort_values("s_suppkey", kind="mergesort").reset_index(drop=True)
    out["total_revenue"] = ((mx + 50) // 100) / 100.0
    return out[["s_suppkey", "s_name", "total_revenue"]]


def q_late_line_priority(sf_dir: str):
    """TPC-H Q12-shaped late-shipment severity split (the fixture has no
    ship-mode column; l_linestatus plays its role): for every lineitem
    shipped more than 60 days after its order date, count critical-priority
    orders (1-URGENT / 2-HIGH) vs the rest per linestatus. One slim hash
    cogroup on orderkey with the counting folded BELOW the exchange — each
    partition returns ≤ |linestatus| rows, the driver folds ≤ P×2."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup
    from entity_resolution_engine_ray.stages.joins import default_join_partitions

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    _E = pd.DataFrame(
        {
            "l_linestatus": pd.Series([], dtype=object),
            "high_line_count": pd.Series([], dtype=np.int64),
            "low_line_count": pd.Series([], dtype=np.int64),
        }
    )
    late_by = np.timedelta64(60, "D")

    def stage(l_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
        if l_pdf.empty or o_pdf.empty:
            return _E.copy()
        m = l_pdf.merge(o_pdf, left_on="l_orderkey", right_on="o_orderkey")
        if m.empty:
            return _E.copy()
        late = m["l_shipdate"].to_numpy() > (m["o_orderdate"].to_numpy() + late_by)
        m = m[late]
        if m.empty:
            return _E.copy()
        high = m["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
        g = (
            pd.DataFrame(
                {
                    "l_linestatus": m["l_linestatus"].to_numpy(),
                    "high_line_count": high.astype(np.int64),
                    "low_line_count": (~high).astype(np.int64),
                }
            )
            .groupby("l_linestatus", as_index=False)
            .sum()
        )
        g["high_line_count"] = g["high_line_count"].astype(np.int64)
        g["low_line_count"] = g["low_line_count"].astype(np.int64)
        return g

    parts = hash_exchange_cogroup(
        li, orders, ["l_orderkey"], ["o_orderkey"], stage, default_join_partitions()
    ).to_pandas()
    if parts.empty:
        return _E.copy()
    out = parts.groupby("l_linestatus", as_index=False).sum()
    out["high_line_count"] = out["high_line_count"].astype(np.int64)
    out["low_line_count"] = out["low_line_count"].astype(np.int64)
    return out.sort_values("l_linestatus", kind="mergesort").reset_index(drop=True)


def q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2-shaped min-cost-supplier pick (the fixture has no partsupp
    table; a part's candidate costs are its lineitem extended prices): for
    every size-15 part, the supplier of its cheapest lineitem — ties break
    to the smallest suppkey, the same lexicographic (cost_cents, suppkey)
    order on both engines. The size-15 partkey→name map is pruned at the
    dimension read and broadcast once via ``ray.put`` (never re-shipped per
    batch); lineitem folds to one candidate row per (batch, part) before
    the part-keyed argmin exchange."""
    import pyarrow.parquet as pq
    import ray

    part_tbl = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_size"],
        filters=[("p_size", "=", 15)],
    )
    name_map = dict(
        zip(part_tbl["p_partkey"].to_pylist(), part_tbl["p_name"].to_pylist())
    )
    keys_sorted = np.sort(part_tbl["p_partkey"].to_numpy().astype(np.int64))
    keys_ref = ray.put(keys_sorted)

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def candidates(t: pa.Table) -> pd.DataFrame:
        keys = ray.get(keys_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            keep = np.zeros(len(pk), bool)
        else:
            pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
            keep = keys[pos] == pk
        df = pd.DataFrame(
            {
                "l_partkey": pk[keep],
                "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False)[keep],
                "cost_c": np.round(
                    t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep] * 100
                ).astype(np.int64),
            }
        )
        return (
            df.sort_values(["cost_c", "l_suppkey"], kind="mergesort")
            .groupby("l_partkey", as_index=False)
            .first()
        )

    def reduce_part(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pdf
        return (
            pdf.sort_values(["cost_c", "l_suppkey"], kind="mergesort")
            .groupby("l_partkey", as_index=False)
            .first()
        )

    won = partition_map_groups(
        li.map_batches(candidates, batch_format="pyarrow"), ["l_partkey"], reduce_part
    ).to_pandas()
    empty = pd.DataFrame(
        {
            "p_partkey": pd.Series([], dtype=np.int64),
            "p_name": pd.Series([], dtype=object),
            "s_suppkey": pd.Series([], dtype=np.int64),
            "s_name": pd.Series([], dtype=object),
            "min_cost": pd.Series([], dtype=np.float64),
        }
    )
    if won.empty:
        return empty
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", sorted(set(won["l_suppkey"].tolist())))],
    ).to_pandas()
    sname = dict(zip(supp["s_suppkey"], supp["s_name"]))
    out = pd.DataFrame(
        {
            "p_partkey": won["l_partkey"].astype(np.int64),
            "p_name": won["l_partkey"].map(name_map),
            "s_suppkey": won["l_suppkey"].astype(np.int64),
            "s_name": won["l_suppkey"].map(sname),
            "min_cost": won["cost_c"].to_numpy(np.int64) / 100.0,
        }
    )
    return out.sort_values("p_partkey", kind="mergesort").reset_index(drop=True)


QUERIES = {
    "revenue_band_forecast": q_revenue_band_forecast,
    "top_supplier_quarter": q_top_supplier_quarter,
    "late_line_priority": q_late_line_priority,
    "min_cost_supplier": q_min_cost_supplier,
    "part_fuzzy_names": q_part_fuzzy_names,
    "er_blocking_eval": q_er_blocking_eval,
    "part_skyline": q_part_skyline,
    "doc_jaccard_join": q_doc_jaccard_join,
    "doc_containment": q_doc_containment,
    "er_fs_weights": q_er_fs_weights,
    "er_sorted_neighborhood": q_er_sorted_neighborhood,
    "er_meta_blocking": q_er_meta_blocking,
    "er_fs_em": q_er_fs_em,
    "er_cluster_metrics": q_er_cluster_metrics,
    "er_block_filtering": q_er_block_filtering,
    "er_phonetic_blocking": q_er_phonetic_blocking,
    "er_one_to_one": q_er_one_to_one,
    "zone_pruned_stats": q_zone_pruned_stats,
    "bloom_pruned_lookup": q_bloom_pruned_lookup,
    "range_sharded_export": q_range_sharded_export,
    "doc_char_entropy": q_doc_char_entropy,
    "source_mixture_sample": q_source_mixture_sample,
    "token_zipf_slope": q_token_zipf_slope,
    "event_audience_overlap": q_event_audience_overlap,
    "events_value_mad_outliers": q_events_value_mad_outliers,
    "label_cohesion": q_label_cohesion,
    "knn_label_vote": q_knn_label_vote,
    "daily_revenue_ewma": q_daily_revenue_ewma,
    "bucketed_join_segments": q_bucketed_join_segments,
    "part_bfs_hops": q_part_bfs_hops,
    "local_supplier_revenue": q_local_supplier_revenue,
    "customer_order_distribution": q_customer_order_distribution,
    "rich_inactive_customers": q_rich_inactive_customers,
    "part_fuzzy_cross": q_part_fuzzy_cross,
    "doc_redact_pii": q_doc_redact_pii,
    "docs_cdc_merge": q_docs_cdc_merge,
    "exact_dedup_docs": q_exact_dedup_docs,
    "doc_stats_by_lang": q_doc_stats_by_lang,
    "doc_quality": q_doc_quality,
    "doc_fingerprint": q_doc_fingerprint,
    "lang_id": q_lang_id,
    "near_dup_minhash": q_near_dup_minhash,
    "near_dup_ngram": q_near_dup_ngram,
    "dup_cluster_histogram": q_dup_cluster_histogram,
    "near_dup_keep_best": q_near_dup_keep_best,
    "corpus_export": q_corpus_export,
    "simhash_fingerprint": q_simhash_fingerprint,
    "near_dup_simhash": q_near_dup_simhash,
    "lineitem_pricing": q_lineitem_pricing,
    "top_customer_order": q_top_customer_order,
    "nation_revenue": q_nation_revenue,
    "customers_no_orders": q_customers_no_orders,
    "supplier_region_stats": q_supplier_region_stats,
    "orders_priority_count": q_orders_priority_count,
    "region_top_supplier": q_region_top_supplier,
    "doc_distinct_by_lang": q_doc_distinct_by_lang,
    "ann_ivf_top10": q_ann_ivf_top10,
    "doc_top_tokens": q_doc_top_tokens,
    "doc_decontaminate": q_doc_decontaminate,
    "doc_tfidf_top3": q_doc_tfidf_top3,
    "doc_top_bigrams": q_doc_top_bigrams,
    "doc_repetition": q_doc_repetition,
    "doc_dup_windows": q_doc_dup_windows,
    "doc_dup_spans": q_doc_dup_spans,
    "doc_cut_dup_spans": q_doc_cut_dup_spans,
    "doc_stats_rollup": q_doc_stats_rollup,
    "doc_quality_decile": q_doc_quality_decile,
    "doc_stats_incremental": q_doc_stats_incremental,
    "cross_corpus_dedup": q_cross_corpus_dedup,
    "lang_balanced_sample": q_lang_balanced_sample,
    "cross_corpus_near_dup": q_cross_corpus_near_dup,
    "bm25_search": q_bm25_search,
    "export_manifest": q_export_manifest,
    "corpus_diff": q_corpus_diff,
    "doc_token_counts": q_doc_token_counts,
    "doc_shuffle_shards": q_doc_shuffle_shards,
    "label_centroids": q_label_centroids,
    "doc_top_tokens_sketch": q_doc_top_tokens_sketch,
    "pagerank_top20": q_pagerank_top20,
    "events_hourly": q_events_hourly,
    "user_sessions": q_user_sessions,
    "sliding_window": q_sliding_window,
    "top_events": q_top_events,
    "events_asof": q_events_asof,
    "events_range_join": q_events_range_join,
    "lineitem_quantiles": q_lineitem_quantiles,
    "shipping_priority": q_shipping_priority,
    "user_event_pivot": q_user_event_pivot,
    "doc_quality_gate": q_doc_quality_gate,
    "funnel_conversion": q_funnel_conversion,
    "supplier_triangles": q_supplier_triangles,
    "nation_revenue_share": q_nation_revenue_share,
    "daily_new_users": q_daily_new_users,
    "user_cumulative_value": q_user_cumulative_value,
    "user_event_rank": q_user_event_rank,
    "lang_len_token_corr": q_lang_len_token_corr,
    "lang_len_ols": q_lang_len_ols,
    "customer_top3_orders": q_customer_top3_orders,
    "user_event_quartiles": q_user_event_quartiles,
    "user_event_gaps": q_user_event_gaps,
    "events_scd2": q_events_scd2,
    "user_value_moving_sum": q_user_value_moving_sum,
    "user_click_purchase_outer": q_user_click_purchase_outer,
    "doc_sample_per_lang": q_doc_sample_per_lang,
    "doc_overlap_chunks": q_doc_overlap_chunks,
    "doc_weighted_sample": q_doc_weighted_sample,
    "events_latest_state": q_events_latest_state,
    "events_value_outliers": q_events_value_outliers,
    "doc_pack_chunks": q_doc_pack_chunks,
    "approx_distinct_by_lang": q_approx_distinct_by_lang,
    "knn_cosine_top10": q_knn_cosine_top10,
    "mmr_diverse_top10": q_mmr_diverse_top10,
    "reciprocal_nn": q_reciprocal_nn,
    "reciprocal_nn_ivf": q_reciprocal_nn_ivf,
    "embedding_near_dup": q_embedding_near_dup,
    "embedding_near_dup_exact": q_embedding_near_dup_exact,
    "doc_lm_score": q_doc_lm_score,
    "semantic_dedup_keep": q_semantic_dedup_keep,
    "doc_split_assign": q_doc_split_assign,
    "doc_quality_classifier": q_doc_quality_classifier,
    "doc_stopword_prune": q_doc_stopword_prune,
    "events_window_dedup": q_events_window_dedup,
    "kmeans_clusters": q_kmeans_clusters,
    "source_cap": q_source_cap,
    "user_retention_cohorts": q_user_retention_cohorts,
    "doc_ngram_novelty": q_doc_ngram_novelty,
    "doc_oov_rate": q_doc_oov_rate,
    "source_dup_stats": q_source_dup_stats,
    "user_event_entropy": q_user_event_entropy,
    "event_transitions": q_event_transitions,
    "table_profile": q_table_profile,
    "bpe_train_merges": q_bpe_train_merges,
    "bpe_encode_stats": q_bpe_encode_stats,
    "inverted_index": q_inverted_index,
    "token_pmi": q_token_pmi,
    "doc_length_pctile": q_doc_length_pctile,
    "event_props_stats": q_event_props_stats,
    "knn_int8_recall": q_knn_int8_recall,
    "knn_pq_recall": q_knn_pq_recall,
    "training_shards": q_training_shards,
    "promo_revenue": q_promo_revenue,
    "brand_nation_revenue": q_brand_nation_revenue,
    "small_qty_loss": q_small_qty_loss,
    "order_sole_late_supplier": q_order_sole_late_supplier,
    "part_supplier_concentration": q_part_supplier_concentration,
    "doc_stats_cube": q_doc_stats_cube,
    "events_winsorized": q_events_winsorized,
    "ab_test_welch": q_ab_test_welch,
    "customer_rfm": q_customer_rfm,
    "nation_trade_volume": q_nation_trade_volume,
    "user_event_3grams": q_user_event_3grams,
    "doc_filter_funnel": q_doc_filter_funnel,
    "events_hourly_gapfill": q_events_hourly_gapfill,
    "zorder_pruned_scan": q_zorder_pruned_scan,
    "doc_dsir_weights": q_doc_dsir_weights,
    "rolling_active_users": q_rolling_active_users,
    "event_type_lift": q_event_type_lift,
    "doc_length_psi": q_doc_length_psi,
    "part_kcore": q_part_kcore,
    "user_decayed_value": q_user_decayed_value,
    "purchase_attribution": q_purchase_attribution,
    "events_cusum": q_events_cusum,
    "key_skew_profile": q_key_skew_profile,
    "user_value_range_24h": q_user_value_range_24h,
    "orders_benford": q_orders_benford,
    "user_survival_km": q_user_survival_km,
    "ordered_funnel_1h": q_ordered_funnel_1h,
    "session_paths": q_session_paths,
    "returned_item_revenue": q_returned_item_revenue,
    "large_orders": q_large_orders,
    "part_band_revenue": q_part_band_revenue,
    "nation_market_share": q_nation_market_share,
    "important_parts": q_important_parts,
    "supplier_diversity": q_supplier_diversity,
    "er_pages_entities": q_er_pages_entities,
    "relational_er_entities": q_relational_er_entities,
}

_TOK = TOKEN_PATTERN
_PUN = PUNCT_PATTERN

# Shared by near_dup_minhash / near_dup_keep_best / corpus_export:
# exhaustive 3-shingle Jaccard pairs + recursive-CTE transitive closure
# (cluster = min doc_id) over the SRC relation.
_NEAR_DUP_CLOSURE_BODY = r"""
        arrs AS (
            SELECT doc_id,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM SRC
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
            FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        ),
        edges AS (
            SELECT l, r
            FROM inter
            JOIN sizes sa ON sa.doc_id = inter.l
            JOIN sizes sb ON sb.doc_id = inter.r
            WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
        ),
        bidir AS (
            SELECT l AS src, r AS dst FROM edges
            UNION ALL
            SELECT r AS src, l AS dst FROM edges
        ),
        reach(a, b) AS (
            SELECT doc_id, doc_id FROM SRC
            UNION
            SELECT reach.a, bidir.dst FROM reach JOIN bidir ON bidir.src = reach.b
        ),
        lab AS (SELECT a AS doc_id, MIN(b) AS cluster_id FROM reach GROUP BY a)
"""


def _near_dup_closure(src: str) -> str:
    return "WITH RECURSIVE " + _NEAR_DUP_CLOSURE_BODY.replace("SRC", src)


ORACLE_SQL = {
    "er_blocking_eval": r"""
        WITH arrs AS (
            SELECT doc_id,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
            FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        ),
        truth AS (
            SELECT l, r
            FROM inter
            JOIN sizes sa ON sa.doc_id = inter.l
            JOIN sizes sb ON sb.doc_id = inter.r
            WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
        ),
        nt AS (SELECT COUNT(*) AS n_truth FROM truth),
        k1 AS (SELECT doc_id, substr(text, 1, 24) AS k FROM documents),
        p1 AS (
            SELECT a.doc_id AS l, b.doc_id AS r
            FROM k1 a JOIN k1 b ON a.k = b.k AND a.doc_id < b.doc_id
        ),
        k2 AS (
            SELECT doc_id, lang || '|' || CAST(n_chars // 200 AS VARCHAR) AS k
            FROM documents
        ),
        p2 AS (
            SELECT a.doc_id AS l, b.doc_id AS r
            FROM k2 a JOIN k2 b ON a.k = b.k AND a.doc_id < b.doc_id
        ),
        u AS (
            SELECT 'prefix24' AS scheme,
                   (SELECT COUNT(*) FROM p1) AS n_pred,
                   (SELECT COUNT(*) FROM p1 JOIN truth USING (l, r)) AS tp
            UNION ALL
            SELECT 'lang_len200',
                   (SELECT COUNT(*) FROM p2),
                   (SELECT COUNT(*) FROM p2 JOIN truth USING (l, r))
        )
        SELECT scheme, n_pred, nt.n_truth, tp,
               n_pred - tp AS fp,
               nt.n_truth - tp AS fn,
               CASE WHEN n_pred > 0 THEN CAST(tp AS DOUBLE) / n_pred
                    ELSE 0.0 END AS "precision",
               CASE WHEN nt.n_truth > 0 THEN CAST(tp AS DOUBLE) / nt.n_truth
                    ELSE 0.0 END AS recall,
               CASE WHEN n_pred + nt.n_truth > 0
                    THEN 2.0 * tp / (n_pred + nt.n_truth)
                    ELSE 0.0 END AS f1
        FROM u, nt
    """,
    "er_fs_weights": r"""
        WITH arrs AS (
            SELECT doc_id,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
            FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        ),
        truth AS (
            SELECT l, r
            FROM inter
            JOIN sizes sa ON sa.doc_id = inter.l
            JOIN sizes sb ON sb.doc_id = inter.r
            WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
        ),
        k2 AS (
            SELECT doc_id, lang || '|' || CAST(n_chars // 200 AS VARCHAR) AS k,
                   substr(text, 1, 24) AS pfx, source
            FROM documents
        ),
        cand AS (
            SELECT a.doc_id AS l, b.doc_id AS r,
                   CAST(2 * CAST(a.pfx = b.pfx AS INTEGER)
                        + CAST(a.source = b.source AS INTEGER) AS BIGINT) AS pattern
            FROM k2 a JOIN k2 b ON a.k = b.k AND a.doc_id < b.doc_id
        ),
        lab AS (
            SELECT cand.pattern,
                   CASE WHEN t.l IS NOT NULL THEN 1 ELSE 0 END AS is_match
            FROM cand LEFT JOIN truth t ON cand.l = t.l AND cand.r = t.r
        ),
        agg AS (
            SELECT pattern,
                   CAST(SUM(is_match) AS BIGINT) AS n_match,
                   CAST(SUM(1 - is_match) AS BIGINT) AS n_nonmatch
            FROM lab GROUP BY pattern
        ),
        tot AS (
            SELECT CAST(SUM(n_match) AS BIGINT) AS tm,
                   CAST(SUM(n_nonmatch) AS BIGINT) AS tn
            FROM agg
        )
        SELECT pattern, n_match, n_nonmatch,
               CAST(n_match AS DOUBLE) / tm AS m,
               CAST(n_nonmatch AS DOUBLE) / tn AS u,
               CASE WHEN n_match > 0 AND n_nonmatch > 0
                    THEN ROUND(log2((CAST(n_match AS DOUBLE) / tm)
                                    / (CAST(n_nonmatch AS DOUBLE) / tn)), 4)
                    ELSE NULL END AS weight
        FROM agg, tot
        ORDER BY pattern
    """,
    # American Soundex in pure SQL string ops (RE2 has no backreferences,
    # so same-digit runs collapse one digit class at a time): letters-only
    # upper first word → first letter + (first-letter digit ‖ tail with
    # H/W deleted, consonants→digits, vowels→0) → collapse runs → drop the
    # first-letter position → strip 0s → pad to 3. Fuzz-pinned equal to
    # functions/phonetic.soundex over 5k random strings + the published
    # vectors (Ashcraft/Tymczak/Pfister/...).
    "er_phonetic_blocking": r"""
        WITH w AS (
          SELECT regexp_replace(upper(regexp_replace(p_name, '\s.*$', '')),
                                '[^A-Z]', '', 'g') AS L
          FROM part
        ),
        c AS (
          SELECT CASE WHEN L = '' THEN '' ELSE
            substr(L, 1, 1) ||
            substr(
              regexp_replace(
                substr(
                  regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                  regexp_replace(regexp_replace(
                    translate(substr(L, 1, 1),
                              'BFPVCGJKQSXZDTLMNRAEIOUY', '111122222222334556000000')
                    || translate(translate(substr(L, 2), 'HW', ''),
                                 'BFPVCGJKQSXZDTLMNRAEIOUY', '111122222222334556000000'),
                    '11+', '1', 'g'), '22+', '2', 'g'), '33+', '3', 'g'),
                    '44+', '4', 'g'), '55+', '5', 'g'), '66+', '6', 'g'),
                  2),
                '0', '', 'g')
              || '000', 1, 3)
          END AS code FROM w
        )
        SELECT code, CAST(count(*) AS BIGINT) AS n,
               CAST(count(*) * (count(*) - 1) // 2 AS BIGINT) AS n_pairs
        FROM c GROUP BY code ORDER BY code
    """,
    # greedy 1:1 assignment as a recursive CTE: each recursion step picks
    # the best remaining candidate (score desc, left, right) whose endpoints
    # are not yet in the accumulated used-lists — exactly the serial greedy
    # scan the distributed mutual-best rounds reproduce. O(steps × |cand|)
    # with list_contains, fine at oracle scale (sf0.01/sf0.1). The
    # common-prefix score counts prefix-equal positions i ∈ [1,40]
    # (monotone, so the count IS the LCP length incl. the both-exhausted
    # tail — same as the engine's padded-lane cumprod).
    "er_one_to_one": r"""
        WITH RECURSIVE keyed AS (
            SELECT doc_id, substr(text, 1, 8) AS k, substr(text, 1, 40) AS pfx
            FROM documents
        ),
        cand AS (
            SELECT CASE WHEN a.doc_id % 2 = 0 THEN a.doc_id ELSE b.doc_id END AS left_id,
                   CASE WHEN a.doc_id % 2 = 0 THEN b.doc_id ELSE a.doc_id END AS right_id,
                   CAST((SELECT count(*) FROM range(1, 41) t(i)
                         WHERE substr(a.pfx, 1, CAST(i AS INT))
                             = substr(b.pfx, 1, CAST(i AS INT))) AS DOUBLE) AS score
            FROM keyed a JOIN keyed b ON a.k = b.k AND a.doc_id < b.doc_id
            WHERE a.doc_id % 2 <> b.doc_id % 2
        ),
        sel AS (
            SELECT 0 AS step, CAST(NULL AS BIGINT) AS left_id,
                   CAST(NULL AS BIGINT) AS right_id, CAST(NULL AS DOUBLE) AS score,
                   CAST([] AS BIGINT[]) AS ul, CAST([] AS BIGINT[]) AS ur
            UNION ALL
            SELECT s.step + 1, c.left_id, c.right_id, c.score,
                   list_append(s.ul, c.left_id), list_append(s.ur, c.right_id)
            FROM sel s CROSS JOIN LATERAL (
                SELECT * FROM cand c
                WHERE NOT list_contains(s.ul, c.left_id)
                  AND NOT list_contains(s.ur, c.right_id)
                ORDER BY c.score DESC, c.left_id, c.right_id LIMIT 1
            ) c
        )
        SELECT left_id, right_id, score FROM sel WHERE step > 0
        ORDER BY left_id, right_id
    """,
    "er_sorted_neighborhood": r"""
        WITH r AS (
            SELECT doc_id,
                   ROW_NUMBER() OVER (ORDER BY substr(text, 1, 16), doc_id) AS rn
            FROM documents
        )
        SELECT a.doc_id AS left_id, b.doc_id AS right_id,
               CAST(b.rn - a.rn AS BIGINT) AS gap
        FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 9
        ORDER BY left_id, right_id
    """,
    "er_meta_blocking": r"""
        WITH k AS (
            SELECT doc_id, '0|' || substr(text, 1, 8) AS k FROM documents
            UNION ALL
            SELECT doc_id, '1|' || substr(text, 9, 8) FROM documents
            UNION ALL
            SELECT doc_id, '2|' || substr(text, 17, 8) FROM documents
        ),
        sz AS (SELECT k, COUNT(*) AS c FROM k GROUP BY k),
        good AS (
            SELECT k.doc_id, k.k FROM k JOIN sz USING (k)
            WHERE c BETWEEN 2 AND 100
        ),
        pw AS (
            SELECT a.doc_id AS l, b.doc_id AS r, CAST(COUNT(*) AS BIGINT) AS w
            FROM good a JOIN good b ON a.k = b.k AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        ),
        m AS (
            SELECT CAST(SUM(w) AS DOUBLE) / COUNT(*) AS mw FROM pw
        )
        SELECT l AS left_id, r AS right_id, w AS weight
        FROM pw, m
        WHERE w > mw
        ORDER BY left_id, right_id
    """,
    "er_cluster_metrics": r"""
        WITH d AS (
            SELECT substr(text, 1, 8) AS tk,
                   substr(text, 1, 16) AS pk_prefix16,
                   lang || '|' || CAST(n_chars // 200 AS VARCHAR) AS pk_lang_len
            FROM documents
        ),
        u AS (
            SELECT 'prefix16' AS scheme, pk_prefix16 AS pk, tk FROM d
            UNION ALL
            SELECT 'lang_len', pk_lang_len, tk FROM d
        ),
        cells AS (
            SELECT scheme, pk, tk, COUNT(*) AS c FROM u GROUP BY scheme, pk, tk
        ),
        agg AS (
            SELECT scheme, SUM(c) AS n, SUM(c * (c - 1) // 2) AS sn
            FROM cells GROUP BY scheme
        ),
        ps AS (
            SELECT scheme, COUNT(*) AS kp, SUM(a * (a - 1) // 2) AS sa
            FROM (SELECT scheme, pk, SUM(c) AS a FROM cells GROUP BY scheme, pk)
            GROUP BY scheme
        ),
        ts AS (
            SELECT scheme, COUNT(*) AS kt, SUM(b * (b - 1) // 2) AS sb
            FROM (SELECT scheme, tk, SUM(c) AS b FROM cells GROUP BY scheme, tk)
            GROUP BY scheme
        ),
        f AS (
            SELECT agg.scheme AS scheme, n, kp, kt, sn, sa, sb,
                   n * (n - 1) // 2 AS t_pairs
            FROM agg JOIN ps USING (scheme) JOIN ts USING (scheme)
        ),
        g AS (
            SELECT *,
                   CASE WHEN t_pairs > 0
                        THEN CAST(sa * sb AS DOUBLE) / CAST(t_pairs AS DOUBLE)
                        ELSE 0.0 END AS exp_
            FROM f
        )
        SELECT scheme,
               CAST(n AS BIGINT) AS n,
               CAST(kp AS BIGINT) AS pred_clusters,
               CAST(kt AS BIGINT) AS truth_clusters,
               CAST(sn AS BIGINT) AS pair_tp,
               CAST(sa - sn AS BIGINT) AS pair_fp,
               CAST(sb - sn AS BIGINT) AS pair_fn,
               CASE WHEN sa > 0
                    THEN CAST(sn AS DOUBLE) / CAST(sa AS DOUBLE) END AS pair_precision,
               CASE WHEN sb > 0
                    THEN CAST(sn AS DOUBLE) / CAST(sb AS DOUBLE) END AS pair_recall,
               CASE WHEN sa + sb > 0
                    THEN 2.0 * sn / CAST(sa + sb AS DOUBLE) END AS pair_f1,
               CASE WHEN (CAST(sa + sb AS DOUBLE) / 2.0 - exp_) <> 0
                    THEN (CAST(sn AS DOUBLE) - exp_)
                         / (CAST(sa + sb AS DOUBLE) / 2.0 - exp_) END AS ari
        FROM g
        ORDER BY scheme
    """,
    "er_block_filtering": r"""
        WITH k AS (
            SELECT doc_id, '0|' || substr(text, 1, 8) AS k FROM documents
            UNION ALL
            SELECT doc_id, '1|' || substr(text, 9, 8) FROM documents
            UNION ALL
            SELECT doc_id, '2|' || substr(text, 17, 8) FROM documents
        ),
        sz AS (SELECT k, COUNT(*) AS c FROM k GROUP BY k),
        ranked AS (
            SELECT k.doc_id, k.k,
                   ROW_NUMBER() OVER (
                       PARTITION BY k.doc_id ORDER BY sz.c, k.k) AS rn,
                   COUNT(*) OVER (PARTITION BY k.doc_id) AS cnt
            FROM k JOIN sz USING (k)
        ),
        kept AS (
            SELECT doc_id, k FROM ranked WHERE rn <= (3 * cnt + 4) // 5
        ),
        pw AS (
            SELECT a.doc_id AS l, b.doc_id AS r, CAST(COUNT(*) AS BIGINT) AS w
            FROM kept a JOIN kept b ON a.k = b.k AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        )
        SELECT l AS left_id, r AS right_id, w AS weight
        FROM pw ORDER BY left_id, right_id
    """,
    "doc_jaccard_join": r"""
        WITH arrs AS (
            SELECT doc_id,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
            FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        )
        SELECT l AS left_id, r AS right_id,
               ROUND(i * 1.0 / (sa.n + sb.n - i), 4) AS jaccard
        FROM inter
        JOIN sizes sa ON sa.doc_id = inter.l
        JOIN sizes sb ON sb.doc_id = inter.r
        WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
        ORDER BY left_id, right_id
    """,
    "doc_containment": r"""
        WITH arrs AS (
            SELECT doc_id,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS src, b.doc_id AS dst, COUNT(*) AS i
            FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id <> b.doc_id
            GROUP BY a.doc_id, b.doc_id
        )
        SELECT src AS src_id, dst AS dst_id,
               ROUND(i * 1.0 / s.n, 4) AS containment
        FROM inter
        JOIN sizes s ON s.doc_id = inter.src
        WHERE i * 1.0 / s.n >= 0.8
        ORDER BY src_id, dst_id
    """,
    "part_skyline": """
        SELECT p_partkey, p_retailprice, p_size
        FROM part p
        WHERE NOT EXISTS (
            SELECT 1 FROM part q
            WHERE q.p_retailprice <= p.p_retailprice
              AND q.p_size <= p.p_size
              AND (q.p_retailprice < p.p_retailprice OR q.p_size < p.p_size)
        )
    """,
    "exact_dedup_docs": (
        "SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dupes FROM documents GROUP BY text"
    ),
    "orders_priority_count": """
        SELECT o_orderpriority, COUNT(*) AS n_orders
        FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey AND l.l_discount > 0.05)
        GROUP BY o_orderpriority
    """,
    "region_top_supplier": """
        SELECT r_name, s_suppkey, s_name, s_acctbal FROM (
            SELECT r.r_name, s.s_suppkey, s.s_name, s.s_acctbal,
                   ROW_NUMBER() OVER (PARTITION BY r.r_name
                                      ORDER BY s.s_acctbal DESC, s.s_suppkey) AS rn
            FROM supplier s
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
        ) WHERE rn = 1
    """,
    "doc_distinct_by_lang": """
        SELECT lang, COUNT(*) AS n_docs, COUNT(DISTINCT text) AS n_distinct,
               ROUND(1.0 - COUNT(DISTINCT text) * 1.0 / COUNT(*), 4) AS dup_rate
        FROM documents GROUP BY lang
    """,
    "doc_stats_by_lang": f"""
        SELECT lang,
               COUNT(*) AS n_docs,
               CAST(SUM(len(regexp_extract_all(text, '{_TOK}'))) AS BIGINT) AS total_tokens,
               ROUND(SUM(length(text)) * 1.0 / COUNT(*), 2) AS avg_chars
        FROM documents GROUP BY lang
    """,
    "doc_quality": f"""
        SELECT doc_id,
               length(text) AS n_chars,
               len(regexp_extract_all(text, '{_TOK}')) AS n_tokens,
               ROUND(CASE WHEN length(text) > 0
                     THEN len(regexp_extract_all(text, '{_PUN}')) * 1.0 / length(text)
                     ELSE 0 END, 4) AS punct_ratio,
               ROUND(CASE WHEN len(regexp_extract_all(text, '{_TOK}')) > 0
                     THEN length(text) * 1.0 / len(regexp_extract_all(text, '{_TOK}'))
                     ELSE 0 END, 4) AS mean_token_len
        FROM documents
        WHERE len(regexp_extract_all(text, '{_TOK}')) >= 10
    """,
    "doc_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents",
    "doc_weighted_sample": f"""
        SELECT doc_id, w, skey FROM (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{_TOK}')) AS BIGINT) AS w,
                   ROUND(POW((((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296) + 1.0) / 4294967297.0,
                             1.0 / GREATEST(len(regexp_extract_all(text, '{_TOK}')), 1)),
                         12) AS skey
            FROM documents
        )
        ORDER BY skey DESC, doc_id ASC
        LIMIT 20
    """,
    "doc_overlap_chunks": f"""
        WITH d AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{_TOK}')) AS BIGINT) AS n
            FROM documents
        ),
        c AS (
            SELECT doc_id, n,
                   CAST(1 + CASE WHEN n > 40 THEN (n - 40 + 31) // 32 ELSE 0 END
                        AS BIGINT) AS k
            FROM d
        )
        SELECT doc_id, i AS chunk_idx, i * 32 AS token_start,
               LEAST(40, n - i * 32) AS token_len
        FROM c, unnest(range(0, k)) AS t(i)
    """,
    "nation_revenue_share": """
        WITH rev AS (
            SELECT c.c_nationkey,
                   SUM(CAST(o.o_totalprice AS DECIMAL(18,2))) AS revenue
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_nationkey
        )
        SELECT r.r_name, n.n_name, CAST(rev.revenue AS DOUBLE) AS revenue,
               ROUND(CAST(rev.revenue AS DOUBLE)
                     / CAST(SUM(rev.revenue) OVER (PARTITION BY r.r_name) AS DOUBLE), 6)
                   AS share
        FROM rev
        JOIN nation n ON n.n_nationkey = rev.c_nationkey
        JOIN region r ON r.r_regionkey = n.n_regionkey
        ORDER BY r.r_name, n.n_name
    """,
    "daily_revenue_ewma": """
        WITH RECURSIVE
        dx AS (
            SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
            FROM orders GROUP BY 1
        ),
        idx AS (SELECT day, cents, ROW_NUMBER() OVER (ORDER BY day) AS i FROM dx),
        e AS (
            SELECT i, CAST(cents AS DOUBLE) AS s FROM idx WHERE i = 1
            UNION ALL
            SELECT idx.i, (CAST(idx.cents AS DOUBLE) + 7 * e.s) / 8
            FROM e JOIN idx ON idx.i = e.i + 1
        )
        SELECT idx.day, CAST(idx.cents AS BIGINT) AS gmv_cents,
               ROUND(e.s, 4) AS ewma_cents
        FROM e JOIN idx USING (i)
        ORDER BY idx.day
    """,
    "daily_new_users": """
        WITH f AS (
            SELECT user_id, strftime(MIN(ts), '%Y-%m-%d') AS day
            FROM events GROUP BY user_id
        ),
        d AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS new_users FROM f GROUP BY day)
        SELECT day, new_users,
               CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
        FROM d ORDER BY day
    """,
    "events_latest_state": """
        SELECT user_id, event_type, value FROM (
            SELECT user_id, event_type, value,
                   ROW_NUMBER() OVER (
                       PARTITION BY user_id, event_type
                       ORDER BY ts DESC, event_id DESC
                   ) AS rk
            FROM events
        ) WHERE rk = 1
    """,
    "events_value_outliers": """
        WITH st AS (
            SELECT event_type, AVG(value) + 3 * STDDEV_POP(value) AS cut
            FROM events GROUP BY event_type
        )
        SELECT e.event_id, e.event_type, e.value
        FROM events e JOIN st USING (event_type)
        WHERE e.value > st.cut
    """,
    "supplier_triangles": """
        WITH op AS (
            SELECT DISTINCT a.l_orderkey, a.l_suppkey AS s1, b.l_suppkey AS s2
            FROM lineitem a
            JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
        ),
        e AS (
            SELECT s1, s2 FROM op GROUP BY s1, s2 HAVING COUNT(*) >= 5
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
        FROM e e1
        JOIN e e2 ON e1.s2 = e2.s1
        JOIN e e3 ON e1.s1 = e3.s1 AND e2.s2 = e3.s2
    """,
    "funnel_conversion": """
        WITH v AS (
            SELECT user_id, MIN(ts) AS t_view FROM events
            WHERE event_type = 'view' GROUP BY user_id
        ),
        c AS (
            SELECT e.user_id, MIN(e.ts) AS t_click
            FROM events e JOIN v USING (user_id)
            WHERE e.event_type = 'click' AND e.ts > v.t_view GROUP BY e.user_id
        ),
        p AS (
            SELECT e.user_id, MIN(e.ts) AS t_buy
            FROM events e JOIN c USING (user_id)
            WHERE e.event_type = 'purchase' AND e.ts > c.t_click GROUP BY e.user_id
        )
        SELECT 'view' AS stage, CAST(COUNT(*) AS BIGINT) AS n_users FROM v
        UNION ALL
        SELECT 'view_click', CAST(COUNT(*) AS BIGINT) FROM c
        UNION ALL
        SELECT 'view_click_purchase', CAST(COUNT(*) AS BIGINT) FROM p
        ORDER BY stage
    """,
    "doc_stats_incremental": f"""
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(len(regexp_extract_all(text, '{_TOK}'))) AS BIGINT)
                   AS total_tokens
        FROM documents GROUP BY lang ORDER BY lang
    """,
    "doc_quality_decile": f"""
        SELECT doc_id, n_tokens,
               ((ROW_NUMBER() OVER (ORDER BY n_tokens, doc_id) - 1) * 10)
                   // COUNT(*) OVER () AS decile
        FROM (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{_TOK}')) AS BIGINT) AS n_tokens
            FROM documents
        )
    """,
    "corpus_diff": """
        WITH a AS (SELECT doc_id, md5(text) AS h FROM documents),
        b AS (
            SELECT doc_id,
                   md5(CASE WHEN doc_id % 37 = 0 THEN upper(text) ELSE text END) AS h
            FROM documents WHERE doc_id % 53 <> 0
        )
        SELECT a.doc_id,
               CASE WHEN b.doc_id IS NULL THEN 'missing' ELSE 'changed' END AS status
        FROM a LEFT JOIN b USING (doc_id)
        WHERE b.doc_id IS NULL OR a.h <> b.h
        ORDER BY a.doc_id
    """,
    "export_manifest": """
        WITH f AS (
            SELECT lang, doc_id, doc_id // 64 AS shard, md5(text) AS h FROM documents
        ),
        s AS (
            SELECT lang, shard, md5(string_agg(h, '' ORDER BY doc_id)) AS sh
            FROM f GROUP BY lang, shard
        )
        SELECT lang,
               md5(string_agg(sh, '' ORDER BY shard)) AS digest,
               CAST(COUNT(*) AS BIGINT) AS n_shards
        FROM s GROUP BY lang ORDER BY lang
    """,
    "bm25_search": """
        WITH toks AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
        ),
        dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, AVG(dl) AS avgdl FROM dl),
        tf AS (
            SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS tf FROM toks
            WHERE tok IN ('hash', 'vector', 'merge') GROUP BY doc_id, tok
        ),
        df AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY tok),
        sc AS (
            SELECT tf.doc_id,
                   SUM(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                       * tf.tf * 2.2
                       / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl))) AS s
            FROM tf JOIN df USING (tok) JOIN dl USING (doc_id), stats
            GROUP BY tf.doc_id
        )
        SELECT doc_id, ROUND(s, 6) AS score FROM sc
        ORDER BY score DESC, doc_id LIMIT 20
    """,
    "cross_corpus_near_dup": r"""
        WITH arrs AS (
            SELECT doc_id, source,
                   regexp_split_to_array(
                       trim(regexp_replace(lower(text), '[^\w\s]', ' ', 'g')),
                       '\s+') AS a
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS shingle
            FROM arrs, unnest(range(1, len(a) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        sides AS (SELECT doc_id, source >= 'src5' AS is_new FROM arrs),
        inter AS (
            SELECT nw.doc_id AS new_doc_id, ol.doc_id AS old_doc_id, COUNT(*) AS i
            FROM sh nw
            JOIN sides sn ON sn.doc_id = nw.doc_id AND sn.is_new
            JOIN sh ol ON nw.shingle = ol.shingle
            JOIN sides so ON so.doc_id = ol.doc_id AND NOT so.is_new
            GROUP BY 1, 2
        )
        SELECT new_doc_id, old_doc_id,
               ROUND(i * 1.0 / (sa.n + sb.n - i), 4) AS jaccard
        FROM inter
        JOIN sizes sa ON sa.doc_id = new_doc_id
        JOIN sizes sb ON sb.doc_id = old_doc_id
        WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
    """,
    "source_mixture_sample": """
        WITH c AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                   FROM documents GROUP BY source),
        w AS (SELECT source, n,
                     CAST(CAST(SUBSTR(source, 4) AS INTEGER) % 3 + 1 AS BIGINT) AS wt
              FROM c),
        tot AS (SELECT CAST(SUM(wt) AS BIGINT) AS sw, CAST(SUM(n) AS BIGINT) AS nn
                FROM w),
        q AS (SELECT source, LEAST(n, (((4 * nn) // 10) * wt) // sw) AS k
              FROM w, tot),
        ranked AS (
            SELECT d.doc_id, d.source,
                   ROW_NUMBER() OVER (
                       PARTITION BY d.source
                       ORDER BY ((CAST(d.doc_id AS HUGEINT) * 2654435761) % 4294967296),
                                d.doc_id
                   ) AS rn
            FROM documents d
        )
        SELECT doc_id, source
        FROM ranked JOIN q USING (source)
        WHERE rn <= q.k
        ORDER BY source, doc_id
    """,
    "lang_balanced_sample": """
        WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY lang),
        w AS (SELECT lang, n, CAST(FLOOR(SQRT(n)) AS BIGINT) AS wt FROM c),
        tot AS (SELECT CAST(SUM(wt) AS BIGINT) AS sw, CAST(SUM(n) AS BIGINT) AS nn FROM w),
        q AS (
            SELECT lang, n, LEAST(n, (((6 * nn) // 10) * wt) // sw) AS k
            FROM w, tot
        )
        SELECT d.doc_id, d.lang
        FROM documents d JOIN q USING (lang)
        WHERE ((CAST(d.doc_id AS HUGEINT) * 2654435761) % 4294967296) * q.n < 4294967296 * q.k
    """,
    "cross_corpus_dedup": """
        WITH k AS (
            SELECT doc_id, source,
                   array_to_string(list_slice(string_split(text, ' '), 1, 5), ' ') AS key5
            FROM documents
        )
        SELECT doc_id FROM k
        WHERE source >= 'src5'
          AND key5 NOT IN (SELECT key5 FROM k WHERE source < 'src5')
    """,
    "doc_stats_rollup": f"""
        SELECT coalesce(lang, 'ALL') AS lang,
               coalesce(len_bucket, 'ALL') AS len_bucket,
               COUNT(*) AS n_docs,
               CAST(SUM(n_toks) AS BIGINT) AS total_tokens
        FROM (
            SELECT lang,
                   CASE WHEN len(regexp_extract_all(text, '{_TOK}')) < 50
                        THEN 'short' ELSE 'long' END AS len_bucket,
                   len(regexp_extract_all(text, '{_TOK}')) AS n_toks
            FROM documents
        )
        GROUP BY ROLLUP (lang, len_bucket)
    """,
    # 8-token duplicated windows over whitespace tokens — split pattern is
    # the IDENTICAL RE2 string as stages/substr.TOKEN_SPLIT_PATTERN; the
    # oracle groups actual window STRINGS where the engine groups 64-bit
    # rolling hashes (hash-exactness certified by the comparison itself)
    "doc_dup_windows": r"""
        WITH toks AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '[ \t\n\r]+'),
                               t -> t <> '') AS ts
            FROM documents
        ),
        idx AS (
            SELECT doc_id, ts, unnest(generate_series(1, len(ts) - 7)) AS i
            FROM toks WHERE len(ts) >= 8
        ),
        wins AS (
            SELECT doc_id, i - 1 AS pos, array_to_string(ts[i:i+7], ' ') AS w
            FROM idx
        ),
        dup AS (SELECT w FROM wins GROUP BY w HAVING COUNT(*) >= 2)
        SELECT doc_id, COUNT(*) AS n_windows,
               CAST(SUM(CASE WHEN w IN (SELECT w FROM dup) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_dup_windows
        FROM wins GROUP BY doc_id
    """,
    "doc_dup_spans": r"""
        WITH toks AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '[ \t\n\r]+'),
                               t -> t <> '') AS ts
            FROM documents
        ),
        idx AS (
            SELECT doc_id, ts, unnest(generate_series(1, len(ts) - 7)) AS i
            FROM toks WHERE len(ts) >= 8
        ),
        wins AS (
            SELECT doc_id, i - 1 AS pos, array_to_string(ts[i:i+7], ' ') AS w
            FROM idx
        ),
        dup AS (SELECT w FROM wins GROUP BY w HAVING COUNT(*) >= 2),
        dupw AS (SELECT doc_id, pos FROM wins WHERE w IN (SELECT w FROM dup)),
        flagged AS (
            SELECT doc_id, pos,
                   CASE WHEN lag(pos) OVER (PARTITION BY doc_id ORDER BY pos)
                             IS NULL
                          OR pos > lag(pos) OVER (PARTITION BY doc_id
                                                  ORDER BY pos) + 8
                        THEN 1 ELSE 0 END AS brk
            FROM dupw
        ),
        islands AS (
            SELECT doc_id, pos,
                   SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
            FROM flagged
        )
        SELECT doc_id, MIN(pos) AS start_tok, MAX(pos) + 8 AS end_tok
        FROM islands GROUP BY doc_id, island
    """,
    "doc_cut_dup_spans": r"""
        WITH toks AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '[ \t\n\r]+'),
                               t -> t <> '') AS ts
            FROM documents
        ),
        idx AS (
            SELECT doc_id, ts, unnest(generate_series(1, len(ts) - 7)) AS i
            FROM toks WHERE len(ts) >= 8
        ),
        wins AS (
            SELECT doc_id, i - 1 AS pos, array_to_string(ts[i:i+7], ' ') AS w
            FROM idx
        ),
        dup AS (SELECT w FROM wins GROUP BY w HAVING COUNT(*) >= 2),
        dupw AS (SELECT doc_id, pos FROM wins WHERE w IN (SELECT w FROM dup)),
        flagged AS (
            SELECT doc_id, pos,
                   CASE WHEN lag(pos) OVER (PARTITION BY doc_id ORDER BY pos)
                             IS NULL
                          OR pos > lag(pos) OVER (PARTITION BY doc_id
                                                  ORDER BY pos) + 8
                        THEN 1 ELSE 0 END AS brk
            FROM dupw
        ),
        islands AS (
            SELECT doc_id, pos,
                   SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
            FROM flagged
        ),
        spans AS (
            SELECT doc_id, MIN(pos) AS s, MAX(pos) + 8 AS e
            FROM islands GROUP BY doc_id, island
        ),
        tokpos AS (
            SELECT doc_id, unnest(ts) AS tok,
                   generate_subscripts(ts, 1) - 1 AS p
            FROM toks
        ),
        marked AS (
            SELECT t.doc_id, t.tok, t.p,
                   NOT EXISTS (SELECT 1 FROM spans s
                               WHERE s.doc_id = t.doc_id
                                 AND t.p >= s.s AND t.p < s.e) AS keep
            FROM tokpos t
        )
        SELECT doc_id,
               coalesce(string_agg(tok, ' ' ORDER BY p) FILTER (WHERE keep),
                        '') AS clean_text,
               CAST(coalesce(SUM(CASE WHEN keep THEN 0 ELSE 1 END), 0)
                    AS BIGINT) AS n_cut_tokens
        FROM marked GROUP BY doc_id
    """,
    # money sums in DECIMAL (exact, order-invariant) so the parallel
    # integer-cents engine matches at any scale; see q_lineitem_pricing
    "lineitem_pricing": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS DECIMAL(18,2))) AS DOUBLE) AS sum_qty,
               CAST(SUM(CAST(l_extendedprice AS DECIMAL(18,2))) AS DOUBLE) AS sum_base_price,
               CAST(ROUND(SUM(CAST(l_extendedprice AS DECIMAL(18,2))
                               * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE)
                   AS sum_disc_price,
               ROUND(CAST(SUM(CAST(l_quantity AS DECIMAL(18,2))) AS DOUBLE) / COUNT(*), 2)
                   AS avg_qty,
               COUNT(*) AS n_rows
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
        GROUP BY l_returnflag, l_linestatus
    """,
    "top_customer_order": """
        SELECT o_custkey, o_orderkey, o_totalprice FROM (
            SELECT o_custkey, o_orderkey, o_totalprice,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                                      ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
            FROM orders
        ) WHERE rn = 1
    """,
    "nation_revenue": """
        SELECT n.n_name,
               CAST(SUM(CAST(o.o_totalprice AS DECIMAL(18,2))) AS DOUBLE) AS revenue,
               COUNT(*) AS n_orders
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "customers_no_orders": """
        SELECT c_custkey FROM customer c
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey AND o.o_orderstatus = 'F')
    """,
    # DECIMAL sum (exact) mirrors the engine's integer-cents partials
    "supplier_region_stats": """
        SELECT r.r_name,
               COUNT(*) AS n_suppliers,
               ROUND(CAST(SUM(CAST(s.s_acctbal AS DECIMAL(18,2))) AS DOUBLE) / COUNT(*), 2)
                   AS avg_acctbal
        FROM supplier s
        JOIN nation n ON s.s_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY r.r_name
    """,
    "doc_top_tokens": """
        SELECT token, COUNT(*) AS n FROM (
            SELECT unnest(regexp_split_to_array(text, '[ \t\n\r]+')) AS token
            FROM documents
        ) WHERE length(token) > 0
        GROUP BY token
        ORDER BY n DESC, token ASC
        LIMIT 20
    """,
    "events_value_mad_outliers": """
        WITH med AS (
            SELECT event_type, median(value) AS med FROM events GROUP BY event_type
        ),
        mad AS (
            SELECT e.event_type, median(ABS(e.value - m.med)) AS mad
            FROM events e JOIN med m USING (event_type)
            GROUP BY e.event_type
        )
        SELECT e.event_type,
               CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(m.med, 4) AS med,
               ROUND(x.mad, 4) AS mad,
               CAST(SUM(CASE WHEN ABS(e.value - m.med) > 3 * x.mad
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
        FROM events e
        JOIN med m USING (event_type)
        JOIN mad x USING (event_type)
        GROUP BY e.event_type, m.med, x.mad
        ORDER BY e.event_type
    """,
    "event_audience_overlap": """
        WITH du AS (SELECT DISTINCT event_type AS et, user_id AS u FROM events),
        sz AS (SELECT et, CAST(COUNT(*) AS BIGINT) AS n FROM du GROUP BY et),
        co AS (
            SELECT a.et AS ea, b.et AS eb, CAST(COUNT(*) AS BIGINT) AS c
            FROM du a JOIN du b ON a.u = b.u AND a.et < b.et
            GROUP BY a.et, b.et
        )
        SELECT ea AS etype_a, eb AS etype_b,
               sa.n AS n_a, sb.n AS n_b, c AS n_both,
               ROUND(c * 1.0 / (sa.n + sb.n - c), 4) AS jaccard
        FROM co
        JOIN sz sa ON sa.et = ea
        JOIN sz sb ON sb.et = eb
        ORDER BY ea, eb
    """,
    "token_zipf_slope": """
        WITH counts AS (
            SELECT token, COUNT(*) AS n FROM (
                SELECT unnest(regexp_split_to_array(text, '[ \t\n\r]+')) AS token
                FROM documents
            ) WHERE length(token) > 0
            GROUP BY token
        ),
        top AS (
            SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC, token ASC) AS r
            FROM counts
            ORDER BY n DESC, token ASC
            LIMIT 100
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n_top,
               ROUND(regr_slope(LN(n), LN(r)), 4) AS slope,
               ROUND(regr_intercept(LN(n), LN(r)), 4) AS intercept
        FROM top
    """,
    "doc_decontaminate": """
        WITH snip AS (
            SELECT DISTINCT array_to_string(string_split(text, ' ')[1:5], ' ') AS s
            FROM documents WHERE doc_id % 25 = 0
        )
        SELECT d.doc_id, COUNT(*) AS n_hits
        FROM documents d JOIN snip ON contains(d.text, snip.s)
        GROUP BY d.doc_id ORDER BY d.doc_id
    """,
    "doc_tfidf_top3": """
        WITH tok AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
        ), tf AS (
            SELECT doc_id, term, COUNT(*) AS tf FROM tok
            WHERE term <> '' GROUP BY doc_id, term
        ), df AS (
            SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok
            WHERE term <> '' GROUP BY term
        ), n AS (SELECT COUNT(*)::DOUBLE AS n FROM documents),
        scored AS (
            SELECT tf.doc_id, tf.term,
                   tf.tf * (ln((1 + n.n) / (1 + df.df)) + 1) AS raw,
                   row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY tf.tf * (ln((1 + n.n) / (1 + df.df)) + 1) DESC, tf.term ASC
                   ) AS rk
            FROM tf JOIN df USING (term) CROSS JOIN n
        )
        SELECT doc_id, term, ROUND(raw, 6) AS tfidf FROM scored
        WHERE rk <= 3 ORDER BY doc_id, raw DESC, term
    """,
    "doc_top_bigrams": """
        WITH t AS (
            SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
            FROM documents
        ), b0 AS (
            SELECT doc_id, unnest(w) AS word, generate_subscripts(w, 1) AS i FROM t
        ), b AS (
            SELECT a.word || ' ' || c.word AS bigram
            FROM b0 a JOIN b0 c ON a.doc_id = c.doc_id AND c.i = a.i + 1
        )
        SELECT bigram, COUNT(*) AS n FROM b
        GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
    """,
    "doc_repetition": """
        WITH tok AS (
            SELECT doc_id, unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
            FROM documents
        ), tf AS (
            SELECT doc_id, term, COUNT(*) AS c FROM tok GROUP BY doc_id, term
        )
        SELECT doc_id, SUM(c)::BIGINT AS n_tokens, COUNT(*) AS n_distinct,
               ROUND(1.0 - COUNT(*) / SUM(c)::DOUBLE, 4) AS dup_ratio,
               ROUND(MAX(c) / SUM(c)::DOUBLE, 4) AS top_token_frac
        FROM tf GROUP BY doc_id ORDER BY doc_id
    """,
    "doc_token_counts": r"""
        SELECT doc_id,
               len(regexp_extract_all(text, '[^ \t\n\r]+')) AS n_ws_tokens,
               len(regexp_extract_all(text, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \t\n\r]+'))
                   AS n_bpe_tokens
        FROM documents ORDER BY doc_id
    """,
    "doc_shuffle_shards": """
        SELECT CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 8 AS BIGINT) AS shard,
               COUNT(*) AS n_docs, MIN(doc_id) AS min_doc, MAX(doc_id) AS max_doc,
               SUM(doc_id)::BIGINT AS sum_doc
        FROM documents GROUP BY 1 ORDER BY 1
    """,
    "doc_top_tokens_sketch": """
        SELECT token, COUNT(*) AS n FROM (
            SELECT unnest(string_split(text, ' ')) AS token FROM documents
        ) WHERE token <> ''
        GROUP BY token
        ORDER BY n DESC, token ASC
        LIMIT 20
    """,
    "pagerank_top20": """
        WITH edges AS (
            SELECT DISTINCT o.o_custkey AS src, l.l_suppkey + 1000000 AS dst
            FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        ),
        nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
        deg AS (SELECT src, COUNT(*)::DOUBLE AS outdeg FROM edges GROUP BY src),
        r0 AS (SELECT node, 1.0 AS r FROM nodes),
        r1 AS (
            SELECT n.node, 0.15 + 0.85 * COALESCE(SUM(r0.r / deg.outdeg), 0) AS r
            FROM nodes n
            LEFT JOIN edges e ON e.dst = n.node
            LEFT JOIN r0 ON r0.node = e.src
            LEFT JOIN deg ON deg.src = e.src
            GROUP BY n.node
        ),
        r2 AS (
            SELECT n.node, 0.15 + 0.85 * COALESCE(SUM(r1.r / deg.outdeg), 0) AS r
            FROM nodes n
            LEFT JOIN edges e ON e.dst = n.node
            LEFT JOIN r1 ON r1.node = e.src
            LEFT JOIN deg ON deg.src = e.src
            GROUP BY n.node
        ),
        r3 AS (
            SELECT n.node, 0.15 + 0.85 * COALESCE(SUM(r2.r / deg.outdeg), 0) AS r
            FROM nodes n
            LEFT JOIN edges e ON e.dst = n.node
            LEFT JOIN r2 ON r2.node = e.src
            LEFT JOIN deg ON deg.src = e.src
            GROUP BY n.node
        )
        SELECT node, ROUND(r, 6) AS pr FROM r3 ORDER BY r DESC, node LIMIT 20
    """,
    "knn_label_vote": """
        WITH p AS (
            SELECT q.vec_id AS qid, q.label AS qlabel,
                   e.vec_id AS nid, e.label AS nlabel,
                   list_cosine_similarity(
                       CAST(q.embedding AS DOUBLE[]),
                       CAST(e.embedding AS DOUBLE[])) AS cos
            FROM embeddings q
            JOIN embeddings e ON e.vec_id <> q.vec_id
            WHERE q.vec_id < 100
        ),
        top AS (
            SELECT * FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY qid ORDER BY cos DESC, nid) AS rn
                FROM p
            ) WHERE rn <= 10
        ),
        votes AS (
            SELECT qid, qlabel, nlabel, CAST(COUNT(*) AS BIGINT) AS c
            FROM top GROUP BY qid, qlabel, nlabel
        )
        SELECT qid AS vec_id, qlabel AS true_label, nlabel AS pred_label,
               c AS votes
        FROM (
            SELECT *, ROW_NUMBER() OVER (
                PARTITION BY qid ORDER BY c DESC, nlabel) AS rn
            FROM votes
        ) WHERE rn = 1
        ORDER BY vec_id
    """,
    "label_cohesion": """
        WITH e AS (
            SELECT vec_id, label, i AS dim, CAST(embedding[i] AS DOUBLE) AS v
            FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
        ),
        -- centroid rounded to 6dp on BOTH engines (label_centroids
        -- contract) so the cosine consumes identical inputs
        c AS (SELECT label, dim, ROUND(AVG(v), 6) AS cv FROM e GROUP BY label, dim),
        dots AS (
            SELECT e.vec_id, e.label,
                   SUM(e.v * c.cv) AS dot,
                   SUM(e.v * e.v) AS ee,
                   SUM(c.cv * c.cv) AS cc
            FROM e JOIN c USING (label, dim)
            GROUP BY e.vec_id, e.label
        ),
        cos AS (SELECT label, dot / (SQRT(ee) * SQRT(cc)) AS cosv FROM dots)
        SELECT label,
               CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(AVG(cosv), 4) AS mean_cos,
               ROUND(MIN(cosv), 4) AS min_cos
        FROM cos
        GROUP BY label
        ORDER BY label
    """,
    "label_centroids": """
        SELECT label, i AS dim, ROUND(AVG(x), 6) AS centroid
        FROM (
            SELECT label, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings
        )
        GROUP BY label, i ORDER BY label, i
    """,
    "events_hourly": """
        SELECT event_type, date_trunc('hour', ts) AS hour,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(value AS DECIMAL(18,2))) AS DOUBLE) AS sum_value
        FROM events GROUP BY event_type, date_trunc('hour', ts)
    """,
    "user_sessions": """
        WITH gaps AS (
            SELECT user_id,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_session
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id, CAST(SUM(new_session) AS BIGINT) AS n_sessions,
               COUNT(*) AS n_events
        FROM gaps GROUP BY user_id
    """,
    "sliding_window": """
        SELECT user_id, window_start, COUNT(*) AS n_events,
               CAST(SUM(CAST(value AS DECIMAL(18,2))) AS DOUBLE) AS sum_value
        FROM (
            SELECT user_id, value,
                   date_trunc('hour', ts) - to_hours(offs.h) AS window_start
            FROM events, (VALUES (0), (1)) AS offs(h)
        )
        GROUP BY user_id, window_start
    """,
    "top_events": """
        SELECT event_id, ROUND(value, 2) AS value FROM events
        ORDER BY value DESC, event_id ASC LIMIT 20
    """,
    "events_asof": """
        SELECT e.event_id, e.user_id,
               COALESCE(ROUND(p.value, 2), -1.0) AS last_purchase
        FROM events e
        ASOF LEFT JOIN (SELECT user_id, ts, value FROM events
                        WHERE event_type = 'purchase') p
          ON e.user_id = p.user_id AND e.ts >= p.ts
    """,
    "events_range_join": """
        SELECT e.event_id, e.user_id, p.event_id AS purchase_id
        FROM events e
        JOIN events p ON e.user_id = p.user_id AND p.event_type = 'purchase'
                     AND e.ts >= p.ts AND e.ts <= p.ts + INTERVAL 1 HOUR
    """,
    "lineitem_quantiles": """
        SELECT l_returnflag, COUNT(*) AS n_rows,
               quantile_disc(l_extendedprice, 0.5) AS p50,
               quantile_disc(l_extendedprice, 0.9) AS p90,
               quantile_disc(l_extendedprice, 0.99) AS p99
        FROM lineitem GROUP BY l_returnflag
    """,
    "shipping_priority": """
        SELECT l.l_orderkey,
               CAST(ROUND(SUM(CAST(l.l_extendedprice AS DECIMAL(18,2))
                              * (1 - CAST(l.l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE)
                   AS revenue,
               o.o_orderdate, o.o_orderpriority
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < TIMESTAMP '1998-06-01 00:00:00'
          AND l.l_shipdate > TIMESTAMP '1998-06-01 00:00:00'
        GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
        ORDER BY SUM(CAST(l.l_extendedprice AS DECIMAL(18,2))
                     * (1 - CAST(l.l_discount AS DECIMAL(18,2)))) DESC,
                 o.o_orderdate ASC, l.l_orderkey ASC
        LIMIT 10
    """,
    "user_event_pivot": """
        SELECT user_id,
               CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
               CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
               CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
               CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
               CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
               CAST(SUM(CAST(value AS DECIMAL(18,2))) AS DOUBLE) AS sum_value
        FROM events GROUP BY user_id
    """,
    "doc_quality_gate": f"""
        WITH t AS (
            SELECT lang, len(regexp_extract_all(text, '{_TOK}')) AS n_tokens
            FROM documents
        ),
        thr AS (
            SELECT lang, quantile_disc(n_tokens, 0.5) AS p50 FROM t GROUP BY lang
        )
        SELECT t.lang, COUNT(*) AS n_docs_kept
        FROM t JOIN thr ON t.lang = thr.lang
        WHERE t.n_tokens > thr.p50
        GROUP BY t.lang
    """,
    "user_cumulative_value": """
        SELECT event_id, user_id,
               ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2) AS cum_value
        FROM events
    """,
    "lang_len_token_corr": f"""
        WITH t AS (
            SELECT lang, CAST(n_chars AS BIGINT) AS x,
                   CAST(len(regexp_extract_all(text, '{_TOK}')) AS BIGINT) AS y
            FROM documents
        ),
        m AS (
            SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n,
                   CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy,
                   CAST(SUM(x*y) AS HUGEINT) AS sxy,
                   CAST(SUM(x*x) AS HUGEINT) AS sxx,
                   CAST(SUM(y*y) AS HUGEINT) AS syy
            FROM t GROUP BY lang
        )
        SELECT lang,
               ROUND(CAST(n*sxy - sx*sy AS DOUBLE) /
                     (sqrt(CAST(n*sxx - sx*sx AS DOUBLE)) *
                      sqrt(CAST(n*syy - sy*sy AS DOUBLE))), 4) AS corr_len_tokens
        FROM m ORDER BY lang
    """,
    "lang_len_ols": f"""
        WITH t AS (
            SELECT lang, CAST(n_chars AS BIGINT) AS x,
                   CAST(len(regexp_extract_all(text, '{_TOK}')) AS BIGINT) AS y
            FROM documents
        ),
        m AS (
            SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n,
                   CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy,
                   CAST(SUM(x*y) AS HUGEINT) AS sxy,
                   CAST(SUM(x*x) AS HUGEINT) AS sxx,
                   CAST(SUM(y*y) AS HUGEINT) AS syy
            FROM t GROUP BY lang
        ),
        s AS (
            SELECT lang, n, sx, sy, sxx, syy, sxy,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                       / CAST(n*sxx - sx*sx AS DOUBLE) AS slope
            FROM m
        )
        SELECT lang,
               ROUND(slope, 6) AS slope,
               ROUND((CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE))
                     / CAST(n AS DOUBLE), 6) AS intercept,
               ROUND(CAST((n*sxy - sx*sy) * (n*sxy - sx*sy) AS DOUBLE)
                     / CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE), 6) AS r2
        FROM s ORDER BY lang
    """,
    "customer_top3_orders": """
        SELECT o_custkey, o_orderkey, o_totalprice, rn FROM (
            SELECT o_custkey, o_orderkey, o_totalprice,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                        ORDER BY o_totalprice DESC, o_orderkey) AS rn
            FROM orders
        ) WHERE rn <= 3
    """,
    "user_event_quartiles": """
        SELECT event_id, user_id,
               NTILE(4) OVER (PARTITION BY user_id ORDER BY value, event_id) AS q
        FROM events
    """,
    "user_event_rank": """
        SELECT user_id, event_id,
               RANK() OVER (PARTITION BY user_id ORDER BY value DESC) AS rnk,
               DENSE_RANK() OVER (PARTITION BY user_id ORDER BY value DESC) AS drnk
        FROM events
    """,
    "events_scd2": """
        WITH o AS (
            SELECT user_id, event_type, ts, event_id,
                   LAG(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS prev
            FROM events
        ),
        c AS (
            SELECT user_id, event_type, ts, event_id FROM o
            WHERE prev IS NULL OR event_type <> prev
        )
        SELECT user_id, event_type, ts AS valid_from,
               LEAD(ts) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id) AS valid_to
        FROM c ORDER BY user_id, valid_from, event_type
    """,
    "user_event_gaps": """
        SELECT event_id, user_id,
               date_diff('microsecond', prev_ts, ts) AS gap_us
        FROM (
            SELECT event_id, user_id, ts,
                   LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
            FROM events
        ) WHERE prev_ts IS NOT NULL
    """,
    "user_value_moving_sum": """
        SELECT event_id, user_id,
               CAST(SUM(CAST(value AS DECIMAL(18,2))) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS DOUBLE) AS mov_sum
        FROM events
    """,
    "user_click_purchase_outer": """
        WITH c AS (SELECT user_id, COUNT(*) AS n_clicks FROM events
                   WHERE event_type = 'click' AND value > 95 GROUP BY user_id),
             p AS (SELECT user_id, COUNT(*) AS n_purchases FROM events
                   WHERE event_type = 'purchase' AND value > 95 GROUP BY user_id)
        SELECT COALESCE(c.user_id, p.user_id) AS user_id,
               COALESCE(n_clicks, 0) AS n_clicks,
               COALESCE(n_purchases, 0) AS n_purchases
        FROM c FULL OUTER JOIN p ON c.user_id = p.user_id
    """,
    "doc_sample_per_lang": """
        SELECT lang, doc_id, hkey FROM (
            SELECT lang, doc_id,
                   CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT) AS hkey,
                   ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296, doc_id
                   ) AS rn
            FROM documents
        ) WHERE rn <= 10
    """,
    "doc_pack_chunks": f"""
        WITH t AS (
            SELECT doc_id, lang,
                   len(regexp_extract_all(text, '{_TOK}')) AS n_tokens
            FROM documents
        ),
        c AS (
            SELECT doc_id, lang, n_tokens,
                   SUM(n_tokens) OVER (PARTITION BY lang ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum
            FROM t
        )
        SELECT doc_id, lang, n_tokens,
               CAST(FLOOR((cum - n_tokens) / 2048.0) AS BIGINT) AS start_chunk,
               CAST(FLOOR((cum - 1) / 2048.0) AS BIGINT) AS end_chunk
        FROM c
    """,
    "knn_cosine_top10": """
        SELECT vec_id,
               ROUND(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                     (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)), 4) AS cos
        FROM embeddings
        WHERE vec_id <> 0
        ORDER BY list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                 (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) DESC,
                 vec_id ASC
        LIMIT 10
    """,
    "reciprocal_nn": """
        WITH cos AS (
            SELECT a.vec_id AS src, b.vec_id AS dst,
                   ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                                CAST(b.embedding AS DOUBLE[])), 4) AS c
            FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
        ),
        topk AS (
            SELECT src, dst, c,
                   ROW_NUMBER() OVER (PARTITION BY src ORDER BY c DESC, dst) AS rk
            FROM cos
        )
        SELECT t1.src AS left_id, t1.dst AS right_id, t1.c AS cos
        FROM topk t1 JOIN topk t2 ON t1.src = t2.dst AND t1.dst = t2.src
        WHERE t1.rk <= 10 AND t2.rk <= 10 AND t1.src < t1.dst
    """,
    "embedding_near_dup_exact": """
        SELECT a.vec_id AS left_id, b.vec_id AS right_id,
               ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                            CAST(b.embedding AS DOUBLE[])), 4) AS cos
        FROM embeddings a
        JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                     CAST(b.embedding AS DOUBLE[])) >= 0.4
    """,
    # near_dup_minhash: exhaustive 3-shingle Jaccard cross join + recursive
    # transitive closure — exact because the Ray path's LSH recall is 100%
    # on these fixtures (see q_near_dup_minhash docstring). Tokenization
    # mirrors oracle.serial.canonical_tokens (lower → non-word → space →
    # whitespace split); shingles are positional 3-grams of tokens.
    "corpus_export": (
        r"""WITH RECURSIVE filtered AS (
            SELECT doc_id, text, n_chars,
                   len(regexp_extract_all(text, '[^ \t\n\r]+')) AS n_tokens
            FROM documents
            WHERE len(regexp_extract_all(text, '[^ \t\n\r]+')) >= 30
        ),
        snip AS (
            SELECT DISTINCT array_to_string(string_split(text, ' ')[1:5], ' ') AS s
            FROM documents WHERE doc_id % 25 = 0
        ),
        clean AS (
            SELECT f.* FROM filtered f
            WHERE NOT EXISTS (SELECT 1 FROM snip WHERE contains(f.text, snip.s))
        ),
        """
        + _NEAR_DUP_CLOSURE_BODY.replace("SRC", "clean")
        + """
        , ranked AS (
            SELECT lab.cluster_id, lab.doc_id, c.n_chars, c.n_tokens,
                   ROW_NUMBER() OVER (
                       PARTITION BY lab.cluster_id
                       ORDER BY c.n_chars DESC, lab.doc_id ASC
                   ) AS rk,
                   COUNT(*) OVER (PARTITION BY lab.cluster_id) AS cluster_size
            FROM lab JOIN clean c USING (doc_id)
        )
        SELECT doc_id, n_tokens, cluster_size,
               CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 8 AS BIGINT) AS shard
        FROM ranked WHERE rk = 1 ORDER BY doc_id
    """
    ),
    "near_dup_minhash": _near_dup_closure("documents")
    + """
        SELECT doc_id, cluster_id,
               COUNT(*) OVER (PARTITION BY cluster_id) AS cluster_size
        FROM lab
    """,
    "near_dup_ngram": """
        WITH RECURSIVE g AS (
            SELECT DISTINCT doc_id, substring(lower(text), i, 3) AS gram
            FROM documents, unnest(range(1, len(text) - 1)) AS t(i)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS l, b.doc_id AS r, COUNT(*) AS i
            FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        ),
        edges AS (
            SELECT l, r FROM inter
            JOIN sizes sa ON sa.doc_id = inter.l
            JOIN sizes sb ON sb.doc_id = inter.r
            WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.85
        ),
        bidir AS (
            SELECT l AS src, r AS dst FROM edges
            UNION ALL SELECT r, l FROM edges
        ),
        reach(a, b) AS (
            SELECT doc_id, doc_id FROM documents
            UNION
            SELECT reach.a, bidir.dst FROM reach JOIN bidir ON bidir.src = reach.b
        ),
        lab AS (SELECT a AS doc_id, MIN(b) AS cluster_id FROM reach GROUP BY a)
        SELECT doc_id, cluster_id,
               COUNT(*) OVER (PARTITION BY cluster_id) AS cluster_size
        FROM lab
    """,
    "dup_cluster_histogram": _near_dup_closure("documents")
    + """
        SELECT cluster_size,
               COUNT(*) AS n_clusters,
               CAST(SUM(cluster_size) AS BIGINT) AS n_docs
        FROM (
            SELECT cluster_id, COUNT(*) AS cluster_size FROM lab GROUP BY cluster_id
        )
        GROUP BY cluster_size ORDER BY cluster_size
    """,
    "near_dup_keep_best": _near_dup_closure("documents")
    + """
        , ranked AS (
            SELECT lab.cluster_id, lab.doc_id, d.n_chars,
                   ROW_NUMBER() OVER (
                       PARTITION BY lab.cluster_id
                       ORDER BY d.n_chars DESC, lab.doc_id ASC
                   ) AS rk,
                   COUNT(*) OVER (PARTITION BY lab.cluster_id) AS cluster_size
            FROM lab JOIN documents d USING (doc_id)
        )
        SELECT cluster_id, doc_id AS kept_doc_id, cluster_size
        FROM ranked WHERE rk = 1 ORDER BY cluster_id
    """,
    # bigram LM: identical vocab selection (count DESC, token ASC, LIMIT 32),
    # <unk> mapping, add-one smoothing over V+1, AVG of ln conditionals.
    "doc_lm_score": """
        WITH toks AS (
            SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS i
            FROM (SELECT doc_id,
                         list_filter(string_split(text, ' '), x -> x <> '') AS ts
                  FROM documents)
        ),
        uni AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok),
        vocab AS (SELECT tok FROM uni ORDER BY n DESC, tok ASC LIMIT 32),
        mapped AS (
            SELECT t.doc_id, t.i,
                   CASE WHEN v.tok IS NULL THEN '<unk>' ELSE t.tok END AS w
            FROM toks t LEFT JOIN vocab v ON v.tok = t.tok
        ),
        c1 AS (SELECT w, COUNT(*) AS n FROM mapped GROUP BY w),
        pairs AS (
            SELECT a.doc_id, a.w AS w1, b.w AS w2
            FROM mapped a JOIN mapped b ON a.doc_id = b.doc_id AND b.i = a.i + 1
        ),
        c2 AS (SELECT w1, w2, COUNT(*) AS n FROM pairs GROUP BY w1, w2),
        nv AS (SELECT COUNT(*) AS v FROM vocab)
        SELECT p.doc_id,
               ROUND(AVG(ln((c2.n + 1.0) / (c1.n + (SELECT v + 1 FROM nv)))), 4)
                   AS avg_logp
        FROM pairs p
        JOIN c2 ON c2.w1 = p.w1 AND c2.w2 = p.w2
        JOIN c1 ON c1.w = p.w1
        GROUP BY p.doc_id
        ORDER BY p.doc_id
    """,
    # semantic dedup: exact cosine pairs + recursive transitive closure,
    # keep the min-id representative of every component
    "semantic_dedup_keep": """
        WITH RECURSIVE edges AS (
            SELECT a.vec_id AS l, b.vec_id AS r
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4
        ),
        bidir AS (
            SELECT l AS src, r AS dst FROM edges
            UNION ALL
            SELECT r AS src, l AS dst FROM edges
        ),
        reach(a, b) AS (
            SELECT vec_id, vec_id FROM embeddings
            UNION
            SELECT reach.a, bidir.dst FROM reach JOIN bidir ON bidir.src = reach.b
        ),
        lab AS (SELECT a AS vec_id, MIN(b) AS cluster_id FROM reach GROUP BY a)
        SELECT vec_id FROM lab WHERE vec_id = cluster_id ORDER BY vec_id
    """,
    # group-hash split: same md5-prefix bucket both sides ('0x…'::BIGINT
    # parses the first 8 hex chars exactly)
    "doc_split_assign": """
        WITH s AS (
            SELECT lang, n_chars,
                   CASE WHEN b < 8 THEN 'train'
                        WHEN b = 8 THEN 'val'
                        ELSE 'test' END AS split
            FROM (SELECT lang, n_chars,
                         ('0x' || substr(md5(source), 1, 8))::BIGINT % 10 AS b
                  FROM documents)
        )
        SELECT split, lang, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars
        FROM s GROUP BY split, lang ORDER BY split, lang
    """,
    # top-10 stopword prune: the lambda captures the cross-joined stop list
    # column (DuckDB correlated-lambda), mirroring the broadcast drop set
    "doc_stopword_prune": """
        WITH tok AS (
            SELECT unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
            FROM documents
        ),
        stop AS (
            SELECT list(term) AS arr FROM (
                SELECT term FROM tok GROUP BY term
                ORDER BY COUNT(*) DESC, term ASC LIMIT 10
            )
        ),
        base AS (
            SELECT d.doc_id,
                   list_filter(string_split(d.text, ' '), x -> x <> '') AS w,
                   s.arr AS arr
            FROM documents d CROSS JOIN stop s
        )
        SELECT doc_id,
               array_to_string(list_filter(w, x -> NOT list_contains(arr, x)), ' ') AS text,
               CAST(len(w) - len(list_filter(w, x -> NOT list_contains(arr, x))) AS BIGINT)
                   AS n_removed
        FROM base
        ORDER BY doc_id
    """,
    # top-20 vocab (count DESC, token ASC) then per-doc OOV counts — all
    # integers, no float rounding in the compare
    "doc_oov_rate": """
        WITH tok AS (
            SELECT unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
            FROM documents
        ),
        vocab AS (
            SELECT list(term) AS arr FROM (
                SELECT term FROM tok GROUP BY term
                ORDER BY COUNT(*) DESC, term ASC LIMIT 20
            )
        ),
        base AS (
            SELECT d.doc_id,
                   list_filter(string_split(d.text, ' '), x -> x <> '') AS w,
                   v.arr AS arr
            FROM documents d CROSS JOIN vocab v
        )
        SELECT doc_id,
               CAST(len(w) AS BIGINT) AS n_tokens,
               CAST(len(list_filter(w, x -> NOT list_contains(arr, x))) AS BIGINT) AS n_oov
        FROM base
        ORDER BY doc_id
    """,
    # corpus-wide 8-token head-signature dup flags re-aggregated per source
    "source_dup_stats": """
        WITH s AS (
            SELECT source,
                   array_to_string(string_split(text, ' ')[1:8], ' ') AS sig
            FROM documents
        ),
        c AS (
            SELECT sig, COUNT(*) AS n FROM s GROUP BY sig
        )
        SELECT s.source,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(CASE WHEN c.n > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs
        FROM s JOIN c USING (sig)
        GROUP BY s.source
        ORDER BY s.source
    """,
    # Shannon entropy of the per-user event-type mix, bits, ROUND(...,4)
    "user_event_entropy": """
        WITH c AS (
            SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY user_id, event_type
        ),
        t AS (
            SELECT user_id, SUM(n) AS tot FROM c GROUP BY user_id
        )
        SELECT c.user_id,
               CAST(t.tot AS BIGINT) AS n_events,
               ROUND(SUM(-(CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))
                         * log2(CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))), 4) AS entropy
        FROM c JOIN t USING (user_id)
        GROUP BY c.user_id, t.tot
        ORDER BY c.user_id
    """,
    # term -> df + ordered posting list, df band [2, floor(0.78 * |docs|)]
    "inverted_index": """
        WITH tok AS (
            SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
                FROM documents
            )
        )
        SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
               string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
        FROM tok
        GROUP BY term
        HAVING COUNT(*) >= 2
           AND COUNT(*) <= GREATEST(
                   2, CAST(FLOOR(0.78 * (SELECT COUNT(*) FROM documents)) AS BIGINT))
        ORDER BY term
    """,
    # JSON field extraction + per-type aggregate (engine: Arrow regex kernel)
    "event_props_stats": """
        WITH e AS (
            SELECT event_type,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
            FROM events
        )
        SELECT event_type,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(COUNT(k) AS BIGINT) AS n_with_k,
               CAST(COALESCE(SUM(k), 0) AS BIGINT) AS sum_k,
               ROUND(CAST(SUM(k) AS DOUBLE) / COUNT(k), 4) AS avg_k
        FROM e
        GROUP BY event_type
        ORDER BY event_type
    """,
    # per-lang PERCENT_RANK of n_chars (ties share min rank; 1-row group = 0)
    "doc_length_pctile": """
        SELECT doc_id, lang, n_chars,
               ROUND(PERCENT_RANK() OVER (PARTITION BY lang ORDER BY n_chars), 4) AS pctile
        FROM documents
        ORDER BY doc_id
    """,
    # top-16-vocab per-doc co-occurrence -> PMI, support >= 5, top-25
    "token_pmi": """
        WITH dt AS (
            SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
                FROM documents
            )
        ),
        vocab AS (
            SELECT term, CAST(COUNT(*) AS BIGINT) AS n FROM dt GROUP BY term
            ORDER BY COUNT(*) DESC, term ASC LIMIT 16
        ),
        pairs AS (
            SELECT a.term AS term_a, b.term AS term_b, CAST(COUNT(*) AS BIGINT) AS n_ab
            FROM dt a JOIN dt b ON a.doc_id = b.doc_id AND a.term < b.term
            WHERE a.term IN (SELECT term FROM vocab)
              AND b.term IN (SELECT term FROM vocab)
            GROUP BY a.term, b.term
            HAVING COUNT(*) >= 5
        )
        SELECT term_a, term_b, n_ab, va.n AS n_a, vb.n AS n_b,
               ROUND(log2(CAST(n_ab AS DOUBLE)
                          * (SELECT COUNT(*) FROM documents)
                          / CAST(va.n * vb.n AS DOUBLE)), 4) AS pmi
        FROM pairs
        JOIN vocab va ON va.term = term_a
        JOIN vocab vb ON vb.term = term_b
        ORDER BY pmi DESC, term_a, term_b LIMIT 25
    """,
    # LEAD-window consecutive-pair counts + conditional probability per prev
    "event_transitions": """
        WITH o AS (
            SELECT user_id, event_type,
                   LEAD(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS nxt
            FROM events
        ),
        c AS (
            SELECT event_type AS prev_type, nxt AS next_type,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM o WHERE nxt IS NOT NULL
            GROUP BY event_type, nxt
        )
        SELECT prev_type, next_type, n,
               ROUND(CAST(n AS DOUBLE)
                     / SUM(CAST(n AS DOUBLE)) OVER (PARTITION BY prev_type), 4) AS p
        FROM c
        ORDER BY prev_type, next_type
    """,
    # ROW_NUMBER tiebreak by custkey mirrors the engine's (metric, custkey)
    # sort; quintiles quantize with the same pure-integer expression
    "customer_rfm": """
        WITH a AS (
            SELECT o_custkey AS c_custkey,
                   MAX(o_orderdate) AS last_order,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS cents
            FROM orders GROUP BY o_custkey
        ),
        r AS (
            SELECT c_custkey,
                   ROW_NUMBER() OVER (ORDER BY last_order, c_custkey) AS rr,
                   ROW_NUMBER() OVER (ORDER BY n_orders, c_custkey) AS fr,
                   ROW_NUMBER() OVER (ORDER BY cents, c_custkey) AS mr,
                   COUNT(*) OVER () AS n
            FROM a
        )
        SELECT c_custkey,
               CAST(1 + (rr - 1) * 5 // n AS BIGINT) AS r_score,
               CAST(1 + (fr - 1) * 5 // n AS BIGINT) AS f_score,
               CAST(1 + (mr - 1) * 5 // n AS BIGINT) AS m_score,
               CAST((1 + (rr - 1) * 5 // n) * 100
                    + (1 + (fr - 1) * 5 // n) * 10
                    + (1 + (mr - 1) * 5 // n) AS BIGINT) AS rfm
        FROM r
        ORDER BY c_custkey
    """,
    # exact integer-cents moments (HUGEINT) feed the SAME double expression
    # the engine evaluates — identical operands/order → identical IEEE bits
    "ab_test_welch": f"""
        WITH p AS (
            SELECT CAST({_knuth32_sql('user_id')} % 2 AS BIGINT) AS arm,
                   CAST(ROUND(value * 100) AS HUGEINT) AS c
            FROM events WHERE event_type = 'purchase'
        ),
        m AS (
            SELECT arm, CAST(COUNT(*) AS BIGINT) AS n, SUM(c) AS s,
                   SUM(c * c) AS ssq
            FROM p GROUP BY arm
        ),
        ab AS (
            SELECT MAX(CASE WHEN arm = 0 THEN n END) AS na,
                   MAX(CASE WHEN arm = 1 THEN n END) AS nb,
                   MAX(CASE WHEN arm = 0 THEN s END) AS sa,
                   MAX(CASE WHEN arm = 1 THEN s END) AS sb,
                   MAX(CASE WHEN arm = 0 THEN ssq END) AS qa,
                   MAX(CASE WHEN arm = 1 THEN ssq END) AS qb
            FROM m
        ),
        v AS (
            SELECT na, nb,
                   CAST(sa AS DOUBLE) / (na * 100.0) AS mean_a,
                   CAST(sb AS DOUBLE) / (nb * 100.0) AS mean_b,
                   CAST(na * qa - sa * sa AS DOUBLE) / (na * (na - 1.0)) / 10000.0 AS var_a,
                   CAST(nb * qb - sb * sb AS DOUBLE) / (nb * (nb - 1.0)) / 10000.0 AS var_b
            FROM ab
        ),
        w AS (
            SELECT *, var_a / na AS se_a, var_b / nb AS se_b FROM v
        )
        SELECT na AS n_a, nb AS n_b,
               ROUND(mean_a, 4) AS mean_a, ROUND(mean_b, 4) AS mean_b,
               ROUND(var_a, 4) AS var_a, ROUND(var_b, 4) AS var_b,
               ROUND((mean_a - mean_b) / SQRT(se_a + se_b), 4) AS t_stat,
               ROUND((se_a + se_b) * (se_a + se_b)
                     / (se_a * se_a / (na - 1.0) + se_b * se_b / (nb - 1.0)),
                     4) AS df
        FROM w
    """,
    # top-20 boundary ties broken by the total order (n DESC, t1, t2, t3)
    # on both sides
    "user_event_3grams": """
        WITH o AS (
            SELECT event_type AS t1,
                   LEAD(event_type, 1) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS t2,
                   LEAD(event_type, 2) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS t3
            FROM events
        )
        SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
        FROM o WHERE t2 IS NOT NULL AND t3 IS NOT NULL
        GROUP BY t1, t2, t3
        ORDER BY n DESC, t1, t2, t3
        LIMIT 20
    """,
    # predicates are integer cross-multiplications on BOTH sides so there
    # is no float threshold to drift; list_distinct over the same token
    # regex mirrors the engine's dictionary-encode distinct count
    "doc_filter_funnel": f"""
        WITH f AS (
            SELECT lang, length(text) AS nc,
                   len(regexp_extract_all(text, '{_TOK}')) AS nt,
                   len(list_distinct(regexp_extract_all(text, '{_TOK}'))) AS nd
            FROM documents
        ),
        c AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n0,
                   CAST(SUM(CASE WHEN nt >= 25 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
                   CAST(SUM(CASE WHEN nt >= 25 AND nc * 10 >= 52 * nt
                            THEN 1 ELSE 0 END) AS BIGINT) AS n2,
                   CAST(SUM(CASE WHEN nt >= 25 AND nc * 10 >= 52 * nt
                                  AND nd * 5 >= 2 * nt
                            THEN 1 ELSE 0 END) AS BIGINT) AS n3,
                   CAST(SUM(CASE WHEN nt >= 25 AND nc * 10 >= 52 * nt
                                  AND nd * 5 >= 2 * nt
                                  AND lang IN ('en', 'de', 'fr')
                            THEN 1 ELSE 0 END) AS BIGINT) AS n4
            FROM f
        )
        SELECT * FROM (
            SELECT CAST(0 AS BIGINT) AS stage_idx, 'all' AS stage, n0 AS n_pass,
                   CAST(0 AS BIGINT) AS n_dropped FROM c
            UNION ALL SELECT 1, 'min_tokens_25', n1, n0 - n1 FROM c
            UNION ALL SELECT 2, 'mean_token_len_5.2', n2, n1 - n2 FROM c
            UNION ALL SELECT 3, 'distinct_ratio_0.4', n3, n2 - n3 FROM c
            UNION ALL SELECT 4, 'lang_whitelist', n4, n3 - n4 FROM c
        ) ORDER BY stage_idx
    """,
    # dense hourly grid per user via generate_series; the running SUM is
    # HUGEINT cents cast to DOUBLE once at the end — identical float tree
    # to the engine's int64 grouped cumsum / 100.0
    "events_hourly_gapfill": """
        WITH ev AS (
            SELECT user_id,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hb,
                   CAST(ROUND(value * 100) AS HUGEINT) AS cents
            FROM events
        ),
        hourly AS (
            SELECT user_id, hb, SUM(cents) AS c FROM ev GROUP BY user_id, hb
        ),
        b AS (
            SELECT user_id, MIN(hb) AS h0, MAX(hb) AS h1
            FROM hourly GROUP BY user_id
        ),
        grid AS (
            SELECT user_id, UNNEST(generate_series(h0, h1)) AS hb FROM b
        ),
        j AS (
            SELECT g.user_id, g.hb, COALESCE(h.c, 0) AS c
            FROM grid g LEFT JOIN hourly h
              ON g.user_id = h.user_id AND g.hb = h.hb
        )
        SELECT user_id, hb AS hour_bucket,
               CAST(SUM(c) OVER (PARTITION BY user_id ORDER BY hb) AS DOUBLE)
                   / 100.0 AS cum_value
        FROM j ORDER BY user_id, hb
    """,
    # epoch_us keeps the age exact-integer µs before the single /86400e6
    # division — the engine's identical term tree; ROUND 4 absorbs sum order
    "user_decayed_value": """
        WITH m AS (SELECT MAX(ts) AS t FROM events)
        SELECT user_id,
               ROUND(SUM(CAST(ROUND(value * 100) AS DOUBLE)
                         * POWER(2.0, -((epoch_us(m.t) - epoch_us(ts))
                                        / 86400000000.0) / 7.0)), 4)
                   AS decayed_cents
        FROM events, m
        GROUP BY user_id ORDER BY user_id
    """,
    # last-touch: latest click <= purchase ts within 24h; event_id in the
    # per-purchase group keeps duplicate (user, ts) purchases distinct
    "purchase_attribution": """
        WITH p AS (
            SELECT event_id, user_id, ts,
                   CAST(ROUND(value * 100) AS BIGINT) AS cents
            FROM events WHERE event_type = 'purchase'
        ),
        c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
        j AS (
            SELECT p.event_id, p.user_id, p.cents, MAX(c.ts) AS click_ts
            FROM p LEFT JOIN c
              ON c.user_id = p.user_id
             AND c.ts <= p.ts AND c.ts >= p.ts - INTERVAL 24 HOUR
            GROUP BY p.event_id, p.user_id, p.cents
        )
        SELECT user_id,
               CAST(COUNT(*) AS BIGINT) AS n_purchases,
               CAST(COUNT(click_ts) AS BIGINT) AS n_attributed,
               CAST(SUM(CASE WHEN click_ts IS NOT NULL THEN cents ELSE 0 END)
                    AS DOUBLE) / 100.0 AS attributed_value
        FROM j GROUP BY user_id ORDER BY user_id
    """,
    # ordered funnel: strict v < c ≤ v+1h and c < p ≤ c+1h chains via
    # EXISTS — the qualified-click condition nests one level
    "ordered_funnel_1h": """
        WITH v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
        c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
        p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
        okc AS (
            SELECT c.user_id, c.ts FROM c
            WHERE EXISTS (SELECT 1 FROM v WHERE v.user_id = c.user_id
                          AND v.ts < c.ts AND c.ts <= v.ts + INTERVAL 1 HOUR)
        )
        SELECT
            (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) FROM v) AS n_view,
            (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) FROM okc) AS n_view_click,
            (SELECT CAST(COUNT(DISTINCT p.user_id) AS BIGINT) FROM p
             WHERE EXISTS (SELECT 1 FROM okc WHERE okc.user_id = p.user_id
                           AND okc.ts < p.ts AND p.ts <= okc.ts + INTERVAL 1 HOUR))
                AS n_full_chain
    """,
    # 30-minute-gap sessionization (the q_user_sessions rule) + ordered
    # string_agg path per session; (n desc, path asc) keeps rank-10 ties
    # deterministic on both engines
    "session_paths": """
        WITH s AS (
            SELECT user_id, event_id, ts, event_type,
                   CASE WHEN LAG(ts) OVER w IS NULL
                             OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ),
        sid AS (
            SELECT user_id, event_id, ts, event_type,
                   SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) AS session_no
            FROM s
        ),
        paths AS (
            SELECT user_id, session_no,
                   string_agg(event_type, '>' ORDER BY ts, event_id) AS path
            FROM sid GROUP BY user_id, session_no
        )
        SELECT path, CAST(COUNT(*) AS BIGINT) AS n
        FROM paths GROUP BY path
        ORDER BY n DESC, path ASC LIMIT 10
    """,
    # Kaplan–Meier product-limit over 7-day conversion: the cumulative
    # window SUM of LN terms is the engine's exact cumsum tree (d = 0 days
    # contribute ln 1 = 0); integer day/at-risk/event lanes, ROUND 6
    "user_survival_km": """
        WITH u AS (
            SELECT user_id, MIN(ts) AS f, MAX(ts) AS l,
                   MIN(CASE WHEN event_type = 'purchase' THEN ts END) AS p
            FROM events GROUP BY user_id
        ),
        v AS (
            SELECT CASE WHEN p IS NOT NULL
                             AND (epoch_us(p) - epoch_us(f)) // 86400000000 <= 7
                        THEN (epoch_us(p) - epoch_us(f)) // 86400000000
                        WHEN p IS NOT NULL THEN 7
                        ELSE LEAST((epoch_us(l) - epoch_us(f)) // 86400000000, 7)
                   END AS day,
                   CASE WHEN p IS NOT NULL
                             AND (epoch_us(p) - epoch_us(f)) // 86400000000 <= 7
                        THEN 1 ELSE 0 END AS ev
            FROM u
        ),
        c AS (
            SELECT CAST(day AS BIGINT) AS day, CAST(SUM(ev) AS BIGINT) AS d,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM v GROUP BY day
        ),
        k AS (
            SELECT day, d,
                   CAST((SELECT COUNT(*) FROM v)
                        - COALESCE(SUM(cnt) OVER (ORDER BY day
                              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                        AS BIGINT) AS n_at_risk
            FROM c
        ),
        s AS (
            SELECT day, n_at_risk, d,
                   EXP(SUM(LN(CASE WHEN d = n_at_risk THEN 1.0
                                   ELSE 1.0 - CAST(d AS DOUBLE) / CAST(n_at_risk AS DOUBLE)
                              END)) OVER (ORDER BY day)) AS surv,
                   MAX(CASE WHEN d = n_at_risk THEN 1 ELSE 0 END)
                       OVER (ORDER BY day) AS dead
            FROM k
        )
        SELECT day, n_at_risk, d AS n_churned,
               ROUND(CASE WHEN dead = 1 THEN 0.0 ELSE surv END, 6) AS survival
        FROM s WHERE d > 0 ORDER BY day
    """,
    # time-RANGE frame: peers of the current ts are in-frame by SQL
    # semantics; integer-cents window sum, HUGEINT-safe cast
    "user_value_range_24h": """
        SELECT event_id, user_id,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                    PARTITION BY user_id ORDER BY ts
                    RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW
               ) AS DOUBLE) / 100.0 AS range_sum
        FROM events
    """,
    # first digit of the exact integer cents via VARCHAR head (no float
    # log in the digit path); identical float finish tree, ROUND 6
    "orders_benford": """
        WITH d AS (
            SELECT CAST(SUBSTR(CAST(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                    AS VARCHAR), 1, 1) AS BIGINT) AS digit
            FROM orders WHERE ROUND(o_totalprice * 100) > 0
        ),
        c AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY digit),
        s AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM c)
        SELECT c.digit, c.n,
               ROUND(CAST(c.n AS DOUBLE) / CAST(s.total AS DOUBLE), 6) AS obs_share,
               ROUND(LOG10(1.0 + 1.0 / c.digit), 6) AS benford_share,
               ROUND(POWER(CAST(c.n AS DOUBLE) / CAST(s.total AS DOUBLE)
                           - LOG10(1.0 + 1.0 / c.digit), 2)
                     / LOG10(1.0 + 1.0 / c.digit), 6) AS chi_term
        FROM c, s ORDER BY c.digit
    """,
    # Gini over the per-key count vector: Σ(2i−n−1)c_(i) is tie-order-
    # invariant, HUGEINT keeps both terms exact; all ratios ROUND 6
    "key_skew_profile": """
        WITH c AS (SELECT user_id, COUNT(*) AS cnt FROM events GROUP BY user_id),
        r AS (SELECT cnt, ROW_NUMBER() OVER (ORDER BY cnt, user_id) AS i FROM c),
        s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(cnt) AS BIGINT) AS tot FROM c),
        g AS (
            SELECT SUM((2 * CAST(i AS HUGEINT) - s.n - 1) * cnt) AS num
            FROM r, s GROUP BY s.n
        ),
        t AS (
            SELECT CAST(SUM(cnt) AS BIGINT) AS top10,
                   CAST(MAX(cnt) AS BIGINT) AS top1
            FROM (SELECT cnt FROM c ORDER BY cnt DESC LIMIT 10)
        )
        SELECT s.n AS n_keys, s.tot AS n_rows,
               ROUND(CAST(g.num AS DOUBLE)
                     / CAST(CAST(s.n AS HUGEINT) * s.tot AS DOUBLE), 6) AS gini,
               ROUND(CAST(t.top1 AS DOUBLE) / CAST(s.tot AS DOUBLE), 6) AS top1_share,
               ROUND(CAST(t.top10 AS DOUBLE) / CAST(s.tot AS DOUBLE), 6) AS top10_share
        FROM s, g, t
    """,
    # Page's CUSUM via WITH RECURSIVE: the max(0, ·) recursion in integer
    # cents; k = floor-mean, threshold 8·floor-MAD — all-integer, no float
    # boundary; `//` is DuckDB integer division
    "events_cusum": """
        WITH RECURSIVE
        hx AS (
            SELECT date_trunc('hour', ts) AS hour,
                   SUM(CAST(ROUND(value * 100) AS BIGINT)) AS x
            FROM events GROUP BY 1
        ),
        idx AS (SELECT hour, x, ROW_NUMBER() OVER (ORDER BY hour) AS i FROM hx),
        p AS (
            SELECT CAST(SUM(x) // COUNT(*) AS BIGINT) AS k FROM hx
        ),
        p2 AS (
            SELECT CAST(SUM(ABS(x - p.k)) // COUNT(*) AS BIGINT) AS mad
            FROM hx, p GROUP BY p.k
        ),
        c AS (
            SELECT i, GREATEST(0, x - (SELECT k FROM p)) AS s FROM idx WHERE i = 1
            UNION ALL
            SELECT idx.i, GREATEST(0, c.s + idx.x - (SELECT k FROM p))
            FROM c JOIN idx ON idx.i = c.i + 1
        )
        SELECT idx.hour, CAST(c.s AS BIGINT) AS cusum_c,
               CAST(c.s > 8 * (SELECT mad FROM p2) AS BIGINT) AS alert
        FROM c JOIN idx USING (i) ORDER BY idx.hour
    """,
    # Q10 shape: DECIMAL revenue sums == the engine's integer 1e-4 lanes;
    # ORDER BY the UNROUNDED sum with a custkey tie-break matches the
    # engine's exact-integer ordering
    "returned_item_revenue": """
        SELECT c.c_custkey, c.c_name, n.n_name,
               CAST(ROUND(SUM(CAST(l.l_extendedprice AS DECIMAL(18,2))
                              * (1 - CAST(l.l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE)
                   AS revenue
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        WHERE l.l_returnflag = 'R'
          AND o.o_orderdate >= TIMESTAMP '1998-01-01 00:00:00'
          AND o.o_orderdate <  TIMESTAMP '1998-07-01 00:00:00'
        GROUP BY c.c_custkey, c.c_name, n.n_name
        ORDER BY SUM(CAST(l.l_extendedprice AS DECIMAL(18,2))
                     * (1 - CAST(l.l_discount AS DECIMAL(18,2)))) DESC,
                 c.c_custkey ASC
        LIMIT 20
    """,
    # Q18 shape: integral-valued double quantities sum exactly as BIGINT
    # (outer CAST: DuckDB SUM(BIGINT) widens to HUGEINT -> pandas float)
    "large_orders": """
        WITH q AS (
            SELECT l_orderkey,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS total_qty
            FROM lineitem GROUP BY l_orderkey HAVING total_qty > 200
        )
        SELECT o.o_orderkey, o.o_custkey, o.o_orderdate,
               CAST(ROUND(o.o_totalprice, 2) AS DOUBLE) AS o_totalprice,
               q.total_qty
        FROM q JOIN orders o ON q.l_orderkey = o.o_orderkey
        ORDER BY q.total_qty DESC, o.o_orderkey ASC
    """,
    # Q19 shape: the three disjuncts are brand-disjoint, so CASE maps each
    # row to at most one band; DECIMAL sums == integer 1e-4 lanes
    "part_band_revenue": """
        WITH j AS (
            SELECT CASE
                     WHEN p.p_brand = 'Brand#1' AND p.p_size BETWEEN 1 AND 15
                          AND l.l_quantity BETWEEN 1 AND 20 THEN 1
                     WHEN p.p_brand = 'Brand#2' AND p.p_size BETWEEN 10 AND 30
                          AND l.l_quantity BETWEEN 10 AND 30 THEN 2
                     WHEN p.p_brand = 'Brand#3' AND p.p_size BETWEEN 20 AND 50
                          AND l.l_quantity BETWEEN 20 AND 40 THEN 3
                   END AS band,
                   CAST(l.l_extendedprice AS DECIMAL(18,2))
                     * (1 - CAST(l.l_discount AS DECIMAL(18,2))) AS rev
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        )
        SELECT CAST(band AS BIGINT) AS band,
               CAST(ROUND(SUM(rev), 2) AS DOUBLE) AS revenue,
               COUNT(*) AS n_items
        FROM j WHERE band IS NOT NULL
        GROUP BY band ORDER BY band
    """,
    # Q8 shape: numerator/denominator in the engine's exact int64 1e-4
    # units (cents × discount-hundredths), divided in DOUBLE identically
    "nation_market_share": """
        WITH j AS (
            SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
                   s.s_nationkey
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey AND p.p_type = 'PROMO'
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation cn ON c.c_nationkey = cn.n_nationkey
            JOIN region r ON cn.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'
        )
        SELECT o_year,
               ROUND(CAST(SUM(CASE WHEN s_nationkey =
                                   (SELECT n_nationkey FROM nation WHERE n_name = 'NATION_2')
                                   THEN rev ELSE 0 END) AS DOUBLE)
                     / CAST(SUM(rev) AS DOUBLE), 6) AS mkt_share
        FROM j GROUP BY o_year ORDER BY o_year
    """,
    # Q11 shape: DECIMAL(scale-4) per-part sums and total — v·2n > 3t is
    # exact on both sides (the engine asserts its int64 twin can't saturate)
    "important_parts": """
        WITH pv AS (
            SELECT l_partkey,
                   SUM(CAST(l_extendedprice AS DECIMAL(18,2))
                       * (1 - CAST(l_discount AS DECIMAL(18,2)))) AS v
            FROM lineitem GROUP BY l_partkey
        ),
        tot AS (SELECT SUM(v) AS t, COUNT(*) AS n FROM pv)
        SELECT pv.l_partkey AS p_partkey,
               CAST(ROUND(pv.v, 2) AS DOUBLE) AS part_value
        FROM pv, tot WHERE pv.v * 2 * tot.n > 3 * tot.t
        ORDER BY p_partkey
    """,
    # Q16 shape: NOT IN exclusion + COUNT(DISTINCT) per part class
    "supplier_diversity": """
        SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
               CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        WHERE l.l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
        GROUP BY p.p_brand, p.p_size
        ORDER BY supplier_cnt DESC, p.p_brand, p.p_size
    """,
    # dense 13-bin grid via generate_series (engine emits all bins, empty
    # ones included); same Laplace shares + (p-q)*ln(p/q) tree, ROUND 6
    "doc_length_psi": """
        WITH d AS (
            SELECT LEAST(n_chars // 50, 12) AS bin,
                   CASE WHEN length(source) = 4 THEN 1 ELSE 0 END AS is_ref
            FROM documents
        ),
        grid AS (SELECT UNNEST(generate_series(0, 12)) AS bin),
        c AS (
            SELECT g.bin,
                   CAST(COALESCE(SUM(d.is_ref), 0) AS BIGINT) AS n_ref,
                   CAST(COALESCE(SUM(1 - d.is_ref), 0) AS BIGINT) AS n_cur
            FROM grid g LEFT JOIN d ON d.bin = g.bin
            GROUP BY g.bin
        ),
        tot AS (SELECT SUM(n_ref) AS tr, SUM(n_cur) AS tc FROM c)
        SELECT bin, n_ref, n_cur,
               ROUND(((n_ref + 1.0) / (tr + 13.0) - (n_cur + 1.0) / (tc + 13.0))
                     * ln(((n_ref + 1.0) / (tr + 13.0))
                          / ((n_cur + 1.0) / (tc + 13.0))), 6) AS psi_term
        FROM c, tot ORDER BY bin
    """,
    # baskets = distinct (user, day); every ratio is the same single float
    # division (one multiply each side for lift) of exact integers as the
    # engine computes — bit-exact, no rounding
    "event_type_lift": """
        WITH t AS (
            SELECT DISTINCT user_id,
                   CAST(floor(epoch(ts) / 86400) AS BIGINT) AS d,
                   event_type
            FROM events
        ),
        nb AS (
            SELECT COUNT(*) AS n FROM (SELECT DISTINCT user_id, d FROM t)
        ),
        na AS (SELECT event_type, COUNT(*) AS n FROM t GROUP BY event_type),
        nab AS (
            SELECT a.event_type AS antecedent, b.event_type AS consequent,
                   COUNT(*) AS n_ab
            FROM t a JOIN t b
              ON a.user_id = b.user_id AND a.d = b.d
             AND a.event_type <> b.event_type
            GROUP BY 1, 2
        )
        SELECT antecedent, consequent, CAST(n_ab AS BIGINT) AS n_ab,
               CAST(n_ab AS DOUBLE) / nb.n AS support,
               CAST(n_ab AS DOUBLE) / x.n AS confidence,
               (CAST(n_ab AS DOUBLE) * nb.n) / (CAST(x.n AS DOUBLE) * y.n) AS lift
        FROM nab
        JOIN na x ON x.event_type = nab.antecedent
        JOIN na y ON y.event_type = nab.consequent, nb
        ORDER BY antecedent, consequent
    """,
    # windowed COUNT DISTINCT via the grid JOIN the engine's interval plan
    # avoids; LEFT JOIN keeps zero-activity days (engine's dense cumsum grid)
    "rolling_active_users": """
        WITH a AS (
            SELECT DISTINCT user_id,
                   CAST(floor(epoch(ts) / 86400) AS BIGINT) AS d
            FROM events
        ),
        b AS (SELECT MIN(d) AS d0, MAX(d) AS d1 FROM a),
        grid AS (SELECT UNNEST(generate_series(d0, d1)) AS d FROM b)
        SELECT g.d AS day_bucket,
               CAST(COUNT(DISTINCT a.user_id) AS BIGINT) AS active_users
        FROM grid g LEFT JOIN a ON a.d BETWEEN g.d - 6 AND g.d
        GROUP BY g.d ORDER BY g.d
    """,
    # same Laplace-smoothed hashed-unigram log-ratio, token buckets from the
    # identical md5 hex-parse; ROUND 4 absorbs the engine/oracle sum-order
    # difference (the user_event_entropy regime)
    "doc_dsir_weights": """
        WITH tok AS (
            SELECT doc_id, lang,
                   unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS t
            FROM documents
        ),
        tb AS (
            SELECT doc_id,
                   ('0x' || substr(md5(t), 1, 8))::BIGINT % 256 AS b,
                   lang
            FROM tok
        ),
        cnt AS (
            SELECT b, COUNT(*) AS n_raw,
                   SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_tgt
            FROM tb GROUP BY b
        ),
        tot AS (SELECT SUM(n_raw) AS traw, SUM(n_tgt) AS ttgt FROM cnt),
        lr AS (
            SELECT b,
                   ln((n_tgt + 1.0) / (ttgt + 256.0))
                 - ln((n_raw + 1.0) / (traw + 256.0)) AS w
            FROM cnt, tot
        )
        SELECT doc_id, ROUND(SUM(w), 4) AS dsir_w
        FROM tb JOIN lr USING (b)
        GROUP BY doc_id ORDER BY doc_id
    """,
    # full-scan oracle over the same 2-D predicate — equality certifies the
    # z-order layout + 2-column zone pruning lost no rows
    "zorder_pruned_scan": """
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        WHERE doc_id BETWEEN 10 AND 199 AND n_chars BETWEEN 150 AND 350
        GROUP BY lang
        ORDER BY lang
    """,
    # per-column profile of orders: COUNT(DISTINCT) is NULL-excluding on
    # both sides; min/max only for numeric columns (NULL otherwise)
    "table_profile": """
        SELECT 'o_orderkey' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(COUNT(*) - COUNT(o_orderkey) AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
               CAST(MIN(o_orderkey) AS DOUBLE) AS min_num,
               CAST(MAX(o_orderkey) AS DOUBLE) AS max_num
        FROM orders
        UNION ALL
        SELECT 'o_custkey', CAST(COUNT(*) AS BIGINT),
               CAST(COUNT(*) - COUNT(o_custkey) AS BIGINT),
               CAST(COUNT(DISTINCT o_custkey) AS BIGINT),
               CAST(MIN(o_custkey) AS DOUBLE), CAST(MAX(o_custkey) AS DOUBLE)
        FROM orders
        UNION ALL
        SELECT 'o_orderstatus', CAST(COUNT(*) AS BIGINT),
               CAST(COUNT(*) - COUNT(o_orderstatus) AS BIGINT),
               CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT),
               CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
        FROM orders
        UNION ALL
        SELECT 'o_totalprice', CAST(COUNT(*) AS BIGINT),
               CAST(COUNT(*) - COUNT(o_totalprice) AS BIGINT),
               CAST(COUNT(DISTINCT o_totalprice) AS BIGINT),
               CAST(MIN(o_totalprice) AS DOUBLE), CAST(MAX(o_totalprice) AS DOUBLE)
        FROM orders
        UNION ALL
        SELECT 'o_orderdate', CAST(COUNT(*) AS BIGINT),
               CAST(COUNT(*) - COUNT(o_orderdate) AS BIGINT),
               CAST(COUNT(DISTINCT o_orderdate) AS BIGINT),
               CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
        FROM orders
        UNION ALL
        SELECT 'o_orderpriority', CAST(COUNT(*) AS BIGINT),
               CAST(COUNT(*) - COUNT(o_orderpriority) AS BIGINT),
               CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT),
               CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
        FROM orders
        ORDER BY col_name
    """,
    # LAG-window debounce: strict > 300 s gap to the previous raw event
    "events_window_dedup": """
        WITH w AS (
            SELECT event_id, user_id, event_type, ts,
                   LAG(ts) OVER (
                       PARTITION BY user_id, event_type ORDER BY ts, event_id
                   ) AS prev_ts
            FROM events
        )
        SELECT event_id, user_id, event_type, ts FROM w
        WHERE prev_ts IS NULL OR ts - prev_ts > INTERVAL 300 SECOND
        ORDER BY event_id
    """,
    # per-source quota cap: same Knuth-hash rank both sides
    "source_cap": """
        WITH r AS (
            SELECT doc_id, source,
                   ROW_NUMBER() OVER (
                       PARTITION BY source
                       ORDER BY ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296), doc_id
                   ) AS rn
            FROM documents
        )
        SELECT doc_id, source FROM r WHERE rn <= 15 ORDER BY doc_id
    """,
    # weekly cohort retention: cohort = min epoch-week per user
    "user_retention_cohorts": """
        WITH w AS (
            SELECT user_id, CAST(FLOOR(EPOCH(ts) / 604800) AS BIGINT) AS wk FROM events
        ),
        f AS (SELECT user_id, MIN(wk) AS cw FROM w GROUP BY user_id),
        a AS (
            SELECT DISTINCT w.user_id, f.cw, w.wk - f.cw AS off
            FROM w JOIN f USING (user_id)
        )
        SELECT cw AS cohort_week, off AS week_offset, COUNT(*) AS n_users
        FROM a GROUP BY cw, off ORDER BY cohort_week, week_offset
    """,
    # trigram novelty: grams as STRINGS here vs 64-bit mixed hashes in the
    # engine — the match certifies the run collision-free
    "doc_ngram_novelty": """
        WITH toks AS (
            SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
            FROM documents
        ),
        g AS (
            SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS gram
            FROM toks, unnest(generate_series(1, len(w) - 2)) AS t(i)
        ),
        c AS (SELECT gram, COUNT(*) AS nd FROM g GROUP BY gram)
        SELECT g.doc_id,
               CAST(SUM(CASE WHEN c.nd = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_unique,
               COUNT(*) AS n_grams,
               ROUND(SUM(CASE WHEN c.nd = 1 THEN 1 ELSE 0 END)::DOUBLE / COUNT(*), 4)
                   AS novelty
        FROM g JOIN c USING (gram)
        GROUP BY g.doc_id ORDER BY g.doc_id
    """,
    "promo_revenue": """
        WITH j AS (
            SELECT strftime(l.l_shipdate, '%Y-%m') AS month,
                   CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS HUGEINT)) AS u,
                   CASE WHEN p.p_type = 'PROMO'
                        THEN CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)
                             * (100 - CAST(ROUND(l.l_discount * 100) AS HUGEINT))
                        ELSE 0 END AS pu
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        ),
        m AS (SELECT month, SUM(u) AS tu, SUM(pu) AS pu FROM j GROUP BY month)
        SELECT month,
               CAST((pu + 50) // 100 AS DOUBLE) / 100.0 AS promo_revenue,
               CAST((tu + 50) // 100 AS DOUBLE) / 100.0 AS total_revenue,
               ROUND(CAST((pu + 50) // 100 AS DOUBLE)
                     / CAST(GREATEST((tu + 50) // 100, 1) AS DOUBLE), 6) AS promo_share
        FROM m ORDER BY month
    """,
    "brand_nation_revenue": """
        WITH j AS (
            SELECT p.p_brand, l.l_suppkey,
                   CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS HUGEINT)) AS u
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        ),
        a AS (
            SELECT j.p_brand, s.s_nationkey, SUM(j.u) AS u
            FROM j JOIN supplier s ON j.l_suppkey = s.s_suppkey
            GROUP BY j.p_brand, s.s_nationkey
        )
        SELECT a.p_brand, n.n_name,
               CAST((a.u + 50) // 100 AS DOUBLE) / 100.0 AS revenue
        FROM a JOIN nation n ON a.s_nationkey = n.n_nationkey
        ORDER BY a.p_brand, n.n_name
    """,
    "part_bfs_hops": r"""
        WITH RECURSIVE e0 AS (
            SELECT a.l_partkey AS s, b.l_partkey AS t
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey
             AND b.l_linenumber = a.l_linenumber + 1
             AND a.l_partkey <> b.l_partkey
        ),
        e AS (
            SELECT DISTINCT s, t
            FROM (SELECT s, t FROM e0 UNION ALL SELECT t, s FROM e0)
        ),
        src AS (SELECT MIN(l_partkey) AS v FROM lineitem),
        walk(node, d) AS (
            SELECT v, 0 FROM src
            UNION
            SELECT e.t, walk.d + 1
            FROM walk JOIN e ON e.s = walk.node
            WHERE walk.d < 3
        )
        SELECT CAST(node AS BIGINT) AS node, CAST(MIN(d) AS BIGINT) AS hops
        FROM walk GROUP BY node ORDER BY node
    """,
    "bucketed_join_segments": r"""
        SELECT c.c_mktsegment,
               CAST(COUNT(*) AS BIGINT) AS n_orders,
               CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS HUGEINT)) AS DOUBLE)
                   / 100.0 AS total_price
        FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
        GROUP BY c.c_mktsegment
        ORDER BY c.c_mktsegment
    """,
    "zone_pruned_stats": r"""
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        WHERE n_chars BETWEEN 200 AND 399
        GROUP BY lang
        ORDER BY lang
    """,
    "bloom_pruned_lookup": """
        SELECT doc_id, lang, n_chars
        FROM documents
        WHERE doc_id IN (1, 2, 3)
        ORDER BY doc_id
    """,
    "doc_char_entropy": """
        WITH cnt AS (
            SELECT doc_id, ch, COUNT(*) AS c
            FROM (SELECT doc_id, unnest(string_split(text, '')) AS ch
                  FROM documents)
            GROUP BY doc_id, ch
        ),
        tot AS (SELECT doc_id, SUM(c) AS n FROM cnt GROUP BY doc_id)
        SELECT t.doc_id,
               CAST(t.n AS BIGINT) AS n_chars,
               ROUND(SUM(-(c * 1.0 / t.n) * LOG2(c * 1.0 / t.n)), 4) AS entropy
        FROM cnt
        JOIN tot t ON cnt.doc_id = t.doc_id
        GROUP BY t.doc_id, t.n
        ORDER BY t.doc_id
    """,
    "range_sharded_export": """
        WITH t AS (
            SELECT doc_id, n_chars,
                   NTILE(8) OVER (ORDER BY n_chars, doc_id) AS shard
            FROM documents
        )
        SELECT CAST(shard AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(MIN(n_chars) AS BIGINT) AS min_chars,
               CAST(MAX(n_chars) AS BIGINT) AS max_chars
        FROM t
        GROUP BY shard
        ORDER BY shard
    """,
    "revenue_band_forecast": """
        WITH j AS (
            SELECT CAST(ROUND(l_extendedprice * 100) AS HUGEINT)
                       * CAST(ROUND(l_discount * 100) AS HUGEINT) AS u
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        )
        SELECT CAST((COALESCE(SUM(u), 0) + 50) // 100 AS DOUBLE) / 100.0 AS revenue
        FROM j
    """,
    "top_supplier_quarter": """
        WITH r AS (
            SELECT l_suppkey,
                   SUM(CAST(ROUND(l_extendedprice * 100) AS HUGEINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS HUGEINT))) AS u
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1996-04-01'
            GROUP BY l_suppkey
        )
        SELECT s.s_suppkey, s.s_name,
               CAST((r.u + 50) // 100 AS DOUBLE) / 100.0 AS total_revenue
        FROM r JOIN supplier s ON r.l_suppkey = s.s_suppkey
        WHERE r.u = (SELECT MAX(u) FROM r)
        ORDER BY s.s_suppkey
    """,
    "late_line_priority": """
        SELECT l.l_linestatus,
               CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                             THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
               CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                             THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
        GROUP BY l.l_linestatus
        ORDER BY l.l_linestatus
    """,
    "min_cost_supplier": """
        WITH c AS (
            SELECT l.l_partkey, l.l_suppkey,
                   CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS cost_c,
                   ROW_NUMBER() OVER (
                       PARTITION BY l.l_partkey
                       ORDER BY CAST(ROUND(l.l_extendedprice * 100) AS BIGINT),
                                l.l_suppkey
                   ) AS rn
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            WHERE p.p_size = 15
        )
        SELECT p.p_partkey, p.p_name, c.l_suppkey AS s_suppkey, s.s_name,
               CAST(c.cost_c AS DOUBLE) / 100.0 AS min_cost
        FROM c
        JOIN part p ON c.l_partkey = p.p_partkey
        JOIN supplier s ON c.l_suppkey = s.s_suppkey
        WHERE c.rn = 1
        ORDER BY p.p_partkey
    """,
    "local_supplier_revenue": """
        WITH j AS (
            SELECT c.c_nationkey,
                   CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS HUGEINT)) AS u
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
              AND c.c_nationkey = s.s_nationkey
        ),
        a AS (SELECT c_nationkey, SUM(u) AS u FROM j GROUP BY c_nationkey)
        SELECT n.n_name,
               CAST((a.u + 50) // 100 AS DOUBLE) / 100.0 AS revenue
        FROM a JOIN nation n ON a.c_nationkey = n.n_nationkey
        ORDER BY revenue DESC
    """,
    "nation_trade_volume": """
        WITH j AS (
            SELECT s.s_nationkey, c.c_nationkey,
                   CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS HUGEINT)) AS u
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
              AND c.c_nationkey <> s.s_nationkey
        ),
        a AS (
            SELECT s_nationkey, c_nationkey, SUM(u) AS u
            FROM j GROUP BY s_nationkey, c_nationkey
        )
        SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
               CAST((a.u + 50) // 100 AS DOUBLE) / 100.0 AS revenue
        FROM a
        JOIN nation ns ON a.s_nationkey = ns.n_nationkey
        JOIN nation nc ON a.c_nationkey = nc.n_nationkey
        ORDER BY supp_nation, cust_nation
    """,
    "customer_order_distribution": """
        WITH pc AS (
            SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
            FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
            GROUP BY c.c_custkey
        )
        SELECT CAST(c_count AS BIGINT) AS c_count,
               CAST(COUNT(*) AS BIGINT) AS custdist
        FROM pc GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """,
    "rich_inactive_customers": """
        WITH t AS (
            SELECT SUM(CAST(ROUND(c_acctbal * 100) AS HUGEINT)) AS s,
                   CAST(COUNT(*) AS HUGEINT) AS n
            FROM customer WHERE CAST(ROUND(c_acctbal * 100) AS HUGEINT) > 0
        ),
        rich AS (
            SELECT c.c_custkey, c.c_nationkey,
                   CAST(ROUND(c.c_acctbal * 100) AS HUGEINT) AS bal_c
            FROM customer c, t
            WHERE CAST(ROUND(c.c_acctbal * 100) AS HUGEINT) * t.n > t.s
              AND NOT EXISTS (
                  SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '2000-01-01')
        )
        SELECT n.n_name,
               CAST(COUNT(*) AS BIGINT) AS numcust,
               CAST(SUM(r.bal_c) AS DOUBLE) / 100.0 AS totacctbal
        FROM rich r JOIN nation n ON r.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
        ORDER BY n.n_name
    """,
    "small_qty_loss": """
        WITH t AS (
            SELECT l_partkey,
                   SUM(CAST(ROUND(l_quantity) AS HUGEINT)) AS sq,
                   CAST(COUNT(*) AS HUGEINT) AS n
            FROM lineitem GROUP BY l_partkey
        )
        SELECT ROUND(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS HUGEINT)) AS DOUBLE)
                     / 100.0 / 7.0, 2) AS avg_yearly,
               CAST(COUNT(*) AS BIGINT) AS n_lines
        FROM lineitem l JOIN t ON l.l_partkey = t.l_partkey
        WHERE 5 * CAST(ROUND(l.l_quantity) AS HUGEINT) * t.n < t.sq
    """,
    "order_sole_late_supplier": """
        WITH l AS (
            SELECT li.l_orderkey, li.l_suppkey,
                   MAX(CASE WHEN li.l_shipdate > o.o_orderdate + INTERVAL 90 DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem li JOIN orders o ON li.l_orderkey = o.o_orderkey
            WHERE o.o_orderstatus = 'F'
            GROUP BY li.l_orderkey, li.l_suppkey
        ),
        per_order AS (
            SELECT l_orderkey, COUNT(*) AS n_supp, SUM(late) AS n_late
            FROM l GROUP BY l_orderkey
        )
        SELECT l.l_suppkey AS s_suppkey, CAST(COUNT(*) AS BIGINT) AS numwait
        FROM l JOIN per_order USING (l_orderkey)
        WHERE l.late = 1 AND per_order.n_supp >= 2 AND per_order.n_late = 1
        GROUP BY l.l_suppkey
        ORDER BY numwait DESC, s_suppkey
        LIMIT 20
    """,
    "part_supplier_concentration": """
        WITH ps AS (
            SELECT l_partkey, l_suppkey,
                   SUM(CAST(ROUND(l_quantity) AS HUGEINT)) AS sq
            FROM lineitem GROUP BY l_partkey, l_suppkey
        ),
        p AS (SELECT l_partkey, SUM(sq) AS tot FROM ps GROUP BY l_partkey),
        r AS (
            SELECT ps.l_partkey, ps.l_suppkey, ps.sq, p.tot,
                   ROW_NUMBER() OVER (
                       PARTITION BY ps.l_partkey ORDER BY ps.sq DESC, ps.l_suppkey
                   ) AS rk
            FROM ps JOIN p USING (l_partkey)
        )
        SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
               ROUND(CAST(sq AS DOUBLE) / CAST(tot AS DOUBLE), 6) AS top_share
        FROM r WHERE rk = 1 ORDER BY p_partkey
    """,
    "doc_stats_cube": """
        WITH d AS (
            SELECT COALESCE(lang, '(null)') AS lang,
                   COALESCE(source, '(null)') AS source, n_chars
            FROM documents
        )
        SELECT COALESCE(lang, 'ALL') AS lang,
               COALESCE(source, 'ALL') AS source,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM d
        GROUP BY CUBE (lang, source)
        ORDER BY lang, source
    """,
    "events_winsorized": """
        WITH cuts AS (
            SELECT event_type,
                   quantile_disc(value, 0.05) AS lo,
                   quantile_disc(value, 0.95) AS hi
            FROM events GROUP BY event_type
        )
        SELECT e.event_type, c.lo, c.hi,
               CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(CAST(SUM(CAST(ROUND(LEAST(GREATEST(e.value, c.lo), c.hi) * 100)
                                   AS HUGEINT)) AS DOUBLE) / 100.0
                     / COUNT(*), 4) AS avg_winsorized
        FROM events e JOIN cuts c USING (event_type)
        GROUP BY e.event_type, c.lo, c.hi
        ORDER BY e.event_type
    """,
    "part_fuzzy_names": """
        WITH u AS (SELECT p_name, COUNT(*) AS n_parts FROM part GROUP BY 1)
        SELECT a.p_name AS name_a, b.p_name AS name_b,
               CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist,
               CAST(a.n_parts AS BIGINT) AS n_a, CAST(b.n_parts AS BIGINT) AS n_b
        FROM u a JOIN u b ON a.p_name < b.p_name
        WHERE levenshtein(a.p_name, b.p_name) <= 2
        ORDER BY 1, 2
    """,
    "part_fuzzy_cross": """
        WITH a AS (SELECT DISTINCT p_name FROM part WHERE p_partkey % 2 = 0),
             b AS (SELECT DISTINCT p_name FROM part WHERE p_partkey % 2 = 1)
        SELECT a.p_name AS name_a, b.p_name AS name_b,
               CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
        FROM a, b
        WHERE levenshtein(a.p_name, b.p_name) <= 2
        ORDER BY 1, 2
    """,
    "docs_cdc_merge": """
        WITH changes AS (
            SELECT doc_id, 'upsert' AS op, 1 AS seq,
                   text, lang, 'cdc' AS source, n_chars
            FROM documents WHERE doc_id % 10 = 7
            UNION ALL
            SELECT doc_id, 'delete', 1, NULL, NULL, NULL, NULL
            FROM documents WHERE doc_id % 10 = 3
            UNION ALL
            SELECT doc_id, 'delete', 2, NULL, NULL, NULL, NULL
            FROM documents WHERE doc_id % 100 = 47
            UNION ALL
            SELECT doc_id + 1000000, 'upsert', 1,
                   'new doc ' || doc_id, lang, 'cdc_new',
                   length('new doc ' || doc_id)
            FROM documents WHERE doc_id % 10 = 0
        ),
        latest AS (
            SELECT * FROM changes
            QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY seq DESC) = 1
        )
        SELECT d.doc_id, d.text, d.lang, d.source, d.n_chars
        FROM documents d ANTI JOIN latest l ON d.doc_id = l.doc_id
        UNION ALL
        SELECT doc_id, text, lang, source, CAST(n_chars AS BIGINT)
        FROM latest WHERE op = 'upsert'
        ORDER BY doc_id
    """,
    # Same four RE2 patterns as functions.textstats.PII_PATTERNS, chained in
    # declaration order; each pattern's span count is measured on the
    # PREVIOUS pattern's output, exactly like redact_pii.
    "doc_redact_pii": r"""
        WITH d AS (
            SELECT doc_id,
                   text || ' contact user' || doc_id || '@mail.example from 10.0.' ||
                   (doc_id % 256) || '.1 ssn ' ||
                   lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-' ||
                   lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0') || '-' ||
                   lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0') ||
                   lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0') ||
                   ' call 555-01' || lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0') AS t0
            FROM documents
        ),
        s1 AS (
            SELECT doc_id,
                   len(regexp_extract_all(t0, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c1,
                   regexp_replace(t0, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS t1
            FROM d
        ),
        s2 AS (
            SELECT doc_id, c1,
                   len(regexp_extract_all(t1, '\b([0-9]{1,3}\.){3}[0-9]{1,3}\b')) AS c2,
                   regexp_replace(t1, '\b([0-9]{1,3}\.){3}[0-9]{1,3}\b', '[IPV4]', 'g') AS t2
            FROM s1
        ),
        s3 AS (
            SELECT doc_id, c1, c2,
                   len(regexp_extract_all(t2, '\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b')) AS c3,
                   regexp_replace(t2, '\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b', '[SSN]', 'g') AS t3
            FROM s2
        ),
        s4 AS (
            SELECT doc_id, c1, c2, c3,
                   len(regexp_extract_all(t3, '\+?[0-9][0-9()\-\s]{6,}[0-9]')) AS c4,
                   regexp_replace(t3, '\+?[0-9][0-9()\-\s]{6,}[0-9]', '[PHONE]', 'g') AS t4
            FROM s3
        )
        SELECT doc_id, t4 AS text, CAST(c1 + c2 + c3 + c4 AS BIGINT) AS n_redacted
        FROM s4 ORDER BY doc_id
    """,
    # lang_id, simhash_fingerprint, embedding_near_dup, er_pages_entities:
    # non-SQL-expressible (sketches / heuristics / ER) — rows-only checks
    # by design.
}
