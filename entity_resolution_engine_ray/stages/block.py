"""Stage 2 — page features + MinHash-LSH blocking keys.

``FeatureExtractor`` turns a batch of extracted pages into features. One
instance per config lives in each worker process (``featurize_batch``): the
MinHash coefficient tables and the token-hash cache are built once there
(the reference's module-level config loads, e.g.
matchers/teams_matcher.py:23-26, become process state per SURVEY.md §7.2),
then every batch is processed with shared state. All hashing is
deterministic (multiply-shift with fixed seeds), so every process computes
identical keys. ``token_hashes`` is the one tokenizer front end (text
array → flat token hashes + per-doc counts); the dedup operators'
word-shingle featurizer and ``dedup.simhash_stage`` use it too.

``featurize_pages`` is the one extract + featurize kernel over a pages
table, run in ``FEATURIZE_BATCH_ROWS``-row slices. The pages pipeline runs
it inside plain Parquet read tasks, or per in-memory block;
``extract_stage`` → ``feature_stage`` is its Ray Data form, with the same
batch size.

Outputs one features table (the ``features`` checkpoint schema):

    url:string, url_hash:int64, warc_ts:timestamp, lang:string,
    title_norm:string, token_ids:list<int32> (sorted unique 32-bit token
    ids — the scorer's Jaccard input), simhash:int64, band_keys:list<int64>

Two vectorized per-block Arrow list-flattens derive the exchange rows from
any table with a ``band_keys`` list column — the pages features or the
dedup operators' features: ``block_keys`` (block_key only, for the
hot/pairable count pass) and ``fat_block_rows`` (one row of the caller's
payload columns per key, for the pair exchange). Both run inside the split
tasks of the exchange that consumes them (stages/pairs.blocked_pair_edges),
so the exploded rows are never materialized as a Dataset; ``block_keys_stage`` runs
``block_keys`` as one plain task per block where no exchange follows (no
pipeline call does since the fold's featurize tasks return its batch's
keys; the name stays because erbench's tracer wraps it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.functions.similarity import (
    hash_tokens_flat,
    hash_uniques,
    lsh_band_keys_matrix,
    minhash_coefficients,
    minhash_signatures_flat,
    shingle_hashes_flat,
    simhash64_flat,
    stable_hash64,
)
from entity_resolution_engine_ray.oracle.serial import canonical_tokens
from entity_resolution_engine_ray.stages.extract import extract_batch


def _comb(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _split_canonical_ascii(arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Vectorized ``canonical_tokens`` for an all-ASCII string array:
    ascii_lower → RE2 ``[^\\w\\s]``→space → ascii_split_whitespace → drop
    empty tokens. On ASCII input RE2's ``\\w``/``\\s`` and Arrow's
    whitespace split agree byte-for-byte with Python's ``re``/``str.split``
    (the replace leaves only RE2's ``\\s`` = ``[\\t\\n\\f\\r ]``, on which
    the ASCII and UTF-8 splits agree; pinned by
    test_feature_extractor_matches_scalar_reference and the ascii-parity
    case in test_block_features). Returns (flat non-empty token values,
    per-doc token counts)."""
    import pyarrow.compute as pc

    rep = pc.replace_substring_regex(
        pc.ascii_lower(arr), pattern=r"[^\w\s]", replacement=" "
    )
    sp = _comb(pc.ascii_split_whitespace(rep))
    lengths = pc.list_value_length(sp).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = sp.flatten()
    nonempty = pc.not_equal(flat, "")
    ne_np = nonempty.to_numpy(zero_copy_only=False)
    doc_ids = np.repeat(np.arange(len(sp), dtype=np.int64), lengths)
    counts = np.bincount(doc_ids[ne_np], minlength=len(sp)).astype(np.int64)
    return flat.filter(nonempty), counts


def _ascii_filled(texts) -> tuple[pa.Array, bool]:
    """``texts`` as one array with nulls as "", and whether it is all ASCII
    (the Arrow tokenizer fast path's precondition)."""
    import pyarrow.compute as pc

    arr = pc.fill_null(_comb(texts), "")
    return arr, bool(len(arr) and pc.all(pc.string_is_ascii(arr)).as_py())


def token_hashes(texts, cache: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The one tokenizer front end: a text array → (flat uint64 token
    hashes of every doc's ``canonical_tokens``, per-doc token counts).

    An all-ASCII array takes the Arrow fast path: the flat token stream
    never materializes as Python objects, only the batch's UNIQUE tokens do
    (for the cached blake2b hash). Any other array falls back to
    ``canonical_tokens`` per doc. Both hash the uniques through
    ``similarity.hash_uniques`` and give byte-identical hashes (pinned by
    tests/test_block_features.py)."""
    arr, ascii_ok = _ascii_filled(texts)
    if not ascii_ok:
        toks = [canonical_tokens(t) for t in arr.to_pylist()]
        counts = np.fromiter(map(len, toks), dtype=np.int64, count=len(toks))
        flat = np.array([t for doc in toks for t in doc], dtype=object)
        return hash_tokens_flat(flat, cache), counts
    flat_vals, counts = _split_canonical_ascii(arr)
    denc = _comb(flat_vals).dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uh = hash_uniques(denc.dictionary.to_pylist(), cache)
    return uh.astype(np.uint64)[codes], counts


def canonical_text(texts) -> pa.Array:
    """A text array → each doc's ``canonical_tokens`` joined by one space
    (the pages' ``title_norm``), on the same per-array ASCII fast path as
    ``token_hashes``."""
    import pyarrow.compute as pc

    arr, ascii_ok = _ascii_filled(texts)
    if not ascii_ok:
        return pa.array([" ".join(canonical_tokens(t)) for t in arr.to_pylist()], type=pa.string())
    flat, counts = _split_canonical_ascii(arr)
    offsets = pa.array(np.r_[0, counts.cumsum()].astype(np.int32))
    return pc.binary_join(pa.ListArray.from_arrays(offsets, flat), " ")


def low32_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Order-preserving int64 codes below 2^32 of integer ``values`` →
    (codes, distinct): the offset from the dtype's minimum for values of at
    most 32 bits (``distinct`` None), else the rank among the sorted
    ``distinct`` values (the dedup operators' int64 shingle ids)."""
    import pandas as pd

    values = np.asarray(values)
    if values.dtype.itemsize <= 4:
        return values.astype(np.int64) - np.iinfo(values.dtype).min, None
    codes, distinct = pd.factorize(values, sort=True)
    return codes.astype(np.int64, copy=False), distinct


def sorted_unique_lists(
    values: np.ndarray, counts: np.ndarray, value_type: pa.DataType
) -> pa.ListArray:
    """Each doc's sorted unique ``values`` as a list array of
    ``value_type``; doc i's values are the next ``counts[i]`` of the flat
    array. One sort of int64 keys, the doc in the high 32 bits and the
    value's order-preserving ``low32_codes`` code in the low 32; adjacent
    equal keys are the duplicates. Per 1,024-doc batch, against the
    ``np.lexsort`` it replaces (shared 4-vCPU Xeon host): int32 16–17 →
    3.5 ms, int64 26–28 → 11–12 ms."""
    n = len(counts)
    codes, distinct = low32_codes(values)
    keys = np.repeat(np.arange(n, dtype=np.int64) << 32, counts) | codes
    keys.sort()
    ukeys = keys[np.r_[True, keys[1:] != keys[:-1]][: len(keys)]]
    low = ukeys & 0xFFFFFFFF
    if distinct is None:
        uvals = (low + np.iinfo(values.dtype).min).astype(values.dtype)
    else:
        uvals = distinct[low]
    ucounts = np.bincount(ukeys >> 32, minlength=n)
    return pa.ListArray.from_arrays(
        pa.array(np.r_[0, ucounts.cumsum()].astype(np.int32)), pa.array(uvals, type=value_type)
    )


class FeatureExtractor:
    """Batch transform: (url, warc_ts, lang, text, title) → features.
    Token-hash cache amortizes hashing across batches."""

    def __init__(self, cfg: PagesERConfig | None = None):
        self.cfg = cfg or PagesERConfig()
        self.coeffs = minhash_coefficients(self.cfg.num_perm)
        self.cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Flat whole-batch form: tokenize and hash the batch's token stream
        once (``token_hashes``), then segment-reduced MinHash/SimHash/
        band-key kernels (similarity.*_flat) — per-DOC values identical to
        the scalar kernels (pinned by
        tests/test_block_features.py::test_flat_kernels_match_scalar), with
        no per-doc numpy call overhead. Measured 1.9× over the per-doc loop
        at 4096-doc batches."""
        cfg = self.cfg
        n = batch.num_rows
        urls_py = batch["url"].to_pylist()
        url_hashes = np.fromiter(
            (stable_hash64(u) for u in urls_py), dtype=np.int64, count=n
        )
        flat_h, counts = token_hashes(batch["text"], self.cache)
        offsets = np.r_[0, counts.cumsum()]
        title_arr = canonical_text(batch["title"])
        # sorted unique 32-bit token ids per doc (low half of the 64-bit
        # token hash) — the scorer's Jaccard operates on these. Int arrays
        # stay zero-copy Arrow through the shuffle, and 32-bit ids halve
        # the fat exchange's dominant payload (see jaccard_ids);
        # MinHash/SimHash keep the full 64-bit hashes.
        ids32 = (flat_h & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
        token_ids_arr = sorted_unique_lists(ids32, counts, pa.int32())
        flat_sh, sh_counts = shingle_hashes_flat(flat_h, offsets, k=cfg.shingle_k)
        sigs = minhash_signatures_flat(flat_sh, sh_counts, *self.coeffs)
        band_mat = lsh_band_keys_matrix(sigs, cfg.bands)
        band_keys_arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * cfg.bands, cfg.bands, dtype=np.int32)),
            pa.array(band_mat.reshape(-1), type=pa.int64()),
        )
        simhashes = simhash64_flat(flat_h, offsets)
        return pa.table(
            {
                "url": batch["url"],
                "url_hash": pa.array(url_hashes, type=pa.int64()),
                "warc_ts": batch["warc_ts"],
                "lang": batch["lang"],
                "title_norm": title_arr,
                "token_ids": token_ids_arr,
                "simhash": pa.array(simhashes, type=pa.int64()),
                "band_keys": band_keys_arr,
            }
        )


def default_pool_size() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster CPUs (leave head
    room for the read/write stages so the pool doesn't starve the pipeline)."""
    from entity_resolution_engine_ray.stages.exchange import cluster_cpus

    return (1, max(2, cluster_cpus() - 2))


# rows per extract + featurize batch, for every form of the step: the
# Ray Data stages' ``batch_size`` and ``featurize_pages``' slice. html rows
# can be wide (binary payload rule, SURVEY.md §7.4), so batches stay small.
FEATURIZE_BATCH_ROWS = 1024

# process-global featureizer cache: plain tasks are elastically scheduled
# (no actor-pool ramp-up), while each worker process still builds
# coefficient tables / token caches exactly once per config.
_FEATURE_STATE: dict[tuple, FeatureExtractor] = {}


def featurize_batch(batch: pa.Table, cfg: PagesERConfig) -> pa.Table:
    key = (cfg.num_perm, cfg.bands, cfg.shingle_k)
    state = _FEATURE_STATE.get(key)
    if state is None:
        state = FeatureExtractor(cfg)
        _FEATURE_STATE[key] = state
    return state(batch)


def featurize_pages(pages: pa.Table, cfg: PagesERConfig) -> pa.Table:
    """Extract + featurize a pages table (url, warc_ts, html, lang) in
    ``FEATURIZE_BATCH_ROWS``-row slices. Every features row depends on its
    page alone, so the slicing never changes a value. A zero-row table
    gives the typed empty features table of its schema."""
    n = FEATURIZE_BATCH_ROWS
    parts = [
        featurize_batch(extract_batch(pages.slice(i, n)), cfg)
        for i in range(0, max(pages.num_rows, 1), n)
    ]
    return pa.concat_tables(parts) if len(parts) > 1 else parts[0]


def feature_stage(
    extracted_ds, cfg: PagesERConfig | None = None, batch_size: int = FEATURIZE_BATCH_ROWS
):
    """Dataset of extracted pages → Dataset of features (the Ray Data form
    of ``featurize_pages``' featurize half)."""
    cfg = cfg or PagesERConfig()
    return extracted_ds.map_batches(
        featurize_batch,
        fn_kwargs={"cfg": cfg},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


_BLOCK_KEYS = pa.schema([("block_key", pa.int64())])

def block_keys(batch: pa.Table) -> pa.Table:
    """Key-only band explode: one ``block_key`` row per band — nothing but
    the 8-byte key column moves. Typed empty for a zero-row block."""
    if batch.num_rows == 0:
        return _BLOCK_KEYS.empty_table()
    return pa.table({"block_key": _comb(batch["band_keys"]).flatten()})


def fat_block_rows(
    batch: pa.Table, payload: tuple[str, ...], allowed: np.ndarray | None = None
) -> pa.Table:
    """Fat explode: one (block_key, *payload) row per ``band_keys`` entry.
    Ships each row's payload once per key through ONE hash exchange —
    cheaper in total than joining it onto the pair list twice (the join
    path moves the payload once per PAIR side, and pairs outnumber pages
    ~30:1 on web near-dup workloads). The pages scorer's payload
    (``score.PAGE_PAYLOAD``) is IDS ONLY: the int32 token id list and the
    64-bit url hash as page identity — url STRINGS never enter the pair shuffle or
    the edge output; they rejoin from the features side table after
    clustering (stages/merge).

    ``allowed``: optional sorted int64 key array; rows with any other key
    are dropped before the payload columns are gathered. A zero-row block
    gives a zero-row table of the same columns."""
    keys = _comb(batch["band_keys"])
    flat = keys.flatten()
    counts = np.diff(keys.offsets.to_numpy(zero_copy_only=False))
    idx = np.repeat(np.arange(len(keys)), counts)
    if allowed is not None:
        keep = in_sorted(flat.to_numpy(zero_copy_only=False), allowed)
        flat, idx = flat.filter(pa.array(keep)), idx[keep]
    idx = pa.array(idx, type=pa.int64())
    cols = {"block_key": flat}
    for name in payload:
        cols[name] = _comb(batch[name]).take(idx)
    return pa.table(cols)


def in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` occur in the sorted int64 array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    pos[pos >= len(sorted_keys)] = len(sorted_keys) - 1
    return sorted_keys[pos] == values


def block_keys_stage(features):
    """``block_keys`` over every block of in-memory features (``Blocks`` or
    a Dataset, returned in kind), one plain task per block
    (stages/exchange.map_blocks)."""
    from entity_resolution_engine_ray.stages.exchange import map_blocks

    return map_blocks(features, block_keys)
