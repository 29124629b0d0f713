"""Similarity kernels and sketches.

Pure, deterministic functions used both by the serial parity oracle and inside
Ray Data ``map_batches`` stages (the heavy callers batch them over numpy
arrays). No third-party fuzzy-matching dependency: the token-sort / indel
ratio reproduces the scoring semantics of the reference engine's
``token_sort_ratio`` (reference ``normalizers/name_normalizer.py:29-32``,
i.e. ``fuzz.token_sort_ratio/100`` = normalized indel similarity over
whitespace-sorted tokens), implemented here with a bit-parallel LCS.

Sketches (MinHash, SimHash) use deterministic multiply-shift hashing seeded by
fixed constants so every worker computes identical signatures.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np

# ---------------------------------------------------------------------------
# Indel ratio / token-sort ratio (reference scoring semantics)
# ---------------------------------------------------------------------------


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence, bit-parallel (CIPR 2001).

    O(ceil(m/word) * n) using Python big-int bit vectors.
    """
    m = len(a)
    if m == 0 or len(b) == 0:
        return 0
    pm: dict[str, int] = defaultdict(int)
    for i, ch in enumerate(a):
        pm[ch] |= 1 << i
    mask = (1 << m) - 1
    v = mask
    for ch in b:
        p = pm.get(ch, 0)
        u = v & p
        v = (v + u) | (v & ~p)
    # LCS = number of zero bits in the low m bits of v
    return m - bin(v & mask).count("1")


def indel_ratio(a: str, b: str) -> float:
    """Normalized indel similarity in [0, 1]: ``2*LCS/(|a|+|b|)``.

    Matches ``rapidfuzz.fuzz.ratio/100`` (indel distance = |a|+|b|-2*LCS).
    Both empty → 1.0 (rapidfuzz convention).
    """
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


def token_sort_ratio(a: str, b: str) -> float:
    """Reference ``token_sort_ratio`` semantics: 0.0 if either side is empty,
    else indel ratio over whitespace-split, lexicographically sorted tokens."""
    if not a or not b:
        return 0.0
    sa = " ".join(sorted(a.split()))
    sb = " ".join(sorted(b.split()))
    return indel_ratio(sa, sb)


def simple_ratio(a: str, b: str) -> float:
    """Reference ``simple_ratio``: plain indel ratio with the empty guard."""
    if not a or not b:
        return 0.0
    return indel_ratio(a, b)


# ---------------------------------------------------------------------------
# Jaro-Winkler (used by the pages pair scorer)
# ---------------------------------------------------------------------------


def jaro_similarity(a: str, b: str) -> float:
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_flags = [False] * la
    b_flags = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = True
                b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    t = transpositions / 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler(a: str, b: str, prefix_weight: float = 0.1, max_prefix: int = 4) -> float:
    jaro = jaro_similarity(a, b)
    if jaro <= 0.7:
        return jaro
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def _jaro_winkler_batch_fixed(
    A: np.ndarray, B: np.ndarray, la: np.ndarray, lb: np.ndarray,
    prefix_weight: float, max_prefix: int,
) -> np.ndarray:
    """Vectorized Jaro-Winkler over n pre-padded string pairs.

    ``A``/``B`` are (n, L) uint32 codepoint matrices (0-padded); ``la``/``lb``
    the true lengths. Exact same greedy-matching semantics as the scalar
    ``jaro_winkler`` (property-tested against it): the loop runs over the L
    character positions, each iteration vectorized across all n pairs."""
    n, L = A.shape
    cols = np.arange(L)
    win = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    a_match = np.zeros((n, L), dtype=bool)
    b_match = np.zeros((n, L), dtype=bool)
    for i in range(L):
        active = la > i
        if not active.any():
            break
        # first unflagged j in [max(0, i-win), min(lb, i+win+1)) with B[j]==A[i]
        elig = (B == A[:, i, None]) & ~b_match
        elig &= (cols[None, :] >= np.maximum(0, i - win)[:, None]) & (
            cols[None, :] < np.minimum(lb, i + win + 1)[:, None]
        )
        elig &= active[:, None]
        hit = elig.any(axis=1)
        j = elig.argmax(axis=1)
        b_match[hit, j[hit]] = True
        a_match[hit, i] = True
    m = a_match.sum(axis=1)
    # transpositions: align matched chars of a (by i) with matched chars of b
    # (by j); stable argsort floats matched columns to the front in order
    a_ord = np.argsort(~a_match, axis=1, kind="stable")
    b_ord = np.argsort(~b_match, axis=1, kind="stable")
    a_seq = np.take_along_axis(A, a_ord, axis=1)
    b_seq = np.take_along_axis(B, b_ord, axis=1)
    t = ((a_seq != b_seq) & (cols[None, :] < m[:, None])).sum(axis=1) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        jaro = (
            m / np.maximum(la, 1) + m / np.maximum(lb, 1) + (m - t) / np.maximum(m, 1)
        ) / 3.0
    jaro = np.where(m == 0, 0.0, jaro)
    jaro = np.where((la == 0) & (lb == 0), 1.0, jaro)
    K = min(max_prefix, L)
    if K > 0:
        pe = (A[:, :K] == B[:, :K]) & (cols[None, :K] < np.minimum(la, lb)[:, None])
        prefix = np.cumprod(pe, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(n, dtype=np.int64)
    return np.where(jaro > 0.7, jaro + prefix * prefix_weight * (1.0 - jaro), jaro)


def jaro_winkler_batch(
    a_list, b_list, prefix_weight: float = 0.1, max_prefix: int = 4
) -> np.ndarray:
    """Batch Jaro-Winkler: vectorized across pairs, bucketed by padded length
    so short pairs don't pay the long pairs' O(L²). Equal pairs short-circuit
    to 1.0 (JW(a, a) == 1.0 for any a, including empty)."""
    a_arr = np.asarray(a_list, dtype=object)
    b_arr = np.asarray(b_list, dtype=object)
    n = len(a_arr)
    out = np.ones(n, dtype=np.float64)
    neq = np.flatnonzero(a_arr != b_arr)
    if len(neq) == 0:
        return out
    la = np.fromiter((len(a_arr[i]) for i in neq), dtype=np.int64, count=len(neq))
    lb = np.fromiter((len(b_arr[i]) for i in neq), dtype=np.int64, count=len(neq))
    lmax = np.maximum(la, lb)
    # width-8 length buckets (8, 16, 24, ...): bounds the number of
    # padded-matrix allocations while keeping padding waste under one
    # 8-char lane; the matrix pads only to the bucket's ACTUAL max length —
    # the O(n·L²) match loop is the kernel's whole cost, and e.g. 40-char
    # titles in a pow2 64 bucket would pay 2.6× their true L²
    bucket = (np.maximum(lmax, 1) + 7) // 8
    for bkt in np.unique(bucket):
        sel = np.flatnonzero(bucket == bkt)
        idx = neq[sel]
        L = int(lmax[sel].max())
        A = np.array([a_arr[i] for i in idx], dtype=f"U{L}").view(np.uint32).reshape(len(idx), L)
        B = np.array([b_arr[i] for i in idx], dtype=f"U{L}").view(np.uint32).reshape(len(idx), L)
        out[idx] = _jaro_winkler_batch_fixed(
            A, B, la[sel], lb[sel], prefix_weight, max_prefix
        )
    return out


# ---------------------------------------------------------------------------
# Token sets / Jaccard
# ---------------------------------------------------------------------------


def token_jaccard(a_tokens: set[str] | frozenset[str], b_tokens: set[str] | frozenset[str]) -> float:
    if not a_tokens and not b_tokens:
        return 1.0
    if not a_tokens or not b_tokens:
        return 0.0
    inter = len(a_tokens & b_tokens)
    union = len(a_tokens) + len(b_tokens) - inter
    return inter / union


def ngram_set(text: str, n: int = 3) -> frozenset[str]:
    """Character n-gram set (over the raw string, no padding)."""
    if len(text) < n:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i : i + n] for i in range(len(text) - n + 1))


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    return token_jaccard(ngram_set(a, n), ngram_set(b, n))


def char_ngram_hashes(text: str, n: int = 3) -> np.ndarray:
    """Vectorized 64-bit ids of a string's char n-grams (uint64 array, one
    per WINDOW — not deduped; MinHash is duplicate-invariant and callers
    unique for the verify set).

    This replaces the per-gram Python path (``sorted(ngram_set(...))`` +
    per-gram dict-cached blake2b), which was the measured hot spot of
    char-ngram featurization (r3 verdict): one UTF-32 decode gives the code
    points as a numpy array, ``n`` shifted vector ops accumulate every
    window, and splitmix64 finalizes.

    Gram identity is preserved exactly for n <= 3: windows pack their code
    points directly (Unicode < 2^21, 3 x 21 = 63 bits — injective) and
    splitmix64 is a bijection, so distinct grams NEVER collide — Jaccard
    over ids == Jaccard over gram strings, stronger than the old
    stable_hash64 ids. n > 3 falls back to a polynomial accumulate + mix
    (collision odds ~2^-64 per gram pair — the documented hash-exactness
    stance). A text shorter than n is its own single gram
    (``stable_hash64`` id — a <n-char string never equals an n-char gram,
    so the id spaces are disjoint by construction)."""
    if len(text) < n:
        return (
            np.array([stable_hash64(text)], dtype=np.int64).astype(np.uint64)
            if text
            else np.empty(0, dtype=np.uint64)
        )
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    L = len(cp)
    w = L - n + 1
    with np.errstate(over="ignore"):
        if n <= 3:
            acc = np.zeros(w, dtype=np.uint64)
            for j in range(n):
                acc = (acc << np.uint64(21)) | cp[j : j + w]
        else:
            c = np.uint64(0x9E3779B97F4A7C15)
            acc = np.zeros(w, dtype=np.uint64)
            for j in range(n):
                acc = acc * c + cp[j : j + w]
    return mix64(acc).astype(np.uint64)


# ---------------------------------------------------------------------------
# Deterministic 64-bit hashing
# ---------------------------------------------------------------------------

_U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def mix64(x):
    """splitmix64 finalizer — full-avalanche 64-bit mixing. Works on Python
    ints AND numpy int64/uint64 arrays (vectorized, wrap-around semantics).

    Why it exists: hot-bucket salting must split the SAME doc set along
    DIFFERENT lines per band. The old mix ``(hash ^ block_key) % n`` fails
    that contract — XOR with a per-band constant only RELABELS the residue
    classes of ``hash % n`` (for n=2^k: (h^k)%n == (h%n)^(k%n)), so every
    band partitions a hot cluster identically and cross-sub-block members
    never meet on ANY band (reproduced: 1000 identical docs froze into
    n_splits disjoint clusters). An avalanche mix makes the partition of
    docs by ``mix64(h ^ key) % n`` effectively independent per key."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return z.astype(np.int64)
    m = (1 << 64) - 1
    z = (int(x) + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    z = z ^ (z >> 31)
    return z - (1 << 64) if z >= (1 << 63) else z


def stable_hash64(text: str) -> int:
    """Deterministic 64-bit hash of a string (blake2b, not process-salted),
    returned as a SIGNED int64 value so it round-trips through every engine
    (Arrow/pandas/parquet/DuckDB) without object fallback."""
    v = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")
    return v - (1 << 64) if v >= (1 << 63) else v


def hash_tokens(tokens: list[str], cache: dict[str, int] | None = None) -> np.ndarray:
    """Stable uint64 hash per token (numpy-internal form of stable_hash64);
    optional cache amortizes across batches (held in scorer-actor state)."""
    if cache is None:
        return np.fromiter((stable_hash64(t) for t in tokens), dtype=np.int64, count=len(tokens)).astype(
            np.uint64
        )
    out = np.empty(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        h = cache.get(t)
        if h is None:
            h = stable_hash64(t)
            cache[t] = h
        out[i] = h
    return out.astype(np.uint64)


def jaccard_ids(th: np.ndarray) -> np.ndarray:
    """Sorted unique int32 Jaccard ids: the LOW 32 BITS of the 64-bit token
    hashes. The flagship's fat (block_key, salt) shuffle ships one token-id
    list per doc per band — at web scale that list is the dominant payload,
    and 32-bit ids halve it. Within-doc collisions shift Jaccard by
    ~|tokens|²/2³³ (≪1 token for thousand-token docs) and the serial oracle
    derives its token sets from THIS function, so distributed == serial
    stays exact. MinHash/SimHash keep the full 64-bit hashes."""
    ids = (th.astype(np.uint64) & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
    return np.unique(ids)  # unique sorts in the signed-int32 domain


# ---------------------------------------------------------------------------
# Shingling + MinHash + LSH bands
# ---------------------------------------------------------------------------

# Multiply-shift hash family: h_i(x) = (a_i * x + b_i) mod 2^64, a_i odd.
# Seeded RNG → identical coefficient tables on every worker.
_MINHASH_SEED = 0x5EED_CAFE


def minhash_coefficients(num_perm: int, seed: int = _MINHASH_SEED) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 63, size=num_perm, dtype=np.uint64) * _U64(2) + _U64(1)
    b = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
    return a, b


def shingle_hashes(token_hashes: np.ndarray, k: int = 3) -> np.ndarray:
    """uint64 hashes of consecutive k-token shingles via polynomial combine.

    A document with fewer than k tokens contributes its single combined hash.
    """
    n = len(token_hashes)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if n < k:
        k = n
    # polynomial rolling combine: H_j = sum_i token[j+i] * C^(k-1-i)  (mod 2^64)
    c = _U64(0x9E3779B97F4A7C15)  # odd constant (golden-ratio based)
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the hash
        for i in range(k):
            acc = acc * c + token_hashes[i : n - k + 1 + i]
    return acc


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature (uint64[num_perm]) of a shingle-hash set.

    Empty shingle set → all-max sentinel signature (never matches a non-empty
    doc except another empty doc).
    """
    if len(shingles) == 0:
        return np.full(len(a), _MASK64, dtype=np.uint64)
    # (num_perm, n) multiply-shift, wraparound mod 2^64
    with np.errstate(over="ignore"):
        hashed = a[:, None] * shingles[None, :] + b[:, None]
    return hashed.min(axis=1)


def lsh_band_keys(signature: np.ndarray, bands: int) -> list[int]:
    """Split the signature into ``bands`` equal row-groups; one stable 64-bit
    key per band (band index mixed in so bands don't collide). Keys are
    SIGNED int64 values (see stable_hash64)."""
    rows = len(signature) // bands
    c = _U64(0xC2B2AE3D27D4EB4F)
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the hash
        chunks = signature[: bands * rows].reshape(bands, rows)
        acc = np.arange(1, bands + 1, dtype=np.uint64)
        for r in range(rows):  # vectorized across bands, same math as the
            acc = acc * c + chunks[:, r]  # scalar accumulate it replaces
    return [int(v) for v in acc.astype(np.int64)]


def minhash_jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


# ---------------------------------------------------------------------------
# Flat (whole-batch) featurization kernels
#
# Per-doc loops over `hash_tokens`/`shingle_hashes`/`minhash_signature`/
# `simhash64`/`lsh_band_keys` pay one Python call + numpy fixed overhead per
# DOCUMENT; these kernels compute the identical values for a whole batch at
# once over the concatenated token-hash array + offsets (segment reductions
# via ufunc.reduceat). Each is pinned equal to its scalar twin by
# tests/test_block_features.py::test_flat_kernels_match_scalar.
# ---------------------------------------------------------------------------


def hash_uniques(uniq, cache: dict[str, int]) -> np.ndarray:
    """int64 stable hash of each token of ``uniq`` (a batch's UNIQUE
    tokens), memoized across batches in ``cache``. The cache is cleared
    once it passes 2M entries, so a long-lived worker stays bounded."""
    if len(cache) > 2_000_000:
        cache.clear()
    uh = np.empty(len(uniq), dtype=np.int64)
    for i, t in enumerate(uniq):
        h = cache.get(t)
        if h is None:
            h = stable_hash64(t)
            cache[t] = h
        uh[i] = h
    return uh


def hash_tokens_flat(flat_tokens, cache: dict[str, int] | None = None) -> np.ndarray:
    """uint64 stable hash per token over a flat token sequence: factorize
    (C hash table) → blake2b only on the UNIQUE tokens (``hash_uniques``)
    → gather. Identical values to ``hash_tokens`` token-by-token."""
    import pandas as pd

    if len(flat_tokens) == 0:
        return np.empty(0, dtype=np.uint64)
    codes, uniq = pd.factorize(
        flat_tokens if isinstance(flat_tokens, np.ndarray) else np.asarray(flat_tokens, dtype=object)
    )
    return hash_uniques(uniq, {} if cache is None else cache).astype(np.uint64)[codes]


def flat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``starts[i] .. starts[i] + lens[i] - 1``,
    range after range."""
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - (lens.cumsum() - lens), lens)


def shingle_hashes_flat(
    flat_h: np.ndarray, offsets: np.ndarray, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc ``shingle_hashes`` over the concatenated token-hash array →
    (flat shingle hashes, per-doc shingle counts). Doc i's tokens are
    ``flat_h[offsets[i]:offsets[i+1]]``; windows never cross doc
    boundaries, and a doc of 1..k-1 tokens is one window of all its tokens
    (k' = n), exactly like ``shingle_hashes``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    width = np.minimum(counts, k)
    sh_counts = np.where(counts > 0, counts - width + 1, 0)
    first = flat_ranges(offsets[:-1], sh_counts)
    width = np.repeat(width, sh_counts)
    short = bool((width < k).any())
    acc = np.zeros(len(first), dtype=np.uint64)
    c = _U64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):  # polynomial combine, wrapping mod 2^64
        for i in range(k):
            step = acc * c + flat_h[np.minimum(first + i, len(flat_h) - 1)]
            acc = np.where(i < width, step, acc) if short else step
    return acc, sh_counts


def minhash_signatures_flat(
    flat_sh: np.ndarray, sh_counts: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signatures over concatenated
    shingle hashes (``minhash_signature`` per doc, without the per-doc
    call). Zero-shingle docs get the all-max sentinel. One permutation at a
    time into one reused ``len(flat_sh)`` buffer, then ``reduceat``: the
    working set stays in cache, where a (perm, shingles) block does not
    (16 rows of a 1,024-doc batch are ~21 MB): 45 → 16 ms per ASCII batch
    against 16-row blocks, on a shared 4-vCPU Xeon host."""
    n_docs = len(sh_counts)
    num_perm = len(a)
    sigs = np.full((n_docs, num_perm), _MASK64, dtype=np.uint64)
    nz = np.flatnonzero(sh_counts)
    if len(nz) == 0 or len(flat_sh) == 0:
        return sigs
    counts = np.asarray(sh_counts, dtype=np.int64)
    starts = (counts.cumsum() - counts)[nz]
    buf = np.empty(len(flat_sh), dtype=np.uint64)
    mins = np.empty((num_perm, len(nz)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            np.multiply(flat_sh, a[p], out=buf)
            np.add(buf, b[p], out=buf)
            np.minimum.reduceat(buf, starts, out=mins[p])
    sigs[nz] = mins.T
    return sigs


# docs per ``simhash64_flat`` byte histogram (docs × 256 int64, ~2 MB)
_SIMHASH_DOC_CHUNK = 1024
# bit j of byte value v: a byte histogram times it counts each set bit
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.float64)


def simhash64_flat(flat_h: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """int64[n_docs] SimHash over concatenated token hashes — per-doc
    ``simhash64`` without a per-doc call. Per byte lane of the hashes, one
    ``np.bincount`` of ``doc * 256 + byte`` times the (256, 8) bit table
    (exact small integers in float64) gives each doc's set-bit counts, in
    ``_SIMHASH_DOC_CHUNK``-doc chunks: 22–25 → 15 ms per 1,024-doc ASCII
    batch against the per-doc slice-sum loop (shared 4-vCPU Xeon host)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.int64)
    lanes = np.ascontiguousarray(flat_h, dtype=np.uint64).view(np.uint8).reshape(-1, 8)
    for lo in range(0, n_docs, _SIMHASH_DOC_CHUNK):
        hi = min(lo + _SIMHASH_DOC_CHUNK, n_docs)
        m, counts = hi - lo, np.diff(offsets[lo : hi + 1])
        base = np.repeat(np.arange(m, dtype=np.int64) * 256, counts)
        bits = np.empty((m, 64), dtype=np.float64)
        for lane in range(8):
            hist = np.bincount(base + lanes[offsets[lo] : offsets[hi], lane], minlength=m * 256)
            bits[:, lane * 8 : lane * 8 + 8] = hist.reshape(m, 256) @ _BYTE_BITS
        # bit set ⇔ more tokens have it than not: 2·count − n > 0
        out[lo:hi] = np.packbits(bits * 2 > counts[:, None], axis=1, bitorder="little").view(np.int64)[:, 0]
    return out


def lsh_band_keys_matrix(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) int64 band keys — row-wise ``lsh_band_keys``."""
    n_docs, num_perm = sigs.shape
    rows = num_perm // bands
    c = _U64(0xC2B2AE3D27D4EB4F)
    with np.errstate(over="ignore"):
        chunks = sigs[:, : bands * rows].reshape(n_docs, bands, rows)
        acc = np.broadcast_to(
            np.arange(1, bands + 1, dtype=np.uint64), (n_docs, bands)
        ).copy()
        for r in range(rows):
            acc = acc * c + chunks[:, :, r]
    return acc.astype(np.int64)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash over token hashes (optionally weighted)."""
    if len(token_hashes) == 0:
        return 0
    bits = np.unpackbits(token_hashes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    if weights is None:
        sums = bits.sum(axis=0, dtype=np.int64) * 2 - len(token_hashes)
    else:
        w = weights.astype(np.float64)
        sums = (bits * w[:, None]).sum(axis=0) * 2 - w.sum()
    bitvals = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    out = np.bitwise_or.reduce(np.where(sums > 0, bitvals, np.uint64(0)))
    return int(np.uint64(out).astype(np.int64))  # signed int64 representation


def hamming_similarity64(a: int, b: int) -> float:
    """1 - hamming_distance/64 between two 64-bit fingerprints."""
    return 1.0 - bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1") / 64.0
