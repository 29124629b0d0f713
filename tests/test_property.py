"""Property-based tests (hypothesis) for the byte-identical kernels."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from entity_resolution_engine_ray.functions.similarity import (
    indel_ratio,
    jaro_winkler,
    minhash_coefficients,
    minhash_signature,
    shingle_hashes,
    hash_tokens,
)
from entity_resolution_engine_ray.functions.textnorm import normalize_name, normalize_season
from entity_resolution_engine_ray.oracle.serial import canonical_tokens
from entity_resolution_engine_ray.stages.extract import extract_text, extract_text_column

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="<>"),
    max_size=200,
)


@settings(max_examples=150, deadline=None)
@given(_text)
def test_extract_scalar_equals_columnar(body):
    html = f"<html><head><title>T</title></head><body><p>{body.replace('&', '&amp;')}</p></body></html>"
    arr = pa.array([html.encode("utf-8")] * 3, type=pa.binary())
    text_col, _ = extract_text_column(arr)
    scalar = extract_text(html.encode("utf-8"))
    assert text_col.to_pylist() == [scalar] * 3


@settings(max_examples=150, deadline=None)
@given(_text)
def test_extract_batch_boundary_invariance(body):
    """Extraction of a row is independent of which rows share its batch."""
    html = f"<body>{body.replace('&', '&amp;')}</body>".encode()
    alone, _ = extract_text_column(pa.array([html], type=pa.binary()))
    padded, _ = extract_text_column(
        pa.array([b"<body>pad one</body>", html, b"<body>pad two</body>"], type=pa.binary())
    )
    assert alone[0].as_py() == padded[1].as_py()


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_normalize_name_idempotent_shape(s):
    out = normalize_name(s)
    assert out == out.lower()
    assert "  " not in out
    # normalizing twice must not change the fc-alias result further
    assert normalize_name(out) in (out, out.strip())


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789-/ ab", max_size=16))
def test_normalize_season_total(s):
    start, end = normalize_season(s)
    if start is not None:
        assert end is not None and end >= start


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_indel_ratio_bounds_and_symmetry(a, b):
    r = indel_ratio(a, b)
    assert 0.0 <= r <= 1.0
    assert abs(r - indel_ratio(b, a)) < 1e-12
    assert indel_ratio(a, a) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=25), st.text(max_size=25))
def test_jaro_winkler_bounds(a, b):
    r = jaro_winkler(a, b)
    assert 0.0 <= r <= 1.0 + 1e-12
    assert jaro_winkler(a, a) == (1.0 if a else 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=0, max_size=40))
def test_minhash_deterministic_and_bounded_by_jaccard(tokens):
    coeffs = minhash_coefficients(64)
    h = hash_tokens(tokens)
    s1 = minhash_signature(shingle_hashes(h, k=1), *coeffs)
    s2 = minhash_signature(shingle_hashes(hash_tokens(list(tokens)), k=1), *coeffs)
    assert np.array_equal(s1, s2)  # fully deterministic across calls


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=120))
def test_canonical_tokens_stable(s):
    t1 = canonical_tokens(s)
    t2 = canonical_tokens(s)
    assert t1 == t2
    assert all(" " not in tok for tok in t1)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.int64, np.int32]),
    st.sampled_from([None, 1, 7]),
)
def test_grouped_jaccard_flat_matches_set_oracle(seed, dtype, chunk_tokens):
    """The flagship's hot Jaccard kernel (flat ListArray layout, chunked
    packed-key searchsorted) == per-pair python-set Jaccard, including
    empty token sets, negative int64 and int32 token ids (the dtypes'
    extremes among them) and repeated pairs. ``chunk_tokens`` shrinks the
    kernel's chunk so one call runs many chunks."""
    from entity_resolution_engine_ray.stages import score

    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    nd = int(rng.integers(1, 60))
    lens = rng.integers(0, 12, nd)
    lens[:: max(1, nd // 5)] = 0  # sprinkle empty docs
    starts = np.zeros(nd, dtype=np.int64)
    flat, pos = [], 0
    for i in range(nd):
        a = rng.integers(info.min, info.max, lens[i], dtype=dtype, endpoint=True)
        if lens[i] > 2:
            a[:2] = info.min, info.max
        a = np.unique(a)
        lens[i], starts[i] = len(a), pos
        pos += len(a)
        flat.append(a)
    tvals = np.concatenate(flat)
    tlens = lens.astype(np.int64)
    npairs = int(rng.integers(1, 300))
    lidx = rng.integers(0, nd, npairs)
    ridx = rng.integers(0, nd, npairs)
    saved = score._JACCARD_CHUNK_TOKENS
    try:
        if chunk_tokens is not None:
            score._JACCARD_CHUNK_TOKENS = chunk_tokens
        got = score._grouped_jaccard_flat(tvals, starts, tlens, lidx, ridx)
    finally:
        score._JACCARD_CHUNK_TOKENS = saved
    for p in range(npairs):
        A = set(tvals[starts[lidx[p]] : starts[lidx[p]] + tlens[lidx[p]]])
        B = set(tvals[starts[ridx[p]] : starts[ridx[p]] + tlens[ridx[p]]])
        u = len(A | B)
        exp = len(A & B) / u if u else 1.0
        assert abs(got[p] - exp) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=30),
    st.one_of(st.none(), st.integers(0, 300)),
)
def test_bucket_pairs_matches_per_bucket_loop(sizes, pair_cap):
    """``pairs.bucket_pairs`` == the per-bucket ``np.triu_indices`` loop
    it replaced: the same pairs in the same order (bucket by bucket,
    row-major within one), the bucket of each pair, and the pairs a
    binding ``pair_cap`` drops."""
    from entity_resolution_engine_ray.stages.pairs import bucket_pairs

    sizes = np.array(sizes, dtype=np.int64)
    gaps = np.arange(len(sizes)) % 3  # rows between buckets need not be contiguous
    starts = np.cumsum(np.r_[0, sizes[:-1] + gaps[:-1]]).astype(np.int64)
    left, right, bucket, dropped = bucket_pairs(starts, sizes, pair_cap)
    want_l, want_r, want_b, want_dropped = [], [], [], 0
    for b, (s, m) in enumerate(zip(starts, sizes)):
        ii, jj = np.triu_indices(int(m), k=1)
        if pair_cap is not None and len(ii) > pair_cap:
            want_dropped += len(ii) - pair_cap
            ii, jj = ii[:pair_cap], jj[:pair_cap]
        want_l += (ii + s).tolist()
        want_r += (jj + s).tolist()
        want_b += [b] * len(ii)
    assert left.tolist() == want_l
    assert right.tolist() == want_r
    assert bucket.tolist() == want_b
    assert dropped == want_dropped
    assert left.dtype == right.dtype == bucket.dtype == np.int64


@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x10FFFF,
                                   blacklist_categories=("Cs",)),
            max_size=40,
        ),
        min_size=2,
        max_size=2,
    )
)
@settings(max_examples=200, deadline=None)
def test_char_ngram_hashes_jaccard_matches_string_grams(texts):
    """Property pin: vectorized char-3-gram id Jaccard == gram-string
    Jaccard for arbitrary unicode (the n<=3 packing is injective)."""
    import numpy as np

    from entity_resolution_engine_ray.functions.similarity import (
        char_ngram_hashes,
        ngram_jaccard,
    )

    a, b = texts
    sa = np.unique(char_ngram_hashes(a, 3))
    sb = np.unique(char_ngram_hashes(b, 3))
    if len(sa) == 0 and len(sb) == 0:
        return
    inter = len(np.intersect1d(sa, sb))
    union = len(sa) + len(sb) - inter
    assert abs(inter / union - ngram_jaccard(a, b, 3)) < 1e-12


@given(
    st.lists(
        st.lists(st.integers(min_value=97, max_value=99), min_size=0, max_size=12),
        min_size=0,
        max_size=20,
    ),
    st.integers(min_value=97, max_value=99),
    st.integers(min_value=97, max_value=99),
)
@settings(max_examples=200, deadline=None)
def test_bpe_apply_merge_matches_serial_left_to_right(words, a, b):
    """The vectorized flat-buffer merge (run-alternation trick for
    overlapping matches like 'aaaa') == the obvious serial left-to-right
    scan, for every word list over a 3-symbol alphabet (maximizes
    adjacency collisions) and every target pair including a == b."""
    import numpy as np
    import pyarrow as pa

    from entity_resolution_engine_ray.pipelines.queries import _bpe_apply_merge

    NEW = 0x110000
    t = pa.table(
        {
            "syms": pa.array([list(w) for w in words], type=pa.list_(pa.int64())),
            "n": pa.array(np.ones(len(words), dtype=np.int64)),
        }
    )
    got = _bpe_apply_merge(t, a, b, NEW)["syms"].to_pylist()

    def serial(w):
        out, i = [], 0
        while i < len(w):
            if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                out.append(NEW)
                i += 2
            else:
                out.append(w[i])
                i += 1
        return out

    assert got == [serial(list(w)) for w in words]


@given(
    st.lists(
        st.lists(st.integers(min_value=97, max_value=100), min_size=2, max_size=10),
        min_size=1,
        max_size=15,
    ),
    st.lists(st.integers(min_value=1, max_value=5), min_size=15, max_size=15),
)
@settings(max_examples=100, deadline=None)
def test_bpe_count_pairs_matches_serial(words, weights):
    """Weighted adjacent-pair counting over the flat buffer == a dict-based
    serial count, including cross-word boundary exclusion."""
    import collections

    import numpy as np
    import pyarrow as pa

    from entity_resolution_engine_ray.pipelines.queries import _bpe_count_pairs

    w = weights[: len(words)]
    t = pa.table(
        {
            "syms": pa.array(words, type=pa.list_(pa.int64())),
            "n": pa.array(np.array(w, dtype=np.int64)),
        }
    )
    got = _bpe_count_pairs(t).to_pandas()
    got_map = {int(k): int(v) for k, v in zip(got["key"], got["w"])}

    ref: collections.Counter = collections.Counter()
    for word, n in zip(words, w):
        for i in range(len(word) - 1):
            ref[word[i] * (1 << 22) + word[i + 1]] += n
    assert got_map == dict(ref)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048), st.integers(min_value=0, max_value=2047))
def test_warc_parser_never_hangs_or_raises_on_garbage(blob, cut):
    """Crawl-scale contract: _parse_warc_bytes must terminate and return
    (rows, dropped) on ARBITRARY bytes — including truncations of valid
    records spliced with garbage — never raise, never loop."""
    from entity_resolution_engine_ray.sources.pages import _parse_warc_bytes

    valid = (
        b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Date: 2025-01-01T00:00:05Z\r\n"
        b"WARC-Target-URI: http://ok/\r\nContent-Length: 39\r\n\r\n"
        b"HTTP/1.1 200 OK\r\n\r\n<html>ok body</html>\r\n\r\n"
    )
    for payload in (blob, valid[: cut % len(valid)] + blob, blob + valid):
        rows, dropped = _parse_warc_bytes(payload)
        assert isinstance(rows, list) and dropped >= 0
        for r in rows:
            assert isinstance(r["url"], str) and isinstance(r["html"], bytes)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**14), st.booleans()),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=7),
)
def test_cents_lane_recombine_equals_bigint_reference(vals, nsplit):
    """The shared lane-split money finish: splitting 1e-4-dollar sums into
    whole/remainder lanes per partition and recombining must equal exact
    big-int cents arithmetic for ANY partitioning of the same rows."""
    from entity_resolution_engine_ray.pipelines.queries import _cents_from_lanes

    us = [u for u, _ in vals]
    total = sum(us)
    expect = (total + 50) // 100
    # arbitrary partitioning: each partition contributes (w, r) lanes
    parts = [us[i::nsplit] for i in range(nsplit)]
    w_sum = sum(sum(p) // 10_000 for p in parts)
    r_sum = sum(sum(p) % 10_000 for p in parts)
    got = _cents_from_lanes([w_sum], [r_sum])[0]
    assert int(got) == expect


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=" \t\n\r\f\va<&", max_size=40), max_size=8))
def test_whitespace_collapse_rewrites_only_the_runs_that_change(texts):
    """``extract._WS_RE`` leaves lone spaces alone and gives the strings
    that ``[ \\t\\n\\r]+`` → " " gives."""
    import pyarrow.compute as pc

    from entity_resolution_engine_ray.stages.extract import _WS_RE

    arr = pa.array(texts, pa.string())
    want = pc.replace_substring_regex(arr, r"[ \t\n\r]+", " ")
    assert pc.replace_substring_regex(arr, _WS_RE, " ").equals(want)
