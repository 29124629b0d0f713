"""SnippetMatcher (grouped RE2 alternation) == brute-force per-snippet
match_substring, including regex metacharacters, snippet-inside-word
matches, duplicate occurrences (counted once), and the empty snippet
(substring of everything)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from entity_resolution_engine_ray.stages.decontaminate import SnippetMatcher


def _brute_counts(texts, snips):
    arr = pa.array(texts)
    counts = np.zeros(len(texts), dtype=np.int64)
    for s in snips:
        counts += pc.match_substring(arr, s).to_numpy(zero_copy_only=False)
    return counts


def test_matcher_matches_bruteforce():
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma", "a.b", "x(y)", "plain"]
    texts = [
        " ".join(words[int(i)] for i in rng.integers(0, len(words), 12))
        for _ in range(200)
    ]
    texts += ["xalpha betay inside-word", "", "a.b x(y) meta twice a.b x(y)"]
    snips = ["alpha beta", "a.b x(y)", "never-present", "beta", "lpha bet"]
    m = SnippetMatcher(snips, group_size=2)  # force several groups
    counts = m.hit_counts(pa.array(texts))
    want = _brute_counts(texts, snips)
    assert np.array_equal(counts, want)
    assert np.array_equal(m.hit_mask(pa.array(texts)), want > 0)


def test_matcher_empty_snippet_matches_everything():
    texts = ["anything", "", "x"]
    m = SnippetMatcher(["", "x"], group_size=8)
    want = _brute_counts(texts, ["", "x"])
    assert np.array_equal(m.hit_counts(pa.array(texts)), want)
    assert m.hit_mask(pa.array(texts)).all()


def test_matcher_no_snippets():
    m = SnippetMatcher([])
    texts = pa.array(["a", "b"])
    assert not m.hit_mask(texts).any()
    assert m.hit_counts(texts).sum() == 0


def test_cached_matcher_keys_plain_lists_on_content():
    """Two successive distinct snippet lists at the SAME address (what a
    freed list's reused id() looks like) each get their own automaton;
    equal-content lists share one cache entry."""
    from entity_resolution_engine_ray.stages import decontaminate

    decontaminate._MATCHER_CACHE.clear()
    texts = pa.array(["alpha beta", "gamma", "alpha gamma"])
    snips = ["alpha"]
    for content in (["alpha"], ["gamma"], ["beta", "gamma"]):
        snips[:] = content  # same list object, new snippets
        counts = decontaminate.cached_matcher(snips).hit_counts(texts)
        assert np.array_equal(counts, _brute_counts(texts.to_pylist(), content)), content
    assert len(decontaminate._MATCHER_CACHE) == 3

    first = decontaminate.cached_matcher(["alpha", "beta"])
    assert decontaminate.cached_matcher(["alpha", "beta"]) is first
    assert len(decontaminate._MATCHER_CACHE) == 4
