"""Multi-pattern snippet matching for benchmark decontamination.

``SnippetMatcher`` replaces the O(|snippets|) per-snippet
``match_substring`` kernel passes (r4 verdict item 4) with grouped RE2
literal alternations: RE2 compiles ``s1|s2|...|sk`` into a DFA that scans
each document ONCE per group — the same automaton construction
Aho-Corasick performs, done by Arrow's C++ regex kernel instead of a
Python char loop. A 10k-snippet set becomes ~20 kernel passes instead of
10k.

Exact-count semantics are preserved by a two-phase scan: the grouped
alternation finds which ROWS hit which GROUP (cheap, most rows hit no
group), then only the hit rows pay per-snippet ``match_substring`` within
their group to count DISTINCT matching snippets — contaminated rows are
the small minority a decontamination screen exists to find, so phase 2
touches a few percent of the corpus.

Built once per actor/worker process: pass the class to
``map_batches(SnippetMatcher, fn_constructor_kwargs=...)`` or reuse a
module-cached instance from a plain function (both forms compile the
grouped patterns exactly once per process).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _combined(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


class SnippetMatcher:
    """Grouped-alternation multi-pattern matcher over a broadcast snippet
    list (``ray.put`` once; each actor fetches the node-local copy).

    ``group_size`` bounds the alternation pattern RE2 compiles per pass
    (512 × ~40-char snippets ≈ 20 KB patterns — well inside RE2's default
    memory budget); raising it trades fewer passes for bigger automata."""

    def __init__(self, snippets_or_ref, group_size: int = 512):
        import ray

        snips = (
            ray.get(snippets_or_ref)
            if isinstance(snippets_or_ref, ray.ObjectRef)
            else list(snippets_or_ref)
        )
        # an empty snippet is a substring of EVERYTHING — keep the exact
        # match_substring semantics (+1 to every row) without poisoning the
        # alternation ("a||b" would also match everything)
        self.n_empty = sum(1 for s in snips if s == "")
        snips = [s for s in snips if s != ""]
        self.groups: list[tuple[str, list[str]]] = []
        for i in range(0, len(snips), group_size):
            grp = snips[i : i + group_size]
            self.groups.append(("|".join(re.escape(s) for s in grp), grp))

    def hit_mask(self, texts: pa.Array) -> np.ndarray:
        """Boolean any-snippet-matches per row — one DFA pass per group."""
        texts = _combined(texts)
        out = np.zeros(len(texts), dtype=bool)
        if self.n_empty:
            out[:] = True
            return out
        for pat, _ in self.groups:
            rest = np.flatnonzero(~out)
            if len(rest) == 0:
                break
            sub = texts.take(pa.array(rest)) if len(rest) < len(texts) else texts
            m = pc.match_substring_regex(sub, pat).to_numpy(zero_copy_only=False)
            out[rest[m]] = True
        return out

    def hit_counts(self, texts: pa.Array) -> np.ndarray:
        """Number of DISTINCT snippets present per row (int64). Phase 1:
        per-group DFA pass marks which rows hit the group; phase 2: only
        those rows pay the per-snippet count within that group."""
        texts = _combined(texts)
        counts = np.full(len(texts), self.n_empty, dtype=np.int64)
        for pat, grp in self.groups:
            m = pc.match_substring_regex(texts, pat).to_numpy(zero_copy_only=False)
            idx = np.flatnonzero(m)
            if len(idx) == 0:
                continue
            sub = texts.take(pa.array(idx))
            for s in grp:
                counts[idx] += pc.match_substring(sub, s).to_numpy(zero_copy_only=False)
        return counts


_MATCHER_CACHE: dict[tuple, SnippetMatcher] = {}


def cached_matcher(snippets_ref, group_size: int = 512) -> SnippetMatcher:
    """Per-worker-process matcher cache keyed by the broadcast ref — plain
    ``map_batches`` functions get once-per-process automaton construction
    without an actor pool (elastic task scheduling keeps working).

    A plain snippet list is keyed on its CONTENT: an ``id()`` key would
    hand a later list that reuses a freed list's address the automaton
    built for other snippets."""
    import ray

    if isinstance(snippets_ref, ray.ObjectRef):
        key = (snippets_ref.hex(), group_size)
    else:
        key = (tuple(snippets_ref), group_size)
    m = _MATCHER_CACHE.get(key)
    if m is None:
        m = SnippetMatcher(snippets_ref, group_size)
        if len(_MATCHER_CACHE) > 8:
            _MATCHER_CACHE.clear()
        _MATCHER_CACHE[key] = m
    return m
