"""Vectorized text-analysis kernels for large-scale training-data pipelines.

All functions are Arrow-native (pyarrow.compute, RE2 regex semantics — the
same engine DuckDB uses, which keeps the SQL oracles hash-exact) and operate
on a ``pyarrow.Table`` / ``ChunkedArray`` of text.

Operators: token counting, stopword-profile language id, md5 document
fingerprints, PII redaction and BPE-style token counting.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# RE2-safe patterns (no lookaround, ASCII classes) — identical semantics in
# pyarrow.compute and DuckDB regexp_* functions.
TOKEN_PATTERN = r"[^ \t\n\r]+"          # whitespace-delimited tokens
PUNCT_PATTERN = r"[^A-Za-z0-9_ \t\n\r]"  # anything not word/space


def token_count(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Whitespace-token count per document (int64)."""
    return pc.cast(pc.count_substring_regex(text, TOKEN_PATTERN), pa.int64())


# tiny per-language stopword profiles for the n-gram/stopword lang-id heuristic
_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the of and to in a is that it was for on are as with".split()),
    "de": frozenset("der die das und ist von zu den mit nicht ein sich auf".split()),
    "fr": frozenset("le la les de et des un une est dans que pour sur".split()),
    "es": frozenset("el la los de y que en un una es por con para".split()),
    "pt": frozenset("o a os de e que em um uma para com por mais".split()),
}


def detect_language(texts: list[str | None]) -> np.ndarray:
    """Stopword-profile language id; 'und' when nothing matches."""
    out = np.empty(len(texts), dtype=object)
    for i, t in enumerate(texts):
        if not t:
            out[i] = "und"
            continue
        toks = t.lower().split()
        if not toks:
            out[i] = "und"
            continue
        tokset = toks if len(toks) < 64 else toks[:256]
        best_lang, best_hits = "und", 0
        for lang, stops in _LANG_STOPWORDS.items():
            hits = sum(1 for w in tokset if w in stops)
            if hits > best_hits:
                best_hits, best_lang = hits, lang
        out[i] = best_lang
    return out


def md5_fingerprint(texts: list[str | None]) -> np.ndarray:
    """Hex md5 per document (matches DuckDB ``md5(text)``)."""
    out = np.empty(len(texts), dtype=object)
    for i, t in enumerate(texts):
        out[i] = hashlib.md5((t or "").encode("utf-8")).hexdigest()
    return out


# --- PII redaction (training-corpus scrub) ---------------------------------
# RE2-compatible patterns (pyarrow's regex engine: no backrefs/lookaround).
# Order matters: more-specific patterns run first so e.g. an SSN is redacted
# as [SSN], not half-eaten by the looser phone pattern.
PII_PATTERNS: dict[str, str] = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b([0-9]{1,3}\.){3}[0-9]{1,3}\b",
    "ssn": r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b",
    "phone": r"\+?[0-9][0-9()\-\s]{6,}[0-9]",
}


def redact_pii(
    text: "pa.ChunkedArray | pa.Array",
    patterns: dict[str, str] | None = None,
) -> tuple[pa.Array, np.ndarray]:
    """Vectorized PII scrub: replace every pattern match with ``[<NAME>]``
    and return (redacted_text, per-row total match count). Pure Arrow RE2
    kernels (``count_substring_regex`` + ``replace_substring_regex``) — no
    Python loop over rows, so the stage stays zero-copy-in / Arrow-out."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    pats = PII_PATTERNS if patterns is None else patterns
    counts = np.zeros(len(text), dtype=np.int64)
    for name, pat in pats.items():
        counts += pc.count_substring_regex(text, pat).to_numpy(zero_copy_only=False)
        text = pc.replace_substring_regex(text, pat, f"[{name.upper()}]")
    return text, counts


# GPT-2-style pre-tokenizer shape, RE2-compatible (no lookarounds): letter
# runs, digit runs, punctuation runs, each optionally absorbing one leading
# space. Whitespace between tokens is simply skipped by the regex scan, so
# match count == token count. DuckDB's regexp engine is RE2 too, so the SAME
# pattern string is the SQL oracle (len(regexp_extract_all(text, pat))).
BPE_SPLIT_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \t\n\r]+"


def bpe_token_count(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """BPE-ish token count per row — the training-cost estimator a corpus
    pipeline runs before packing. Vectorized RE2 match count, no Python."""
    return pc.count_substring_regex(text, BPE_SPLIT_PATTERN)
