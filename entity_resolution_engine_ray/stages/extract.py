"""Stage 1 — canonical text extraction from HTML (zero-copy Arrow).

The whole extractor is expressed in pyarrow.compute RE2 kernels over the
``html`` binary column, so the distributed ``map_batches`` path and the serial
oracle call literally the same column kernel — the per-url byte-identical
contract (BASELINE.json ``input_hint``) holds by construction and is verified
across batch sizes by tests/test_extract.py.

Canonical extraction semantics (this engine's analog of the reference's
normalize_name "extractor" contract, SURVEY.md §2.2):

1. decode html as UTF-8
2. drop <script>…</script> and <style>…</style> blocks (non-greedy, dotall)
3. <title>…</title> captured separately as the page title
4. every remaining tag ``<[^>]*>`` → single space
5. entities: &lt; &gt; &quot; &#39; &apos; &nbsp; then &amp; (in that order)
6. collapse ``[ \t\n\r]+`` → single space; trim

The output drops the ``html`` column immediately (project early — html can be
MBs/row; downstream stages only see text/keys. SURVEY.md §7.4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_SCRIPT_RE = r"(?is)<script[^>]*>.*?</script>"
_STYLE_RE = r"(?is)<style[^>]*>.*?</style>"
_TITLE_RE = r"(?is)<title[^>]*>(?P<title>.*?)</title>"
_TAG_RE = r"<[^>]*>"
# the runs ``[ \t\n\r]+`` → " " changes: two or more whitespace chars, or
# one that is not a space (a lone space is left alone, so most docs
# rewrite a few runs instead of one per word)
_WS_RE = r"[ \t\n\r]{2,}|[\t\n\r]"

# (pattern-literal, replacement) applied in order — &amp; must come last
_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&apos;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),
]


def _clean_fragment(arr: pa.Array) -> pa.Array:
    """Shared tail of the pipeline: entity unescape + whitespace collapse."""
    for literal, repl in _ENTITIES:
        arr = pc.replace_substring(arr, literal, repl)
    arr = pc.replace_substring_regex(arr, _WS_RE, " ")
    return pc.utf8_trim_whitespace(arr)


def extract_text_column(html: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, pa.Array]:
    """Vectorized extraction: html (binary or string) → (text, title) arrays."""
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    s = html.cast(pa.string()) if not pa.types.is_string(html.type) else html
    s = pc.replace_substring_regex(s, _SCRIPT_RE, " ")
    s = pc.replace_substring_regex(s, _STYLE_RE, " ")
    title_struct = pc.extract_regex(s, _TITLE_RE)
    title_raw = pc.if_else(
        pc.is_valid(title_struct), pc.struct_field(title_struct, "title"), ""
    )
    body = pc.replace_substring_regex(s, _TAG_RE, " ")
    return _clean_fragment(body), _clean_fragment(title_raw)


def extract_text(html: bytes | str) -> str:
    """Scalar wrapper (serial-oracle path) — same kernels, 1-row column."""
    arr = pa.array([html if isinstance(html, bytes) else html.encode("utf-8")], type=pa.binary())
    text, _ = extract_text_column(arr)
    return text[0].as_py()


def extract_title(html: bytes | str) -> str:
    arr = pa.array([html if isinstance(html, bytes) else html.encode("utf-8")], type=pa.binary())
    _, title = extract_text_column(arr)
    return title[0].as_py()


def extract_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` body: html → (url, warc_ts, text, title, lang).

    Drops ``html`` (project early); keeps the original ``text`` column out of
    the result — the engine's own extraction is authoritative downstream.
    """
    text, title = extract_text_column(batch["html"])
    return pa.table(
        {
            "url": batch["url"].combine_chunks()
            if isinstance(batch["url"], pa.ChunkedArray)
            else batch["url"],
            "warc_ts": batch["warc_ts"].combine_chunks()
            if isinstance(batch["warc_ts"], pa.ChunkedArray)
            else batch["warc_ts"],
            "lang": batch["lang"].combine_chunks()
            if isinstance(batch["lang"], pa.ChunkedArray)
            else batch["lang"],
            "text": text,
            "title": title,
        }
    )


def extract_stage(pages_ds, batch_size: int | None = None):
    """Dataset → Dataset of (url, warc_ts, lang, text, title).

    Stateless zero-copy Arrow transform in batches of
    ``block.FEATURIZE_BATCH_ROWS`` rows unless ``batch_size`` is given
    (binary payload rule, SURVEY.md §7.4).
    """
    from entity_resolution_engine_ray.stages.block import FEATURIZE_BATCH_ROWS

    return pages_ds.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=batch_size or FEATURIZE_BATCH_ROWS,
        zero_copy_batch=True,
    )
