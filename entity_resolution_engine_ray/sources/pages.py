"""Deterministic synthetic Common-Crawl-style pages fixture.

Generates the exact ``input_hint`` schema (url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string) plus a ground-truth table
(url, doc_id, variant_idx) with exact cluster labels.

Recipe (FIXTURES.md §1, the web analog of the reference's seeded
shared-but-mutated fixtures, synthetic/generate_beta_data.py:36-61): a base
corpus of K distinct documents drawn from a fixed vocabulary; each document
emitted as 1..C near-duplicate variants under deterministic mutations (token
drop/swap, case/punctuation noise, boilerplate prefix/suffix, url variants).
Mutation identity is a pure function of (seed, doc_id, variant_idx).

One hot document ("boilerplate cluster") owns ``hot_frac`` of all pages to
exercise skew splitting of hot LSH buckets. ``nonascii_frac`` of the
documents carry non-ASCII words (accented Latin, other alphabets, CJK) in
the title and the first paragraph of every variant, to exercise the
tokenizer's non-ASCII path.

The ``text`` column is filled by running the engine's canonical extractor
over the generated html — the byte-identical contract column.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from entity_resolution_engine_ray.stages.extract import extract_text_column

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_BOILERPLATES = [
    "subscribe to our newsletter for weekly updates and exclusive member offers today",
    "all rights reserved terms of service privacy policy cookie settings contact us",
    "breaking news latest headlines trending stories top picks editors choice daily brief",
    "sign in register account settings help center community guidelines report issue",
    "related articles you may also like recommended for you more from this author",
    "share this story on social media follow us for realtime alerts and updates",
]

_NONASCII_WORDS = ["café", "naïve", "zürich", "señor", "façade", "résumé", "łódź", "straße",
                   "東京", "数据", "実体", "网页", "한국어", "привет", "ελληνικά", "עברית"]

_BASE_TS = int(datetime(2025, 1, 1, tzinfo=timezone.utc).timestamp() * 1_000_000)


def _make_vocab(rng: np.random.Generator, size: int = 1200) -> list[str]:
    syll = ["ba", "co", "di", "fu", "ga", "he", "ki", "lo", "mu", "ne", "po", "qa",
            "ri", "su", "ta", "ve", "wo", "xi", "yu", "ze", "an", "or", "el", "in"]
    vocab = []
    seen = set()
    while len(vocab) < size:
        n = rng.integers(2, 5)
        w = "".join(syll[i] for i in rng.integers(0, len(syll), size=n))
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    return vocab


def _doc_tokens(rng: np.random.Generator, vocab: list[str]) -> list[str]:
    length = int(rng.integers(60, 240))
    # mild Zipf over the vocabulary for realistic token-frequency skew
    ranks = rng.zipf(1.4, size=length * 2)
    ranks = ranks[ranks <= len(vocab)][:length]
    while len(ranks) < length:
        extra = rng.zipf(1.4, size=length)
        ranks = np.concatenate([ranks, extra[extra <= len(vocab)]])[:length]
    return [vocab[r - 1] for r in ranks]


def _mutate(tokens: list[str], rng: np.random.Generator) -> list[str]:
    toks = list(tokens)
    if rng.random() < 0.5:  # token drops
        keep = rng.random(len(toks)) > 0.04
        toks = [t for t, k in zip(toks, keep) if k] or toks[:1]
    if rng.random() < 0.3:  # adjacent swaps
        for _ in range(2):
            if len(toks) > 2:
                i = int(rng.integers(0, len(toks) - 1))
                toks[i], toks[i + 1] = toks[i + 1], toks[i]
    if rng.random() < 0.4:  # case noise
        mask = rng.random(len(toks)) < 0.03
        toks = [t.upper() if m else t for t, m in zip(toks, mask)]
    if rng.random() < 0.4:  # punctuation noise
        mask = rng.random(len(toks)) < 0.03
        puncts = [",", ".", ";"]
        toks = [t + puncts[int(rng.integers(0, 3))] if m else t for t, m in zip(toks, mask)]
    if rng.random() < 0.5:  # boilerplate prefix
        toks = _BOILERPLATES[int(rng.integers(0, len(_BOILERPLATES)))].split() + toks
    if rng.random() < 0.5:  # boilerplate suffix
        toks = toks + _BOILERPLATES[int(rng.integers(0, len(_BOILERPLATES)))].split()
    return toks


def _render_html(title: str, body_tokens: list[str], domain: str) -> bytes:
    paras = []
    for i in range(0, len(body_tokens), 40):
        chunk = " ".join(body_tokens[i : i + 40]).replace("&", "&amp;")
        paras.append(f"<p>{chunk}</p>")
    nav = f"<nav>home news about {domain.split('.')[0]}</nav>"
    html = (
        f"<html><head><title>{title}</title>"
        f"<style>body {{ margin: 0 }}</style>"
        f"<script>var x = 1 &amp;&amp; 2;</script></head>"
        f"<body>{nav}{''.join(paras)}"
        f"<footer>copyright {domain} &amp; partners</footer></body></html>"
    )
    return html.encode("utf-8")


def generate_pages(
    n_pages: int, seed: int = 42, hot_frac: float = 0.05, nonascii_frac: float = 0.0
) -> tuple[pa.Table, pa.Table]:
    """Build (pages_table, truth_table) deterministically in memory."""
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(rng)
    n_hot = max(0, int(n_pages * hot_frac))
    n_regular = n_pages - n_hot
    # regular docs get 1..6 variants (mean 3.5)
    n_docs = max(1, int(round(n_regular / 3.5)))
    variant_counts = rng.integers(1, 7, size=n_docs)
    # trim/extend so totals are exact
    while variant_counts.sum() > n_regular:
        i = int(rng.integers(0, n_docs))
        if variant_counts[i] > 1:
            variant_counts[i] -= 1
    while variant_counts.sum() < n_regular:
        variant_counts[int(rng.integers(0, n_docs))] += 1

    n_domains = max(4, n_docs // 20)
    domains = [f"site{d:04d}.example.com" for d in range(n_domains)]
    doc_domains = rng.integers(0, n_domains, size=n_docs + 1)

    doc_token_lists: list[list[str]] = []
    for doc_id in range(n_docs):
        doc_rng = np.random.default_rng([seed, 1000 + doc_id])
        doc_token_lists.append(_doc_tokens(doc_rng, vocab))
    # the hot document (doc_id == n_docs) — short boilerplate-ish page
    hot_rng = np.random.default_rng([seed, 999_999])
    hot_tokens = _doc_tokens(hot_rng, vocab)[:80]

    doc_langs = np.where(
        rng.random(n_docs + 1) < 0.9, "en", np.where(rng.random(n_docs + 1) < 0.5, "de", "fr")
    )

    urls: list[str] = []
    htmls: list[bytes] = []
    langs: list[str] = []
    doc_ids: list[int] = []
    variants: list[int] = []

    na_rng = np.random.default_rng([seed, 78])  # own stream: frac 0 changes no page
    nonascii_words = {
        int(d): na_rng.choice(_NONASCII_WORDS, 8).tolist()
        for d in np.flatnonzero(na_rng.random(n_docs + 1) < nonascii_frac)
    }

    def emit(doc_id: int, variant: int, tokens: list[str]) -> None:
        v_rng = np.random.default_rng([seed, doc_id, variant, 7])
        toks = tokens if variant == 0 else _mutate(tokens, v_rng)
        home = domains[doc_domains[doc_id]]
        domain = home if v_rng.random() < 0.6 else domains[int(v_rng.integers(0, n_domains))]
        url = f"https://{domain}/w{doc_id}/v{variant}"
        title = " ".join(tokens[:6]).title()
        words = nonascii_words.get(doc_id)
        if words:
            title = " ".join(words[:2]) + " " + title
            toks = words[2:] + toks
        urls.append(url)
        htmls.append(_render_html(title, toks, domain))
        langs.append(str(doc_langs[doc_id]))
        doc_ids.append(doc_id)
        variants.append(variant)

    for doc_id in range(n_docs):
        for variant in range(int(variant_counts[doc_id])):
            emit(doc_id, variant, doc_token_lists[doc_id])
    for variant in range(n_hot):
        emit(n_docs, variant, hot_tokens)

    ts = pa.array(_BASE_TS + np.arange(len(urls), dtype=np.int64) * 17_000_000, type=pa.timestamp("us"))
    html_arr = pa.array(htmls, type=pa.binary())
    text_arr, _title_arr = extract_text_column(html_arr)
    pages = pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": ts,
            "html": html_arr,
            "text": text_arr,
            "lang": pa.array(langs, type=pa.string()),
        }
    )
    truth = pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "variant_idx": pa.array(variants, type=pa.int64()),
        }
    )
    return pages, truth


def write_pages_fixture(
    out_dir: str,
    n_pages: int,
    seed: int = 42,
    hot_frac: float = 0.05,
    shard_rows: int | None = None,
) -> dict[str, str]:
    """Write (or reuse) a cached fixture: ``pages/`` parquet shards + truth.

    Sharded into ≥64 files with small row groups: Ray Data parallelism before
    the first shuffle is bounded by input block count, so a 5-shard layout
    would cap every map stage at 5 tasks regardless of cluster CPUs. A
    manifest guards cache reuse against parameter changes.
    """
    if shard_rows is None:
        shard_rows = max(512, n_pages // 64)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    params = {"n_pages": n_pages, "seed": seed, "hot_frac": hot_frac, "shard_rows": shard_rows, "v": 4}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            if json.load(f) == params:
                return {"pages": os.path.join(out_dir, "pages"), "truth": os.path.join(out_dir, "truth.parquet")}
    pages, truth = generate_pages(n_pages, seed=seed, hot_frac=hot_frac)
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    for old in os.listdir(pages_dir):
        os.remove(os.path.join(pages_dir, old))
    for shard, start in enumerate(range(0, pages.num_rows, shard_rows)):
        pq.write_table(
            pages.slice(start, shard_rows),
            os.path.join(pages_dir, f"part-{shard:05d}.parquet"),
            row_group_size=max(256, shard_rows // 8),
        )
    pq.write_table(truth, os.path.join(out_dir, "truth.parquet"))
    with open(manifest_path, "w") as f:
        json.dump(params, f)
    return {"pages": pages_dir, "truth": os.path.join(out_dir, "truth.parquet")}


# ---------------------------------------------------------------------------
# Format-flexible page reads: Common-Crawl derivatives ship as Parquet, but
# WET-style extractions commonly arrive as JSONL (and small vendor drops as
# CSV). ``read_pages`` normalizes any of them to PAGES_SCHEMA so every
# downstream stage sees one shape. Parquet is the scale path (columnar,
# predicate/column pushdown at the read); JSONL/CSV decode whole rows —
# column pruning there happens post-parse and is noted as such.
# ---------------------------------------------------------------------------


def _normalize_pages_batch(t: pa.Table) -> pa.Table:
    """Cast a parsed JSONL/CSV batch to PAGES_SCHEMA: ISO-8601 (or epoch-us)
    warc_ts → timestamp[us], base64 html → binary, missing cols → typed
    nulls. Vectorized: pyarrow casts + one base64 loop over binary rows."""
    import base64

    import pyarrow.compute as pc

    n = t.num_rows
    cols: dict[str, pa.Array] = {}
    names = set(t.column_names)
    for field in PAGES_SCHEMA:
        if field.name not in names:
            cols[field.name] = pa.nulls(n, type=field.type)
            continue
        col = t[field.name]
        if field.name == "warc_ts" and not pa.types.is_timestamp(col.type):
            if pa.types.is_integer(col.type):  # epoch microseconds
                col = col.cast(pa.int64()).cast(pa.timestamp("us"))
            else:  # ISO-8601 strings
                col = pc.strptime(col.cast(pa.string()), format="%Y-%m-%dT%H:%M:%S", unit="us")
        elif field.name == "html" and not pa.types.is_binary(col.type):
            # JSON/CSV cannot carry raw bytes — the conventional transport is
            # base64 text (empty/null → empty payload)
            raw = [base64.b64decode(v) if v else b"" for v in col.to_pylist()]
            col = pa.chunked_array([pa.array(raw, type=pa.binary())])
        cols[field.name] = col.cast(field.type)
    return pa.table(cols).cast(PAGES_SCHEMA)


def read_pages(path: str, format: str = "parquet", columns: list[str] | None = None):
    """Read a pages table (url, warc_ts, html, text, lang) from ``path``.

    format="parquet" — the scale path: column pruning pushed into the read
    so only requested columns leave storage. format="jsonl" / "csv" —
    row-oriented transports: parse, then normalize types and prune columns
    post-parse (these formats have no columnar projection to push into).
    format="warc" — Common-Crawl capture shards (.warc.gz, one gzip member
    per record): ``read_binary_files`` streams whole shards to parse tasks
    (a shard is the atomic unit — WARC has no intra-file row index), the
    parser drops-and-counts malformed records, and text/lang come back
    NULL for downstream re-extraction.
    """
    import ray.data as rd

    if format == "parquet":
        ds = rd.read_parquet(path, columns=columns)
        return ds
    if format == "jsonl":
        ds = rd.read_json(path)
    elif format == "csv":
        ds = rd.read_csv(path)
    elif format == "warc":
        ds = rd.read_binary_files(path).map_batches(
            _warc_batch_to_pages, batch_format="pyarrow", batch_size=4
        )
        if columns:
            ds = ds.select_columns(columns)
        return ds
    elif format == "orc":
        # Ray Data has no read_orc; an ORC shard is the atomic unit (stripes
        # have no cross-file index from read_binary_files), so stream whole
        # shards to parse tasks like the WARC path. Column pruning IS pushed
        # into the parse (pyarrow.orc reads only requested columns from each
        # stripe) — cheaper than a post-parse select.
        ds = rd.read_binary_files(path).map_batches(
            _orc_batch_to_pages,
            batch_format="pyarrow",
            batch_size=4,
            fn_kwargs={"columns": columns},
        )
        return ds
    else:
        raise ValueError(f"unknown pages format {format!r} (parquet|jsonl|csv|warc|orc)")
    ds = ds.map_batches(_normalize_pages_batch, batch_format="pyarrow")
    if columns:
        ds = ds.select_columns(columns)
    return ds


# The page columns the features step reads: ``text`` is re-extracted from
# ``html``, so it is never decoded.
FEATURE_INPUT_COLUMNS = ["url", "warc_ts", "html", "lang"]


def parquet_parts(path: str):
    """``(filesystem, files)``: the Parquet part files of ``path``, in name
    order — ``path`` itself when it is a file, else every ``.parquet`` file
    under it whose path below ``path`` has no part starting with ``.`` or
    ``_``, the files ``rd.read_parquet`` reads (side files such as
    ``_SUCCESS`` or ``.part-0.parquet.crc`` are skipped)."""
    import pyarrow.fs as pafs

    if "://" in path:
        fs, root = pafs.FileSystem.from_uri(path)
    else:
        fs, root = pafs.LocalFileSystem(), os.path.abspath(path)
    info = fs.get_file_info(root)
    if info.type == pafs.FileType.File:
        return fs, [root]
    if info.type != pafs.FileType.Directory:
        raise FileNotFoundError(f"no such Parquet path: {path!r}")
    files = []
    for f in fs.get_file_info(pafs.FileSelector(root, recursive=True)):
        rel = f.path[len(root) :].strip("/").split("/")
        if f.type == pafs.FileType.File and f.path.endswith(".parquet") and not any(
            part.startswith((".", "_")) for part in rel
        ):
            files.append(f.path)
    if not files:
        raise FileNotFoundError(f"no .parquet files under {path!r}")
    return fs, sorted(files)


def parquet_read_units(fs, files: list[str], min_rows: int) -> list[list[tuple[str, list[int]]]]:
    """Group the row groups of ``files`` (from their footers), in order,
    into read units of at least ``min_rows`` rows; only the last unit may
    be smaller. A unit is a list of ``(file, row group indices)``. Row
    groups without rows are left out, so a zero-row input has no unit."""
    units: list[list[tuple[str, list[int]]]] = []
    unit: list[tuple[str, list[int]]] = []
    rows = 0
    for path in files:
        meta = pq.read_metadata(path, filesystem=fs)
        for i in range(meta.num_row_groups):
            n = meta.row_group(i).num_rows
            if not n:
                continue
            if unit and unit[-1][0] == path:
                unit[-1][1].append(i)
            else:
                unit.append((path, [i]))
            rows += n
            if rows >= min_rows:
                units.append(unit)
                unit, rows = [], 0
    return units + [unit] if unit else units


def read_unit_slices(fs, unit: list[tuple[str, list[int]]], columns: list[str], n: int):
    """The rows of ``columns`` in a read unit, as tables of ``n`` rows in
    order (the last may be shorter). ``ParquetFile.iter_batches`` streams
    each file's row groups, so at most one slice of payload is decoded at a
    time and the other columns are never read."""
    pending: list[pa.RecordBatch] = []
    rows = 0
    for path, groups in unit:
        pf = pq.ParquetFile(path, filesystem=fs)
        for batch in pf.iter_batches(batch_size=n, row_groups=groups, columns=columns):
            pending.append(batch.replace_schema_metadata(None))
            rows += batch.num_rows
            while rows >= n:
                t = pa.Table.from_batches(pending)
                yield t.slice(0, n)
                pending, rows = t.slice(n).to_batches(), rows - n
    if rows:
        yield pa.Table.from_batches(pending)


def write_pages_warc(pages: pa.Table, out_dir: str, shard_rows: int = 4096) -> str:
    """Write a PAGES_SCHEMA table as sharded WARC/1.0 gzip files — the
    Common-Crawl transport convention: every record is its OWN gzip member
    and members concatenate into one ``.warc.gz`` per shard (so a reader
    can seek to any member independently; ISO 28500 layout, format
    knowledge from the public WARC spec — nothing here reads real crawl
    data). Each shard opens with a ``warcinfo`` record followed by one
    ``response`` record per page (HTTP/1.1 response head + the html bytes
    as payload); ``text``/``lang`` are derived columns and do NOT ride the
    transport — re-extraction downstream is the contract."""
    import gzip
    import hashlib

    os.makedirs(out_dir, exist_ok=True)
    for old in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, old))

    def _record(headers: list[tuple[str, str]], payload: bytes) -> bytes:
        head = b"WARC/1.0\r\n" + b"".join(
            f"{k}: {v}\r\n".encode() for k, v in headers
        ) + f"Content-Length: {len(payload)}\r\n\r\n".encode()
        return gzip.compress(head + payload + b"\r\n\r\n", mtime=0)

    for shard, start in enumerate(range(0, pages.num_rows, shard_rows)):
        chunk = pages.slice(start, shard_rows)
        path = os.path.join(out_dir, f"part-{shard:05d}.warc.gz")
        with open(path, "wb") as f:
            f.write(
                _record(
                    [
                        ("WARC-Type", "warcinfo"),
                        ("WARC-Date", "2025-01-01T00:00:00Z"),
                        ("Content-Type", "application/warc-fields"),
                    ],
                    b"software: entity-resolution-engine-ray fixture writer\r\n",
                )
            )
            for row in chunk.to_pylist():
                html = row["html"] or b""
                # whole-second captures use the Common-Crawl-conventional form;
                # sub-second timestamps keep their microseconds (WARC-Date
                # allows fractional seconds) so the capture column round-trips
                # losslessly at timestamp[us] precision
                when = row["warc_ts"]
                ts = when.strftime(
                    "%Y-%m-%dT%H:%M:%SZ" if when.microsecond == 0 else "%Y-%m-%dT%H:%M:%S.%fZ"
                )
                rid = hashlib.md5((row["url"] + ts).encode()).hexdigest()
                http = (
                    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                    + f"Content-Length: {len(html)}\r\n\r\n".encode()
                    + html
                )
                f.write(
                    _record(
                        [
                            ("WARC-Type", "response"),
                            ("WARC-Record-ID", f"<urn:uuid:{rid}>"),
                            ("WARC-Date", ts),
                            ("WARC-Target-URI", row["url"]),
                            ("Content-Type", "application/http; msgtype=response"),
                        ],
                        http,
                    )
                )
    return out_dir


def _parse_warc_bytes(blob: bytes) -> tuple[list[dict], int]:
    """Parse one (multi-member-gzip or plain) WARC blob → (page rows,
    malformed-record drop count). Only ``response`` records yield rows;
    warcinfo/request/metadata records are skipped. Records missing a
    required header or with a short payload are DROPPED AND COUNTED, never
    raised — at crawl scale malformed records are a certainty and one bad
    record must not kill a 100-TB read."""
    import gzip

    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)  # handles concatenated members
    rows: list[dict] = []
    dropped = 0
    pos = 0
    n = len(blob)
    while pos < n:
        head_end = blob.find(b"\r\n\r\n", pos)
        if head_end < 0:
            break
        head_lines = blob[pos:head_end].split(b"\r\n")
        if not head_lines or not head_lines[0].startswith(b"WARC/"):
            dropped += 1
            pos = head_end + 4
            continue
        headers: dict[str, str] = {}
        for line in head_lines[1:]:
            k, _, v = line.partition(b":")
            headers[k.decode("latin-1").strip().lower()] = v.decode("latin-1").strip()
        try:
            clen = int(headers["content-length"])
        except (KeyError, ValueError):
            dropped += 1
            pos = head_end + 4
            continue
        if clen < 0:  # a negative length would move pos BACKWARDS (infinite loop)
            dropped += 1
            pos = head_end + 4
            continue
        payload = blob[head_end + 4 : head_end + 4 + clen]
        pos = head_end + 4 + clen + 4  # skip the two record-ending CRLFs
        if len(payload) < clen:
            dropped += 1
            continue
        if headers.get("warc-type") != "response":
            continue
        url = headers.get("warc-target-uri")
        ts = headers.get("warc-date")
        if not url or not ts:
            dropped += 1
            continue
        http_split = payload.find(b"\r\n\r\n")
        html = payload[http_split + 4 :] if http_split >= 0 else payload
        try:
            when = datetime.strptime(
                ts, "%Y-%m-%dT%H:%M:%S.%fZ" if "." in ts else "%Y-%m-%dT%H:%M:%SZ"
            )
        except ValueError:
            dropped += 1
            continue
        rows.append({"url": url, "warc_ts": when, "html": html})
    return rows, dropped


def _warc_batch_to_pages(batch: pa.Table) -> pa.Table:
    """read_binary_files batch (bytes, path) → PAGES_SCHEMA rows.
    text/lang come back NULL — WARC carries raw capture only; the extract
    stage recomputes text downstream (the byte-identical contract)."""
    import logging

    rows: list[dict] = []
    dropped = 0
    for blob in batch["bytes"].to_pylist():
        r, d = _parse_warc_bytes(blob)
        rows.extend(r)
        dropped += d
    if dropped:
        logging.getLogger(__name__).warning("warc read: dropped %d malformed records", dropped)
    if not rows:
        return PAGES_SCHEMA.empty_table()
    t = pa.table(
        {
            "url": pa.array([r["url"] for r in rows], type=pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in rows], type=pa.timestamp("us")),
            "html": pa.array([r["html"] for r in rows], type=pa.binary()),
        }
    )
    return _normalize_pages_batch(t)


def _orc_batch_to_pages(batch: pa.Table, columns: list[str] | None = None) -> pa.Table:
    """Parse whole ``.orc`` shard payloads (``read_binary_files`` rows) into
    pages rows. ORC stores timestamps as nanos — values written at
    timestamp[us] cast back losslessly; the schema cast also restores column
    order. ``columns`` prunes inside the stripe read."""
    import io

    import pyarrow.orc as orc

    schema = PAGES_SCHEMA if columns is None else pa.schema(
        [PAGES_SCHEMA.field(c) for c in columns]
    )
    tables = []
    for payload in batch["bytes"].to_pylist():
        t = orc.ORCFile(io.BytesIO(payload)).read(columns=list(schema.names))
        tables.append(t.select(schema.names).cast(schema))
    if not tables:
        return schema.empty_table()
    return pa.concat_tables(tables)


def write_pages_orc(pages: pa.Table, out_dir: str, shard_rows: int = 4096) -> str:
    """Write a PAGES_SCHEMA table as sharded ``.orc`` files (pyarrow.orc) —
    the columnar non-Parquet transport some crawl archives use. One file
    per ``shard_rows`` slice so reads parallelize per shard."""
    import pyarrow.orc as orc

    os.makedirs(out_dir, exist_ok=True)
    for old in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, old))
    for shard, start in enumerate(range(0, pages.num_rows, shard_rows)):
        chunk = pages.slice(start, shard_rows)
        orc.write_table(chunk, os.path.join(out_dir, f"part-{shard:05d}.orc"))
    return out_dir


def write_pages_jsonl(pages: pa.Table, out_dir: str, shard_rows: int = 4096) -> str:
    """Write a PAGES_SCHEMA table as sharded JSONL (base64 html, ISO-8601
    warc_ts) — the transport ``read_pages(format="jsonl")`` reads back."""
    import base64

    os.makedirs(out_dir, exist_ok=True)
    for old in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, old))
    for shard, start in enumerate(range(0, pages.num_rows, shard_rows)):
        chunk = pages.slice(start, shard_rows)
        with open(os.path.join(out_dir, f"part-{shard:05d}.jsonl"), "w") as f:
            for row in chunk.to_pylist():
                f.write(
                    json.dumps(
                        {
                            "url": row["url"],
                            "warc_ts": row["warc_ts"].strftime("%Y-%m-%dT%H:%M:%S"),
                            "html": base64.b64encode(row["html"] or b"").decode(),
                            "text": row["text"],
                            "lang": row["lang"],
                        }
                    )
                    + "\n"
                )
    return out_dir
