"""Workload inputs: generation from a seed, the oracle's answer, and the cache.

Each workload is made from ``--seed`` alone, so the same seed gives the same
pages, truth table and oracle result. Preparing a (workload, seed) pair runs
the generator and the serial oracle, which is slow (the oracle is pure
Python), so the result is cached under ``<checkout>/.bench_cache`` and is
never part of a timed run or of ``setup_s``.

Workloads:

- ``dense``: ``sources.pages.generate_pages`` as it stands (1..6 variants
  per document, mean 3.5, plus a 5% hot boilerplate block).
- ``sparse-mixed``: about 90% of documents keep a single variant, no hot
  block, and about half the documents carry accented-Latin and CJK tokens in
  title and body, so every featurizer batch takes the per-document Python
  tokenizer.
- ``fold-labelprop``: the ``dense`` pages split at random into a 90% corpus
  and a 10% new batch; the timed call folds the batch into a completed run
  over the corpus with ``cluster_method="labelprop"``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("dense", "sparse-mixed", "fold-labelprop")

# pages per workload input; one pipeline call on one Ray CPU takes a few
# seconds at this size, so a run fits several timed calls
N_PAGES = 2000
WARMUP_PAGES = 300
FOLD_NEW_FRAC = 0.10
SPARSE_MULTI_DOC_FRAC = 0.10
NONASCII_DOC_FRAC = 0.5
# bump when generation or the oracle files change, to invalidate the cache
CACHE_VERSION = 2

# accented Latin, other alphabets and CJK: every one fails string_is_ascii
_NONASCII_WORDS = [
    "café", "naïve", "zürich", "señor", "façade", "résumé", "smörgåsbord",
    "crème", "brûlée", "jalapeño", "æther", "øresund", "łódź", "straße",
    "coöperate", "élan", "mañana", "ångström", "étude", "piñata",
    "東京", "数据", "実体", "解決", "検索", "网页", "重复", "記録", "北京", "大阪",
    "한국어", "데이터", "ไทย", "привет", "данные", "ελληνικά", "עברית", "العربية",
]


def pipeline_config(workload: str):
    from entity_resolution_engine_ray.config import PagesERConfig

    if workload == "fold-labelprop":
        return PagesERConfig(cluster_method="labelprop")
    return PagesERConfig()


def _inject_nonascii(pages: pa.Table, truth: pa.Table, seed: int) -> pa.Table:
    """Give about half of the documents a fixed set of non-ASCII tokens in
    the title and the first paragraph. Every variant of a document gets the
    same tokens, so near-duplicates stay near-duplicates."""
    from entity_resolution_engine_ray.stages.extract import extract_text_column

    doc_ids = truth["doc_id"].to_numpy()
    docs = np.unique(doc_ids)
    rng = np.random.default_rng([seed, 77])
    chosen = set(docs[rng.random(len(docs)) < NONASCII_DOC_FRAC].tolist())
    htmls = pages["html"].to_pylist()
    out = []
    for doc, html in zip(doc_ids.tolist(), htmls):
        if doc not in chosen:
            out.append(html)
            continue
        drng = np.random.default_rng([seed, 78, doc])
        words = [_NONASCII_WORDS[i] for i in drng.integers(0, len(_NONASCII_WORDS), 8)]
        title = " ".join(words[:2]).encode()
        body = " ".join(words[2:]).encode()
        html = html.replace(b"<title>", b"<title>" + title + b" ", 1)
        html = html.replace(b"<p>", b"<p>" + body + b" ", 1)
        out.append(html)
    html_arr = pa.array(out, type=pa.binary())
    text_arr, _ = extract_text_column(html_arr)
    pages = pages.set_column(pages.schema.get_field_index("html"), "html", html_arr)
    return pages.set_column(pages.schema.get_field_index("text"), "text", text_arr)


def generate(workload: str, seed: int, n_pages: int = N_PAGES) -> tuple[pa.Table, pa.Table]:
    """(pages, truth) for a workload. ``fold-labelprop`` uses the dense pages;
    its corpus/batch split is made by ``fold_split``."""
    from entity_resolution_engine_ray.sources.pages import generate_pages

    if workload in ("dense", "fold-labelprop"):
        return generate_pages(n_pages, seed=seed)
    if workload != "sparse-mixed":
        raise ValueError(f"unknown workload {workload!r}")
    # mean variants per kept document = 0.9 * 1 + 0.1 * 3.5 = 1.25, so
    # generate 3.5 / 1.25 = 2.8x the target pages and thin the variants
    pages, truth = generate_pages(int(n_pages * 2.8), seed=seed, hot_frac=0.0)
    doc_ids = truth["doc_id"].to_numpy()
    variants = truth["variant_idx"].to_numpy()
    docs = np.unique(doc_ids)
    rng = np.random.default_rng([seed, 76])
    multi = docs[rng.random(len(docs)) < SPARSE_MULTI_DOC_FRAC]
    keep = (variants == 0) | np.isin(doc_ids, multi)
    mask = pa.array(keep)
    pages, truth = pages.filter(mask), truth.filter(mask)
    return _inject_nonascii(pages, truth, seed), truth


def fold_split(n_rows: int, seed: int) -> np.ndarray:
    """Boolean mask of the rows that form the new batch: a seeded random 10%
    (generate_pages emits the hot block last, so a split by row order would
    put the whole hot block in the batch)."""
    rng = np.random.default_rng([seed, 79])
    new = np.zeros(n_rows, dtype=bool)
    new[rng.choice(n_rows, size=int(round(n_rows * FOLD_NEW_FRAC)), replace=False)] = True
    return new


def _write_shards(table: pa.Table, out_dir: str, n_shards: int = 8) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = max(1, -(-table.num_rows // n_shards))
    for i, start in enumerate(range(0, table.num_rows, rows)):
        pq.write_table(table.slice(start, rows), os.path.join(out_dir, f"part-{i:05d}.parquet"))


def _has_nonascii(col: pa.ChunkedArray) -> np.ndarray:
    import pyarrow.compute as pc

    return ~pc.string_is_ascii(pc.fill_null(col, "")).to_numpy(zero_copy_only=False)


def properties(workload: str, pages: pa.Table, truth: pa.Table, new_mask=None) -> dict:
    """Measured shares of the input properties the workloads vary."""
    from entity_resolution_engine_ray.stages.extract import extract_text_column

    doc_ids = truth["doc_id"].to_numpy()
    docs, counts = np.unique(doc_ids, return_counts=True)
    text, title = extract_text_column(pages["html"])
    nonascii_page = _has_nonascii(pa.chunked_array([text])) | _has_nonascii(
        pa.chunked_array([title])
    )
    nonascii_docs = np.unique(doc_ids[nonascii_page])
    # generate_pages gives the hot block the highest doc_id
    hot_page = doc_ids == docs.max() if workload != "sparse-mixed" else np.zeros(len(doc_ids), bool)
    props = {
        "pages": int(pages.num_rows),
        "documents": int(len(docs)),
        "singleton_doc_share": float((counts == 1).mean()),
        "nonascii_doc_share": float(len(nonascii_docs) / len(docs)),
        "hot_block_page_share": float(hot_page.mean()),
    }
    featurized = np.ones(len(doc_ids), bool) if new_mask is None else new_mask
    props["featurized_nonascii_page_share"] = float(nonascii_page[featurized].mean())
    if new_mask is not None:
        props["new_pages"] = int(new_mask.sum())
        props["new_pages_in_hot_block_share"] = float(hot_page[new_mask].mean())
    return props


def _oracle_files(pages: pa.Table, cfg, out_dir: str) -> dict:
    from entity_resolution_engine_ray.functions.similarity import stable_hash64
    from entity_resolution_engine_ray.oracle.serial import run_serial_er

    res = run_serial_er(pages, cfg)
    approved = [e for e in res.edges if e["decision"] in ("auto_approve", "gray_approve")]
    pq.write_table(
        pa.table(
            {
                "left_id": pa.array([stable_hash64(e["left_url"]) for e in approved], pa.int64()),
                "right_id": pa.array([stable_hash64(e["right_url"]) for e in approved], pa.int64()),
            }
        ),
        os.path.join(out_dir, "oracle_approved.parquet"),
    )
    urls = list(res.clusters)
    pq.write_table(
        pa.table({"url": urls, "cluster": [res.clusters[u] for u in urls]}),
        os.path.join(out_dir, "oracle_clusters.parquet"),
    )
    return res.stats


def cache_dir(root: str, workload: str, seed: int, n_pages: int = N_PAGES) -> str:
    return os.path.join(
        root, ".bench_cache", f"{workload}-n{n_pages}-s{seed}-v{CACHE_VERSION}"
    )


def warmup_dir(root: str) -> str:
    return os.path.join(root, ".bench_cache", f"warmup-v{CACHE_VERSION}")


def oracle_dir(root: str, workload: str, seed: int, n_pages: int = N_PAGES) -> str:
    """Where the truth and oracle files of a workload live: a fold covers the
    same pages as ``dense`` at that seed, so it shares dense's."""
    base = "dense" if workload == "fold-labelprop" else workload
    return cache_dir(root, base, seed, n_pages)


def is_prepared(path: str) -> bool:
    return os.path.exists(os.path.join(path, "props.json"))


def prepare(root: str, workload: str, seed: int, n_pages: int = N_PAGES) -> str:
    """Write the pages, truth, oracle result and property shares of one
    (workload, seed) pair into its cache directory (no Ray needed). The
    directory is complete once ``props.json`` exists."""
    final = cache_dir(root, workload, seed, n_pages)
    if is_prepared(final):
        return final
    fold = workload == "fold-labelprop"
    if fold:
        with open(os.path.join(prepare(root, "dense", seed, n_pages), "props.json")) as f:
            oracle_stats = json.load(f)["oracle"]
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pages, truth = generate(workload, seed, n_pages)
    new_mask = None
    if fold:
        new_mask = fold_split(pages.num_rows, seed)
        _write_shards(pages.filter(pa.array(~new_mask)), os.path.join(tmp, "corpus"))
        _write_shards(pages.filter(pa.array(new_mask)), os.path.join(tmp, "new"), n_shards=1)
    else:
        _write_shards(pages, os.path.join(tmp, "pages"))
        pq.write_table(truth.select(["url", "doc_id"]), os.path.join(tmp, "truth.parquet"))
        oracle_stats = _oracle_files(pages, pipeline_config(workload), tmp)
    props = properties(workload, pages, truth, new_mask)
    props["oracle"] = oracle_stats
    with open(os.path.join(tmp, "props.json"), "w") as f:
        json.dump(props, f)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def prepare_warmup(root: str) -> str:
    """A small fixed dense input for the warm-up call (seed-independent)."""
    from entity_resolution_engine_ray.sources.pages import generate_pages

    final = warmup_dir(root)
    if os.path.exists(os.path.join(final, "_DONE")):
        return final
    shutil.rmtree(final, ignore_errors=True)
    pages, _ = generate_pages(WARMUP_PAGES, seed=0)
    _write_shards(pages, os.path.join(final, "pages"), n_shards=2)
    open(os.path.join(final, "_DONE"), "w").close()
    return final


def featurize_batches(n_docs: int = 1024) -> dict[str, pa.Table]:
    """Fixed in-memory featurizer inputs (url, warc_ts, lang, text, title):
    one all-ASCII batch and one where about half the documents carry
    non-ASCII tokens. Seed-independent, so every run times the same batch."""
    from entity_resolution_engine_ray.sources.pages import generate_pages
    from entity_resolution_engine_ray.stages.extract import extract_batch

    pages, truth = generate_pages(n_docs, seed=0, hot_frac=0.0)
    mixed = _inject_nonascii(pages, truth, seed=0)
    return {"ascii": extract_batch(pages), "mixed": extract_batch(mixed)}

