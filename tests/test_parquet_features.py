"""The features step's two ways in give the Ray Data stages' features.

``pipelines.pages_er._features_of`` reads a Parquet path inside plain
tasks, one per read unit of at least ``FEATURIZE_BATCH_ROWS`` rows, and
featurizes a Dataset's blocks with one plain task each. Both must equal
``feature_stage(extract_stage(rd.read_parquet(path)))`` row for row
(sorted by url) with an equal schema, on several files, on row groups
that split into several units, on a directory holding side files, on a
zero-row file and on non-ASCII pages (the fallback tokenizer); on a
``generate_pages(nonascii_frac=...)`` fixture ``featurize_pages`` also equals
the scalar per-doc kernels.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.pipelines.pages_er import _features_of
from entity_resolution_engine_ray.sources.pages import (
    generate_pages,
    parquet_parts,
    parquet_read_units,
    write_pages_fixture,
)
from entity_resolution_engine_ray.stages.block import (
    FEATURIZE_BATCH_ROWS,
    feature_stage,
    featurize_batch,
)
from entity_resolution_engine_ray.stages.extract import extract_batch, extract_stage

CFG = PagesERConfig()


def _ray_data_features(path: str) -> pa.Table:
    """The Ray Data stages over ``rd.read_parquet``. Over zero rows they
    emit no typed block, so a zero-row read gives the features of an
    empty table of the read's schema."""
    import ray.data as rd

    pages = rd.read_parquet(path)
    tbls = [ray.get(r) for r in feature_stage(extract_stage(pages), CFG).to_arrow_refs()]
    tbls = [t for t in tbls if t.num_rows]
    if tbls:
        return pa.concat_tables(tbls)
    return featurize_batch(extract_batch(pages.schema().base_schema.empty_table()), CFG)


def _blocks_table(blocks) -> pa.Table:
    return pa.concat_tables(ray.get(list(blocks.refs)))


def _assert_same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema.equals(want.schema, check_metadata=True), (got.schema, want.schema)
    assert got.num_rows == want.num_rows
    assert got.sort_by("url").equals(want.sort_by("url"))


def _check_both_ways(path: str) -> int:
    """Both ways into ``_features_of`` equal the Ray Data stages; returns
    the number of blocks the Parquet path made."""
    import ray.data as rd

    want = _ray_data_features(path)
    from_path = _features_of(path, CFG, "parquet")
    _assert_same(_blocks_table(from_path), want)
    _assert_same(_blocks_table(_features_of(rd.read_parquet(path), CFG, "parquet")), want)
    return len(from_path.refs)


@pytest.fixture(scope="module")
def multi_file(ray_session, tmp_path_factory):
    """Six files of 250 pages: one read unit of five files, then one of
    the last file."""
    root = tmp_path_factory.mktemp("feat")
    return write_pages_fixture(str(root / "fx"), 1500, seed=5, shard_rows=250)["pages"]


def test_multi_file_fixture(multi_file):
    fs, files = parquet_parts(multi_file)
    assert len(files) == 6
    units = parquet_read_units(fs, files, FEATURIZE_BATCH_ROWS)
    assert [len(u) for u in units] == [5, 1]
    assert _check_both_ways(multi_file) == 2


def test_small_row_groups_split_into_units(ray_session, tmp_path):
    pages, _ = generate_pages(2500, seed=6)
    path = str(tmp_path / "rg100.parquet")
    pq.write_table(pages, path, row_group_size=100)
    fs, files = parquet_parts(path)
    units = parquet_read_units(fs, files, FEATURIZE_BATCH_ROWS)
    sizes = [sum(pq.ParquetFile(path).metadata.row_group(i).num_rows for i in u[0][1]) for u in units]
    assert sizes == [1100, 1100, 300]
    assert _check_both_ways(path) == 3


def test_side_files_are_skipped(multi_file, tmp_path):
    d = str(tmp_path / "with_side_files")
    shutil.copytree(multi_file, d)
    open(os.path.join(d, "_SUCCESS"), "w").close()
    with open(os.path.join(d, ".part-00000.parquet.crc"), "wb") as f:
        f.write(b"\x00crc")
    _, files = parquet_parts(d)
    assert [os.path.basename(f) for f in files] == sorted(os.listdir(multi_file))
    assert _check_both_ways(d) == 2


def test_zero_row_file(ray_session, tmp_path):
    pages, _ = generate_pages(10, seed=7)
    path = str(tmp_path / "empty.parquet")
    pq.write_table(pages.slice(0, 0), path)
    got = _blocks_table(_features_of(path, CFG, "parquet"))
    assert got.num_rows == 0
    assert got.schema.field("warc_ts").type == pa.timestamp("us")
    _check_both_ways(path)


def test_non_ascii_pages_take_the_fallback(ray_session, tmp_path):
    pages, _ = generate_pages(300, seed=8)
    html = [
        (h.replace(b"<title>", "<title>Café Ärger ".encode()).replace(b"<p>", "<p>naïve straße ".encode())
         if i % 3 == 0 else h)
        for i, h in enumerate(pages["html"].to_pylist())
    ]
    pages = pages.set_column(2, "html", pa.array(html, pa.binary()))
    path = str(tmp_path / "mixed.parquet")
    pq.write_table(pages, path)
    got = _blocks_table(_features_of(path, CFG, "parquet"))
    titles = got.sort_by("url")["title_norm"].to_pylist()
    assert any("café" in t for t in titles) and any("café" not in t for t in titles)
    _check_both_ways(path)


def test_mixed_fixture_matches_stages_and_scalar_reference(ray_session, tmp_path):
    """``featurize_pages`` on a ``generate_pages(nonascii_frac=0.5)``
    fixture (two batches, each mixing ASCII and non-ASCII pages) equals
    the Ray Data stages over the same file and, page by page, the scalar
    per-doc kernels."""
    from entity_resolution_engine_ray.functions.similarity import (
        hash_tokens,
        jaccard_ids,
        lsh_band_keys,
        minhash_coefficients,
        minhash_signature,
        shingle_hashes,
        simhash64,
        stable_hash64,
    )
    from entity_resolution_engine_ray.oracle.serial import canonical_tokens
    from entity_resolution_engine_ray.stages.block import featurize_pages

    pages, _ = generate_pages(FEATURIZE_BATCH_ROWS + 200, seed=9, nonascii_frac=0.5)
    path = str(tmp_path / "mixed_frac.parquet")
    pq.write_table(pages, path)
    got = featurize_pages(pages, CFG)
    _assert_same(got, _ray_data_features(path))
    _check_both_ways(path)

    extracted = extract_batch(pages)
    nonascii = [not (t.isascii() and ti.isascii()) for t, ti in zip(
        extracted["text"].to_pylist(), extracted["title"].to_pylist())]
    assert 0.2 < sum(nonascii) / len(nonascii) < 0.8
    coeffs = minhash_coefficients(CFG.num_perm)
    for i, (url, text, title) in enumerate(zip(
        extracted["url"].to_pylist(), extracted["text"].to_pylist(), extracted["title"].to_pylist()
    )):
        th = hash_tokens(canonical_tokens(text), None)
        sig = minhash_signature(shingle_hashes(th, k=CFG.shingle_k), *coeffs)
        assert got["url_hash"][i].as_py() == stable_hash64(url)
        assert got["token_ids"][i].as_py() == list(jaccard_ids(th))
        assert got["simhash"][i].as_py() == simhash64(th)
        assert got["band_keys"][i].as_py() == lsh_band_keys(sig, CFG.bands)
        assert got["title_norm"][i].as_py() == " ".join(canonical_tokens(title))
