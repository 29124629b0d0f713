"""Incremental resolution contract: folding a new batch into a completed
run equals the full run over the union — same edges, same cluster
partitions — while rescoring only blocks the new batch touches."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from entity_resolution_engine_ray.config import PagesERConfig
from entity_resolution_engine_ray.pipelines.pages_er import (
    run_pages_er,
    run_pages_er_incremental,
)
from entity_resolution_engine_ray.sources.pages import write_pages_fixture
from entity_resolution_engine_ray.state.checkpoint import CheckpointStore


def _partitions(labeled: pd.DataFrame) -> set:
    return {frozenset(g) for _, g in labeled.groupby("cluster_label")["url"]}


def test_incremental_equals_full(ray_session, tmp_path):
    fix = write_pages_fixture(str(tmp_path / "fx"), 900, seed=5)
    tbl = pads.dataset(fix["pages"]).to_table()
    n_old = 600
    pq.write_table(tbl.slice(0, n_old), str(tmp_path / "old.parquet"))
    pq.write_table(tbl.slice(n_old), str(tmp_path / "new.parquet"))

    # drop-free config: equality is exact only when no block exceeds the
    # cap (an over-cap block may drop pairs in one run it keeps in the other)
    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)

    full = run_pages_er(fix["pages"], str(tmp_path / "full"), cfg)
    run_pages_er(str(tmp_path / "old.parquet"), str(tmp_path / "runA"), cfg)
    inc = run_pages_er_incremental(
        str(tmp_path / "runA"), str(tmp_path / "new.parquet"), str(tmp_path / "inc"), cfg
    )

    ef = (
        full["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    )
    ei = (
        inc["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    )
    # every column, block_key included: the fold dedups by the full run's
    # rule (the pair's minimum block_key survives)
    assert {"left_id", "right_id", "block_key", "score", "decision"} <= set(ef.columns)
    pd.testing.assert_frame_equal(ei, ef, check_like=False)

    lf = CheckpointStore(str(tmp_path / "full")).read("labeled").to_pandas()
    li = CheckpointStore(str(tmp_path / "inc")).read("labeled").to_pandas()
    assert len(lf) == len(li) == 900
    assert _partitions(lf) == _partitions(li)

    man = CheckpointStore(str(tmp_path / "inc")).manifest("edges")
    assert man["touched_blocks"] > 0
    assert man["incremental_from"].endswith("runA")


def test_incremental_rejects_mismatched_previous_run(ray_session, tmp_path):
    fix = write_pages_fixture(str(tmp_path / "fx2"), 200, seed=6)
    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)
    run_pages_er(fix["pages"], str(tmp_path / "runA"), cfg)

    other = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000, gate_high=0.9)
    import pytest

    with pytest.raises(ValueError, match="config/pipeline version"):
        run_pages_er_incremental(
            str(tmp_path / "runA"), fix["pages"], str(tmp_path / "inc"), other
        )


def test_incremental_chain_two_batches(ray_session, tmp_path):
    """A CHAIN of increments (runA + batch1 → runB, runB + batch2 → runC)
    must still equal one full run over the union — the ingestion pattern a
    live crawl actually follows, and the case that catches state the first
    fold forgets to carry (touched-block bookkeeping, edge provenance)."""
    fix = write_pages_fixture(str(tmp_path / "fx"), 900, seed=11)
    tbl = pads.dataset(fix["pages"]).to_table()
    pq.write_table(tbl.slice(0, 500), str(tmp_path / "b0.parquet"))
    pq.write_table(tbl.slice(500, 200), str(tmp_path / "b1.parquet"))
    pq.write_table(tbl.slice(700), str(tmp_path / "b2.parquet"))

    cfg = PagesERConfig(max_block_size=10_000, pair_sample_cap=1_000_000)

    full = run_pages_er(fix["pages"], str(tmp_path / "full"), cfg)
    run_pages_er(str(tmp_path / "b0.parquet"), str(tmp_path / "runA"), cfg)
    run_pages_er_incremental(
        str(tmp_path / "runA"), str(tmp_path / "b1.parquet"), str(tmp_path / "runB"), cfg
    )
    inc = run_pages_er_incremental(
        str(tmp_path / "runB"), str(tmp_path / "b2.parquet"), str(tmp_path / "runC"), cfg
    )

    ef = full["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    ei = inc["edges"].to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ei, ef, check_like=False)

    lf = CheckpointStore(str(tmp_path / "full")).read("labeled").to_pandas()
    li = CheckpointStore(str(tmp_path / "runC")).read("labeled").to_pandas()
    assert len(lf) == len(li) == 900
    assert _partitions(lf) == _partitions(li)


def test_skipped_prune_is_recorded_and_keeps_the_edges(ray_session, tmp_path, monkeypatch):
    """``pairs.key_stats`` gives up the pairable set past ``pairable_limit``,
    and the pair exchange then ships every band row: the edges manifest says
    so (``prune_skipped``), the edges stay those of a pruned run, and a fold
    onto such a run reports the skip too."""
    import functools

    from entity_resolution_engine_ray.stages import pairs

    fix = write_pages_fixture(str(tmp_path / "fx"), 300, seed=6)
    tbl = pads.dataset(fix["pages"]).to_table()
    pq.write_table(tbl.slice(0, 250), str(tmp_path / "old.parquet"))
    pq.write_table(tbl.slice(250), str(tmp_path / "new.parquet"))

    def edges_of(out_dir: str) -> pd.DataFrame:
        got = pq.read_table(f"{out_dir}/edges").to_pandas()
        return got.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    def skipped(out_dir: str) -> bool:
        return CheckpointStore(out_dir).manifest("edges")["prune_skipped"]

    pruned = str(tmp_path / "pruned")
    run_pages_er(fix["pages"], pruned)
    assert skipped(pruned) is False

    unpruned, old = str(tmp_path / "unpruned"), str(tmp_path / "old")
    with monkeypatch.context() as mp:
        mp.setattr(pairs, "key_stats", functools.partial(pairs.key_stats, pairable_limit=0))
        run_pages_er(fix["pages"], unpruned)
        run_pages_er(str(tmp_path / "old.parquet"), old)
    assert skipped(unpruned) is True
    assert len(edges_of(pruned)) > 0
    pd.testing.assert_frame_equal(edges_of(unpruned), edges_of(pruned))

    fold = str(tmp_path / "fold")
    run_pages_er_incremental(old, str(tmp_path / "new.parquet"), fold)
    assert skipped(old) is True and skipped(fold) is True


# ---- the fold scores only the pairs its batch can change (pairs.batch_pairs)
#
# 600 pages with a 150-page hot block. The corpus holds 400 regular and 100
# hot pages; the ``resplit`` batch adds 20 regular and the other 50 hot pages,
# which re-splits some hot keys and leaves others at their split count; the
# ``cold`` batch adds the last 30 regular pages and touches no hot key.
SORT_KEYS = {
    "features": ["url"],
    "edges": ["left_id", "right_id"],
    "labeled": ["url"],
    "entities": ["entity_id"],
    "lineage": ["url"],
}


@pytest.fixture(scope="module")
def fold_pages(tmp_path_factory):
    from entity_resolution_engine_ray.sources.pages import generate_pages
    from entity_resolution_engine_ray.stages.block import featurize_pages

    root = tmp_path_factory.mktemp("batch_pairs")
    pages, truth = generate_pages(600, seed=5, hot_frac=0.25)
    doc = truth["doc_id"].to_numpy()
    idx = np.arange(pages.num_rows)
    reg, hot = idx[doc != doc.max()], idx[doc == doc.max()]
    rows = {
        "corpus": np.r_[reg[:400], hot[:100]],
        "resplit": np.r_[reg[400:420], hot[100:]],
        "cold": reg[420:],
    }
    paths = {}
    for name, r in rows.items():
        paths[name] = str(root / f"{name}.parquet")
        pq.write_table(pages.take(pa.array(r)), paths[name])
    features = featurize_pages(pages, PagesERConfig())
    return {"root": root, "rows": rows, "paths": paths, "features": features}


def _keys(features: pa.Table, rows) -> np.ndarray:
    """The block keys of ``rows``, one per page and band."""
    return features.take(pa.array(rows))["band_keys"].combine_chunks().flatten().to_numpy()


def _fold_partition(features: pa.Table, old, new, cfg: PagesERConfig):
    """A fold's pair partition, as one task would get it: the fat rows of
    the old and new pages under the keys the new ones touch that have ≥ 2
    members, hot keys salted; and its ``batch`` argument."""
    from entity_resolution_engine_ray.oracle.serial import n_splits_for
    from entity_resolution_engine_ray.stages.block import fat_block_rows
    from entity_resolution_engine_ray.stages.pairs import _salt_batch, resplit_keys
    from entity_resolution_engine_ray.stages.score import PAGE_PAYLOAD

    both = features.take(pa.array(np.r_[old, new]))
    flat, new_keys = _keys(both, np.arange(both.num_rows)), _keys(features, new)
    keys, counts = np.unique(flat[np.isin(flat, new_keys)], return_counts=True)
    over = counts > cfg.max_block_size
    members = dict(zip(keys[over].tolist(), counts[over].tolist()))
    hot = {k: n_splits_for(n, cfg.max_block_size) for k, n in members.items()}
    part = _salt_batch(fat_block_rows(both, PAGE_PAYLOAD, keys[counts >= 2]), hot)
    ids = np.sort(features.take(pa.array(new))["url_hash"].to_numpy())
    return part, hot, (ids, resplit_keys(hot, members, new_keys, cfg.max_block_size))


def _reference_pairs(part: pa.Table, pair_cap: int, batch) -> dict:
    """(left_id, right_id) → block_key of the pairs a fold scores, one
    bucket at a time in plain Python: each (block_key, salt) bucket's
    members by url hash, its first ``pair_cap`` pairs in row-major order,
    those with a new member (all of them in a re-split key or a bucket over
    the cap); a pair formed in several buckets keeps the smallest key."""
    import itertools

    new, resplit = set(batch[0].tolist()), set(batch[1].tolist())
    buckets: dict = {}
    cols = ("block_key", "salt", "url_hash")
    for k, s, h in zip(*(part[c].to_pylist() for c in cols)):
        buckets.setdefault((k, s), []).append(h)
    out: dict = {}
    for (k, _), members in buckets.items():
        pairs = list(itertools.combinations(sorted(members), 2))
        whole = k in resplit or len(pairs) > pair_cap
        for left, right in pairs[:pair_cap]:
            if whole or left in new or right in new:
                out[(left, right)] = min(out.get((left, right), k), k)
    return out


def _by_pair(edges: pa.Table) -> dict:
    return {(r["left_id"], r["right_id"]): r for r in edges.to_pylist()}


@pytest.mark.parametrize("case", ["resplit", "cap", "prefilter", "empty"])
def test_pair_function_scores_the_pairs_a_batch_can_change(fold_pages, case):
    from entity_resolution_engine_ray.stages.score import _EDGE_SCHEMA, _pair_score_partition

    cfg = {
        "cap": PagesERConfig(pair_sample_cap=5),
        "prefilter": PagesERConfig(simhash_prefilter=0.9),
    }.get(case, PagesERConfig())
    rows = fold_pages["rows"]
    part, hot, batch = _fold_partition(fold_pages["features"], rows["corpus"], rows["resplit"], cfg)
    # the batch re-splits some hot keys and leaves others as they were
    assert 0 < len(batch[1]) < len(hot)
    if case == "empty":
        part = part.schema.empty_table()
    got, got_counts = _pair_score_partition(part, cfg, batch)
    full, full_counts = _pair_score_partition(part, cfg)
    # the cap and the prefilter count the same buckets and pairs either way
    assert got_counts == full_counts
    if case == "empty":
        assert got.num_rows == 0 and got.schema.equals(_EDGE_SCHEMA)
        return
    assert got.num_rows < full.num_rows
    got_rows, full_rows = _by_pair(got), _by_pair(full)
    if case == "cap":
        assert got_counts["dropped"] > 0
    if case == "prefilter":
        # each pair is picked at its smallest key before the rule, so every
        # row is the unfiltered one, and no pair with a new page is lost
        assert got_counts["prefiltered"] > 0
        assert all(full_rows[p] == r for p, r in got_rows.items())
        new = set(batch[0].tolist())
        assert {p for p in full_rows if new & set(p)} <= set(got_rows)
        return
    want = _reference_pairs(part, cfg.pair_sample_cap, batch)
    assert {p: r["block_key"] for p, r in got_rows.items()} == want
    # a pair scores the same in any block
    for p, r in got_rows.items():
        assert {**full_rows[p], "block_key": r["block_key"]} == r


def _rescore_touched_blocks(features, cfg, num_partitions=None, key_filter=None, fold_in=None,
                            batch=None, sink=None):
    """The fold's edges by the rule without ``batch``: every pair of the
    touched blocks rescored, unioned with the previous edges, then one
    ``_dedup_edges_partition``."""
    import ray

    from entity_resolution_engine_ray.stages import score
    from entity_resolution_engine_ray.stages.exchange import Blocks

    rescored, dropped = score.fused_edges_stage(
        features, cfg, num_partitions=num_partitions, key_filter=key_filter
    )
    tables = ray.get(list(rescored.refs) + list(fold_in.refs))
    edges = score._dedup_edges_partition(pa.concat_tables(tables, promote_options="default"))
    sink.write(edges, 0)
    return Blocks.of(edges), dropped


def _fold(prev: str, batch: str, out: str, cfg: PagesERConfig, reference: bool) -> str:
    from entity_resolution_engine_ray.pipelines import pages_er

    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(pages_er, "fused_edges_stage", _rescore_touched_blocks)
        run_pages_er_incremental(prev, batch, out, cfg)
    return out


def _assert_same_checkpoints(got: str, want: str) -> None:
    for stage, keys in SORT_KEYS.items():
        a, b = (pq.read_table(CheckpointStore(d).stage_dir(stage)) for d in (got, want))
        assert a.num_rows > 0
        assert a.schema.equals(b.schema, check_metadata=False), stage
        assert a.sort_by([(k, "ascending") for k in keys]).equals(
            b.sort_by([(k, "ascending") for k in keys])
        ), stage
    ma, mb = (CheckpointStore(d).manifest("edges") for d in (got, want))
    for field in ("dropped_pairs", "prefiltered_pairs", "prune_skipped", "touched_blocks"):
        assert ma[field] == mb[field], field


def _corpus_run(fold_pages, cfg: PagesERConfig, name: str) -> str:
    """The full run over the corpus pages, made once per ``name``."""
    out = fold_pages["root"] / name
    if not out.exists():
        run_pages_er(fold_pages["paths"]["corpus"], str(out), cfg)
    return str(out)


@pytest.mark.parametrize("batch,prefilter", [("resplit", None), ("cold", None), ("resplit", 0.9)])
def test_fold_scoring_the_batch_pairs_equals_rescoring_the_touched_blocks(
    ray_session, fold_pages, batch, prefilter
):
    """At the default caps, a fold that scores only the pairs its batch can
    change writes the checkpoints and edges manifest counts of a fold that
    rescores every pair of the touched blocks."""
    from entity_resolution_engine_ray.oracle.serial import n_splits_for

    features, rows = fold_pages["features"], fold_pages["rows"]
    def members(rows_) -> dict:
        return dict(zip(*np.unique(_keys(features, rows_), return_counts=True)))

    before, after = members(rows["corpus"]), members(np.r_[rows["corpus"], rows[batch]])
    touched_hot = [k for k in np.unique(_keys(features, rows[batch])) if after[k] > 64]
    resplit = [k for k in touched_hot if n_splits_for(before.get(k, 0), 64) != n_splits_for(after[k], 64)]
    if batch == "resplit":
        assert resplit
    else:
        assert not touched_hot and any(n > 64 for n in before.values())

    cfg = PagesERConfig(simhash_prefilter=prefilter)
    corpus = _corpus_run(fold_pages, cfg, f"corpus-{prefilter}")
    root, path = fold_pages["root"], fold_pages["paths"][batch]
    got = _fold(corpus, path, str(root / f"{batch}-{prefilter}"), cfg, reference=False)
    want = _fold(corpus, path, str(root / f"{batch}-{prefilter}-ref"), cfg, reference=True)
    _assert_same_checkpoints(got, want)
    if prefilter is not None:
        assert CheckpointStore(got).manifest("edges")["prefiltered_pairs"] > 0


def test_fold_chain_scoring_the_batch_pairs_at_the_default_caps(ray_session, fold_pages):
    """corpus + cold batch → + re-splitting batch: each link equals the
    chain that rescores every pair of the touched blocks."""
    cfg = PagesERConfig()
    corpus = _corpus_run(fold_pages, cfg, "corpus-None")
    root, paths = fold_pages["root"], fold_pages["paths"]
    got = _fold(corpus, paths["cold"], str(root / "chain-1"), cfg, reference=False)
    want = _fold(corpus, paths["cold"], str(root / "chain-1-ref"), cfg, reference=True)
    _assert_same_checkpoints(got, want)
    got = _fold(got, paths["resplit"], str(root / "chain-2"), cfg, reference=False)
    want = _fold(want, paths["resplit"], str(root / "chain-2-ref"), cfg, reference=True)
    _assert_same_checkpoints(got, want)
