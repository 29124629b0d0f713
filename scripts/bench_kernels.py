"""Per-kernel microbenchmarks of the pages pipeline's hot steps.

    python scripts/bench_kernels.py [--reps 7]

Prints one JSON object:

- ``extract_ms_per_batch``: ``extract.extract_batch`` on one all-ASCII
  1,024-doc batch of pages;
- ``featurize_ms_per_batch``: ``block.featurize_batch`` on one extracted
  1,024-doc batch, all-ASCII (``ascii``) and with half the documents
  carrying non-ASCII words (``mixed``, the fallback tokenizer);
- ``pair_score_ms``: ``score._pair_score_partition`` on the 2,000-page
  ``dense`` fixture (seed 7) as one partition — the pruned, salted fat
  rows the pair exchange hands its score task on one CPU;
- the partition's fat rows and the pairs it scores;
- ``merge_partition_ms``: ``merge.merge_partition`` on the same fixture's
  labeled table (each page's cluster from the partition's approved edges)
  as one partition, and its row and cluster counts.

Each figure is the median of ``--reps`` timed calls after one warm call,
in this process, with no Ray session.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from entity_resolution_engine_ray.config import PagesERConfig  # noqa: E402
from entity_resolution_engine_ray.oracle.serial import n_splits_for  # noqa: E402
from entity_resolution_engine_ray.sources.pages import generate_pages  # noqa: E402
from entity_resolution_engine_ray.stages.block import (  # noqa: E402
    FEATURIZE_BATCH_ROWS,
    fat_block_rows,
    featurize_batch,
    featurize_pages,
)
from entity_resolution_engine_ray.pipelines.pages_er import _approved_ids  # noqa: E402
from entity_resolution_engine_ray.stages.cluster import connected_roots, label_of  # noqa: E402
from entity_resolution_engine_ray.stages.extract import extract_batch  # noqa: E402
from entity_resolution_engine_ray.stages.merge import _META_COLS, merge_partition  # noqa: E402
from entity_resolution_engine_ray.stages.pairs import _salt_batch  # noqa: E402
from entity_resolution_engine_ray.stages.score import PAGE_PAYLOAD, _pair_score_partition  # noqa: E402


def _median_ms(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def score_partition(features: pa.Table, cfg: PagesERConfig) -> pa.Table:
    """The fat rows of a features table as one pair partition: the band
    explode pruned to keys with ≥ 2 members, hot keys salted."""
    keys, counts = np.unique(
        features["band_keys"].combine_chunks().flatten().to_numpy(), return_counts=True
    )
    cap = cfg.max_block_size
    hot = {int(k): n_splits_for(int(n), cap) for k, n in zip(keys, counts) if n > cap}
    fat = fat_block_rows(features, PAGE_PAYLOAD, keys[counts >= 2])
    return _salt_batch(fat, hot)


def labeled_table(features: pa.Table, edges: pa.Table) -> pa.Table:
    """The merge stage's input: each page's metadata and its cluster label
    over the approved ``edges`` (its own url hash when it has none)."""
    approved = _approved_ids(edges)
    nodes, roots = connected_roots(approved["left_id"].to_numpy(), approved["right_id"].to_numpy())
    labels = label_of(nodes, roots, features["url_hash"].to_numpy())
    return features.select(_META_COLS).append_column("cluster_label", pa.array(labels, pa.int64()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args(argv)
    cfg = PagesERConfig()
    out: dict = {"featurize_ms_per_batch": {}}
    for kind, frac in (("ascii", 0.0), ("mixed", 0.5)):
        pages, _ = generate_pages(FEATURIZE_BATCH_ROWS, seed=0, hot_frac=0.0, nonascii_frac=frac)
        if kind == "ascii":
            out["extract_ms_per_batch"] = _median_ms(lambda: extract_batch(pages), args.reps)
        batch = extract_batch(pages)
        out["featurize_ms_per_batch"][kind] = _median_ms(lambda: featurize_batch(batch, cfg), args.reps)
    features = featurize_pages(generate_pages(2000, seed=7)[0], cfg)
    part = score_partition(features, cfg)
    edges, _ = _pair_score_partition(part, cfg)
    out["pair_score_ms"] = _median_ms(lambda: _pair_score_partition(part, cfg), args.reps)
    out["pair_score_fat_rows"] = part.num_rows
    out["pair_score_pairs"] = edges.num_rows
    labeled = labeled_table(features, edges)
    out["merge_partition_ms"] = _median_ms(lambda: merge_partition(labeled), args.reps)
    out["merge_rows"] = labeled.num_rows
    out["merge_clusters"] = len(np.unique(labeled["cluster_label"].to_numpy()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
