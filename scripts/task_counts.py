"""Ray tasks per pipeline call, by function name, from ``ray.timeline()``.

    python scripts/task_counts.py [--cpus 1] [--pages 2000] [--seed 1]

Starts its own Ray session with ``--cpus`` CPUs and builds two inputs from
``sources.pages.generate_pages(--pages, seed=--seed)``, laid out as the ER
benchmark lays out its ``dense`` and ``fold-labelprop`` workloads: the pages
in 8 Parquet shards, and a seeded random 10% of them as a one-file new
batch beside a 90% corpus in 8 shards. After one untimed warm-up call of
each, it makes ``CALLS`` (3) calls of each:

- ``dense``: ``run_pages_er`` over all the pages with the default config;
- ``fold-labelprop``: ``run_pages_er_incremental`` of the new batch into a
  completed labelprop run over the corpus.

Prints one JSON line with, per workload, the median over the calls of the
tasks that ran inside a call (``tasks_per_call``, and per function name
``by_name``), of their summed execution time (``task_exec_ms``: each
task's span in the timeline, argument fetch and output store included) and
of the call's wall time (``wall_ms``). Nothing is written outside a
temporary directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FOLD_NEW_FRAC = 0.10
# calls per workload the medians are taken over
CALLS = 3
# task events reach the GCS in batches, about once a second
EVENT_FLUSH_S = 3.0


def _write_shards(table: pa.Table, out_dir: str, n_shards: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    rows = max(1, -(-table.num_rows // n_shards))
    for i, start in enumerate(range(0, table.num_rows, rows)):
        pq.write_table(table.slice(start, rows), os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir


def make_inputs(work: str, n_pages: int, seed: int) -> dict[str, str]:
    """The dense pages, and a seeded 90% corpus / 10% new batch split of
    them (at random, not by row order: the generator emits its hot block
    last)."""
    from entity_resolution_engine_ray.sources.pages import generate_pages

    pages, _ = generate_pages(n_pages, seed=seed)
    rng = np.random.default_rng([seed, 79])
    new = np.zeros(pages.num_rows, dtype=bool)
    new[rng.choice(pages.num_rows, size=int(round(pages.num_rows * FOLD_NEW_FRAC)), replace=False)] = True
    return {
        "pages": _write_shards(pages, os.path.join(work, "pages"), 8),
        "corpus": _write_shards(pages.filter(pa.array(~new)), os.path.join(work, "corpus"), 8),
        "new": _write_shards(pages.filter(pa.array(new)), os.path.join(work, "new"), 1),
    }


def _calls(work: str, inputs: dict[str, str]) -> dict:
    """name → a function making one call into a fresh output directory."""
    from entity_resolution_engine_ray.config import PagesERConfig
    from entity_resolution_engine_ray.pipelines.pages_er import (
        run_pages_er,
        run_pages_er_incremental,
    )

    lp = PagesERConfig(cluster_method="labelprop")
    corpus_run = os.path.join(work, "corpus_run")
    run_pages_er(inputs["corpus"], corpus_run, lp)
    return {
        "dense": lambda out: run_pages_er(inputs["pages"], out, PagesERConfig()),
        "fold-labelprop": lambda out: run_pages_er_incremental(corpus_run, inputs["new"], out, lp),
    }


def _task_events(t0: float, t1: float, events: list) -> list:
    """The timeline's task spans that start inside [t0, t1] (seconds)."""
    lo, hi = t0 * 1e6, t1 * 1e6
    return [
        e for e in events
        if e.get("ph") == "X" and str(e.get("cat", "")).startswith("task::") and lo <= e["ts"] <= hi
    ]


def summarize(windows: list[tuple[float, float]], events: list) -> dict:
    """Medians over the calls' windows of their task counts, task time and
    wall time."""
    counts, by_name, exec_ms = [], [], []
    for t0, t1 in windows:
        tasks = _task_events(t0, t1, events)
        counts.append(len(tasks))
        by_name.append(Counter(e["cat"][len("task::"):] for e in tasks))
        exec_ms.append(sum(e["dur"] for e in tasks) / 1e3)
    names = sorted(set().union(*by_name))
    return {
        "tasks_per_call": statistics.median(counts),
        "by_name": {n: statistics.median(c[n] for c in by_name) for n in names},
        "task_exec_ms": round(statistics.median(exec_ms), 1),
        "wall_ms": round(statistics.median((t1 - t0) * 1e3 for t0, t1 in windows), 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    import ray
    from ray.data import DataContext

    work = tempfile.mkdtemp(prefix="task_counts_")
    try:
        inputs = make_inputs(work, args.pages, args.seed)
        ray.init(
            num_cpus=args.cpus,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            object_store_memory=512 * 1024 * 1024,
        )
        DataContext.get_current().enable_progress_bars = False
        calls = _calls(work, inputs)
        windows: dict[str, list[tuple[float, float]]] = {name: [] for name in calls}
        for rep in range(CALLS + 1):
            for name, call in calls.items():
                out = os.path.join(work, f"{name}-{rep}")
                t0 = time.time()
                call(out)
                t1 = time.time()
                shutil.rmtree(out, ignore_errors=True)
                if rep:  # the first round warms the workers up
                    windows[name].append((t0, t1))
        time.sleep(EVENT_FLUSH_S)
        events = ray.timeline()
        report = {"cpus": args.cpus, "pages": args.pages, "seed": args.seed, "calls": CALLS}
        report.update({name: summarize(w, events) for name, w in windows.items()})
        print(json.dumps(report))
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
