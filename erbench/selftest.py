"""Self-test of the benchmark's output check.

    python3 erbench/selftest.py

At a tiny size (``--pages``, default 400) and for every workload: runs the
pipeline once, requires the check to pass on its output, then corrupts a
copy of the output on disk and requires the check to fail:

- drop one approved edge that the oracle also approves;
- flip one such edge's decision to ``reject``;
- move one page of the largest cluster into another cluster;
- on a full run (which must match the oracle exactly), flip one rejected
  edge to ``auto_approve``.

Prints one line per case and exits 0 only if every case behaves.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from erbench import run, workloads  # noqa: E402
from erbench.check import APPROVED, Reference, check_run  # noqa: E402


def _rewrite(stage_dir: str, table: pa.Table) -> None:
    for f in os.listdir(stage_dir):
        if f.endswith(".parquet"):
            os.remove(os.path.join(stage_dir, f))
    pq.write_table(table, os.path.join(stage_dir, "part-selftest.parquet"))


def _oracle_approved_row(edges: pa.Table, ref: Reference) -> int:
    """Index of an approved edge the oracle also approves."""
    oracle = {tuple(p) for p in np.frombuffer(ref.approved.tobytes(), np.int64).reshape(-1, 2)}
    approved = pc.is_in(edges["decision"], pa.array(APPROVED)).to_numpy(zero_copy_only=False)
    left, right = edges["left_id"].to_numpy(), edges["right_id"].to_numpy()
    for i in np.flatnonzero(approved):
        if (min(left[i], right[i]), max(left[i], right[i])) in oracle:
            return int(i)
    raise RuntimeError("no approved edge shared with the oracle")


def _first_rejected(edges: pa.Table) -> int:
    rejected = np.flatnonzero(pc.equal(edges["decision"], "reject").to_numpy(zero_copy_only=False))
    if not len(rejected):
        raise RuntimeError("no rejected edge to flip")
    return int(rejected[0])


def _drop_edge(out: str, ref: Reference) -> None:
    edges = pq.read_table(os.path.join(out, "edges"))
    keep = np.ones(edges.num_rows, dtype=bool)
    keep[_oracle_approved_row(edges, ref)] = False
    _rewrite(os.path.join(out, "edges"), edges.filter(pa.array(keep)))


def _set_decision(pick, value: str):
    def apply(out: str, ref: Reference) -> None:
        edges = pq.read_table(os.path.join(out, "edges"))
        dec = edges["decision"].to_pylist()
        dec[pick(edges, ref)] = value
        col = edges.schema.get_field_index("decision")
        _rewrite(
            os.path.join(out, "edges"),
            edges.set_column(col, "decision", pa.array(dec, pa.string())),
        )

    return apply


def _move_page(out: str, ref: Reference) -> None:
    """Move a page of the largest cluster into a different cluster."""
    labels = pq.read_table(os.path.join(out, "labeled"))
    lab = labels["cluster_label"].to_numpy().copy()
    values, counts = np.unique(lab, return_counts=True)
    big = values[np.argmax(counts)]
    lab[np.flatnonzero(lab == big)[0]] = values[values != big][0]
    col = labels.schema.get_field_index("cluster_label")
    _rewrite(
        os.path.join(out, "labeled"),
        labels.set_column(col, "cluster_label", pa.array(lab)),
    )


def cases(ref: Reference) -> list:
    out = [
        ("drop one oracle-approved edge", _drop_edge),
        ("flip one oracle-approved edge to reject", _set_decision(_oracle_approved_row, "reject")),
        ("move one page to another cluster", _move_page),
    ]
    if ref.exact:  # a full run must match the oracle exactly
        out.append(
            ("flip one rejected edge to auto_approve",
             _set_decision(lambda e, _ref: _first_rejected(e), "auto_approve"))
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Self-test of the benchmark's output check.")
    ap.add_argument("--pages", type=int, default=400)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (run.ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    work = os.path.join(run.ROOT, ".bench_work", "selftest")
    ok = True
    run.start_ray(run.ray_cpus())
    try:
        for name in workloads.WORKLOADS:
            workloads.prepare(run.ROOT, name, args.seed, args.pages)
            wl = run.Workload(name, args.seed, args.pages)
            wl.ensure_corpus_run()
            ref = Reference.load(wl.oracle, exact=not wl.fold)
            clean = os.path.join(work, name)
            shutil.rmtree(clean, ignore_errors=True)
            wl.call(clean)
            v = check_run(clean, ref)
            print(f"{name}: clean output passes: {v.ok} "
                  f"(decision_f1 {v.decision_f1:.5f}, cluster_f1 {v.cluster_f1:.5f}, "
                  f"extra approved {v.extra_approved}) {v.problems}")
            ok &= v.ok
            for case, corrupt in cases(ref):
                copy = clean + "-corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(clean, copy)
                corrupt(copy, ref)
                bad = check_run(copy, ref)
                print(f"{name}: {case}: flagged: {not bad.ok} {bad.problems}")
                ok &= not bad.ok
                shutil.rmtree(copy, ignore_errors=True)
    finally:
        run.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(run.RAY_TMP, ignore_errors=True)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
