"""Output check: the engine's run against the serial oracle and the truth.

Three F1 figures per run:

- ``decision_f1``: F1 of the engine's approved ``(left_id, right_id)`` set
  against the oracle's approved set at the same blocking key (the paper's
  measure; a run below 0.99 fails);
- ``cluster_f1``: B-cubed F1 of the engine's ``cluster_label`` partition
  against the oracle's clusters;
- ``truth_f1``: B-cubed F1 of the same partition against the generator's
  ``doc_id``, which does not depend on the in-package oracle.

B-cubed F1 averages precision and recall per page. The pairwise
co-membership F1 of the same partitions (``*_pairwise_f1``, in the run
detail) swings with the seed: a few false merges into the 5% hot cluster
dominate its pair counts at a few thousand pages.

A full run must also match the oracle exactly (the engine's parity
contract), so one dropped or flipped approved edge fails the check. A fold
(``run_pages_er_incremental``) keeps the default caps and is known to
approve edges a full run does not; it must still contain every edge the
oracle approves and keep every oracle cluster whole, and the extra edges
show in its ``decision_f1`` and ``cluster_f1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

APPROVED = ("auto_approve", "gray_approve", "llm_approve")
MIN_DECISION_F1 = 0.99


@dataclass
class Reference:
    """What a run is checked against, loaded once per benchmark run."""

    approved: np.ndarray  # sorted unique (min_id, max_id) pairs, as void rows
    urls: np.ndarray      # every input url
    oracle_cluster: np.ndarray  # aligned with urls
    truth_doc: np.ndarray       # aligned with urls
    exact: bool                 # full run: approved set must equal the oracle's

    @classmethod
    def load(cls, cache: str, exact: bool) -> "Reference":
        o = pq.read_table(os.path.join(cache, "oracle_approved.parquet"))
        clusters = pq.read_table(os.path.join(cache, "oracle_clusters.parquet")).to_pandas()
        truth = pq.read_table(os.path.join(cache, "truth.parquet")).to_pandas()
        merged = clusters.merge(truth, on="url", how="inner", validate="one_to_one")
        if len(merged) != len(clusters) or len(merged) != len(truth):
            raise ValueError("oracle clusters and truth cover different urls")
        return cls(
            approved=pair_rows(o["left_id"].to_numpy(), o["right_id"].to_numpy()),
            urls=merged["url"].to_numpy(),
            oracle_cluster=merged["cluster"].to_numpy(),
            truth_doc=merged["doc_id"].to_numpy(),
            exact=exact,
        )


@dataclass
class Verdict:
    ok: bool
    decision_f1: float
    cluster_f1: float
    cluster_pairwise_f1: float
    truth_f1: float
    truth_pairwise_f1: float
    approved: int
    extra_approved: int    # engine-approved pairs the oracle does not approve
    missing_approved: int  # oracle-approved pairs the engine does not approve
    problems: list[str] = field(default_factory=list)


def pair_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted unique unordered pairs as one-element void rows, so that numpy
    set operations compare whole pairs."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    pairs = np.ascontiguousarray(
        np.stack([np.minimum(left, right), np.maximum(left, right)], axis=1)
    )
    return np.unique(pairs.view(np.dtype((np.void, 16))).ravel())


def set_f1(found: np.ndarray, expected: np.ndarray) -> float:
    if len(found) + len(expected) == 0:
        return 1.0
    hits = len(np.intersect1d(found, expected, assume_unique=True))
    return 2.0 * hits / (len(found) + len(expected))


def _contingency(pred: np.ndarray, true: np.ndarray):
    """Cells of the contingency table of two partitions of the same items:
    (items per cell, its predicted cluster's size, its true cluster's size),
    plus both partitions' cluster sizes."""
    p = pd.factorize(pred)[0]
    t = pd.factorize(true)[0]
    width = int(t.max()) + 1
    joint = pd.Series(p.astype(np.int64) * width + t).value_counts()
    codes = joint.index.to_numpy()
    p_sizes, t_sizes = np.bincount(p), np.bincount(t)
    return (
        joint.to_numpy().astype(np.float64),
        p_sizes[codes // width].astype(np.float64),
        t_sizes[codes % width].astype(np.float64),
        p_sizes.astype(np.float64),
        t_sizes.astype(np.float64),
    )


def pairwise_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """Pairwise co-membership F1: a pair of items counts when both items
    share a label."""
    if len(pred) == 0:
        return 1.0
    cell, _, _, p_sizes, t_sizes = _contingency(pred, true)

    def pairs(n: np.ndarray) -> float:
        return float((n * (n - 1) / 2).sum())

    denom = pairs(p_sizes) + pairs(t_sizes)
    return 1.0 if denom == 0 else 2.0 * pairs(cell) / denom


def bcubed_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """B-cubed F1: per-item precision (share of the item's predicted cluster
    that is truly with it) and recall (share of its true cluster predicted
    with it), averaged over items."""
    if len(pred) == 0:
        return 1.0
    cell, cell_p, cell_t, _, _ = _contingency(pred, true)
    precision = float((cell * cell / cell_p).sum() / len(pred))
    recall = float((cell * cell / cell_t).sum() / len(pred))
    return 2 * precision * recall / (precision + recall)


def read_approved(out_dir: str) -> np.ndarray:
    edges = pq.read_table(
        os.path.join(out_dir, "edges"), columns=["left_id", "right_id", "decision"]
    )
    edges = edges.filter(pc.is_in(edges["decision"], pa.array(APPROVED)))
    return pair_rows(edges["left_id"].to_numpy(), edges["right_id"].to_numpy())


def read_labels(out_dir: str) -> pd.DataFrame:
    return pq.read_table(
        os.path.join(out_dir, "labeled"), columns=["url", "cluster_label"]
    ).to_pandas()


def check_outputs(approved: np.ndarray, labels: pd.DataFrame, ref: Reference) -> Verdict:
    problems = []
    if labels["url"].duplicated().any():
        problems.append("a url carries more than one cluster label")
    aligned = pd.DataFrame({"url": ref.urls}).merge(labels, on="url", how="left")
    if len(labels) != len(ref.urls) or aligned["cluster_label"].isna().any():
        problems.append("labeled output does not cover exactly the input urls")
        aligned["cluster_label"] = aligned["cluster_label"].fillna(-1)
    pred = aligned["cluster_label"].to_numpy()
    missing = len(np.setdiff1d(ref.approved, approved, assume_unique=True))
    extra = len(np.setdiff1d(approved, ref.approved, assume_unique=True))
    v = Verdict(
        ok=False,
        decision_f1=set_f1(approved, ref.approved),
        cluster_f1=bcubed_f1(pred, ref.oracle_cluster),
        cluster_pairwise_f1=pairwise_f1(pred, ref.oracle_cluster),
        truth_f1=bcubed_f1(pred, ref.truth_doc),
        truth_pairwise_f1=pairwise_f1(pred, ref.truth_doc),
        approved=len(approved),
        extra_approved=extra,
        missing_approved=missing,
        problems=problems,
    )
    if v.decision_f1 < MIN_DECISION_F1:
        problems.append(f"decision_f1 {v.decision_f1:.5f} < {MIN_DECISION_F1}")
    if missing:
        problems.append(f"{missing} oracle-approved pairs not approved")
    if ref.exact and extra:
        problems.append(f"{extra} approved pairs the oracle rejects or never pairs")
    if ref.exact and v.cluster_f1 != 1.0:
        problems.append(f"clusters differ from the oracle's (cluster_f1 {v.cluster_f1:.5f})")
    # extra edges can only merge oracle clusters, never split one
    split = pd.Series(pred).groupby(ref.oracle_cluster).nunique().gt(1).sum()
    if split:
        problems.append(f"{split} oracle clusters split across engine clusters")
    v.ok = not problems
    return v


def check_run(out_dir: str, ref: Reference) -> Verdict:
    return check_outputs(read_approved(out_dir), read_labels(out_dir), ref)
