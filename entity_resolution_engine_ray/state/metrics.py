"""Run metrics history, anomaly detection and quality gates.

Reference semantics preserved:
- ``evaluate_quality_gates`` — qa/quality_gates.py:53-127: global sums over
  per-entity metrics → gray_zone_rate ≤ max_gray_zone_rate, llm_review_rate
  ≤ max_llm_review_rate, llm_error_rate ≤ max_llm_error_rate, no HIGH
  anomalies → PASS/FAIL with failed_gates + gate_values.
- ``detect_anomalies`` — monitoring/anomaly_detector.py:19-130: z-score of 4
  rates vs the last-``lookback`` runs' baseline (needs ≥ 2 baseline rows);
  |z| ≥ z_threshold → anomaly, severity HIGH at |z| ≥ 3.0 else MEDIUM.
- ``build_quality_report`` — qa/quality_report.py:9-55: run snapshot of
  metrics + anomalies + review counts.

Storage is Parquet append-per-run under a history directory (the Postgres
``pipeline_run_metrics`` / ``anomaly_events`` tables become tiny
driver-side Parquet writes — metrics are per-run-small by construction).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from statistics import mean, stdev

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from entity_resolution_engine_ray.config import QualityGateConfig

_RATE_FIELDS = ["gray_zone_rate", "llm_review_rate", "auto_match_rate", "auto_reject_rate"]


# a key a row lacks: NaN, as in a pandas frame of the rows
_MISSING = float("nan")


def _is_bool(v) -> bool:
    return isinstance(v, (bool, np.bool_))


def _history_column(values: list) -> pa.Array:
    """One run-metrics history column, typed as a pandas frame of the rows
    typed it (the readers, ``_num`` among them, rely on these types):
    all bools → bool; all ints → int64; ints and floats, with or without
    None → float64, None and NaN null; anything else, a column of None
    included → string of each value's ``str`` (so None is ``"None"``)."""
    if values and all(_is_bool(v) for v in values):
        return pa.array(values, pa.bool_())
    nums = [v for v in values if v is not None]
    if nums and all(isinstance(v, (int, float, np.number)) and not _is_bool(v) for v in nums):
        if len(nums) == len(values) and all(isinstance(v, (int, np.integer)) for v in values):
            return pa.array(values, pa.int64())
        return pa.array([None if v is None else float(v) for v in values], pa.float64(), from_pandas=True)
    return pa.array([str(v) for v in values], pa.string())


class MetricsStore:
    """Append-only per-run metrics + anomaly history (one parquet file per
    run per table — a rerun never double-appends because files are keyed by
    run_id)."""

    def __init__(self, history_dir: str):
        self.dir = history_dir
        os.makedirs(os.path.join(history_dir, "run_metrics"), exist_ok=True)
        os.makedirs(os.path.join(history_dir, "anomaly_events"), exist_ok=True)

    def append_run_metrics(self, run_id: str, rows: list[dict]) -> None:
        """One Parquet file of ``rows`` plus ``run_id`` and ``recorded_at``
        columns, each column typed by ``_history_column`` — built with
        pyarrow directly (a pandas frame cost most of the append)."""
        names = list(dict.fromkeys(k for row in rows for k in row))
        cols = {k: [row.get(k, _MISSING) for row in rows] for k in names}
        cols["run_id"] = [run_id] * len(rows)
        cols["recorded_at"] = [time.time()] * len(rows)
        pq.write_table(
            pa.table({k: _history_column(v) for k, v in cols.items()}),
            os.path.join(self.dir, "run_metrics", f"{run_id}.parquet"),
        )

    def append_anomalies(self, run_id: str, rows: list[dict]) -> None:
        if not rows:
            return
        df = pd.DataFrame(rows)
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(self.dir, "anomaly_events", f"{run_id}.parquet"),
        )

    def _files(self, sub: str) -> list[str]:
        return [f for f in os.listdir(os.path.join(self.dir, sub)) if f.endswith(".parquet")]

    def run_ids(self) -> list[str]:
        """The runs with a metrics file, without reading one."""
        return [f[: -len(".parquet")] for f in self._files("run_metrics")]

    def _read_dir(self, sub: str) -> pd.DataFrame:
        files = [os.path.join(self.dir, sub, f) for f in self._files(sub)]
        if not files:
            return pd.DataFrame()
        return pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)

    def run_metrics(self) -> pd.DataFrame:
        return self._read_dir("run_metrics")

    def anomalies(self) -> pd.DataFrame:
        return self._read_dir("anomaly_events")


def _rates(row: dict) -> dict[str, float]:
    total = max(float(row.get("total_candidates") or 0), 1.0)
    return {
        "gray_zone_rate": float(row.get("gray_zone_sent_count") or 0) / total,
        "llm_review_rate": float(row.get("llm_review_count") or 0) / total,
        "auto_match_rate": float(row.get("auto_match_count") or 0) / total,
        "auto_reject_rate": float(row.get("auto_reject_count") or 0) / total,
    }


def detect_anomalies(
    store: MetricsStore,
    run_id: str,
    entity_type: str,
    lookback: int = 8,
    z_threshold: float = 2.0,
) -> list[dict]:
    if not set(store.run_ids()) - {run_id}:
        # no other run to compare with (a first run in its out_dir): skip
        # reading and converting the current run's own file
        return []
    hist = store.run_metrics()
    if hist.empty:
        return []
    current = hist[(hist["run_id"] == run_id) & (hist["entity_type"] == entity_type)]
    if current.empty:
        return []
    baseline = hist[(hist["run_id"] != run_id) & (hist["entity_type"] == entity_type)]
    baseline = baseline.sort_values("recorded_at", ascending=False).head(lookback)
    if len(baseline) < 2:
        return []
    cur = _rates(current.iloc[0].to_dict())
    base_rates = [_rates(r.to_dict()) for _, r in baseline.iterrows()]
    anomalies = []
    for metric in _RATE_FIELDS:
        values = [b[metric] for b in base_rates]
        sd = stdev(values)
        if sd == 0:
            continue
        z = (cur[metric] - mean(values)) / sd
        if abs(z) < z_threshold:
            continue
        anomalies.append(
            {
                "run_id": run_id,
                "entity_type": entity_type,
                "metric_name": metric,
                "current_value": cur[metric],
                "baseline_value": mean(values),
                "z_score": z,
                "severity": "HIGH" if abs(z) >= 3.0 else "MEDIUM",
            }
        )
    store.append_anomalies(f"{run_id}-{entity_type}", anomalies)
    return anomalies


def evaluate_quality_gates(
    metrics_rows: list[dict],
    high_severity_count: int = 0,
    config: QualityGateConfig | None = None,
    run_id: str | None = None,
) -> dict:
    config = config or QualityGateConfig()
    totals = {"total_candidates": 0.0, "gray_zone_sent_count": 0.0, "llm_review_count": 0.0,
              "llm_call_count": 0.0, "llm_error_count": 0.0}
    for row in metrics_rows:
        for k in totals:
            totals[k] += float(row.get(k) or 0)
    total = totals["total_candidates"]
    calls = totals["llm_call_count"]
    gray_zone_rate = totals["gray_zone_sent_count"] / total if total else 0.0
    llm_review_rate = totals["llm_review_count"] / total if total else 0.0
    llm_error_rate = totals["llm_error_count"] / calls if calls else 0.0

    failed = []
    if gray_zone_rate > config.max_gray_zone_rate:
        failed.append("max_gray_zone_rate")
    if llm_review_rate > config.max_llm_review_rate:
        failed.append("max_llm_review_rate")
    if llm_error_rate > config.max_llm_error_rate:
        failed.append("max_llm_error_rate")
    if config.fail_on_high_severity_anomalies and high_severity_count > 0:
        failed.append("high_severity_anomalies")
    return {
        "run_id": run_id or str(uuid.uuid4()),
        "status": "FAIL" if failed else "PASS",
        "failed_gates": failed,
        "gate_values": {
            "gray_zone_rate": gray_zone_rate,
            "llm_review_rate": llm_review_rate,
            "llm_error_rate": llm_error_rate,
            "high_severity_anomaly_count": int(high_severity_count),
            "total_candidates": int(total),
            "llm_call_count": int(calls),
        },
    }


def build_quality_report(store: MetricsStore, run_id: str) -> dict:
    """Run snapshot: metrics + anomalies grouped by (entity_type, severity)."""
    metrics = store.run_metrics()
    metrics = metrics[metrics["run_id"] == run_id] if not metrics.empty else metrics
    anomalies = store.anomalies()
    if not anomalies.empty:
        anomalies = anomalies[anomalies["run_id"].str.startswith(run_id)]
    by_sev = (
        anomalies.groupby(["entity_type", "severity"]).size().to_dict() if not anomalies.empty else {}
    )
    return {
        "run_id": run_id,
        "metrics": metrics.to_dict("records"),
        "anomaly_counts": {f"{k[0]}/{k[1]}": v for k, v in by_sev.items()},
        "generated_at": time.time(),
    }


TRIAGE_SYSTEM_PROMPT = (
    "You are a data quality analyst. "
    "Return JSON with summary, likely_causes, impact, suggested_actions, queries_to_run."
)

_TRIAGE_LIST_FIELDS = ("likely_causes", "suggested_actions", "queries_to_run")


def generate_triage_report(
    store: MetricsStore,
    run_id: str,
    entity_type: str,
    review_items: list[dict] | None = None,
    llm_client=None,
) -> dict:
    """Anomaly triage report (reference monitoring/llm_triage.py:52-135).

    With ``llm_client`` (a transport-injectable ``state.llm.LLMClient``),
    the anomalies + up to 20 review samples are summarized by the model
    (reference llm_triage.py:106-117: system prompt, sort_keys payload,
    TriageReport shape — summary / likely_causes / impact /
    suggested_actions / queries_to_run) and ANY failure — transport error,
    invalid JSON after the retry, missing fields — falls back to the
    deterministic template exactly like the reference's except path.
    Without a client, the deterministic path runs directly (no network in
    this environment), with the same shape: run/entity scope, per-metric
    deltas, a severity-ranked summary, and the review samples
    (llm_triage.py:75-90: left/right ids, matcher score, signals)."""
    anomalies = store.anomalies()
    if not anomalies.empty:
        anomalies = anomalies[
            anomalies["run_id"].str.startswith(run_id) & (anomalies["entity_type"] == entity_type)
        ]
    lines = []
    sev_rank = {"HIGH": 0, "MEDIUM": 1}
    rows = (
        sorted(anomalies.to_dict("records"), key=lambda r: (sev_rank.get(r["severity"], 9), r["metric_name"]))
        if not anomalies.empty
        else []
    )
    for r in rows:
        delta = r["current_value"] - r["baseline_value"]
        lines.append(
            f"[{r['severity']}] {r['metric_name']}: {r['current_value']:.3f} "
            f"(baseline {r['baseline_value']:.3f}, Δ{delta:+.3f}, z={r['z_score']:.2f})"
        )
    samples = []
    for item in (review_items or [])[:20]:
        cand = item.get("candidate", item)
        samples.append(
            {
                "left_id": next(
                    (cand[k] for k in cand if k.startswith(("alpha_", "left_"))), None
                ),
                "right_id": next(
                    (cand[k] for k in cand if k.startswith(("beta_", "right_"))), None
                ),
                "matcher_score": cand.get("confidence") or cand.get("score"),
                "signals": {
                    k: v
                    for k, v in cand.items()
                    if k in ("conflict_flags", "country_match", "start_year_delta",
                             "birth_year_alpha", "birth_year_beta", "date_delta_days",
                             "breakdown")
                },
            }
        )
    report = {
        "run_id": run_id,
        "entity_type": entity_type,
        "anomaly_count": len(rows),
        "summary": "; ".join(lines) if lines else "no anomalies detected",
        "review_samples": samples,
        "generated_by": "deterministic_fallback",
    }
    if llm_client is not None:
        payload = {
            "run_id": run_id,
            "entity_type": entity_type,
            "anomalies": rows,
            "review_samples": samples,
        }
        try:
            resp = llm_client.request_json(
                TRIAGE_SYSTEM_PROMPT, json.dumps(payload, sort_keys=True, default=str)
            )
            if not isinstance(resp.get("summary"), str) or not isinstance(
                resp.get("impact"), str
            ):
                raise ValueError("triage response missing summary/impact")
            report.update(
                {
                    "summary": resp["summary"],
                    "impact": resp["impact"],
                    **{f: list(resp.get(f) or []) for f in _TRIAGE_LIST_FIELDS},
                    "generated_by": "llm",
                }
            )
        except Exception:
            pass  # deterministic fallback stands (reference llm_triage.py:115-117)
    out_dir = os.path.join(store.dir, "triage_reports")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{run_id}-{entity_type}.json"), "w") as f:
        json.dump(report, f)
    return report


def monitoring_summary(metrics_rows: list[dict], review_items: list[dict] | None = None) -> dict:
    """Cross-entity run summary (reference api/main.py:244-334): integer
    totals, rate reconstruction, and the weighted ``avg*count`` latency
    re-aggregation (main.py:296-299) — per-entity averages can't be summed,
    so each row's average is expanded back to a total first."""
    int_fields = [
        "total_candidates", "auto_match_count", "auto_reject_count",
        "gray_zone_sent_count", "llm_match_count", "llm_no_match_count",
        "llm_review_count", "llm_call_count", "llm_error_count",
        "llm_invalid_json_retry_count",
    ]
    totals: dict[str, float] = {k: 0 for k in int_fields}
    totals["llm_total_latency_ms"] = 0.0
    def _num(v) -> float:
        # metrics history serializes None as the string "None"
        if v is None or v == "None" or v == "" or (isinstance(v, float) and pd.isna(v)):
            return 0.0
        return float(v)

    for row in metrics_rows:
        for k in int_fields:
            totals[k] += int(_num(row.get(k)))
        totals["llm_total_latency_ms"] += _num(row.get("llm_avg_latency_ms")) * int(
            _num(row.get("llm_call_count"))
        )
    total = totals["total_candidates"]
    calls = totals["llm_call_count"]
    rates = {
        "gray_zone_rate": totals["gray_zone_sent_count"] / total if total else 0.0,
        "llm_review_rate": totals["llm_review_count"] / total if total else 0.0,
        "llm_error_rate": totals["llm_error_count"] / calls if calls else 0.0,
    }
    llm_health = {
        "llm_call_count": int(calls),
        "llm_error_count": int(totals["llm_error_count"]),
        "llm_invalid_json_retry_count": int(totals["llm_invalid_json_retry_count"]),
        "llm_avg_latency_ms": totals["llm_total_latency_ms"] / calls if calls else None,
    }
    review_counts: dict[str, int] = {}
    for item in review_items or []:
        status = item.get("status", "PENDING")
        review_counts[status] = review_counts.get(status, 0) + 1
    return {
        "totals": totals,
        "rates": rates,
        "llm_health": llm_health,
        "review_counts": review_counts,
    }


def write_quality_gate_result(history_dir: str, result: dict) -> None:
    os.makedirs(os.path.join(history_dir, "quality_gates"), exist_ok=True)
    path = os.path.join(history_dir, "quality_gates", f"{result['run_id']}.json")
    with open(path, "w") as f:
        json.dump(result, f, default=str)
