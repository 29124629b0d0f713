"""Engine configuration.

Dataclass analogs of the reference's YAML config surface
(``config/thresholds.yml``, ``llm_validation.yml``, ``quality_gates.yml`` —
see SURVEY.md §2.2/§2.4/§2.6), plus the pages-ER pipeline parameters the
reference has no equivalent for (blocking / shuffle / skew knobs).

Everything is a plain frozen dataclass so configs hash deterministically into
checkpoint manifests (resume invalidates when parameters change).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


def config_hash(cfg) -> str:
    """Stable hash of a (nested) dataclass config for checkpoint manifests."""
    return hashlib.md5(json.dumps(asdict(cfg), sort_keys=True, default=str).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class GrayZone:
    low: float
    high: float


@dataclass(frozen=True)
class ValidationConfig:
    """Three-way gate + optional LLM routing (reference llm_validation.yml +
    validation/router.py:97-256). LLM disabled by default; the pipeline is
    fully correct without it."""

    enabled: bool = False
    max_calls_per_entity_type_per_run: int = 200
    circuit_breaker_window: int = 50
    circuit_breaker_max_fail_rate: float = 0.20
    circuit_breaker_max_invalid_json_rate: float = 0.10
    fallback_mode_when_llm_unhealthy: str = "auto_approve"  # or "review"
    gray_zones: dict = field(
        default_factory=lambda: {
            "team": GrayZone(0.78, 0.88),
            "player": GrayZone(0.75, 0.90),
            "competition": GrayZone(0.76, 0.86),
            "season": GrayZone(0.70, 0.90),
            "match": GrayZone(0.70, 0.90),
            "page": GrayZone(0.70, 0.85),
        }
    )

    def threshold_for(self, entity_type: str) -> GrayZone:
        return self.gray_zones[entity_type]


@dataclass(frozen=True)
class Thresholds:
    """Reference config/thresholds.yml."""

    team_sim_threshold: float = 0.70
    comp_sim_threshold: float = 0.75
    dob_partial_score: float = 0.6
    confidence_autopass: float = 0.85
    confidence_review: float = 0.60


@dataclass(frozen=True)
class QualityGateConfig:
    """Reference config/quality_gates.yml + qa/quality_gates.py:53-127."""

    max_llm_review_rate: float = 0.15
    max_gray_zone_rate: float = 0.35
    fail_on_high_severity_anomalies: bool = True
    max_llm_error_rate: float = 0.05


@dataclass(frozen=True)
class PagesERConfig:
    """Flagship pages record-linkage pipeline parameters.

    Blocking: normalized-token k-shingles → MinHash(num_perm) → LSH bands.
    Candidate pairs within a band bucket; hot buckets capped at
    ``max_block_size`` via deterministic sampling with logged drops.
    Scoring: weighted token-Jaccard + SimHash + Jaro-Winkler(title).
    Gate: three-way (reject < low ≤ gray < high ≤ approve); gray resolves via
    ``fallback_mode`` (auto_approve default, mirroring the reference router's
    LLM-disabled path, validation/router.py:81-94).
    Clustering: connected components over approved edges — the driver-side
    vectorised kernel up to ``stages/cluster.DRIVER_EDGE_LIMIT`` edges,
    distributed min-label propagation above it or when ``cluster_method``
    is "labelprop".
    """

    shingle_k: int = 3
    num_perm: int = 63
    bands: int = 21                   # 21 bands × 3 rows: ~99.9% recall at J=0.65
    max_block_size: int = 64          # cap on bucket membership before salting/splitting
    pair_sample_cap: int = 2048       # max pairs emitted per (possibly split) bucket
    weight_jaccard: float = 0.5
    weight_simhash: float = 0.3
    weight_title: float = 0.2
    # calibrated on the seeded fixture: negative candidate pairs top out ≈0.68,
    # positives bottom out ≈0.71 (see tests/test_oracle.py score-separation pin)
    gate_low: float = 0.70
    gate_high: float = 0.85
    fallback_mode: str = "auto_approve"
    # optional SimHash Hamming prefilter (r4 verdict lever): candidate pairs
    # with simhash similarity below this threshold are dropped (counted in
    # prefiltered_pairs) WITHOUT paying the exact-Jaccard intersection or the
    # title kernel. This is an APPROXIMATION knob for junk-heavy corpora:
    # a pair can only change decision if its true score could reach
    # gate_low, which at the default weights needs jaccard ≥
    # (gate_low − w_s·sim − w_t)/w_j — at sim < 0.55 that means J ≥ 0.67
    # while E[sim | J=0.67] ≈ 0.73 (σ ≈ 0.054 over 64 bits), a > 3σ
    # outlier. The serial oracle applies the IDENTICAL rule, so
    # engine == oracle parity is exact with the knob on or off. Default
    # OFF: on the dense seeded fixture 0.0% of candidate pairs fall below
    # 0.8 similarity, so there is nothing to prune there (measured r5);
    # real boilerplate-heavy web corpora are where it pays.
    simhash_prefilter: float | None = None
    # optional distributed gray-zone validation (stages/validate) over
    # decision == "review" edges; off by default (reference parity: the
    # pipeline must be fully correct without it)
    enable_llm_validation: bool = False
    # "auto": driver connected-components kernel up to
    # stages/cluster.DRIVER_EDGE_LIMIT approved edges, distributed label
    # propagation above it; "labelprop": always distributed.
    cluster_method: str = "auto"  # "auto" | "labelprop"
    # labelprop rounds are O(|V|) traffic (stationary edges + pointer
    # jumping) — a generous budget is cheap; the changed-count early exit
    # stops at convergence (measured: 19 rounds on a 2M-edge fixture)
    max_cc_iterations: int = 50

    def __post_init__(self):
        # cap 0 would silently drop EVERY pair (and a cap-starved partition
        # loses its dropped-count row); catch the misconfiguration at
        # construction, not deep inside a Ray task
        if self.pair_sample_cap < 1:
            raise ValueError(
                f"pair_sample_cap must be >= 1 (got {self.pair_sample_cap})"
            )
        if self.max_block_size < 2:
            raise ValueError(
                f"max_block_size must be >= 2 (got {self.max_block_size})"
            )
        if self.cluster_method not in ("auto", "labelprop"):
            raise ValueError(
                "cluster_method must be 'auto' or 'labelprop' "
                f"(got {self.cluster_method!r})"
            )
        if self.bands > self.num_perm or self.num_perm % self.bands != 0:
            raise ValueError(
                f"num_perm ({self.num_perm}) must be a multiple of bands ({self.bands})"
            )
