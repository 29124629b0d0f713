"""Distributed gray-zone validation — the actor-pool counterpart of
state/router for the pages pipeline.

The reference routes gray-zone candidates through an LLM one call at a time
(validation/router.py:165-226). Distributed form: the scored-edge Dataset is
split on the gate decision; ONLY the ``review`` slice flows through a
``map_batches`` actor pool whose validator is constructed once per actor
(``__init__``) — model clients, prompt templates, caches are actor state.
Approved/rejected slices pass through untouched.

Caps and the circuit breaker are PER ACTOR here (window and budget divided
across the pool) — the exact global semantics of the reference live in
state/router.route_matches, which remains the driver-side path; this stage
is the throughput path where a per-actor approximation is the standard
trade (documented divergence).

No network in this environment: ``DeterministicStubValidator`` is the
default factory — a pure function of the pair features (useful for tests
and as the wiring template for a real client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa


@dataclass
class EdgeCandidate:
    left_id: int   # 64-bit url-hash id (edges are ids-only on the hot path)
    right_id: int
    score: float
    jaccard: float
    simhash_sim: float
    title_sim: float


class DeterministicStubValidator:
    """Pure-function stand-in for an LLM validator: approves when the exact
    Jaccard evidence is strong relative to the composite score."""

    def __call__(self, c: EdgeCandidate) -> str:  # MATCH | NO_MATCH | REVIEW
        if c.jaccard >= 0.6:
            return "MATCH"
        if c.jaccard < 0.3:
            return "NO_MATCH"
        return "REVIEW"


class GrayZoneValidatorPool:
    """Actor-pool batch validator over review-decision edges."""

    def __init__(
        self,
        validator_factory: Callable[[], Callable[[EdgeCandidate], str]] = DeterministicStubValidator,
        max_calls_per_actor: int = 1_000_000,
        breaker_window: int = 50,
        breaker_max_fail_rate: float = 0.2,
    ):
        self.validator = validator_factory()
        self.max_calls = max_calls_per_actor
        self.calls = 0
        self.window: list[bool] = []
        self.breaker_window = breaker_window
        self.breaker_max_fail_rate = breaker_max_fail_rate
        self.open = False

    def _breaker_open(self) -> bool:
        if self.open:
            return True
        if len(self.window) >= self.breaker_window:
            recent = self.window[-self.breaker_window :]
            if sum(1 for ok in recent if not ok) / len(recent) >= self.breaker_max_fail_rate:
                self.open = True
        return self.open

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        decisions = np.empty(n, dtype=object)
        ls = batch["left_id"].to_pylist()
        rs = batch["right_id"].to_pylist()
        scores = batch["score"].to_numpy(zero_copy_only=False)
        jac = batch["jaccard"].to_numpy(zero_copy_only=False)
        sim = batch["simhash_sim"].to_numpy(zero_copy_only=False)
        tit = batch["title_sim"].to_numpy(zero_copy_only=False)
        for i in range(n):
            if self.calls >= self.max_calls or self._breaker_open():
                decisions[i] = "review"  # budget/breaker fallback
                continue
            self.calls += 1
            try:
                verdict = self.validator(
                    EdgeCandidate(ls[i], rs[i], scores[i], jac[i], sim[i], tit[i])
                )
                self.window.append(True)
            except Exception:
                self.window.append(False)
                decisions[i] = "review"
                continue
            decisions[i] = {"MATCH": "llm_approve", "NO_MATCH": "llm_reject"}.get(verdict, "review")
        return batch.set_column(
            batch.schema.get_field_index("decision"),
            "decision",
            pa.array(decisions.tolist(), type=pa.string()),
        )


def validate_gray_zone(
    edges_ds,
    validator_factory: Callable = DeterministicStubValidator,
    concurrency=None,
    batch_size: int = 1024,
):
    """Split edges by decision; validate the ``review`` slice in an actor
    pool; union the slices back (approved edge set may grow by
    ``llm_approve``). The edges may be a Dataset or ``exchange.Blocks``;
    the actor pool runs as a Ray Data execution, so Blocks are wrapped in a
    Dataset here."""
    from entity_resolution_engine_ray.stages.block import default_pool_size
    from entity_resolution_engine_ray.stages.exchange import Blocks

    if isinstance(edges_ds, Blocks):
        edges_ds = edges_ds.to_dataset()

    review = edges_ds.filter(expr="decision == 'review'")
    rest = edges_ds.filter(expr="decision != 'review'")
    validated = review.map_batches(
        GrayZoneValidatorPool,
        fn_constructor_kwargs={"validator_factory": validator_factory},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or default_pool_size(),
    )
    return rest.union(validated)


def llm_validator_factory(transport, entity_type: str = "page"):
    """Bridge the LLM client semantics (state/llm: request shape, 12 s
    timeout, invalid-JSON retry, 3 response formats) into the distributed
    gray-zone pool. The returned factory runs in each actor's ``__init__``
    — one client per actor, batches of calls per ``__call__``; ``transport``
    must be picklable (it ships to the actors)."""

    def factory():
        from entity_resolution_engine_ray.state.llm import LLMClient, validate_pair

        client = LLMClient(transport)

        def validate(c: EdgeCandidate) -> str:
            result = validate_pair(
                entity_type,
                {"id": c.left_id},
                {"id": c.right_id},
                c.score,
                {
                    "jaccard": c.jaccard,
                    "simhash_sim": c.simhash_sim,
                    "title_sim": c.title_sim,
                },
                client,
            )
            if "llm_error" in result.risk_flags:
                raise RuntimeError("llm_error")  # pool's breaker counts failures
            return result.decision

        return validate

    return factory
