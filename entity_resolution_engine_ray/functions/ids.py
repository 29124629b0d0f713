"""Deterministic entity ids and lineage documents.

Reference semantics: ``generate_ues_id(prefix, alpha_id, beta_id)`` =
``f"{prefix}-{md5(f'{prefix}-{alpha_id}-{beta_id}')[:8]}"`` (reference
``ues_writer/writer.py:13-16``, determinism pinned by
``tests/test_basic_mapping.py:63-66``) and the lineage document shape of
``lineage/lineage_builder.py:11-19``.

In the Ray engine lineage is an Arrow struct column (not a JSON blob); the
flattened ``source_lineage`` rows are produced by exploding it (reference
``ues_writer/writer.py:56-67``).
"""

from __future__ import annotations

import hashlib
from typing import Any


def generate_ues_id(prefix: str, alpha_id: Any, beta_id: Any) -> str:
    digest = hashlib.md5(f"{prefix}-{alpha_id}-{beta_id}".encode()).hexdigest()[:8]
    return f"{prefix}-{digest}"


def cluster_entity_id(prefix: str, member_keys: list[str]) -> str:
    """Deterministic id for an N-member cluster: md5 over the sorted member
    keys (generalizes ``generate_ues_id`` beyond the 2-source case)."""
    digest = hashlib.md5(("\x1f".join(sorted(member_keys))).encode()).hexdigest()[:12]
    return f"{prefix}-{digest}"


def build_lineage(
    source_type: str,
    alpha_id: Any,
    beta_id: Any,
    confidence: float,
    breakdown: dict[str, Any],
) -> dict[str, Any]:
    """Two-source lineage document (reference shape)."""
    return {
        "sources": [
            {"source": "ALPHA", "id": str(alpha_id)},
            {"source": "BETA", "id": str(beta_id)},
        ],
        "confidence": confidence,
        "confidence_breakdown": breakdown,
        "entity_type": source_type,
    }

