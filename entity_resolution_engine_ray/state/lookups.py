"""Serving-side lookups over the pipeline's Parquet outputs.

The reference's FastAPI read endpoints (api/main.py:55-98 — entity by id,
lookup by source id via source_lineage, lineage fetch) become
predicate-pushdown Parquet reads over the checkpoint directories: no server
process, no database — the engine's outputs ARE the serving tables. Review
approve/reject mutations are a small JSON state file.
"""

from __future__ import annotations

import json
import os

import pyarrow.compute as pc
import pyarrow.dataset as pads


def _scan(path: str, filter_expr) -> list[dict]:
    ds = pads.dataset(path, format="parquet")
    return ds.to_table(filter=filter_expr).to_pylist()


def entity_by_id(out_dir: str, entity_id: str) -> dict | None:
    rows = _scan(os.path.join(out_dir, "entities"), pc.field("entity_id") == entity_id)
    return rows[0] if rows else None


def entity_by_url(out_dir: str, url: str) -> dict | None:
    """Source-id lookup via the lineage table (the source_lineage index)."""
    rows = _scan(os.path.join(out_dir, "lineage"), pc.field("url") == url)
    if not rows:
        return None
    return entity_by_id(out_dir, rows[0]["entity_id"])


def lineage_of_entity(out_dir: str, entity_id: str) -> list[dict]:
    return _scan(os.path.join(out_dir, "lineage"), pc.field("entity_id") == entity_id)


class ReviewQueue:
    """Review-item list/approve/reject state (the reference's
    llm_match_reviews mutations, api/main.py:112-196) as a JSON state file."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "review_queue.json")

    def _load(self) -> dict:
        if os.path.exists(self.path):
            with open(self.path) as f:
                return json.load(f)
        return {"items": {}}

    def _save(self, state: dict) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f, default=str)
        os.replace(tmp, self.path)

    def add(self, item_id: str, item: dict) -> None:
        state = self._load()
        state["items"][item_id] = {**item, "status": item.get("status", "PENDING")}
        self._save(state)

    def list(self, status: str | None = None) -> list[dict]:
        items = [{"id": k, **v} for k, v in self._load()["items"].items()]
        return [i for i in items if status is None or i["status"] == status]

    def approve(self, item_id: str) -> dict:
        return self._set_status(item_id, "APPROVED")

    def reject(self, item_id: str) -> dict:
        return self._set_status(item_id, "REJECTED")

    def _set_status(self, item_id: str, status: str) -> dict:
        state = self._load()
        if item_id not in state["items"]:
            raise KeyError(item_id)
        state["items"][item_id]["status"] = status
        self._save(state)
        return {"id": item_id, **state["items"][item_id]}
