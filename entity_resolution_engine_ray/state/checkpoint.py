"""Per-stage Parquet checkpoints with ``_DONE`` manifests (resume support).

Replaces the reference's destroy-and-restart model (``UESWriter.reset``,
reference ues_writer/writer.py:25-37): each pipeline stage writes its output
Dataset to ``<out_dir>/<stage>/`` atomically (write to a temp sibling dir,
rename, then write ``_DONE``), stamped with a hash of the stage parameters.
A killed job re-run skips every stage whose ``_DONE`` manifest matches and
reads the checkpoint instead — the north rule's "resumes from the last
completed stage".

A write executes its stage once and hands the materialized blocks back to
the caller, so a run reads Parquet only for the stages it resumes; the files
are written from those same blocks, one small task per block, and a read
is one ``pq.read_table`` task per part file — neither starts a Ray Data
execution.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow.parquet as pq
import ray
import ray.data as rd

from entity_resolution_engine_ray.stages.exchange import _empty_block_like, _ensure_table

DONE_FILE = "_DONE"


@ray.remote
def _write_block(block, path: str) -> None:
    pq.write_table(_ensure_table(block), path)


@ray.remote
def _read_part(path: str):
    return pq.read_table(path)


class CheckpointStore:
    def __init__(self, out_dir: str, enabled: bool = True):
        self.out_dir = out_dir
        self.enabled = enabled
        if enabled:
            os.makedirs(out_dir, exist_ok=True)

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.out_dir, stage)

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self.stage_dir(stage), DONE_FILE)

    def is_done(self, stage: str, params_hash: str) -> bool:
        if not self.enabled:
            return False
        path = self._manifest_path(stage)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as f:
                manifest = json.load(f)
        except (json.JSONDecodeError, OSError):
            return False
        return manifest.get("params_hash") == params_hash

    def _part_files(self, stage: str) -> list[str]:
        """The stage's Parquet part files, in name order."""
        d = self.stage_dir(stage)
        return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]

    def read(self, stage: str) -> rd.Dataset:
        """The stage checkpoint as a Dataset over in-memory blocks: one
        ``pq.read_table`` task per part file, so its consumers hand the
        block refs on without a Ray Data execution. A zero-row checkpoint
        is its one typed zero-row file."""
        return rd.from_arrow_refs([_read_part.remote(p) for p in self._part_files(stage)])

    def num_rows(self, stage: str) -> int:
        """The checkpoint's row count from its Parquet footers."""
        return sum(pq.read_metadata(p).num_rows for p in self._part_files(stage))

    def manifest(self, stage: str) -> dict:
        with open(self._manifest_path(stage)) as f:
            return json.load(f)

    def write(self, ds: rd.Dataset, stage: str, params_hash: str, extra: dict | None = None) -> rd.Dataset:
        """Execute ``ds`` once, store its blocks as the stage checkpoint and
        return the materialized Dataset, so the next stage consumes the
        in-memory blocks instead of reading the files back.

        Each non-empty block becomes ``part-{i:05d}.parquet``; a zero-row
        Dataset leaves one typed zero-row file, so a resumed run still sees
        the schema. A failed write task raises before ``_DONE`` exists."""
        ds = ds.materialize()
        final = self.stage_dir(stage)
        tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp)
        refs = [
            ref
            for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks
            if meta.num_rows != 0
        ]
        if refs:
            ray.get(
                [
                    _write_block.remote(ref, os.path.join(tmp, f"part-{i:05d}.parquet"))
                    for i, ref in enumerate(refs)
                ]
            )
        else:
            pq.write_table(_empty_block_like(ds), os.path.join(tmp, "part-00000.parquet"))
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        manifest = {
            "stage": stage,
            "params_hash": params_hash,
            "completed_at": time.time(),
            **(extra or {}),
        }
        with open(self._manifest_path(stage), "w") as f:
            json.dump(manifest, f)
        return ds

    def write_table(self, table, stage: str, params_hash: str, extra: dict | None = None) -> None:
        """Small driver-side table checkpoint (metrics, gates)."""
        final = self.stage_dir(stage)
        tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(table, os.path.join(tmp, "part-00000.parquet"))
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        with open(self._manifest_path(stage), "w") as f:
            json.dump({"stage": stage, "params_hash": params_hash, "completed_at": time.time(), **(extra or {})}, f)
