"""Per-stage Parquet checkpoints with ``_DONE`` manifests (resume support).

Replaces the reference's destroy-and-restart model (``UESWriter.reset``,
reference ues_writer/writer.py:25-37): each pipeline stage writes its output
Dataset to ``<out_dir>/<stage>/`` atomically (write to a temp sibling dir,
rename, then write ``_DONE``), stamped with a hash of the stage parameters.
A killed job re-run skips every stage whose ``_DONE`` manifest matches and
reads the checkpoint instead — the north rule's "resumes from the last
completed stage".

Both sides deal in ``stages/exchange.Blocks``, the block list the pipeline
stages hand each other. A write takes Blocks (or executes a Dataset once),
writes each non-empty block with one small task and hands the same Blocks
back, so a run reads Parquet only for the stages it resumes. A read is one
``pq.read_table`` task per part file, with the row counts from the Parquet
footers. Neither builds a Dataset or starts a Ray Data execution.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager

import pyarrow.parquet as pq
import ray

from entity_resolution_engine_ray.stages.exchange import Blocks, _ensure_table, as_blocks

DONE_FILE = "_DONE"


@ray.remote
def _write_block(block, path: str) -> None:
    pq.write_table(_ensure_table(block), path)


@ray.remote
def _read_part(path: str):
    return pq.read_table(path)


class CheckpointStore:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.out_dir, stage)

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self.stage_dir(stage), DONE_FILE)

    def is_done(self, stage: str, params_hash: str) -> bool:
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

    def read(self, stage: str) -> Blocks:
        """The stage checkpoint as ``Blocks``: one ``pq.read_table`` task per
        part file, in name order, each block's row count from its footer. A
        zero-row checkpoint is its one typed zero-row file."""
        parts = self._part_files(stage)
        return Blocks(
            tuple(_read_part.remote(p) for p in parts),
            tuple(pq.read_metadata(p).num_rows for p in parts),
        )

    def num_rows(self, stage: str) -> int:
        """The checkpoint's row count from its Parquet footers."""
        return sum(pq.read_metadata(p).num_rows for p in self._part_files(stage))

    def manifest(self, stage: str) -> dict:
        with open(self._manifest_path(stage)) as f:
            return json.load(f)

    def write(self, data, stage: str, params_hash: str, extra: dict | None = None) -> Blocks:
        """Store ``data`` (``Blocks``, or a Dataset, executed once) as the
        stage checkpoint and return its Blocks, so the next stage consumes
        the in-memory blocks instead of reading the files back.

        Each non-empty block becomes ``part-{i:05d}.parquet``; a zero-row
        input leaves one typed zero-row file, so a resumed run still sees
        the schema. A failed write task raises before ``_DONE`` exists."""
        blocks = as_blocks(data)
        refs = [r for r, n in zip(blocks.refs, blocks.rows) if n] or blocks.refs[:1]
        with self._commit(stage, params_hash, extra) as tmp:
            ray.get(
                [
                    _write_block.remote(ref, os.path.join(tmp, f"part-{i:05d}.parquet"))
                    for i, ref in enumerate(refs)
                ]
            )
        return blocks

    def write_table(self, table, stage: str, params_hash: str, extra: dict | None = None) -> None:
        """Small driver-side table checkpoint (metrics, gates)."""
        with self._commit(stage, params_hash, extra) as tmp:
            pq.write_table(table, os.path.join(tmp, "part-00000.parquet"))

    @contextmanager
    def _commit(self, stage: str, params_hash: str, extra: dict | None):
        """Atomic stage commit: the body writes the part files into the
        yielded fresh temp sibling dir, which then replaces the stage dir;
        the ``_DONE`` manifest is written last, so a body that raises
        leaves none."""
        final = self.stage_dir(stage)
        tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp)
        yield tmp
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
