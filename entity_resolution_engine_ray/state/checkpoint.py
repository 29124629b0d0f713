"""Per-stage Parquet checkpoints with ``_DONE`` manifests (resume support).

Replaces the reference's destroy-and-restart model (``UESWriter.reset``,
reference ues_writer/writer.py:25-37): each pipeline stage lands in
``<out_dir>/<stage>/`` atomically, stamped with a hash of the stage
parameters. A killed job re-run skips every stage whose ``_DONE`` manifest
matches and reads the checkpoint instead — the north rule's "resumes from
the last completed stage".

Who writes the parts: the tasks that make a stage's blocks. The driver
opens the stage (``open_stage``: a fresh temp sibling dir, handed out as a
``PartSink``) before it submits them; each featurize, reduce, label or
merge task writes its own output block there as ``part-{i:05d}.parquet``
before it returns, so no block is shipped to a second task to be written.
A task whose block has no rows writes nothing.

When the commit happens: at the barrier the driver already waits at for
the tasks' row counts — once it holds them, every part is on disk.
``commit`` then renames the parts to contiguous names in ``Blocks`` order,
writes one typed zero-row file when the stage has no rows (so a resumed
run still sees the schema), renames the temp dir over the stage dir and
writes ``_DONE`` last. A stage that raises first leaves its temp dir
behind with no ``_DONE``; reads only ever open the stage dir itself.

``write`` is for blocks that already exist (the ``validated`` stage, a
Dataset): one small task per non-empty block runs the same part writer,
then the same commit. Both hand the same ``Blocks`` back, so a run reads
Parquet only for the stages it resumes. A read is one ``pq.read_table``
task per part file, with the row counts from the Parquet footers. Nothing
here builds a Dataset or starts a Ray Data execution.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass

import pyarrow.parquet as pq
import ray

from entity_resolution_engine_ray.stages.exchange import Blocks, _ensure_table, as_blocks

DONE_FILE = "_DONE"


def _part_name(i: int) -> str:
    return f"part-{i:05d}.parquet"


@dataclass(frozen=True)
class PartSink:
    """A stage's temp dir as the tasks producing its blocks see it: the
    task making output block ``i`` calls ``write(block, i)``. ``first``
    offsets the indices, so two producers can share one stage (the fold's
    copied parts, then its new ones)."""

    dir: str
    first: int = 0

    def path(self, i: int) -> str:
        return os.path.join(self.dir, _part_name(self.first + i))

    def write(self, table, i: int) -> None:
        """Write ``table`` as part ``i``; a zero-row table writes nothing."""
        if table.num_rows:
            pq.write_table(table, self.path(i))

    def after(self, n: int) -> PartSink:
        """The sink for a producer whose blocks follow ``n`` parts."""
        return PartSink(self.dir, self.first + n)


@ray.remote
def _write_block(block, sink: PartSink, i: int) -> None:
    sink.write(_ensure_table(block), i)


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

    def link_parts(self, stage: str, sink: PartSink) -> int:
        """Put this store's non-empty ``stage`` part files into ``sink`` as
        its first parts, in name order — hard links where the file system
        allows (a committed part is never rewritten in place), else copies
        — and return how many. No part is read."""
        parts = [p for p in self._part_files(stage) if pq.read_metadata(p).num_rows]
        for i, src in enumerate(parts):
            try:
                os.link(src, sink.path(i))
            except OSError:
                shutil.copyfile(src, sink.path(i))
        return len(parts)

    def open_stage(self, stage: str) -> PartSink:
        """A fresh temp sibling dir of the stage dir, for the tasks that
        make the stage's blocks to write their parts into."""
        tmp = self.stage_dir(stage) + f".tmp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp)
        return PartSink(tmp)

    def commit(
        self, stage: str, sink: PartSink, blocks: Blocks, params_hash: str, extra: dict | None = None
    ) -> Blocks:
        """Publish the parts the tasks behind ``blocks`` wrote to ``sink``
        as the stage checkpoint and return ``blocks``. Call it once those
        tasks are done (the driver holds their row counts).

        The parts are renamed to contiguous names in index order, which is
        ``Blocks`` order; a zero-row stage gets one typed zero-row file of
        its first block. A part count other than the non-empty block count
        means a producer did not write its block, and raises before
        ``_DONE`` exists."""
        names = sorted(
            (f for f in os.listdir(sink.dir) if f.startswith("part-") and f.endswith(".parquet")),
            key=lambda f: int(f[len("part-") : -len(".parquet")]),
        )
        expected = sum(1 for n in blocks.rows if n)
        if len(names) != expected:
            raise RuntimeError(
                f"checkpoint {stage!r}: {len(names)} part files for {expected} non-empty blocks"
            )
        for j, name in enumerate(names):
            if name != _part_name(j):
                os.rename(os.path.join(sink.dir, name), os.path.join(sink.dir, _part_name(j)))
        if not names:
            empty = _ensure_table(ray.get(blocks.refs[0]))
            pq.write_table(empty, os.path.join(sink.dir, _part_name(0)))
        self._commit(stage, sink.dir, params_hash, extra)
        return blocks

    def write(self, data, stage: str, params_hash: str, extra: dict | None = None) -> Blocks:
        """Store ``data`` (``Blocks``, or a Dataset, executed once) as the
        stage checkpoint and return its Blocks, so the next stage consumes
        the in-memory blocks instead of reading the files back: one
        ``PartSink.write`` task per non-empty block, then ``commit``. For
        blocks no task of this run's is making; a producing task writes its
        own part instead. A failed write task raises before ``_DONE``
        exists."""
        blocks = as_blocks(data)
        sink = self.open_stage(stage)
        filled = [r for r, n in zip(blocks.refs, blocks.rows) if n]
        ray.get([_write_block.remote(ref, sink, i) for i, ref in enumerate(filled)])
        return self.commit(stage, sink, blocks, params_hash, extra)

    def write_table(self, table, stage: str, params_hash: str, extra: dict | None = None) -> None:
        """Small driver-side table checkpoint (metrics, gates)."""
        sink = self.open_stage(stage)
        pq.write_table(table, sink.path(0))
        self._commit(stage, sink.dir, params_hash, extra)

    def _commit(self, stage: str, tmp: str, params_hash: str, extra: dict | None) -> None:
        """Atomic stage commit: the temp dir holding the finished part
        files replaces the stage dir, and the ``_DONE`` manifest is written
        last."""
        final = self.stage_dir(stage)
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
