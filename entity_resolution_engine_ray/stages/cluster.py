"""Stage 5 — transitive clustering: connected components over id edges.

Nodes are 64-bit ids (url hashes for pages, doc ids for the dedup
operators; numeric min-aggregates shuffle far cheaper than strings). Urls
rejoin from the features side table after clustering (stages/merge), and
entity ids downstream are content hashes of sorted member urls
(functions/ids.cluster_entity_id), so label internals never leak.

One kernel, ``connected_roots``: a vectorised Shiloach–Vishkin pass
(hook with ``np.minimum.at``, pointer-jump to a fixpoint) that maps int64
edges to ``(nodes, roots)``, nodes sorted and root = the component's min
id. ``label_of`` is the one id → label lookup (a searchsorted; an id with
no edge is its own root). Two paths, both over ``(left_id, right_id)`` int
edges, the schema every edge producer emits:

- ``cluster_label_map`` — collects the edge ids on the driver and runs the
  kernel there. Used up to ``DRIVER_EDGE_LIMIT`` edges.
- ``connected_components_labelprop_ids`` — fully distributed,
  hash-partitioned min-label propagation (the north rule's "distributed
  union-find"; cf. PAPERS.md "BTS: Load-Balanced Distributed Union-Find",
  ICDE 2024) accelerated with pointer jumping (label(v) ← label(label(v)),
  the hash-to-min shortcut):

      labels(v) ← min(labels(v), min_{(u,v) ∈ E∪Eᵀ} labels(u), labels(labels(v)))

  Its per-partition tasks hold node-sorted labels and use ``label_of`` plus
  a numpy min-by-key. Labels start from each partition's local components
  (``connected_roots`` over the partition's own edges), so the rounds only
  merge components that cross partitions. One partition holds the whole
  graph, so its local roots are final: ``_lp_partitions`` picks one
  partition up to 2M directed edge rows, and then one task runs the
  kernel over every edge block with no exchange and no round.
  ``attach_labels`` joins its output back to rows.

``DRIVER_EDGE_LIMIT`` is the one gate between them: the pages pipeline
(``cluster_method="auto"``) and ``dedup.near_dup_clusters`` both read it at
call time. Each labelprop round is checkpoint-free but bounded:
`max_iterations` guards pathological chains, and convergence is detected
with a changed-label count.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


# approved-edge count above which the driver kernel is refused and
# labelprop runs instead. The driver kernel holds the edge ids and the
# connected nodes as int64 arrays (two per edge, two per node, plus their
# sort): measured on one core at 10M edges / 2M nodes, 6.4 s and about
# 870 MB above the input arrays, well under the driver heap; real near-dup
# workloads land ~50× lower.
DRIVER_EDGE_LIMIT = 10_000_000

_DIRECTED = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
_LABELS = pa.schema([("node", pa.int64()), ("cluster_label", pa.int64())])


def _both_orientations(t: pa.Table) -> pa.Table:
    """Split function of the labelprop edge exchange: an int (left_id,
    right_id) block → both orientations of each edge as int64 (src, dst)
    rows."""
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return _DIRECTED.empty_table()
    src = pc.cast(t["left_id"], pa.int64()).chunks
    dst = pc.cast(t["right_id"], pa.int64()).chunks
    return pa.table(
        {"src": pa.chunked_array(src + dst, pa.int64()), "dst": pa.chunked_array(dst + src, pa.int64())}
    )


def connected_roots(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """int64 edges → ``(nodes, roots)``: the sorted unique endpoint ids and,
    aligned with them, each node's component root (its minimum member id).

    Shiloach–Vishkin over dense indices: ``np.unique`` maps ids to ranks (so
    the minimum rank is the minimum id), each round hooks every crossing
    edge's larger root under the smaller one with ``np.minimum.at`` and
    pointer-jumps the parent array to a fixpoint (every tree a star), then
    contracts the edge list to the edges still crossing two stars. Parents
    only ever point to smaller ranks, so hooking never forms a cycle, and
    each round merges at least one pair of stars while any edge crosses."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    parent = np.arange(len(nodes))
    u, v = inv[: len(src)], inv[len(src) :]
    while len(u):
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        u, v = parent[u], parent[v]
        crossing = u != v
        u, v = u[crossing], v[crossing]
    return nodes, nodes[parent]


def label_of(nodes: np.ndarray, roots: np.ndarray, ids, default=None) -> np.ndarray:
    """Each id's root from sorted ``nodes`` and aligned ``roots`` (the
    ``connected_roots`` contract), by searchsorted. An id absent from
    ``nodes`` — a node with no edge — is its own root, or ``default`` when
    one is given."""
    ids = np.asarray(ids, dtype=np.int64)
    miss = ids if default is None else default
    if len(nodes) == 0:
        return np.broadcast_to(miss, ids.shape).astype(np.int64)
    pos = np.searchsorted(nodes, ids)
    pos[pos == len(nodes)] = len(nodes) - 1
    return np.where(nodes[pos] == ids, roots[pos], miss)


def _min_by_sorted_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted keys, vals) → (unique keys, min val per key)."""
    if len(keys) == 0:
        return keys, vals
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.minimum.reduceat(vals, starts)


@ray.remote(num_returns=2)
def _lp_init_from_edges(edges_part: pa.Table):
    """Directed (src, dst) partition → (stationary edges, initial labels).

    Labels cover the unique src set, sorted by node: the directed edge set
    contains both orientations of every edge, so every connected node
    appears as a src in its owning partition. Labels keep these rows for
    the whole run, so the edges come back as (pos, dst) — pos is the src's
    row in the labels table — sorted by dst: a propagation round is then a
    gather plus a min over dst runs, with no per-round search or sort.

    Each node starts at its root in the partition's own edges
    (``connected_roots``; the local-then-global union-find of BTS, ICDE
    2024): the minimum id of its component within this partition, an id in
    its global component and no larger than itself, so the fixpoint is
    still the component minimum and the rounds only merge what crosses
    partitions."""
    src, dst = _np_col(edges_part, "src"), _np_col(edges_part, "dst")
    nodes, pos = np.unique(src, return_inverse=True)
    start = label_of(*connected_roots(src, dst), nodes)
    order = np.argsort(dst, kind="stable")
    edges = pa.table({"pos": pos[order].astype(np.int64), "dst": dst[order]})
    return edges, pa.table({"node": pa.array(nodes, pa.int64()), "label": pa.array(start, pa.int64())})


def _roots_of(tables) -> tuple[np.ndarray, np.ndarray]:
    """``connected_roots`` over the (left_id, right_id) edges of every
    table in ``tables``."""
    from entity_resolution_engine_ray.stages.exchange import _ensure_table

    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b in map(_ensure_table, tables):
        if b.num_rows:
            src.append(_np_col(b, "left_id"))
            dst.append(_np_col(b, "right_id"))
    return connected_roots(np.concatenate(src), np.concatenate(dst))


@ray.remote(num_returns=2)
def _lp_one_partition(*blocks: pa.Table):
    """Every edge block → (node, cluster_label) labels in one task: with one
    partition the graph is whole, so its local roots are the component
    minima, the fixpoint the rounds would reach."""
    nodes, roots = _roots_of(blocks)
    out = pa.table({"node": pa.array(nodes, pa.int64()), "cluster_label": pa.array(roots, pa.int64())})
    return out, out.num_rows


@ray.remote
def _sum_ints(*vals: int) -> int:
    return sum(vals)


@ray.remote(num_returns=2)
def _lp_emit_ids(labels_part: pa.Table):
    out = pa.table({"node": labels_part["node"], "cluster_label": labels_part["label"]})
    return out, out.num_rows


def _np_col(t: pa.Table, name: str) -> np.ndarray:
    col = t[name]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _cand_table(dst, cand) -> pa.Table:
    return pa.table({"dst": pa.array(dst, pa.int64()), "cand": pa.array(cand, pa.int64())})


@ray.remote
def _lp_propagate(edges_part: pa.Table, labels_part: pa.Table) -> pa.Table:
    """One stationary edge partition (by src) × its co-located labels →
    per-dst min candidate labels. The edge partition is immutable and
    LARGE; ``_lp_init_from_edges`` laid it out so this is one gather and
    one ``np.minimum.reduceat``."""
    cand = _np_col(labels_part, "label")[_np_col(edges_part, "pos")]
    return _cand_table(*_min_by_sorted_key(_np_col(edges_part, "dst"), cand))


@ray.remote(num_returns=3)
def _lp_refine(labels_part: pa.Table, *cand_subparts: pa.Table):
    """labels partition + its candidate sub-tables →
    (new labels, #changed, hook candidates).

    Hooks implement union-by-hooking: when v's label drops from w to m, the
    OLD sink w is told about m as a (dst=w, cand=m) candidate for the next
    round — without this, a new minimum spreads only one edge-hop per round
    and long chains stall (min-label + pointer-jump alone reaches a jump
    fixpoint where every node points at a stale local sink).
    Output labels stay partitioned by node and sorted — labels never
    re-shuffle. A node's label never exceeds its own id, so a node with no
    candidate (``label_of`` answers its own id) keeps its label."""
    cands = [c for c in cand_subparts if c.num_rows > 0] or [_cand_table([], [])]
    cands = pa.concat_tables(cands)
    nodes = _np_col(labels_part, "node")
    old = _np_col(labels_part, "label")
    dst, cand = _np_col(cands, "dst"), _np_col(cands, "cand")
    order = np.argsort(dst, kind="stable")
    dst, cand = _min_by_sorted_key(dst[order], cand[order])
    new = np.minimum(old, label_of(dst, cand, nodes))
    ch = new != old
    hook = ch & (old != nodes)
    out = pa.table({"node": labels_part["node"], "label": pa.array(new, type=pa.int64())})
    return out, int(ch.sum()), _cand_table(old[hook], new[hook])


# directed (src, dst) rows one labelprop partition is sized for (~32 MB of
# int64 pairs; per-round tasks stay 1–3 s of vectorized work)
_LP_PARTITION_ROWS = 2_000_000


def _lp_partitions(n_directed_rows: int, cpus: int) -> int:
    """Labelprop width: 1 while the directed edge rows fit one partition's
    ``_LP_PARTITION_ROWS`` target, whatever the CPU count. One partition
    holds the whole graph, so its local roots are the component minima
    and ``_lp_one_partition`` returns them with no round (measured on a
    2,000-page fold's 7,950 approved edges at 4 CPUs: P=4 took 7 refine
    waves and 0.57–0.61 s, P=1 with its rounds 0.10–0.15 s; hashing by
    src scatters each component's edges, so more partitions only add
    rounds).

    Above the target, NOT ``auto_partitions(n_rows)`` with the generic
    50k-row target: a labelprop ROUND has driver-side cost O(P × split
    groups) object refs and ~3P tasks, paid EVERY round — sizing P like a
    one-shot row shuffle melted the scheduler at 1M pages (measured
    2026-08-19: P≈3200 from the 50k-row formula pushed the labels stage
    73 s → 749 s at ~10 % CPU; the fixed width 64 at the same 160M
    directed edges ran it in 73 s). ``auto_partitions`` with the 2M-row
    target and its 1.5×CPU floor, capped at 1,024: the cap bounds the
    round exchange's O(split tasks × P) driver-held refs and binds only
    past ~2G directed edge rows (≈1B approved edges, ≥16 GB of int64
    pairs). Past that, shard the corpus (incremental key_filter path)
    rather than widening one labelprop."""
    from entity_resolution_engine_ray.stages.grouping import auto_partitions

    if n_directed_rows <= _LP_PARTITION_ROWS:
        return 1
    return min(auto_partitions(n_directed_rows, rows_per_partition=_LP_PARTITION_ROWS, cpus=cpus), 1024)


@ray.remote
def _lp_jump_request(labels_part: pa.Table) -> pa.Table:
    """Pointer-jump phase 1: emit (key=label(v), node=v) for every v whose
    label is another node — routed to the partition OWNING label(v)."""
    import pyarrow.compute as pc

    mask = pc.not_equal(labels_part["node"], labels_part["label"])
    t = labels_part.filter(mask)
    return pa.table({"key": t["label"], "node": t["node"]})


@ray.remote
def _lp_jump_answer(labels_part: pa.Table, *req_subparts: pa.Table) -> pa.Table:
    """Pointer-jump phase 2: at label(v)'s owner, look up label(label(v)) and
    answer as a (dst=v, cand) candidate."""
    reqs = [r for r in req_subparts if r.num_rows > 0]
    if not reqs:
        return _cand_table([], [])
    req = pa.concat_tables(reqs)
    nodes, labels = _np_col(labels_part, "node"), _np_col(labels_part, "label")
    return _cand_table(_np_col(req, "node"), label_of(nodes, labels, _np_col(req, "key")))


def _lp_run(edge_parts: list, labels_parts: list, P: int, max_iterations: int, cpus: int) -> list:
    """The labelprop round loop: stationary edge partitions, min-label propagation + pointer jumping +
    union hooking per round, exit at the exact changed==0 fixpoint. ``cpus``
    (the cluster's, read once per call) bounds each round's split tasks.

    The convergence check is DELAYED BY ONE ROUND: each wave of tasks is
    submitted before the previous wave's aggregated changed-count is read,
    so the driver never sits between waves waiting on the slowest
    partition (the straggler stall was the measured scaling drag at high
    parallelism). Cost: one speculative wave runs after the fixpoint
    round — harmless, because a fixpoint is stable under propagate / jump
    / hook, so the speculative wave's labels are identical."""
    from entity_resolution_engine_ray.stages.exchange import _partition_subs, _split_all

    def _subs_per_partition(refs, key):
        """Candidate refs → per-partition sub-ref lists (subs[p]): the
        exchange's stage 1 hashed on ``key`` into the P label owners."""
        splits, _ = _split_all(refs, [key], P, None, cpus)
        return [_partition_subs(splits, p, P) for p in range(P)]

    def _refine_with(cand_refs, parts):
        subs = _subs_per_partition(cand_refs, "dst")
        new_parts, changed_refs, hook_refs = [], [], []
        for p in range(P):
            l_ref, c_ref, h_ref = _lp_refine.remote(parts[p], *subs[p])
            new_parts.append(l_ref)
            changed_refs.append(c_ref)
            hook_refs.append(h_ref)
        return new_parts, changed_refs, hook_refs

    pending_hooks: list = []
    converged = False
    prev_check = None  # aggregated changed-count of the previous round
    for _ in range(max_iterations):
        # three candidate sources, ONE refine per round:
        # 1. edge propagation: min neighbor label
        cand_refs = [
            _lp_propagate.remote(e, l) for e, l in zip(edge_parts, labels_parts)
        ]
        # 2. pointer jumping on the round-start labels: label(label(v))
        req_refs = [_lp_jump_request.remote(l) for l in labels_parts]
        req_subs = _subs_per_partition(req_refs, "key")
        for p in range(P):
            cand_refs.append(_lp_jump_answer.remote(labels_parts[p], *req_subs[p]))
        # 3. hooks from last round: stale sinks learn the new minima, so
        # their dependents re-link via the next jump — without hooking, a
        # minimum spreads one edge-hop per round and long chains stall
        cand_refs += pending_hooks
        labels_parts, changed_refs, pending_hooks = _refine_with(cand_refs, labels_parts)
        # consume the PREVIOUS round's count only after this wave is
        # submitted — it resolved while this wave was being scheduled, so
        # the get is (nearly) free and stragglers never stall the driver.
        # changed==0 implies no hooks were emitted either — true fixpoint.
        if prev_check is not None and ray.get(prev_check) == 0:
            converged = True
            break
        prev_check = _sum_ints.remote(*changed_refs)
    if not converged and prev_check is not None:
        # the final round may itself have been the fixpoint — the loop just
        # never got a following iteration to observe it
        converged = ray.get(prev_check) == 0
    if not converged:
        # truncated convergence must not masquerade as correct clustering
        raise RuntimeError(
            f"connected components did not converge within {max_iterations} "
            "label-propagation rounds — raise max_iterations (each round "
            "includes pointer jumping, so rounds ≈ log(diameter), not diameter)"
        )
    return labels_parts


def connected_components_labelprop_ids(
    edges, num_partitions=None, max_iterations: int = 50
):
    """int edges (left_id, right_id) → labels (node:int64,
    cluster_label:int64) over the connected node set, of the kind given
    (``exchange.Blocks`` or a Dataset). cluster_label = min node id of the
    component (min-label fixpoint), so labels are stable and join-free to
    interpret. Only nodes that appear in an edge are labeled (singletons
    are handled by the merge stage).

    Fully distributed min-label propagation with STATIONARY edge partitions:
    edges are hash-partitioned by src exactly once
    (stages/exchange.exchange_partition_refs, whose split tasks cast each
    block to int64 and emit both orientations); every subsequent round moves
    only the label/candidate tables — O(|V|) rows per round, not O(|E|).
    Labels are partitioned by node with the same hash, so propagate
    (edges_p ⋈ labels_p) and refine (cand_p ⋈ labels_p) are co-located
    per-partition tasks; the only per-round exchange is the candidate split
    by dst. Each round also pointer-jumps so long chains collapse in far
    fewer than diameter rounds (measured: 19 rounds on a 2M-edge / 95k-node
    web fixture with deep chain components). Safe when the connected-node
    set exceeds driver memory. With one partition (``_lp_partitions``: up
    to 2M directed edge rows) one task runs ``connected_roots`` over every
    edge block instead — no exchange and no round."""
    from entity_resolution_engine_ray.stages.exchange import (
        Blocks,
        _as_given,
        _kept,
        as_blocks,
        cluster_cpus,
        exchange_partition_refs,
    )

    blocks = as_blocks(edges)
    n_edges = blocks.count()
    cpus = cluster_cpus()
    # width sized by the DIRECTED edge count but with the round-loop cost
    # model (_lp_partitions), NOT the one-shot-shuffle formula
    P = num_partitions or _lp_partitions(2 * n_edges, cpus)
    if n_edges == 0:
        return _as_given((edges,), Blocks.of(_LABELS.empty_table()))
    if P == 1:
        out, n = _lp_one_partition.remote(*blocks.refs)
        return _as_given((edges,), Blocks((out,), (ray.get(n),)))
    edge_parts = exchange_partition_refs(blocks, ["src"], P, block_fn=_both_orientations)
    inits = [_lp_init_from_edges.remote(e) for e in edge_parts]
    edge_parts, labels_parts = [e for e, _ in inits], [l for _, l in inits]
    labels_parts = _lp_run(edge_parts, labels_parts, P, max_iterations, cpus)

    emitted = [_lp_emit_ids.remote(l) for l in labels_parts]
    counts = ray.get([c for _, c in emitted])
    return _as_given((edges,), _kept([t for t, _ in emitted], counts))


def cluster_label_map(edges) -> tuple[np.ndarray, np.ndarray]:
    """(left_id, right_id) int64 edges → driver-side ``(nodes, roots)`` by
    ``connected_roots`` over the collected id columns: two int64 arrays
    over the connected nodes, root = min member id. For inputs whose edge
    list exceeds driver memory use ``connected_components_labelprop_ids``
    (the fully-distributed path) instead. The blocks (``exchange.Blocks``
    or a Dataset's) are fetched with ``ray.get``, so in-memory edges cost
    no Ray Data execution."""
    from entity_resolution_engine_ray.stages.exchange import as_blocks

    return _roots_of(ray.get(list(as_blocks(edges).refs)))


def attach_labels(
    ds,
    id_col: str,
    labels_ds,
    num_partitions: int | None = None,
    columns: list[str] | None = None,
    sink=None,
):
    """Every row of ``ds`` gains ``cluster_label``: its ``id_col``'s label
    from a (node, cluster_label) table, or the id itself when the id has
    no edge. Both inputs are ``exchange.Blocks`` or Datasets; the result is
    Blocks when both are. One co-partitioned exchange
    (``exchange.hash_exchange_cogroup`` on the 8-byte id) and a
    ``label_of`` per partition — no driver-side map, so it is safe when the
    connected-node set is O(corpus).

    ``columns``: keep only these columns of ``ds`` (plus ``cluster_label``);
    the projection runs in the exchange's split tasks, so the dropped
    columns never enter the shuffle. ``sink``: a
    ``state.checkpoint.PartSink`` each reduce task writes its rows to."""
    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup, project_block

    keep = None if columns is None else list(dict.fromkeys([*columns, id_col]))

    def attach(rows: pd.DataFrame, labels: pd.DataFrame) -> pd.DataFrame:
        nodes = labels["node"].to_numpy(dtype=np.int64)
        order = np.argsort(nodes, kind="stable")
        roots = labels["cluster_label"].to_numpy(dtype=np.int64)[order]
        ids = rows[id_col].to_numpy(dtype=np.int64)
        out = rows.assign(cluster_label=label_of(nodes[order], roots, ids))
        return out if columns is None else out[[*columns, "cluster_label"]]

    return hash_exchange_cogroup(
        ds, labels_ds, [id_col], ["node"], attach, num_partitions,
        left_block_fn=None if keep is None else functools.partial(project_block, cols=keep),
        sink=sink,
    )
