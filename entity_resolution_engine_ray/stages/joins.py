"""Join utilities.

``Dataset.join`` (Ray 2.49 hash shuffle) runs on dedicated aggregator ACTORS
that reserve CPUs for the whole join. Composing two joins — or a join and
another actor-pool stage — in one streaming graph can deadlock on small CPU
budgets: the first join's aggregators hold every CPU while the downstream
pool waits for an actor slot that never frees. ``safe_join`` therefore runs
each join as its own isolated execution (materialize barrier): the join gets
the full cluster, finishes, releases its actors, and downstream stages start
from materialized blocks. The barrier cost is one object-store round trip of
the join output — which our pipelines checkpoint to Parquet right after
anyway.

``num_partitions`` defaults to ~2× cluster CPUs (more on a real multi-node
cluster via the explicit argument).
"""

from __future__ import annotations


def default_join_partitions() -> int:
    from entity_resolution_engine_ray.stages.exchange import cluster_cpus

    return max(4, cluster_cpus())


def safe_join(
    left,
    right,
    on: tuple,
    right_on: tuple | None = None,
    join_type: str = "inner",
    num_partitions: int | None = None,
    left_suffix: str | None = None,
    right_suffix: str | None = None,
):
    # num_partitions > cluster CPUs deadlocks the aggregator actor pool on
    # small clusters (each aggregator reserves a CPU while upstream tasks
    # starve) — clamp locally, and reserve only half a CPU per aggregator so
    # the producing tasks always have room.
    cap = default_join_partitions()
    parts = min(num_partitions, cap) if num_partitions else cap
    joined = left.join(
        right,
        join_type=join_type,
        num_partitions=parts,
        on=on,
        right_on=right_on,
        left_suffix=left_suffix,
        right_suffix=right_suffix,
        aggregator_ray_remote_args={"num_cpus": 0.5},
    )
    return joined.materialize()


def asof_join(
    left,
    right,
    by: str,
    on: str,
    direction: str = "backward",
    num_partitions: int | None = None,
    allow_exact_matches: bool = True,
):
    """Distributed AS-OF join — an operator Ray Data has no primitive for.

    For each left row, picks the nearest right row of the SAME ``by`` key at
    or before (``backward``) / at or after (``forward``) its ``on`` value.
    Both sides co-partition on ``hash(by)`` through one task-level hash
    cogroup (stages/exchange.hash_exchange_cogroup — the partitioning
    assumption: all rows of one key meet in one partition; key group sizes
    must fit a worker, which holds for per-user/per-entity event streams);
    each partition then runs pandas ``merge_asof`` (vectorized sorted merge
    within key groups). Output = left columns + the right side's non-key
    columns (callers pre-rename to avoid collisions; the shared ``on``
    column stays the left value).

    Tie semantics: among several right rows sharing the boundary ``on``
    value, the sort-last one wins (same as DuckDB ASOF's max-ts contract
    when the emitted columns are tie-invariant)."""
    import pandas as pd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    parts = num_partitions or default_join_partitions()

    def fn(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        # merge_asof preserves right-side dtypes even on empty inputs (the
        # zero-row frames arrive from Arrow with their schema intact), so
        # empty partitions need no special casing
        return pd.merge_asof(
            lpdf.sort_values(on, kind="mergesort"),
            rpdf.sort_values(on, kind="mergesort"),
            on=on,
            by=by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
            suffixes=("", "_right"),
        )

    return hash_exchange_cogroup(left, right, [by], [by], fn, parts)


def range_join(
    left,
    right,
    by: str,
    on: str,
    start: str,
    end: str,
    num_partitions: int | None = None,
):
    """Distributed range (interval) join — another operator Ray Data has no
    primitive for: inner-join each left row to every right interval of the
    same ``by`` key with ``start <= on <= end``.

    Both sides co-partition on ``hash(by)`` through one task-level hash
    cogroup; each partition equi-merges on ``by`` and applies the interval
    mask vectorized. Partitioning assumption (document per call site): the
    per-key candidate product |left_k| x |right_k| is bounded — true for
    per-user / per-entity event-vs-window joins, NOT for a handful of
    mega-keys (salt those first, as the ER pair path does). Output = left
    columns + right's non-``by`` columns (collisions suffixed ``_right``)."""
    import pandas as pd

    from entity_resolution_engine_ray.stages.exchange import hash_exchange_cogroup

    parts = num_partitions or default_join_partitions()

    if on in (start, end):
        raise ValueError("range_join: rename columns so `on` differs from `start`/`end`")

    def fn(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        m = lpdf.merge(rpdf, on=by, how="inner", suffixes=("", "_right"))
        return m[(m[start] <= m[on]) & (m[on] <= m[end])]

    return hash_exchange_cogroup(left, right, [by], [by], fn, parts)
