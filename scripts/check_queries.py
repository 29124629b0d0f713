"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare row-count + schema + order-insensitive
values against oracle_sql() via DuckDB.

Usage: python scripts/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype) == "object":
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(got)} rows, {dt:.1f}s)")
            n_pass += 1
            continue
        want = con.execute(oracles[name]).fetchdf()
        status = []
        if len(got) != len(want):
            status.append(f"rowcount {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            status.append(f"columns {sorted(got.columns)} != {sorted(want.columns)}")
        if not status:
            g, w = canon(got), canon(want)
            if not g.equals(w):
                # find first mismatch for diagnostics
                diff_cols = [c for c in g.columns if not g[c].equals(w[c])]
                ex = ""
                for c in diff_cols[:1]:
                    neq = g[c] != w[c]
                    i = neq.idxmax()
                    ex = f" e.g. {c}[{i}]: {g[c][i]!r} vs {w[c][i]!r}"
                status.append(f"values differ in {diff_cols}{ex}")
        if status:
            print(f"FAIL {name}: {'; '.join(status)}")
            n_fail += 1
        else:
            print(f"ok   {name}: {len(got)} rows match ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
