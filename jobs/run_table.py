"""Reproduce the paper's evaluation tables (Tables 3–12).

Usage:
    python jobs/run_table.py [--table N [N ...]] [--timeout 120] [--out DIR] [--bench]

Runs every cell of each listed table's grid (sweep × algorithms; all
ten tables when no --table is given) in one Spark session on the
scaled datasets, writes <out>/tableNN.json and prints the table's
EXPERIMENTS.md section (paper vs ours, % of reference and seconds).

--bench runs the same grids at bench scale (a further 1/10: Airbnb
24k, store_sales 25k–250k) and writes to results/bench by default, so
it never overwrites the reproduction-scale results/tableNN.json that
EXPERIMENTS.md is built from.

Before the first table, each algorithm runs once, untimed, over a small
store_sales table, so that the first cell is not timed on a cold session.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from _session import get_session

from repro.bench.harness import build_cell_df, run_cell, clear_cache, timed_action, TIMEOUT_SECONDS
from repro.bench.report import render_section, results_path, results_to_json
from repro.bench.tables import COMPLETE_ALGOS, TABLES, table_def

#: Rows of the warm-up table, far below any cell's.
WARMUP_ROWS = 2_000


def warm_up(spark, timeout_s: float) -> None:
    """One untimed noop write per algorithm, written to no JSON.

    A session's first write, and its first Python stage, run about
    twice as long as later ones, so the first cell of a run would
    otherwise be timed cold.
    """
    t0 = time.time()
    for algorithm in COMPLETE_ALGOS:
        timed_action(spark, build_cell_df(spark, dataset="store_sales", complete=True, dims=2,
                                          n=WARMUP_ROWS, executors=2, algorithm=algorithm),
                     timeout_s)
    print(f"=== warm-up, untimed: {time.time() - t0:.1f}s", file=sys.stderr)


def run_table(spark, table: int, timeout_s: float, out_dir: str, *,
              bench: bool = False) -> dict:
    tdef = table_def(table)
    results: dict = {}
    print(f"=== Table {table}: {tdef.caption}", file=sys.stderr)
    for cell in tdef.cells(bench):
        sweep_value = cell.pop("sweep_value")
        t0 = time.time()
        secs = run_cell(spark, **cell, timeout_s=timeout_s)
        results[sweep_value, cell["algorithm"]] = secs
        print(
            f"  {tdef.sweep}={sweep_value} algo={cell['algorithm']}: "
            f"{'t.o.' if secs is None else f'{secs:.2f}s'} "
            f"(wall {time.time() - t0:.1f}s)",
            file=sys.stderr,
        )
    os.makedirs(out_dir, exist_ok=True)
    with open(results_path(out_dir, table), "w") as f:
        f.write(results_to_json(tdef, results))
    print(render_section(tdef, results))
    return results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", type=int, nargs="+", choices=range(3, 13),
                    default=sorted(TABLES))
    ap.add_argument("--timeout", type=float, default=TIMEOUT_SECONDS)
    ap.add_argument("--out", help="results directory (default: results, "
                                  "or results/bench with --bench)")
    ap.add_argument("--bench", action="store_true",
                    help="run at bench scale instead of reproduction scale")
    args = ap.parse_args()
    out_dir = args.out or ("results/bench" if args.bench else "results")
    spark = get_session("skyline-tables")
    t0 = time.time()
    try:
        warm_up(spark, args.timeout)
        for t in args.table:
            run_table(spark, t, args.timeout, out_dir, bench=args.bench)
    finally:
        clear_cache()
        spark.stop()
    print(f"total wall time: {time.time() - t0:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
