"""Shared machinery for the per-table pytest-benchmark suites.

Each ``bench_tableNN.py`` re-runs cells of one evaluation table (paper
Tables 3–12) through pytest-benchmark; it names only the table and its
sweep subset, and ``table_benchmark`` builds the test.  To keep
``pytest benchmarks/`` in CI territory, benches run at *bench scale* —
a further 1/10 of the reproduction scale (Airbnb ≈24k rows,
store_sales 25k–250k).  The recorded paper-vs-ours numbers in
EXPERIMENTS.md come from ``jobs/run_table.py``, which runs the
full reproduction scale with the timeout harness; the benches
regenerate the same grids (same code path, same algorithms) at the
smaller size.

Every benchmark times the same action as the harness: a ``noop``-sink
write of the result (one round — Spark queries are seconds-long, and
pytest-benchmark's statistical repetition would multiply the suite's
wall-clock for no insight).
"""
from __future__ import annotations

import pytest

from repro.bench.harness import build_cell_df, input_df
from repro.bench.tables import TableDef, table_def

#: Bench-scale row counts: reproduction scale / 10.
BENCH_AIRBNB_N = 24_000
BENCH_SS_SCALE = {
    1_000_000: 25_000,
    2_000_000: 50_000,
    5_000_000: 125_000,
    10_000_000: 250_000,
}


def bench_n(tdef: TableDef, sweep_value) -> int:
    """Bench-scale tuple count for one cell of ``tdef``."""
    if tdef.dataset == "airbnb":
        return BENCH_AIRBNB_N
    paper_n = sweep_value if tdef.sweep == "tuples" else tdef.paper_n
    return BENCH_SS_SCALE[paper_n]


def run_cell_benchmark(spark, benchmark, table: int, sweep_value, algorithm: str) -> None:
    """Benchmark one (sweep value, algorithm) cell of a table at bench scale."""
    tdef = table_def(table)
    cell = next(c for c in tdef.cells()
                if (c["sweep_value"], c["algorithm"]) == (sweep_value, algorithm))
    del cell["sweep_value"]
    cell["n"] = bench_n(tdef, sweep_value)
    # Materialize the input outside the timed region.
    input_df(spark, tdef.dataset, n=cell["n"], complete=tdef.complete)
    out = build_cell_df(spark, **cell)

    def action():
        out.write.format("noop").mode("overwrite").save()

    benchmark.pedantic(action, rounds=1, iterations=1, warmup_rounds=0)


def table_benchmark(table: int, sweep_subset):
    """The pytest-benchmark test over every algorithm of ``table`` at each
    value of ``sweep_subset``, grouped as ``tableNN:<sweep>=<value>``."""
    tdef = table_def(table)

    @pytest.mark.parametrize("algorithm", tdef.algorithms)
    @pytest.mark.parametrize("sweep_value", sweep_subset)
    def test(spark, benchmark, sweep_value, algorithm):
        benchmark.group = f"table{table:02d}:{tdef.sweep}={sweep_value}"
        run_cell_benchmark(spark, benchmark, table, sweep_value, algorithm)

    return test
