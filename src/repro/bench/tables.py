"""Definitions of the paper's evaluation tables 3–12 (Appendix D).

Each :class:`TableDef` captures one table: the dataset variant, the
swept parameter and its values, the fixed parameters, the algorithms
compared (all four of §6.3 for complete data; reference +
distributed incomplete for incomplete data), the paper's numbers, and
the scaled-down parameters this reproduction runs.

Paper numbers: the reference row is absolute seconds; the other
algorithms are stored as the paper's percentage-of-reference values
("n/a" entries — e.g. when the reference timed out — are None).  Our
harness reports both absolute seconds and the same percentages so
EXPERIMENTS.md can diff shapes directly.

Scale mapping (DESIGN.md): Airbnb at 1/2 paper size (500k incomplete /
≈348k complete); store_sales 1e6/2e6/5e6/1e7 →
250k/500k/1.25M/2.5M; executors → partitions; timeout 3600 s → 120 s.
Bench scale is a further 1/10 (Airbnb 24k, store_sales 25k–250k), the
size ``jobs/run_table.py --bench`` runs the same grids at.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TableDef", "TABLES", "table_def", "COMPLETE_ALGOS", "INCOMPLETE_ALGOS"]

COMPLETE_ALGOS = (
    "reference",
    "non_distributed_complete",
    "distributed_complete",
    "distributed_incomplete",
)
INCOMPLETE_ALGOS = ("reference", "distributed_incomplete")

#: store_sales paper sizes → reproduction sizes (1/4 — calibrated so the
#: reference rewrite's superlinear cost is visible; see DESIGN.md).
SS_SCALE = {1_000_000: 250_000, 2_000_000: 500_000, 5_000_000: 1_250_000, 10_000_000: 2_500_000}
#: Airbnb at 1/2 the paper's size (500k incomplete / ≈348k complete) —
#: sized so the plain-SQL reference finishes within the timeout on the
#: NULL-heavy 5-/6-dimension queries while still separating algorithms.
AIRBNB_N = 500_000
#: Bench scale: the reproduction sizes above / 10.
BENCH_SS_SCALE = {1_000_000: 25_000, 2_000_000: 50_000, 5_000_000: 125_000, 10_000_000: 250_000}
BENCH_AIRBNB_N = 24_000


@dataclass(frozen=True)
class TableDef:
    """One evaluation table: grid definition + paper numbers."""

    table: int
    caption: str
    dataset: str                 # "airbnb" | "store_sales"
    complete: bool               # dataset variant
    sweep: str                   # "dims" | "tuples" | "executors"
    sweep_values: tuple          # paper's swept values
    fixed_dims: Optional[int]
    fixed_executors: Optional[int]
    paper_n: Optional[int]       # paper's tuple count (None when swept)
    algorithms: tuple[str, ...]
    # paper measurements, keyed by algorithm; reference in seconds,
    # others in % of reference (None = n.a.).  A None in the reference
    # row means "t.o." when ``paper_none_is_timeout`` else "value not
    # recoverable from the PDF text extraction".
    paper_reference_seconds: tuple
    paper_percent: dict = field(default_factory=dict)
    paper_none_is_timeout: bool = False

    def our_n(self, sweep_value, bench: bool = False) -> int:
        """Tuple count of one cell, at reproduction or bench scale."""
        if self.dataset == "airbnb":
            return BENCH_AIRBNB_N if bench else AIRBNB_N
        paper_n = sweep_value if self.sweep == "tuples" else self.paper_n
        return (BENCH_SS_SCALE if bench else SS_SCALE)[paper_n]

    def dims(self, sweep_value) -> int:
        """Skyline dimensions of one cell."""
        return sweep_value if self.sweep == "dims" else self.fixed_dims

    def cells(self, bench: bool = False):
        """Yield cell dicts for the harness, in table order."""
        for v in self.sweep_values:
            executors = v if self.sweep == "executors" else self.fixed_executors
            n = self.our_n(v, bench)
            for algo in self.algorithms:
                yield {
                    "dataset": self.dataset,
                    "complete": self.complete,
                    "dims": self.dims(v),
                    "n": n,
                    "executors": executors,
                    "algorithm": algo,
                    "sweep_value": v,
                }


TABLES: dict[int, TableDef] = {}


def _add(t: TableDef) -> None:
    TABLES[t.table] = t


_add(TableDef(
    table=3,
    caption="Number of dimensions vs execution time, complete Inside Airbnb "
            "(paper: executors 5, tuples 820,698)",
    dataset="airbnb", complete=True, sweep="dims", sweep_values=(1, 2, 3, 4, 5, 6),
    fixed_dims=None, fixed_executors=5, paper_n=820_698, algorithms=COMPLETE_ALGOS,
    paper_reference_seconds=(43.72, 43.94, 45.61, 48.19, 52.63, 96.34),
    paper_percent={
        "non_distributed_complete": (96.60, 86.88, 83.03, 80.54, 75.45, 48.66),
        "distributed_complete": (96.42, 97.81, 83.44, 77.71, 74.28, 46.08),
        "distributed_incomplete": (81.09, 90.92, 85.72, 84.86, 78.62, 51.10),
    },
))

_add(TableDef(
    table=4,
    caption="Number of dimensions vs execution time, incomplete Inside Airbnb "
            "(paper: executors 5, tuples 1,193,465)",
    dataset="airbnb", complete=False, sweep="dims", sweep_values=(1, 2, 3, 4, 5, 6),
    fixed_dims=None, fixed_executors=5, paper_n=1_193_465, algorithms=INCOMPLETE_ALGOS,
    paper_reference_seconds=(45.58, 50.05, 50.21, 58.03, 66.22, 147.82),
    paper_percent={
        "distributed_incomplete": (83.07, 69.62, 87.92, 69.08, 61.64, 34.61),
    },
))

_add(TableDef(
    table=5,
    caption="Number of dimensions vs execution time, complete store_sales "
            "(paper: executors 10, tuples 10,000,000)",
    dataset="store_sales", complete=True, sweep="dims", sweep_values=(1, 2, 3, 4, 5, 6),
    fixed_dims=None, fixed_executors=10, paper_n=10_000_000, algorithms=COMPLETE_ALGOS,
    paper_reference_seconds=(2463.29, 164.18, 105.44, 93.86, 281.42, 1693.31),
    paper_percent={
        "non_distributed_complete": (2.63, 34.41, 54.98, 63.06, 46.26, 69.97),
        "distributed_complete": (2.20, 27.42, 56.83, 45.35, 22.22, 29.12),
        "distributed_incomplete": (2.30, 36.12, 57.33, 59.74, 65.95, 95.69),
    },
))

_add(TableDef(
    table=6,
    caption="Number of dimensions vs execution time, incomplete store_sales "
            "(paper: executors 10, tuples 1,000,000)",
    dataset="store_sales", complete=False, sweep="dims", sweep_values=(1, 2, 3, 4, 5, 6),
    fixed_dims=None, fixed_executors=10, paper_n=1_000_000, algorithms=INCOMPLETE_ALGOS,
    # Absolute reference row not recoverable from the paper PDF text
    # extraction; percentages are (Table 6 notes a rare reference win
    # at 6 dims: 106.51%, a ~6.6 s / ~6.5% slowdown -> reference ~101 s).
    paper_reference_seconds=(None, None, None, None, None, 101.0),
    paper_percent={
        "distributed_incomplete": (14.60, 47.59, 33.80, 25.98, 36.61, 106.51),
    },
))

_add(TableDef(
    table=7,
    caption="Number of tuples vs execution time, complete store_sales "
            "(paper: executors 3, dimensions 6)",
    dataset="store_sales", complete=True, sweep="tuples",
    sweep_values=(1_000_000, 2_000_000, 5_000_000, 10_000_000),
    fixed_dims=6, fixed_executors=3, paper_n=None, algorithms=COMPLETE_ALGOS,
    paper_reference_seconds=(191.35, 542.55, 2022.67, None),
    paper_none_is_timeout=True,
    paper_percent={
        "non_distributed_complete": (56.23, 30.91, 21.18, None),
        "distributed_complete": (42.51, 23.46, 17.94, None),
        "distributed_incomplete": (72.73, 44.69, 40.72, None),
    },
))

_add(TableDef(
    table=8,
    caption="Number of tuples vs execution time, incomplete store_sales "
            "(paper: executors 3, dimensions 6)",
    dataset="store_sales", complete=False, sweep="tuples",
    sweep_values=(1_000_000, 2_000_000, 5_000_000, 10_000_000),
    fixed_dims=6, fixed_executors=3, paper_n=None, algorithms=INCOMPLETE_ALGOS,
    paper_reference_seconds=(101.17, 282.33, 1227.49, None),
    paper_none_is_timeout=True,
    paper_percent={
        "distributed_incomplete": (109.52, 73.15, 41.47, None),
    },
))

_add(TableDef(
    table=9,
    caption="Number of executors vs execution time, complete Inside Airbnb "
            "(paper: tuples 820,698, dimensions 6)",
    dataset="airbnb", complete=True, sweep="executors", sweep_values=(1, 2, 3, 5, 10),
    fixed_dims=6, fixed_executors=None, paper_n=820_698, algorithms=COMPLETE_ALGOS,
    paper_reference_seconds=(155.69, 91.23, 97.47, 96.34, 102.42),
    paper_percent={
        "non_distributed_complete": (29.34, 47.40, 48.95, 48.66, 48.38),
        "distributed_complete": (30.09, 49.74, 47.76, 46.08, 45.15),
        "distributed_incomplete": (33.69, 54.30, 52.15, 51.10, 50.77),
    },
))

_add(TableDef(
    table=10,
    caption="Number of executors vs execution time, incomplete Inside Airbnb "
            "(paper: tuples 1,193,465, dimensions 6)",
    dataset="airbnb", complete=False, sweep="executors", sweep_values=(1, 2, 3, 5, 10),
    fixed_dims=6, fixed_executors=None, paper_n=1_193_465, algorithms=INCOMPLETE_ALGOS,
    # Reference absolutes not recoverable from the extraction.
    paper_reference_seconds=(None, None, None, None, None),
    paper_percent={
        "distributed_incomplete": (33.48, 40.18, 39.56, 34.61, 37.39),
    },
))

_add(TableDef(
    table=11,
    caption="Number of executors vs execution time, complete store_sales "
            "(paper: tuples 10,000,000, dimensions 6)",
    dataset="store_sales", complete=True, sweep="executors", sweep_values=(1, 2, 3, 5, 10),
    fixed_dims=6, fixed_executors=None, paper_n=10_000_000, algorithms=COMPLETE_ALGOS,
    paper_reference_seconds=(None, None, None, None, 1693.31),
    paper_none_is_timeout=True,
    paper_percent={
        "non_distributed_complete": (None, None, None, None, 69.97),
        "distributed_complete": (None, None, None, None, 29.12),
        "distributed_incomplete": (None, None, None, None, 95.69),
    },
))

_add(TableDef(
    table=12,
    caption="Number of executors vs execution time, incomplete store_sales "
            "(paper: tuples 5,000,000, dimensions 6)",
    dataset="store_sales", complete=False, sweep="executors", sweep_values=(1, 2, 3, 5, 10),
    fixed_dims=6, fixed_executors=None, paper_n=5_000_000, algorithms=INCOMPLETE_ALGOS,
    paper_reference_seconds=(None, None, None, None, None),
    paper_percent={
        "distributed_incomplete": (24.85, 34.17, 41.47, None, 74.49),
    },
))


def table_def(table: int) -> TableDef:
    try:
        return TABLES[table]
    except KeyError:
        raise ValueError(f"no such evaluation table: {table}; known: {sorted(TABLES)}")
