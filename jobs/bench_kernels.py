"""Microbenchmark of the NumPy skyline kernels on fixed synthetic matrices.

Usage:
    python jobs/bench_kernels.py [--label change] [--out BENCH_kernels.json]

Times ``dominance.dominated_mask`` on NaN-free input,
``bnl.bnl_skyline_mask`` and ``bnl.incomplete_global_skyline_mask`` on
seeded matrices (no Spark).  The kernel case keeps its earlier key,
``dominated_mask_complete ...``, so its numbers stay comparable with
the runs already in ``BENCH_kernels.json``.  Each case reports the
minimum and median wall-clock over ``REPEATS`` runs on matrices drawn
with ``SEED``, and the number of rows its mask selects, so two
checkouts can be checked for identical answers as well as compared for
speed.  The results are merged into ``--out`` under ``--label``: run
the script once from each checkout with its own label and the
same output file to get both sets of numbers side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from typing import Callable

import numpy as np

from repro.core import bnl
from repro.core import dominance as dm

REPEATS = 3
SEED = 1


def _complete_kernel(rng: np.random.Generator) -> Callable[[], np.ndarray]:
    window, cand = rng.random((2000, 6)), rng.random((2048, 6))
    return lambda: dm.dominated_mask(window, None, cand, None)


def _bnl_independent(rng: np.random.Generator) -> Callable[[], np.ndarray]:
    mm = rng.random((50_000, 6))
    return lambda: bnl.bnl_skyline_mask(mm, None)


def _bnl_anticorrelated(rng: np.random.Generator) -> Callable[[], np.ndarray]:
    # Rows spread along the plane sum(x) = const, with a thin offset
    # across it: most rows are incomparable, so the window grows large.
    x = rng.random((20_000, 4))
    mm = x - x.mean(axis=1, keepdims=True) + 0.1 * rng.random((20_000, 1))
    return lambda: bnl.bnl_skyline_mask(mm, None)


def _incomplete_global(rng: np.random.Generator) -> Callable[[], np.ndarray]:
    mm = rng.random((8000, 3))
    mm[rng.random(mm.shape) < 0.1] = np.nan
    return lambda: bnl.incomplete_global_skyline_mask(mm, None)


CASES = {
    "dominated_mask_complete 2000x2048x6": _complete_kernel,
    "bnl_skyline_mask 50000x6 independent": _bnl_independent,
    "bnl_skyline_mask 20000x4 anti-correlated": _bnl_anticorrelated,
    "incomplete_global_skyline_mask 8000x3 10% NaN": _incomplete_global,
}


def run_cases() -> dict:
    out = {}
    for name, build in CASES.items():
        fn = build(np.random.default_rng(SEED))
        secs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            mask = fn()
            secs.append(time.perf_counter() - t0)
        out[name] = {
            "min_s": round(min(secs), 4),
            "median_s": round(statistics.median(secs), 4),
            "rows_selected": int(mask.sum()),
        }
        print(f"{name}: min {min(secs):.4f}s median {statistics.median(secs):.4f}s "
              f"selected {int(mask.sum())}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", default="BENCH_kernels.json")
    args = ap.parse_args()

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "seed": SEED,
        "cases": run_cases(),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
