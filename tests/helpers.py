"""Shared test utilities: the definitional skyline oracle, and the
physical plan Spark runs for a DataFrame.

This is the tests' one statement of dominance (Definition 3.1 and its
§3 null-aware form), written independently of ``repro.core``: the
oracle builds its own matrices from the raw columns and checks each
tuple against every other one, so a fault in ``normalize_matrix`` or
in the batch kernel cannot hide in the expected answer.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.oracle import assert_equivalent
from repro.core.spec import DimType, SkylineSpec

__all__ = [
    "any_dominates",
    "naive_skyline_mask",
    "skyline_oracle_pandas",
    "assert_skyline_equals_oracle",
    "executed_plan",
]


def any_dominates(mm: np.ndarray, diff: np.ndarray | None,
                  t_mm: np.ndarray, t_diff: np.ndarray | None, *,
                  incomplete: bool) -> bool:
    """Is tuple t dominated by any row of the (mm, diff) set?

    MIN/MAX values are sign-normalized (smaller is better), NULL is
    NaN.  With ``incomplete`` (§3) a dimension counts only where both
    values are non-NULL, and a NULL DIFF value equals everything.
    Without it a comparison with NaN is never true, as in SQL's
    three-valued logic, so a NULL-bearing row neither dominates nor is
    dominated.
    """
    with np.errstate(invalid="ignore"):
        le, lt = mm <= t_mm, mm < t_mm
        eq = None if diff is None else diff == t_diff
    if incomplete:
        le |= np.isnan(mm) | np.isnan(t_mm)
        if eq is not None:
            eq |= np.isnan(diff) | np.isnan(t_diff)
    # A comparison with NaN is False, so ``lt`` never counts a NULL.
    dom = le.all(axis=1) & lt.any(axis=1)
    if eq is not None:
        dom &= eq.all(axis=1)
    return bool(dom.any())


def naive_skyline_mask(mm: np.ndarray, diff: np.ndarray | None, *,
                       incomplete: bool) -> np.ndarray:
    """Definitional O(n²) skyline: row i survives iff no other row dominates it."""
    n = mm.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        others = np.arange(n) != i
        keep[i] = not any_dominates(
            mm[others], None if diff is None else diff[others],
            mm[i], None if diff is None else diff[i], incomplete=incomplete,
        )
    return keep


def _codes(col: pd.Series) -> np.ndarray:
    """Dense ranks of ``col`` from 0 (equal values share one), NULL as NaN.

    ``factorize(sort=True)`` numbers the distinct values in sorted
    order, so the codes keep every order and every tie of the column:
    int64 values above 2^53 stay distinct, -0.0 equals +0.0, and any
    comparable type (strings too) works.
    """
    codes, _ = pd.factorize(col, sort=True)
    return np.where(codes < 0, np.nan, codes.astype(np.float64))


def skyline_oracle_pandas(pdf: pd.DataFrame, spec: SkylineSpec, *,
                          incomplete: bool) -> pd.DataFrame:
    """The rows of ``pdf`` in the skyline of ``spec`` (each dimension a column name)."""
    mm_cols: list[np.ndarray] = []
    diff_cols: list[np.ndarray] = []
    for d in spec.dimensions:
        v = _codes(pdf[d.expr])
        if d.dim_type is DimType.DIFF:
            diff_cols.append(v)
        else:
            mm_cols.append(-v if d.dim_type is DimType.MAX else v)
    mm = np.column_stack(mm_cols) if mm_cols else np.empty((len(pdf), 0))
    diff = np.column_stack(diff_cols) if diff_cols else None
    return pdf[naive_skyline_mask(mm, diff, incomplete=incomplete)]


def assert_skyline_equals_oracle(spark_df, input_pdf: pd.DataFrame,
                                 spec: SkylineSpec, *, incomplete: bool) -> None:
    """Diff a Spark skyline result against the definitional pandas oracle.

    Uses the DuckDB-equality machinery of repro.oracle for canonical
    row comparison by registering the oracle output as a table.
    """
    expected = skyline_oracle_pandas(input_pdf, spec, incomplete=incomplete)
    cols = ", ".join(spark_df.columns)
    assert_equivalent(spark_df, f"SELECT {cols} FROM expected", expected=expected)


def executed_plan(df) -> str:
    """The physical plan Spark will run for ``df``, as ``explain`` prints it."""
    return df._jdf.queryExecution().executedPlan().toString()
