"""Expected answers computed without the code under test.

Two oracles, both built during set-up from the same generated inputs
the program receives:

* :func:`skyline_mask` — the Pareto skyline of the complete
  ``store_sales`` input, computed with NumPy.
* :func:`not_exists_sql` — benchmark-written Listing-4 ``NOT EXISTS``
  SQL that DuckDB evaluates for the ``sql_mix`` statements.

:func:`same_rows` compares a result frame with an expected one.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def min_matrix(pdf: pd.DataFrame, dims: list[tuple[str, str]]) -> np.ndarray:
    """(n, k) float matrix in which smaller is better; NULL becomes NaN."""
    cols = []
    for name, kind in dims:
        v = pdf[name].to_numpy(dtype=np.float64, na_value=np.nan)
        cols.append(-v if kind == "MAX" else v)
    return np.column_stack(cols)


def _dominated(targets: np.ndarray, pool: np.ndarray, budget: int = 2_000_000) -> np.ndarray:
    """Mask over ``targets``: some ``pool`` row dominates the target.

    A row never dominates itself (no dimension is strictly better).
    Pool rows are taken in growing blocks and dominated targets leave
    early, so a pool ordered strongest-first kills most targets in the
    first block.
    """
    out = np.zeros(len(targets), dtype=bool)
    alive = np.arange(len(targets))
    rest = targets
    lo, block = 0, 8
    while lo < len(pool) and alive.size:
        p = pool[lo:lo + min(block, max(8, budget // alive.size))]
        lo += len(p)
        block *= 2
        weak = np.ones((len(p), len(rest)), dtype=bool)
        strict = np.zeros((len(p), len(rest)), dtype=bool)
        for j in range(pool.shape[1]):
            a, b = p[:, j, None], rest[None, :, j]
            weak &= a <= b
            strict |= a < b
        hit = (weak & strict).any(axis=0)
        if hit.any():
            out[alive[hit]] = True
            alive, rest = alive[~hit], rest[~hit]
    return out


def _complete_skyline(x: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Row indices of the Pareto skyline of a NaN-free matrix.

    Rows are visited by (row sum, then columns) ascending.  Float
    addition is monotone, so a dominator never comes after the row it
    dominates, and by transitivity a row is in the skyline iff no
    earlier skyline row and no row of its own chunk dominates it.
    """
    order = np.lexsort(tuple(x.T[::-1]) + (x.sum(axis=1),))
    sky = np.empty(0, dtype=np.int64)
    for lo in range(0, len(order), chunk):
        idx = order[lo:lo + chunk]
        idx = idx[~_dominated(x[idx], x[sky])]
        idx = idx[~_dominated(x[idx], x[idx])]
        sky = np.concatenate([sky, idx])
    return sky


def skyline_mask(x: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the Pareto skyline of the NaN-free matrix ``x``."""
    if np.isnan(x).any():
        raise ValueError("the NumPy oracle covers complete data only")
    keep = np.zeros(len(x), dtype=bool)
    keep[_complete_skyline(x)] = True
    return keep


def not_exists_sql(base: str, select: str, dims: list[tuple[str, str]], *,
                   null_aware: bool) -> str:
    """Listing-4 rewrite of ``SKYLINE OF dims`` over the derived table ``base``.

    ``dims`` are (output column of ``base``, MIN|MAX|DIFF).  With
    ``null_aware`` every comparison also holds when either side is
    NULL, which is the §3 dominance the program implements for
    incomplete data.
    """
    weak, strict = [], []
    for col, kind in dims:
        i, o = f"i.{col}", f"o.{col}"
        nulls = f" OR {i} IS NULL OR {o} IS NULL" if null_aware else ""
        if kind == "DIFF":
            weak.append(f"({i} = {o}{nulls})")
            continue
        le, lt = ("<=", "<") if kind == "MIN" else (">=", ">")
        weak.append(f"({i} {le} {o}{nulls})")
        strict.append(f"{i} {lt} {o}")
    cond = " AND ".join(weak + [f"({' OR '.join(strict)})"])
    return (f"WITH b AS ({base}) SELECT {select} FROM b AS o "
            f"WHERE NOT EXISTS (SELECT 1 FROM b AS i WHERE {cond})")


def _canon(pdf: pd.DataFrame, ordered: bool) -> pd.DataFrame:
    pdf = pdf.reset_index(drop=True).copy()
    for c in pdf.columns:
        pdf[c] = pd.to_numeric(pdf[c], errors="coerce").astype("float64").round(9)
    if not ordered:
        pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
    return pdf


def same_rows(got: pd.DataFrame, expected: pd.DataFrame, *, ordered: bool = False) -> bool:
    """Same column names and the same multiset (or sequence) of numeric rows."""
    if list(got.columns) != list(expected.columns) or len(got) != len(expected):
        return False
    a, b = _canon(got, ordered), _canon(expected, ordered)
    return bool(((a == b) | (a.isna() & b.isna())).all().all())
