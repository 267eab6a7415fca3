"""The dominance-check utility (paper §5.5): one vectorized batch kernel.

:func:`dominated_mask` is the only dominance test the algorithms run.
It works on *sign-normalized* float64 matrices: MAX dimensions are
negated up front so that "better" always means "smaller", and NULL is
NaN.

The physical layer runs the kernel in ``mapInArrow`` stages over
Arrow buffers: :func:`normalize_matrix` builds the matrices from the
Arrow columns without pandas.

Matrix layout: ``mm`` is the (n, k) matrix of MIN/MAX values (already
normalized), ``diff`` is the (n, j) matrix of DIFF values (or None if
the spec has no DIFF dimensions).

Definition 3.1 (complete data): r dominates s iff
  * r == s on every DIFF dimension, and
  * r <= s on every normalized MIN/MAX dimension, and
  * r <  s on at least one normalized MIN/MAX dimension.

Incomplete data (§3): every comparison is restricted to dimensions
where *both* tuples are non-NULL; DIFF dimensions where either side is
NULL are treated as equal.  This relation is not transitive, which is
why the incomplete global phase (bnl.py) never deletes eagerly.  On
NaN-free input it is Definition 3.1, so the one null-aware kernel
serves both semantics; the complete algorithms never pass NaN
(``bnl.bnl_skyline_mask`` rejects it).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .spec import DimType, SkylineSpec

__all__ = ["normalize_matrix", "dominated_mask"]


def _arrow_column(chunked: pa.ChunkedArray) -> np.ndarray:
    """A float64 copy of an Arrow double column, NULL as NaN.

    Reads each chunk's validity and data buffers directly (honouring
    the chunk's ``offset``), because ``Array.to_numpy`` and
    ``np.asarray`` import pandas on first use and a stage worker never
    needs it.
    """
    if chunked.type != pa.float64():
        raise TypeError(f"expected an Arrow double column, got {chunked.type}")
    parts = []
    for chunk in chunked.chunks:
        lo, n = chunk.offset, len(chunk)
        validity, data = chunk.buffers()
        v = np.frombuffer(data, dtype=np.float64, count=lo + n)[lo:]
        if chunk.null_count:
            valid = np.unpackbits(np.frombuffer(validity, dtype=np.uint8),
                                  count=lo + n, bitorder="little")[lo:]
            v = np.where(valid, v, np.nan)
        parts.append(v)
    # concatenate copies, so the result no longer reads Arrow's memory.
    return np.concatenate(parts) if parts else np.empty(0)


def normalize_matrix(data, spec: SkylineSpec, cols: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """Extract (mm, diff) float64 matrices from ``data``.

    ``data`` is a ``pyarrow.Table`` whose ``cols`` are double columns
    (what the ``mapInArrow`` stages receive) or a pandas DataFrame with
    numeric ``cols``.  ``cols`` gives the materialized column name of
    each dimension in clause order (dimension expressions are
    pre-evaluated into columns by the physical layer).  MAX columns are
    negated; NULL becomes NaN.
    """
    if len(cols) != len(spec.dimensions):
        raise ValueError("cols must align 1:1 with spec.dimensions")
    arrow = isinstance(data, pa.Table)
    mm_cols: list[np.ndarray] = []
    diff_cols: list[np.ndarray] = []
    for dim, col in zip(spec.dimensions, cols):
        if arrow:
            v = _arrow_column(data.column(col))
        else:
            v = data[col].to_numpy(dtype=np.float64, na_value=np.nan)
        if dim.dim_type is DimType.MAX:
            v = -v
        (diff_cols if dim.dim_type is DimType.DIFF else mm_cols).append(v)
    n = len(data)
    mm = np.column_stack(mm_cols) if mm_cols else np.empty((n, 0))
    diff = np.column_stack(diff_cols) if diff_cols else None
    return mm, diff


def _check_pair_shapes(mm: np.ndarray, diff: np.ndarray | None) -> None:
    if mm.ndim != 2:
        raise ValueError("mm must be 2-D (n, k)")
    if diff is not None and diff.shape[0] != mm.shape[0]:
        raise ValueError("diff row count must match mm")


# About 4M (set, candidate) pairs per block: each (n_set, block) boolean
# accumulator then stays near 4 MB whatever the window size.
_BLOCK_PAIRS = 4_000_000


def _columns(x: np.ndarray | None) -> np.ndarray:
    """The columns of ``x`` as contiguous rows (none for ``None``).

    The folds read one dimension at a time; a contiguous copy of each
    column is much faster to stream than a strided view of ``x``.
    """
    return np.empty((0, 0)) if x is None else np.ascontiguousarray(x.T)


def _cand_blocks(n_set: int, n_cand: int):
    """``(lo, hi)`` candidate ranges of at most ``_BLOCK_PAIRS // n_set`` rows."""
    step = max(1, _BLOCK_PAIRS // n_set)
    for lo in range(0, n_cand, step):
        yield lo, min(n_cand, lo + step)


def dominated_mask(mm: np.ndarray, diff: np.ndarray | None,
                   cand_mm: np.ndarray, cand_diff: np.ndarray | None,
                   *, exclude_self: bool = False) -> np.ndarray:
    """Null-aware batch mask: candidate i dominated by some row of the set.

    The one batch dominance kernel.  For each block of candidates the
    test is folded one dimension at a time into 2-D ``(n_set, block)``
    accumulators, with no ``(n_set, block, k)`` temporary (peak memory
    is a few ``(n_set, block)`` boolean arrays, see
    :func:`_cand_blocks`).  Every comparison with NaN is False, so ::

        worse  = OR_j  set[:, j] > cand[:, j]
                 OR_j  set_diff[:, j] < cand_diff[:, j] | set_diff[:, j] > cand_diff[:, j]
        better = OR_j  set[:, j] < cand[:, j]
        dom    = better & ~worse

    only look at dimensions where both values are non-NULL, and a NULL
    DIFF value matches everything.  On NaN-free input this is
    Definition 3.1: ``better & ~worse`` is "no worse everywhere and
    strictly better somewhere", and a DIFF value is neither below nor
    above exactly the values it equals.

    With ``exclude_self=True`` the set and candidates are the *same*
    array and row i is not compared against itself — this is the
    all-pairs global phase for incomplete data (Appendix A "Correct
    Skyline Computation"): flags are computed against the full set and
    only applied afterwards, so cyclic dominance never deletes a
    dominator prematurely.
    """
    _check_pair_shapes(mm, diff)
    n_set = mm.shape[0]
    n_cand = cand_mm.shape[0]
    out = np.zeros(n_cand, dtype=bool)
    if n_set == 0 or n_cand == 0:
        return out
    s_mm, c_mm = _columns(mm), _columns(cand_mm)
    s_diff, c_diff = _columns(diff), _columns(cand_diff)
    for lo, hi in _cand_blocks(n_set, n_cand):
        shape = (n_set, hi - lo)
        worse, better, tmp = np.zeros(shape, bool), np.zeros(shape, bool), np.empty(shape, bool)
        for a, b in zip(s_mm, c_mm):
            a, b = a[:, None], b[None, lo:hi]
            worse |= np.greater(a, b, out=tmp)
            better |= np.less(a, b, out=tmp)
        for a, b in zip(s_diff, c_diff):
            a, b = a[:, None], b[None, lo:hi]
            worse |= np.less(a, b, out=tmp)
            worse |= np.greater(a, b, out=tmp)
        dom = np.logical_and(better, ~worse, out=better)
        if exclude_self:
            idx = np.arange(lo, hi)
            dom[idx, idx - lo] = False
        out[lo:hi] = dom.any(axis=0)
    return out
