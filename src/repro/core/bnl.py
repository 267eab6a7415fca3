"""Block-Nested-Loop skyline kernels (paper §5.6 / §5.7).

These functions compute *keep masks* over pre-normalized matrices (see
``dominance.normalize_matrix``): MAX dimensions already negated, NULL
as NaN.  The physical layer (physical.py) feeds them each partition's
matrices from ``mapInArrow`` stages over Arrow buffers.

* :func:`bnl_skyline_mask` — the window-based BNL algorithm [5] for
  complete data, used for both the local and the global stage of the
  "complete" algorithms.  Rows are merged into the window a block at a
  time by three batch dominance checks (window → block, block → block,
  block → window); no step loops over single rows.
* :func:`incomplete_local_skyline_mask` — local stage for incomplete
  data: rows are grouped by their null bitmap (which dimensions are
  NULL) and a complete BNL runs inside each group over the group's
  non-NULL dimensions.  Inside a group all tuples share the same NULL
  positions, so dominance is transitive again (§5.7).
* :func:`incomplete_global_skyline_mask` — global stage for incomplete
  data: all-pairs, flag-then-delete (Appendix A, "Correct Skyline
  Computation") so cyclic dominance relationships cannot resurrect
  dominated tuples.

Every dominance test runs through the one batch kernel
``dominance.dominated_mask``.
"""
from __future__ import annotations

import numpy as np

from . import dominance as dm

__all__ = [
    "bnl_skyline_mask",
    "incomplete_local_skyline_mask",
    "incomplete_global_skyline_mask",
]

_CHUNK = 512


def bnl_skyline_mask(mm: np.ndarray, diff: np.ndarray | None, *, chunk: int = _CHUNK) -> np.ndarray:
    """Complete-data BNL: boolean keep-mask of the skyline rows of (mm, diff).

    The window holds (indices of) the skyline of all rows seen so far
    [5].  Rows arrive in blocks of ``chunk``; each block is merged into
    the window by three batch steps, with no per-row loop:

    1. drop the candidates dominated by a window row;
    2. drop the candidates dominated by another surviving candidate
       (a row never dominates an equal row, itself included, so the
       block is simply compared with itself);
    3. evict the window rows dominated by a remaining candidate, and
       append the remaining candidates to the window.

    This is exact because complete dominance is a strict partial order
    (irreflexive and transitive), so the skyline is the unique set of
    minimal rows, and in a finite set every non-minimal row is
    dominated by a minimal one.  Assume the window is the skyline of
    the rows seen before the block.  A candidate dominated by an
    earlier row is then dominated by a window row, so step 1 finds it.
    A candidate dominated by a candidate that step 1 dropped is, by
    transitivity, dominated by a window row too, so step 2 only needs
    the step-1 survivors; and it leaves exactly their minimal rows.
    In step 3, a window row dominated by a candidate that step 2
    dropped is dominated by a step-2 survivor (transitivity again),
    and no window row is dominated by a candidate that step 1 dropped,
    since that would put one window row below another.  So after step
    3 the window is the skyline of every row seen so far.
    """
    n = mm.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    if np.isnan(mm).any() or (diff is not None and np.isnan(diff).any()):
        raise ValueError("bnl_skyline_mask requires complete (NaN-free) data")

    def dominated(by: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return dm.dominated_mask(
            mm[by], None if diff is None else diff[by],
            mm[rows], None if diff is None else diff[rows],
        )

    window = np.empty(0, dtype=np.int64)
    for lo in range(0, n, chunk):
        cand = np.arange(lo, min(n, lo + chunk))
        cand = cand[~dominated(window, cand)]
        cand = cand[~dominated(cand, cand)]
        window = np.concatenate([window[~dominated(cand, window)], cand])
    keep[window] = True
    return keep


def _null_bitmaps(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Row-wise null bitmap over all skyline dimensions, encoded as an int."""
    nan = np.isnan(mm)
    if diff is not None:
        nan = np.concatenate([nan, np.isnan(diff)], axis=1)
    if not nan.shape[1]:
        return np.zeros(mm.shape[0], dtype=np.int64)
    weights = 1 << np.arange(nan.shape[1], dtype=np.int64)
    return nan.astype(np.int64) @ weights


def incomplete_local_skyline_mask(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Local skyline for (potentially) incomplete data (§5.7).

    Partition rows by null bitmap; run a complete BNL per bitmap group
    restricted to the group's non-NULL dimensions.  Groups whose
    MIN/MAX dimensions are all NULL have no dominance relation and are
    kept wholesale.
    """
    n = mm.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    bitmaps = _null_bitmaps(mm, diff)
    for b in np.unique(bitmaps):
        rows = np.flatnonzero(bitmaps == b)
        g_mm = mm[rows]
        g_diff = None if diff is None else diff[rows]
        mm_cols = ~np.isnan(g_mm[0]) if g_mm.shape[1] else np.empty(0, dtype=bool)
        sub_mm = g_mm[:, mm_cols]
        sub_diff = None
        if g_diff is not None and g_diff.shape[1]:
            diff_cols = ~np.isnan(g_diff[0])
            sub_diff = g_diff[:, diff_cols] if diff_cols.any() else None
        if sub_mm.shape[1] == 0:
            keep[rows] = True  # no comparable dimension -> nothing dominates
            continue
        keep[rows] = bnl_skyline_mask(sub_mm, sub_diff)
    return keep


def incomplete_global_skyline_mask(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Global skyline for incomplete data: all-pairs with deferred deletion.

    Every tuple is compared against every other tuple; dominated
    tuples are only *flagged* and all flags are applied at the end
    (Appendix A).  This is O(n²) but safe under cyclic dominance.
    """
    dominated = dm.dominated_mask(mm, diff, mm, diff, exclude_self=True)
    return ~dominated
