"""Unit tests for the BNL skyline kernels (repro.core.bnl)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bnl

from tests.helpers import naive_skyline_mask


def arr(*rows):
    return np.array(rows, dtype=np.float64)


class TestBnlComplete:
    def test_empty(self):
        assert bnl.bnl_skyline_mask(np.empty((0, 2)), None).size == 0

    def test_single_row(self):
        np.testing.assert_array_equal(bnl.bnl_skyline_mask(arr([1, 2]), None), [True])

    def test_simple_domination(self):
        mask = bnl.bnl_skyline_mask(arr([1, 1], [2, 2], [0, 3]), None)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_duplicates_all_kept(self):
        mask = bnl.bnl_skyline_mask(arr([1, 1], [1, 1], [2, 2]), None)
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_window_eviction(self, monkeypatch):
        # A later, better tuple must evict earlier window entries; blocks
        # of one row put each tuple in the window before the next arrives.
        monkeypatch.setattr(bnl, "_CHUNK", 1)
        mask = bnl.bnl_skyline_mask(arr([5, 5], [3, 3], [1, 1]), None)
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_diff_partitions_dominance(self):
        mm = arr([1], [2], [2])
        diff = arr([0], [0], [1])
        mask = bnl.bnl_skyline_mask(mm, diff)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="complete"):
            bnl.bnl_skyline_mask(arr([np.nan, 1]), None)

    def test_rejects_nan_in_diff(self):
        with pytest.raises(ValueError, match="complete"):
            bnl.bnl_skyline_mask(arr([1]), arr([np.nan]))

    def test_chunking_boundaries(self, monkeypatch):
        rng = np.random.default_rng(3)
        mm = rng.integers(0, 10, size=(300, 2)).astype(float)
        monkeypatch.setattr(bnl, "_CHUNK", 2048)
        full = bnl.bnl_skyline_mask(mm, None)
        for chunk in (1, 7, 64, 299, 300, 301):
            monkeypatch.setattr(bnl, "_CHUNK", chunk)
            np.testing.assert_array_equal(bnl.bnl_skyline_mask(mm, None), full)

    def test_anticorrelated_everyone_survives(self):
        n = 50
        mm = np.column_stack([np.arange(n), n - np.arange(n)]).astype(float)
        assert bnl.bnl_skyline_mask(mm, None).all()

    def test_correlated_single_survivor(self):
        n = 50
        mm = np.column_stack([np.arange(n), np.arange(n)]).astype(float)
        mask = bnl.bnl_skyline_mask(mm, None)
        assert mask.sum() == 1 and mask[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 60), st.integers(0, 10_000), st.booleans())
def test_bnl_matches_naive(d, n, seed, ties):
    rng = np.random.default_rng(seed)
    mm = (rng.integers(0, 4, size=(n, d)) if ties else rng.random((n, d)) * 4).astype(float)
    np.testing.assert_array_equal(
        bnl.bnl_skyline_mask(mm, None),
        naive_skyline_mask(mm, None, incomplete=False),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 40), st.integers(0, 10_000))
def test_bnl_with_diff_matches_naive(d, j, n, seed):
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    diff = rng.integers(0, 3, size=(n, j)).astype(float)
    np.testing.assert_array_equal(
        bnl.bnl_skyline_mask(mm, diff),
        naive_skyline_mask(mm, diff, incomplete=False),
    )


_SIGNED_ZERO_AND_INF = np.array([-np.inf, -0.0, 0.0, np.inf])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 5, 17]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 200),
    st.integers(0, 10_000),
    st.booleans(),
)
def test_block_bnl_matches_naive(chunk, d, j, n, seed, specials):
    """Small blocks over up to 200 tie-heavy rows: every block step runs many times.

    ``j`` DIFF columns (none when 0); with ``specials`` about a third of
    the values become -inf, -0.0, +0.0 or +inf (-0.0 equals +0.0).
    """
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 3, size=(n, d)).astype(float)
    diff = rng.integers(0, 2, size=(n, j)).astype(float) if j else None
    if specials:
        for x in (mm,) if diff is None else (mm, diff):
            hit = rng.random(x.shape) < 0.3
            x[hit] = rng.choice(_SIGNED_ZERO_AND_INF, size=int(hit.sum()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bnl, "_CHUNK", chunk)
        got = bnl.bnl_skyline_mask(mm, diff)
    np.testing.assert_array_equal(got, naive_skyline_mask(mm, diff, incomplete=False))


class TestIncompleteLocal:
    def test_groups_by_bitmap(self):
        # Two bitmap groups; dominance only inside a group.
        mm = arr([1, np.nan], [2, np.nan], [np.nan, 1], [np.nan, 2])
        mask = bnl.incomplete_local_skyline_mask(mm, None)
        np.testing.assert_array_equal(mask, [True, False, True, False])

    def test_cross_bitmap_dominance_not_applied_locally(self):
        # (1,NaN) null-aware-dominates (2,5), but local stage must keep
        # both — they are in different bitmap groups (Lemma 5.1 relies
        # on the global stage catching this).
        mm = arr([1, np.nan], [2, 5])
        mask = bnl.incomplete_local_skyline_mask(mm, None)
        np.testing.assert_array_equal(mask, [True, True])

    def test_all_null_group_kept(self):
        mm = arr([np.nan], [np.nan])
        np.testing.assert_array_equal(bnl.incomplete_local_skyline_mask(mm, None), [True, True])

    def test_no_nulls_single_group(self):
        rng = np.random.default_rng(5)
        mm = rng.integers(0, 4, size=(60, 3)).astype(float)
        np.testing.assert_array_equal(
            bnl.incomplete_local_skyline_mask(mm, None),
            bnl.bnl_skyline_mask(mm, None),
        )

    def test_diff_column_nulls(self):
        # Same mm bitmap, diff NaN vs non-NaN -> different groups.
        mm = arr([1], [2])
        diff = arr([np.nan], [7])
        mask = bnl.incomplete_local_skyline_mask(mm, diff)
        np.testing.assert_array_equal(mask, [True, True])

    def test_local_is_superset_of_global(self):
        rng = np.random.default_rng(9)
        mm = rng.random((80, 3))
        mm[rng.random((80, 3)) < 0.3] = np.nan
        local = bnl.incomplete_local_skyline_mask(mm, None)
        g = bnl.incomplete_global_skyline_mask(mm, None)
        assert (local | ~g).all()  # global skyline ⊆ local survivors


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 512]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 60),
    st.integers(0, 10_000),
)
def test_incomplete_local_matches_naive_per_bitmap_group(chunk, d, j, n, seed):
    """Each null-bitmap group keeps exactly its own null-aware skyline.

    ``j`` DIFF columns (none when 0); NULL in about 30% of the MIN/MAX
    and of the DIFF values, so groups differ in DIFF NULLs too.
    """
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    mm[rng.random((n, d)) < 0.3] = np.nan
    diff = None
    nulls = np.isnan(mm)
    if j:
        diff = rng.integers(0, 2, size=(n, j)).astype(float)
        diff[rng.random((n, j)) < 0.3] = np.nan
        nulls = np.hstack([nulls, np.isnan(diff)])
    expected = np.zeros(n, dtype=bool)
    for bitmap in np.unique(nulls, axis=0):
        rows = (nulls == bitmap).all(axis=1)
        expected[rows] = naive_skyline_mask(
            mm[rows], None if diff is None else diff[rows], incomplete=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bnl, "_CHUNK", chunk)
        got = bnl.incomplete_local_skyline_mask(mm, diff)
    np.testing.assert_array_equal(got, expected)


class TestIncompleteGlobal:
    def test_paper_appendix_a_counterexample(self):
        # a=(1,*,10), b=(3,2,*), c=(*,5,3): cyclic dominance, skyline empty.
        mm = arr([1, np.nan, 10], [3, 2, np.nan], [np.nan, 5, 3])
        mask = bnl.incomplete_global_skyline_mask(mm, None)
        np.testing.assert_array_equal(mask, [False, False, False])

    def test_no_premature_deletion(self):
        # b dominated by a; b dominates c; c incomparable to a.
        # Deleting b early would wrongly keep... still must flag c.
        mm = arr([1, 1, np.nan], [2, 2, np.nan], [np.nan, 3, 1])
        mask = bnl.incomplete_global_skyline_mask(mm, None)
        # a keeps; b flagged (a<b); c flagged (b<c via dim 1: 2<3).
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_reduces_to_complete_without_nans(self):
        rng = np.random.default_rng(11)
        mm = rng.integers(0, 4, size=(50, 3)).astype(float)
        np.testing.assert_array_equal(
            bnl.incomplete_global_skyline_mask(mm, None),
            bnl.bnl_skyline_mask(mm, None),
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 40), st.integers(0, 10_000))
def test_incomplete_global_matches_naive(d, j, n, seed):
    """``j`` DIFF columns (none when 0), NULL in about 30% of every matrix."""
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    mm[rng.random((n, d)) < 0.3] = np.nan
    diff = None
    if j:
        diff = rng.integers(0, 2, size=(n, j)).astype(float)
        diff[rng.random((n, j)) < 0.3] = np.nan
    np.testing.assert_array_equal(
        bnl.incomplete_global_skyline_mask(mm, diff),
        naive_skyline_mask(mm, diff, incomplete=True),
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 50), st.integers(0, 10_000))
def test_local_then_global_pipeline_is_correct(d, n, seed):
    """Lemma 5.1: local (bitmap) pruning then global all-pairs = true skyline."""
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    mm[rng.random((n, d)) < 0.25] = np.nan
    local = bnl.incomplete_local_skyline_mask(mm, None)
    survivors = mm[local]
    g = bnl.incomplete_global_skyline_mask(survivors, None)
    got = np.zeros(n, dtype=bool)
    got[np.flatnonzero(local)[g]] = True
    np.testing.assert_array_equal(got, naive_skyline_mask(mm, None, incomplete=True))
