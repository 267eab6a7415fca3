"""Unit tests for the dominance kernel (repro.core.dominance) and the
definitional dominance oracle it is checked against (tests.helpers)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import dominance as dm
from repro.core.spec import DimType, SkylineSpec, sdiff, smax, smin, spec_of

from tests.helpers import any_dominates


def arr(*rows):
    return np.array(rows, dtype=np.float64)


def dominates(r_mm, r_diff, s_mm, s_diff, *, incomplete=False):
    """The oracle's pair check: does tuple r dominate tuple s?"""
    return any_dominates(r_mm[None], None if r_diff is None else r_diff[None],
                         s_mm, s_diff, incomplete=incomplete)


class TestNormalizeMatrix:
    def test_min_passthrough_max_negated(self):
        spec = spec_of(smin("a"), smax("b"))
        pdf = pd.DataFrame({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "b"])
        assert diff is None
        np.testing.assert_array_equal(mm, arr([1, -3], [2, -4]))

    def test_diff_split_out(self):
        spec = spec_of(smin("a"), sdiff("c"))
        pdf = pd.DataFrame({"a": [1.0], "c": [9.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "c"])
        np.testing.assert_array_equal(mm, arr([1]))
        np.testing.assert_array_equal(diff, arr([9]))

    def test_null_becomes_nan(self):
        spec = spec_of(smin("a"))
        pdf = pd.DataFrame({"a": [1.0, None]})
        mm, _ = dm.normalize_matrix(pdf, spec, ["a"])
        assert np.isnan(mm[1, 0])

    def test_max_diff_negated_consistently(self):
        # DIFF on a MAX-marked dim is impossible (type is DIFF), but MAX
        # negation must not leak into diff columns.
        spec = spec_of(smax("a"), sdiff("c"))
        pdf = pd.DataFrame({"a": [2.0], "c": [5.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "c"])
        assert mm[0, 0] == -2.0 and diff[0, 0] == 5.0

    def test_cols_mismatch_rejected(self):
        spec = spec_of(smin("a"))
        with pytest.raises(ValueError):
            dm.normalize_matrix(pd.DataFrame({"a": [1.0]}), spec, ["a", "b"])

    def test_integer_input_cast(self):
        spec = spec_of(smin("a"))
        mm, _ = dm.normalize_matrix(pd.DataFrame({"a": [1, 2]}), spec, ["a"])
        assert mm.dtype == np.float64


def arrow_table(pdf: pd.DataFrame, cuts=()) -> pa.Table:
    """``pdf`` as an Arrow table of double columns (NaN as NULL), one
    chunk per slice between the row indices in ``cuts``."""
    bounds = [0, *cuts, len(pdf)]
    return pa.table({
        c: pa.chunked_array(
            [pa.array(pdf[c].to_numpy()[lo:hi], type=pa.float64(),
                      mask=np.isnan(pdf[c].to_numpy()[lo:hi]))
             for lo, hi in zip(bounds, bounds[1:])],
            type=pa.float64())
        for c in pdf.columns
    })


def assert_same_matrices(got, want):
    (g_mm, g_diff), (w_mm, w_diff) = got, want
    np.testing.assert_array_equal(g_mm, w_mm)  # NaN positions must match too
    assert g_mm.dtype == np.float64 and g_mm.shape == w_mm.shape
    if w_diff is None:
        assert g_diff is None
    else:
        np.testing.assert_array_equal(g_diff, w_diff)


_MARKERS = {"min": smin, "max": smax, "diff": sdiff}


@settings(max_examples=60, deadline=None)
@given(
    # The first dimension is MIN or MAX: a DIFF-only spec is rejected.
    kinds=st.tuples(st.sampled_from(["min", "max"]),
                    st.lists(st.sampled_from(sorted(_MARKERS)), max_size=3)).map(
                        lambda t: [t[0], *t[1]]),
    n=st.integers(0, 40),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_arrow_read_matches_pandas_path(kinds, n, seed, data):
    # Multi-chunk, then sliced so chunks start at a non-zero offset.
    rng = np.random.default_rng(seed)
    cols = [f"c{i}" for i in range(len(kinds))]
    vals = rng.integers(-3, 4, size=(n, len(cols))).astype(float)
    vals[rng.random(vals.shape) < 0.3] = np.nan
    pdf = pd.DataFrame(vals, columns=cols)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3), label="cuts"))
    lo = data.draw(st.integers(0, n), label="slice start")
    length = data.draw(st.integers(0, n - lo), label="slice length")
    spec = spec_of(*[_MARKERS[k](c) for k, c in zip(kinds, cols)])
    table = arrow_table(pdf, cuts).slice(lo, length)
    want = dm.normalize_matrix(pdf.iloc[lo:lo + length].reset_index(drop=True), spec, cols)
    assert_same_matrices(dm.normalize_matrix(table, spec, cols), want)


class TestNormalizeArrow:
    def test_max_negated_diff_split_nulls_nan(self):
        pdf = pd.DataFrame({"a": [1.0, np.nan, 3.0], "b": [4.0, 5.0, np.nan],
                            "c": [np.nan, 7.0, 8.0]})
        spec = spec_of(smin("a"), smax("b"), sdiff("c"))
        mm, diff = dm.normalize_matrix(arrow_table(pdf, [1]), spec, ["a", "b", "c"])
        np.testing.assert_array_equal(mm, arr([1, -4], [np.nan, -5], [3, np.nan]))
        np.testing.assert_array_equal(diff, arr([np.nan], [7], [8]))

    def test_zero_rows(self):
        spec = spec_of(smin("a"), sdiff("c"))
        pdf = pd.DataFrame({"a": np.empty(0), "c": np.empty(0)})
        for table in (arrow_table(pdf), arrow_table(pd.DataFrame({"a": [1.0], "c": [2.0]})).slice(1)):
            mm, diff = dm.normalize_matrix(table, spec, ["a", "c"])
            assert mm.shape == (0, 1) and diff.shape == (0, 1)

    def test_all_null_column(self):
        pdf = pd.DataFrame({"a": [np.nan] * 5, "b": [1.0, 2.0, 3.0, 4.0, 5.0]})
        spec = spec_of(smax("a"), smin("b"))
        table = arrow_table(pdf, [2]).slice(1)
        assert_same_matrices(dm.normalize_matrix(table, spec, ["a", "b"]),
                             dm.normalize_matrix(pdf.iloc[1:].reset_index(drop=True), spec, ["a", "b"]))

    def test_non_double_column_rejected(self):
        with pytest.raises(TypeError, match="double"):
            dm.normalize_matrix(pa.table({"a": pa.array([1, 2], pa.int64())}),
                                spec_of(smin("a")), ["a"])


class TestCompleteKernels:
    def test_strict_dominance(self):
        assert dominates(arr(1, 1), None, arr(2, 2), None)

    def test_equal_rows_do_not_dominate(self):
        assert not dominates(arr(1, 1), None, arr(1, 1), None)

    def test_incomparable(self):
        assert not dominates(arr(1, 2), None, arr(2, 1), None)
        assert not dominates(arr(2, 1), None, arr(1, 2), None)

    def test_weak_plus_one_strict(self):
        assert dominates(arr(1, 1), None, arr(1, 2), None)

    def test_diff_mismatch_blocks(self):
        assert not dominates(arr(1), arr(0), arr(2), arr(1))

    def test_diff_match_allows(self):
        assert dominates(arr(1), arr(7), arr(2), arr(7))

    def test_any_dominates(self):
        mm = arr([5, 5], [1, 1])
        assert any_dominates(mm, None, arr(2, 2), None, incomplete=False)
        assert not any_dominates(mm, None, arr(0, 0), None, incomplete=False)

    def test_any_dominates_empty_set(self):
        assert not any_dominates(np.empty((0, 2)), None, arr(1, 1), None, incomplete=False)

    def test_dominated_mask(self):
        mm = arr([1, 1])
        cand = arr([2, 2], [0, 0], [1, 1])
        mask = dm.dominated_mask(mm, None, cand, None)
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_dominated_mask_with_diff(self):
        mm = arr([1])
        diff = arr([0])
        cand = arr([2], [2])
        cand_diff = arr([0], [1])
        mask = dm.dominated_mask(mm, diff, cand, cand_diff)
        np.testing.assert_array_equal(mask, [True, False])

    def test_dominated_mask_empty(self):
        assert dm.dominated_mask(np.empty((0, 1)), None, arr([1]), None).tolist() == [False]
        assert dm.dominated_mask(arr([1]), None, np.empty((0, 1)), None).size == 0


class TestIncompleteKernels:
    def test_null_dims_skipped(self):
        # r=(1, NaN), s=(2, 5): only dim 0 comparable -> r < s.
        assert dominates(arr(1, np.nan), None, arr(2, 5), None, incomplete=True)

    def test_no_common_dims_incomparable(self):
        assert not dominates(arr(1, np.nan), None, arr(np.nan, 5), None, incomplete=True)

    def test_strict_needed_on_common(self):
        assert not dominates(arr(1, np.nan), None, arr(1, 5), None, incomplete=True)

    def test_cyclic_example_from_paper(self):
        # Paper §3: a=(1,*,10), b=(3,2,*), c=(*,5,3) — a<b, b<c, c<a.
        a, b, c = arr(1, np.nan, 10), arr(3, 2, np.nan), arr(np.nan, 5, 3)
        assert dominates(a, None, b, None, incomplete=True)
        assert dominates(b, None, c, None, incomplete=True)
        assert dominates(c, None, a, None, incomplete=True)
        assert not dominates(a, None, c, None, incomplete=True)

    def test_diff_null_treated_equal(self):
        assert dominates(arr(1), arr(np.nan), arr(2), arr(7), incomplete=True)
        assert not dominates(arr(1), arr(5), arr(2), arr(7), incomplete=True)

    def test_any_dominates_incomplete(self):
        mm = np.array([[1, np.nan], [np.nan, 5]])
        assert any_dominates(mm, None, arr(2, 2), None, incomplete=True)
        # Without the §3 semantics a NULL-bearing row dominates nothing.
        assert not any_dominates(mm, None, arr(2, 2), None, incomplete=False)

    def test_mask_exclude_self(self):
        mm = arr([1, 1], [1, 1])
        mask = dm.dominated_mask(mm, None, mm, None, exclude_self=True)
        np.testing.assert_array_equal(mask, [False, False])

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(1)
        mm = rng.random((40, 3))
        mm[rng.random((40, 3)) < 0.3] = np.nan
        mask = dm.dominated_mask(mm, None, mm, None, exclude_self=True)
        for i in range(40):
            others = np.arange(40) != i
            expected = any_dominates(mm[others], None, mm[i], None, incomplete=True)
            assert mask[i] == expected, i


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 30),
    st.integers(0, 10_000),
)
def test_batch_mask_agrees_with_scalar_complete(d, n, seed):
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    cand = rng.integers(0, 4, size=(7, d)).astype(float)
    mask = dm.dominated_mask(mm, None, cand, None)
    for i in range(7):
        assert mask[i] == any_dominates(mm, None, cand[i], None, incomplete=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 25), st.integers(0, 10_000))
def test_incomplete_reduces_to_complete_without_nans(d, n, seed):
    rng = np.random.default_rng(seed)
    mm = rng.random((n, d))
    t = rng.random(d)
    assert any_dominates(mm, None, t, None, incomplete=True) == any_dominates(
        mm, None, t, None, incomplete=False
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000))
def test_complete_dominance_is_transitive(d, seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(0, 3, size=(3, d)).astype(float)
    if dominates(a, None, b, None) and dominates(b, None, c, None):
        assert dominates(a, None, c, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_dominance_is_irreflexive_and_asymmetric(d, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 3, size=(2, d)).astype(float)
    assert not dominates(a, None, a, None)
    if dominates(a, None, b, None):
        assert not dominates(b, None, a, None)
