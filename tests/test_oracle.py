"""Tests for the DuckDB result-equality oracle (repro.oracle) and the
definitional skyline oracle (tests.helpers.skyline_oracle_pandas)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.spec import sdiff, smin, spec_of
from repro.oracle import assert_equivalent

from tests.helpers import skyline_oracle_pandas


class TestAssertEquivalent:
    def test_identical_frames_pass(self, spark):
        pdf = pd.DataFrame({"a": [1, 2, 3], "b": [1.5, 2.5, 3.5]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT a, b FROM t", t=pdf)

    def test_row_order_irrelevant(self, spark):
        pdf = pd.DataFrame({"a": [3, 1, 2]})
        df = spark.createDataFrame(pd.DataFrame({"a": [1, 2, 3]}))
        assert_equivalent(df, "SELECT a FROM t", t=pdf)

    def test_column_order_irrelevant(self, spark):
        pdf = pd.DataFrame({"a": [1], "b": [2]})
        df = spark.createDataFrame(pdf[["b", "a"]])
        assert_equivalent(df, "SELECT a, b FROM t", t=pdf)

    def test_value_mismatch_fails(self, spark):
        pdf = pd.DataFrame({"a": [1, 2]})
        df = spark.createDataFrame(pd.DataFrame({"a": [1, 99]}))
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT a FROM t", t=pdf)

    def test_column_name_mismatch_fails(self, spark):
        pdf = pd.DataFrame({"a": [1]})
        df = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT a FROM t", t=pdf)

    def test_nan_rows_compare_equal(self, spark):
        pdf = pd.DataFrame({"a": [1.0, np.nan]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT a FROM t", t=pdf)

    def test_spark_input_tables_accepted(self, spark):
        pdf = pd.DataFrame({"a": [1, 2]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT a FROM t", t=df)

    def test_float_rounding_tolerance(self, spark):
        pdf = pd.DataFrame({"a": [0.1 + 0.2]})
        df = spark.createDataFrame(pd.DataFrame({"a": [0.3]}))
        assert_equivalent(df, "SELECT a FROM t", t=pdf)


class TestSkylineOracle:
    def test_int64_above_2_53_stays_exact(self):
        # float64 merges these two values; the oracle must not.
        pdf = pd.DataFrame({"v": np.array([2**53 + 1, 2**53], dtype=np.int64)})
        for incomplete in (False, True):
            out = skyline_oracle_pandas(pdf, spec_of(smin("v")), incomplete=incomplete)
            assert out["v"].tolist() == [2**53]

    def test_string_diff_values_incomparable(self):
        pdf = pd.DataFrame({"p": [1, 2, 3], "g": ["x", "y", "x"]})
        out = skyline_oracle_pandas(pdf, spec_of(smin("p"), sdiff("g")), incomplete=False)
        assert out.index.tolist() == [0, 1]

    @pytest.mark.parametrize("g", [[None, "x"], ["x", None]])
    def test_null_diff_matches_only_under_incomplete(self, g):
        pdf = pd.DataFrame({"p": [1, 2], "g": g})
        spec = spec_of(smin("p"), sdiff("g"))
        assert skyline_oracle_pandas(pdf, spec, incomplete=True).index.tolist() == [0]
        assert skyline_oracle_pandas(pdf, spec, incomplete=False).index.tolist() == [0, 1]
