"""Integration tests: the four physical algorithms on Spark (repro.core.physical).

Every result-checking test diffs against a definitional oracle (and,
for complete data, the DuckDB-executed Listing-4 rewrite) — §5.9's
"intensively tested ... verified against the equivalent plain SQL".
"""
import datetime
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest

from repro.api import skyline
from repro.core import physical
from repro.core.physical import ALGORITHMS, compute_skyline, listing4_sql
from repro.core.spec import SkylineSpec, sdiff, smax, smin, spec_of
from repro.oracle import assert_equivalent
from repro.sqlext import sky_sql

from tests.helpers import assert_skyline_equals_oracle, skyline_oracle_pandas

SPECIALIZED = [a for a in ALGORITHMS if a != "reference"]


def make_pdf(seed: int, n: int = 300, *, ties: bool = True, null_rate: float = 0.0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    if ties:
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        c = rng.integers(0, 4, n).astype(float)
    else:
        a, b, c = rng.random(n) * 10, rng.random(n) * 10, rng.random(n) * 10
    pdf = pd.DataFrame({"id": np.arange(n), "a": a, "b": b, "c": c})
    if null_rate:
        for col in ("a", "b", "c"):
            pdf.loc[rng.random(n) < null_rate, col] = np.nan
    return pdf


class TestCompleteAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("ties", [True, False])
    def test_matches_definitional_oracle(self, spark, algorithm, ties):
        pdf = make_pdf(1, ties=ties)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_duckdb_reference(self, spark, algorithm):
        pdf = make_pdf(2)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        sql = listing4_sql("t", spec, ["a", "b"], null_aware=False)
        assert_equivalent(out, sql, t=pdf)

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    @pytest.mark.parametrize("parallelism", [1, 3, 8])
    def test_parallelism_does_not_change_result(self, spark, algorithm, parallelism):
        pdf = make_pdf(3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm, parallelism=parallelism)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_dimension(self, spark, algorithm):
        pdf = make_pdf(4)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        got = out.toPandas()
        assert set(got["a"]) == {pdf["a"].min()}
        assert len(got) == (pdf["a"] == pdf["a"].min()).sum()

    def test_empty_input(self, spark):
        df = spark.createDataFrame(make_pdf(5)).where("id < 0")
        spec = spec_of(smin("a"), smax("b"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 0

    def test_single_row(self, spark):
        pdf = make_pdf(6).head(1)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 1

    def test_all_duplicates_kept_without_distinct(self, spark):
        pdf = pd.DataFrame({"id": range(10), "a": [1.0] * 10})
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 10

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distinct_keeps_one_per_value_tuple(self, spark, algorithm):
        pdf = pd.DataFrame({"id": range(10), "a": [1.0] * 10})
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), distinct=True, complete=True)
        assert compute_skyline(df, spec, algorithm=algorithm).count() == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diff_dimension(self, spark, algorithm):
        pdf = make_pdf(7)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), sdiff("c"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    def test_expression_dimensions(self, spark):
        pdf = make_pdf(8)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a + c"), smax("b * 2"), complete=True)
        out = compute_skyline(df, spec, algorithm="distributed_complete").toPandas()
        work = pdf.assign(**{"a + c": pdf.a + pdf.c, "b * 2": pdf.b * 2})
        exp = skyline_oracle_pandas(
            work, spec_of(smin("a + c"), smax("b * 2")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_internal_columns_dropped(self, spark):
        df = spark.createDataFrame(make_pdf(9))
        out = compute_skyline(df, spec_of(smin("a"), complete=True),
                              algorithm="distributed_complete")
        assert out.columns == df.columns

    def test_column_collision_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"__sky_d0": [1.0]}))
        with pytest.raises(ValueError, match="collides"):
            compute_skyline(df, spec_of(smin("__sky_d0"), complete=True))

    def test_unknown_algorithm_rejected(self, spark):
        df = spark.createDataFrame(make_pdf(10))
        with pytest.raises(ValueError, match="unknown algorithm"):
            compute_skyline(df, spec_of(smin("a")), algorithm="bogus")

    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True])
    def test_bad_parallelism_rejected(self, spark, parallelism):
        df = spark.createDataFrame(make_pdf(10))
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            compute_skyline(df, spec_of(smin("a"), smax("b")), parallelism=parallelism)

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_payload_types_pass_through_empty_partitions(self, spark, algorithm):
        # Three rows over eight local partitions: most partitions are
        # empty, so their local stages emit nothing.  Every payload type
        # must come back from both Arrow stages exactly as it went in.
        schema = ("id INT, a DOUBLE, b DOUBLE, s STRING, dec DECIMAL(12,3), "
                  "d DATE, ts TIMESTAMP")
        rows = [
            (0, 1.0, 1.0, "x", Decimal("1.250"), datetime.date(2024, 1, 1),
             datetime.datetime(2024, 1, 1, 12, 0, 0, 123456)),
            (1, 2.0, 2.0, "y", Decimal("999999999.999"), datetime.date(1900, 2, 28),
             datetime.datetime(2024, 1, 2)),
            (2, 0.5, 3.0, None, Decimal("-7.001"), None,
             datetime.datetime(1969, 12, 31, 23, 59, 59, 999999)),
        ]
        df = spark.createDataFrame(rows, schema)
        out = compute_skyline(df, spec_of(smin("a"), smin("b")), algorithm=algorithm,
                              parallelism=8)
        assert out.schema == df.schema
        assert sorted(tuple(r) for r in out.collect()) == [rows[0], rows[2]]


class TestIncompleteAlgorithm:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("null_rate", [0.15, 0.4])
    def test_matches_null_aware_oracle(self, spark, seed, null_rate):
        pdf = make_pdf(20 + seed, null_rate=null_rate)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        out = compute_skyline(df, spec, algorithm="distributed_incomplete", parallelism=4)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_reference_null_aware_matches(self, spark, seed):
        pdf = make_pdf(30 + seed, null_rate=0.25)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        out = compute_skyline(df, spec, algorithm="reference")
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    def test_paper_appendix_a_counterexample_end_to_end(self, spark):
        # a=(1,*,10), b=(3,2,*), c=(*,5,3): cyclic dominance -> empty skyline.
        pdf = pd.DataFrame(
            {"x": [1.0, 3.0, np.nan], "y": [np.nan, 2.0, 5.0], "z": [10.0, np.nan, 3.0]}
        )
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("x"), smin("y"), smin("z"))
        for algorithm in ("distributed_incomplete", "reference"):
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 0

    def test_incomplete_on_complete_data_matches_complete(self, spark):
        pdf = make_pdf(40)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"))
        a = compute_skyline(df, spec, algorithm="distributed_incomplete").toPandas()
        b = compute_skyline(df, SkylineSpec(spec.dimensions, complete=True),
                            algorithm="distributed_complete").toPandas()
        assert sorted(a["id"]) == sorted(b["id"])

    def test_diff_with_nulls(self, spark):
        pdf = make_pdf(41, null_rate=0.2)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), sdiff("c"))
        out = compute_skyline(df, spec, algorithm="distributed_incomplete")
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    def test_complete_algorithm_rejects_actual_nulls(self, spark):
        # COMPLETE on data that does contain NULLs is a user error; we
        # surface it instead of silently computing garbage.
        pdf = make_pdf(42, null_rate=0.3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        with pytest.raises(Exception):
            compute_skyline(df, spec, algorithm="distributed_complete").count()


@pytest.fixture
def chosen(monkeypatch):
    """Every algorithm Listing 8 picks while the test builds skylines."""
    picks = []
    select = physical.select_algorithm

    def spy(*args):
        picks.append(select(*args))
        return picks[-1]

    monkeypatch.setattr(physical, "select_algorithm", spy)
    return picks


@pytest.fixture(scope="module")
def ranged(spark):
    """Non-nullable columns only, also registered as the view ``ranged``."""
    df = spark.range(1000).selectExpr("id", "id * 2 AS v", "1000 - id AS w")
    df.createOrReplaceTempView("ranged")
    yield df
    spark.catalog.dropTempView("ranged")


class TestAlgorithmSelection:
    """Listing 8: COMPLETE keyword or non-nullable dims -> complete path."""

    def test_complete_keyword_selects_complete(self, spark, chosen):
        df = spark.createDataFrame(make_pdf(50))  # nullable schema
        compute_skyline(df, spec_of(smin("a"), complete=True))
        assert chosen == ["distributed_complete"]

    def test_nullable_schema_selects_incomplete(self, spark, chosen):
        df = spark.createDataFrame(make_pdf(51))
        compute_skyline(df, spec_of(smin("a")))
        assert chosen == ["distributed_incomplete"]

    def test_non_nullable_schema_selects_complete(self, ranged, chosen):
        assert not ranged.schema["v"].nullable
        compute_skyline(ranged, spec_of(smin("v")))
        assert chosen == ["distributed_complete"]

    def test_expression_dim_conservatively_incomplete(self, ranged, chosen):
        # Nullability is Catalyst's, derived per expression: it calls
        # ``v / 2`` nullable although ``v`` is not, and Listing 8 follows.
        compute_skyline(ranged, spec_of(smin("v / 2")))
        assert chosen == ["distributed_incomplete"]

    @pytest.mark.parametrize("dim", ["v + 1", "V"])
    def test_sql_and_dataframe_api_agree(self, spark, ranged, chosen, dim):
        # A computed or differently-cased dimension over non-nullable
        # columns is non-nullable, whichever entry point builds the skyline.
        api = skyline(ranged, smin(dim), smax("w"))
        sql = sky_sql(spark, f"SELECT * FROM ranged SKYLINE OF {dim} MIN, w MAX")
        assert chosen == ["distributed_complete"] * 2
        assert sorted(api.toPandas()["id"]) == sorted(sql.toPandas()["id"])

    def test_nullable_expression_selects_incomplete(self, spark, ranged, chosen):
        skyline(ranged, smin("nullif(v, 0)"), smax("w"))
        sky_sql(spark, "SELECT * FROM ranged SKYLINE OF nullif(v, 0) MIN, w MAX")
        assert chosen == ["distributed_incomplete"] * 2

    def test_selection_used_by_compute(self, spark):
        # No override: nullable input with NULLs must still be correct
        # because the incomplete algorithm is auto-selected.
        pdf = make_pdf(52, null_rate=0.3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"))
        out = compute_skyline(df, spec)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)
