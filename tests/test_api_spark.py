"""DataFrame-API tests (repro.api) — the §5.8 user interface."""
import datetime

import numpy as np
import pandas as pd
import pytest

from repro.api import sdiff, skyline, smax, smin
from repro.core.physical import ALGORITHMS, compute_skyline
from repro.core.spec import spec_of

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def listings(spark):
    rng = np.random.default_rng(42)
    n = 200
    pdf = pd.DataFrame(
        {
            "id": np.arange(n),
            "price": rng.integers(40, 400, n).astype(float),
            "rating": rng.integers(1, 101, n).astype(float),
            "rooms": rng.integers(1, 6, n).astype(float),
        }
    )
    return pdf, spark.createDataFrame(pdf)


class TestSkylineApi:
    def test_basic(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), smax("rating")).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_preserves_schema(self, listings):
        _, df = listings
        out = skyline(df, smin("price"), smax("rating"))
        assert out.columns == df.columns

    def test_complete_flag(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), smax("rating"), complete=True).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_distinct_flag(self, listings):
        _, df = listings
        out = skyline(df, smin("rooms"), distinct=True).toPandas()
        assert len(out) == 1

    def test_diff_marker(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price"), sdiff("rooms")).toPandas()
        exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), sdiff("rooms")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_algorithm_override(self, listings):
        pdf, df = listings
        for algo in ("non_distributed_complete", "reference"):
            out = skyline(df, smin("price"), smax("rating"), complete=True,
                          algorithm=algo).toPandas()
            exp = skyline_oracle_pandas(pdf, spec_of(smin("price"), smax("rating")),
                                        incomplete=False)
            assert sorted(out["id"]) == sorted(exp["id"])

    def test_optimize_flag_single_dim(self, listings):
        # The single-dimension rewrite against the generic algorithm.
        _, df = listings
        fast = skyline(df, smin("price")).toPandas()
        slow = compute_skyline(df, spec_of(smin("price"))).toPandas()
        assert sorted(fast["id"]) == sorted(slow["id"])

    def test_no_dims_rejected(self, listings):
        _, df = listings
        with pytest.raises(ValueError):
            skyline(df)

    def test_unknown_algorithm_rejected_single_dim(self, listings):
        # The single-dimension rewrite replaces the Skyline node before
        # physical planning, so the hint must be checked when it is built.
        _, df = listings
        with pytest.raises(ValueError, match="unknown algorithm"):
            skyline(df, smin("price"), algorithm="typo")

    @pytest.mark.parametrize("dims", [("price",), ("price", "rating")])
    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True])
    def test_bad_parallelism_rejected(self, listings, dims, parallelism):
        _, df = listings
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            skyline(df, *map(smin, dims), parallelism=parallelism)

    def test_internal_optimum_name_free(self, spark):
        # The single-dimension rewrite's optimum column must not clash
        # with an input column of the name it once used.
        df = spark.createDataFrame(pd.DataFrame({"a": [2.0, 1.0, 1.0], "__sky_opt": [1, 2, 3]}))
        out = skyline(df, smin("a"))
        assert out.columns == ["a", "__sky_opt"]
        assert sorted(out.toPandas()["__sky_opt"]) == [2, 3]

    def test_expression_dims(self, listings):
        pdf, df = listings
        out = skyline(df, smin("price / rooms"), smax("rating")).toPandas()
        work = pdf.assign(ppr=pdf.price / pdf.rooms)
        exp = skyline_oracle_pandas(work, spec_of(smin("ppr"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_composes_with_dataframe_ops(self, listings):
        pdf, df = listings
        out = skyline(df.where("rooms >= 3"), smin("price"), smax("rating")).toPandas()
        sub = pdf[pdf.rooms >= 3]
        exp = skyline_oracle_pandas(sub, spec_of(smin("price"), smax("rating")),
                                    incomplete=False)
        assert sorted(out["id"]) == sorted(exp["id"])


@pytest.fixture(scope="module")
def cities(spark):
    pdf = pd.DataFrame({"city": ["Rome", "Oslo", "Rome"], "price": [1.0, 2.0, 3.0],
                        "pool": [False, True, True],
                        "opened": [datetime.date(2024, 5, d) for d in (1, 2, 3)]})
    return spark.createDataFrame(pdf)


class TestDimensionTypes:
    # skyline() only builds a DataFrame; nothing runs until an action.
    # So an error raised inside these calls comes at plan time, not
    # from a Python worker at collect().

    @pytest.mark.parametrize("algorithm", [None, *ALGORITHMS])
    def test_string_dimension_rejected_when_built(self, cities, algorithm):
        with pytest.raises(ValueError, match="'city DIFF' has type string"):
            skyline(cities, sdiff("city"), smin("price"), algorithm=algorithm)

    @pytest.mark.parametrize("col,type_name", [("city", "string"), ("opened", "date")])
    def test_unsupported_dimension_rejected_single_dim(self, cities, col, type_name):
        with pytest.raises(ValueError, match=f"'{col} MIN' has type {type_name}"):
            skyline(cities, smin(col))

    def test_boolean_dimension_accepted(self, cities):
        out = skyline(cities, smax("pool"), smin("price")).toPandas()
        assert sorted(out["price"]) == [1.0, 2.0]

    @pytest.mark.parametrize("algorithm", [None, *ALGORITHMS])
    def test_timestamp_dimension_exact_to_the_microsecond(self, spark, algorithm):
        # Row 3 is beaten by row 1 only through a 1 us later timestamp,
        # so merging neighbouring microseconds would keep it.
        pdf = pd.DataFrame({
            "id": [0, 1, 2, 3],
            "ts": pd.to_datetime(["2024-05-01 10:00:00.000001", "2024-05-01 10:00:00.000002",
                                  "2024-05-01 10:00:00.000002", "2024-05-01 10:00:00.000003"]),
            "price": [2.0, 1.0, 3.0, 1.0],
        })
        df = spark.createDataFrame(pdf)
        out = skyline(df, smin("ts"), smin("price"), algorithm=algorithm).toPandas()
        assert sorted(out["id"]) == [0, 1]
