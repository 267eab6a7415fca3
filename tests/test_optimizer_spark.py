"""Semantic tests for the §5.4 optimizer rule, executed on Spark."""
import numpy as np
import pandas as pd
import pytest

from repro.core import optimizer as O, plan as P
from repro.core.physical import single_dim_skyline
from repro.core.spec import smax, smin, spec_of

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def orders_customers(spark):
    """FK pair: every order references an existing customer."""
    rng = np.random.default_rng(5)
    n_c, n_o = 40, 300
    customers = pd.DataFrame(
        {
            "custkey": np.arange(1, n_c + 1),
            "segment": rng.choice(["A", "B"], n_c),
        }
    )
    orders = pd.DataFrame(
        {
            "orderkey": np.arange(1, n_o + 1),
            "custkey": rng.integers(1, n_c + 1, n_o),
            "totalprice": rng.integers(100, 10_000, n_o).astype(float),
            "priority": rng.integers(1, 6, n_o).astype(float),
        }
    )
    return (
        customers, orders,
        spark.createDataFrame(customers), spark.createDataFrame(orders),
    )


class TestSingleDimPhysical:
    def test_min_selects_minimum(self, spark):
        pdf = pd.DataFrame({"id": range(50), "v": (np.arange(50) % 7).astype(float)})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v"), complete=True)).toPandas()
        assert set(out["v"]) == {0.0} and len(out) == (pdf.v == 0).sum()

    def test_max_selects_maximum(self, spark):
        pdf = pd.DataFrame({"id": range(50), "v": (np.arange(50) % 7).astype(float)})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smax("v"), complete=True)).toPandas()
        assert set(out["v"]) == {6.0}

    def test_null_aware_keeps_null_rows(self, spark):
        pdf = pd.DataFrame({"id": range(6), "v": [3.0, 1.0, None, 1.0, None, 2.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v"))).toPandas()
        # min rows (two 1.0s) + NULL rows (incomparable) survive.
        assert sorted(out["id"]) == [1, 2, 3, 4]

    def test_plain_variant_drops_null_rows(self, spark):
        pdf = pd.DataFrame({"id": range(4), "v": [3.0, 1.0, None, 1.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v"), complete=True)).toPandas()
        assert sorted(out["id"]) == [1, 3]

    def test_distinct(self, spark):
        pdf = pd.DataFrame({"id": range(6), "v": [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]})
        df = spark.createDataFrame(pdf)
        out = single_dim_skyline(df, spec_of(smin("v"), distinct=True, complete=True)).toPandas()
        assert len(out) == 1 and out["v"].iloc[0] == 1.0

    def test_multi_dim_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"a": [1.0], "b": [2.0]}))
        with pytest.raises(ValueError):
            single_dim_skyline(df, spec_of(smin("a"), smax("b")))

    def test_rewrite_equals_generic_algorithm(self, spark):
        rng = np.random.default_rng(8)
        pdf = pd.DataFrame({"id": range(200), "v": rng.integers(0, 9, 200).astype(float)})
        df = spark.createDataFrame(pdf)
        root = P.Skyline(df, spec_of(smin("v"), complete=True))
        optimized = O.optimize(root)
        assert isinstance(optimized, P.SingleDimSkyline)
        fast = P.execute(optimized).toPandas()
        slow = P.execute(root).toPandas()
        assert sorted(fast["id"]) == sorted(slow["id"])


class TestJoinPushdownSemantics:
    def test_no_push_without_declaration_still_correct(self, spark, orders_customers):
        # Both entry points hand the skyline an opaque relation; a skyline
        # over a join is left as it is and matches the oracle.
        customers, orders, cdf, odf = orders_customers
        root = P.Skyline(odf.join(cdf, on="custkey"),
                         spec_of(smin("totalprice"), smax("priority"), complete=True))
        out = O.optimize(root)
        assert out is root
        joined = orders.merge(customers, on="custkey")
        exp = skyline_oracle_pandas(
            joined, spec_of(smin("totalprice"), smax("priority")), incomplete=False
        )
        got = P.execute(out).toPandas()
        assert sorted(got["orderkey"]) == sorted(exp["orderkey"])
