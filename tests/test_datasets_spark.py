"""Skyline correctness on the evaluation datasets themselves (small n)."""
import pandas as pd
import pytest

from repro.api import skyline
from repro.core.spec import SkylineSpec
from repro.data.airbnb import airbnb, airbnb_dims, airbnb_pandas, AIRBNB_DIMS
from repro.data.store_sales import (
    STORE_SALES_DIMS, store_sales, store_sales_dims, store_sales_pandas,
)

from tests.helpers import assert_skyline_equals_oracle, executed_plan


class TestAirbnbSkylines:
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_complete_matches_oracle(self, spark, k):
        pdf = airbnb_pandas(n=400).dropna(subset=[c for c, _ in AIRBNB_DIMS]).reset_index(drop=True)
        df = spark.createDataFrame(pdf)
        dims = airbnb_dims(k)
        out = skyline(df, *dims, complete=True, parallelism=3)
        assert_skyline_equals_oracle(out, pdf, SkylineSpec(tuple(dims)), incomplete=False)

    @pytest.mark.parametrize("k", [2, 6])
    def test_incomplete_matches_oracle(self, spark, k):
        pdf = airbnb_pandas(n=300)
        df = spark.createDataFrame(pdf)
        dims = airbnb_dims(k)
        out = skyline(df, *dims, algorithm="distributed_incomplete", parallelism=3)
        assert_skyline_equals_oracle(out, pdf, SkylineSpec(tuple(dims)), incomplete=True)

    def test_spark_loader_complete_flag(self, spark):
        inc = airbnb(spark, n=500)
        com = airbnb(spark, n=500, complete=True)
        assert com.count() < inc.count()
        dims = [c for c, _ in AIRBNB_DIMS]
        assert com.dropna(subset=dims).count() == com.count()


class TestStoreSalesSkylines:
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_complete_matches_oracle(self, spark, k):
        pdf = store_sales_pandas(n=400, complete=True)
        df = spark.createDataFrame(pdf)
        dims = store_sales_dims(k)
        out = skyline(df, *dims, complete=True, parallelism=3)
        assert_skyline_equals_oracle(out, pdf, SkylineSpec(tuple(dims)), incomplete=False)

    @pytest.mark.parametrize("k", [2, 6])
    def test_incomplete_matches_oracle(self, spark, k):
        pdf = store_sales_pandas(n=300)
        df = spark.createDataFrame(pdf)
        dims = store_sales_dims(k)
        out = skyline(df, *dims, algorithm="distributed_incomplete", parallelism=3)
        assert_skyline_equals_oracle(out, pdf, SkylineSpec(tuple(dims)), incomplete=True)

    def test_reference_on_incomplete_matches_specialized(self, spark):
        pdf = store_sales_pandas(n=250)
        df = spark.createDataFrame(pdf)
        dims = store_sales_dims(6)
        a = skyline(df, *dims, algorithm="distributed_incomplete").toPandas()
        b = skyline(df, *dims, algorithm="reference").toPandas()
        key = ["ss_ticket_number"]
        assert sorted(a[key[0]]) == sorted(b[key[0]])

    def test_spark_loader(self, spark):
        df = store_sales(spark, n=500, complete=True)
        assert df.count() == 500


def optimized_plan(df) -> str:
    return df._jdf.queryExecution().optimizedPlan().toString()


class TestGeneratedTableEntersSpark:
    """A generated table too large for one task is checkpointed (DESIGN.md §2)."""

    @pytest.fixture(scope="class")
    def rows(self, spark):
        # 25,000 store_sales rows per partition: about 2.2 MB per task.
        return 25_000 * max(4, spark.sparkContext.defaultParallelism)

    def test_large_table_plans_no_local_relation(self, spark, rows):
        df = store_sales(spark, n=rows, complete=True)
        assert "LocalRelation" not in optimized_plan(df)

    def test_large_table_same_frame_as_create_data_frame(self, spark, rows):
        df = store_sales(spark, n=rows, complete=True)
        ref = spark.createDataFrame(store_sales_pandas(n=rows, complete=True))
        assert df.schema == ref.schema  # StructField equality includes nullability
        assert df.rdd.getNumPartitions() == ref.rdd.getNumPartitions()
        pd.testing.assert_frame_equal(df.toPandas(), ref.toPandas())

    def test_large_table_cache_skips_input_shuffle(self, spark, rows):
        df = store_sales(spark, n=rows, complete=True).persist()
        try:
            df.count()
            out = skyline(df, *store_sales_dims(6), complete=True,
                          algorithm="distributed_complete", parallelism=df.rdd.getNumPartitions())
            plan = executed_plan(out)
            assert "InMemoryTableScan" in plan
            assert plan.count("Exchange") == 1  # only the global stage's repartition(1)
        finally:
            df.unpersist()

    def test_small_table_stays_local(self, spark):
        assert "LocalRelation" in optimized_plan(store_sales(spark, n=500))
