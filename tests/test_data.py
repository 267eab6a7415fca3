"""Unit tests for the dataset generators (repro.data) — pandas level."""
import numpy as np
import pandas as pd
import pytest

from repro.core.spec import DimType
from repro.data._frame import TASK_WARN_BYTES, partition_bytes
from repro.data.airbnb import AIRBNB_DIMS, airbnb_dims, airbnb_pandas
from repro.data.musicbrainz import musicbrainz_tables
from repro.data.store_sales import STORE_SALES_DIMS, store_sales_dims, store_sales_pandas


class TestAirbnb:
    def test_schema_matches_table1(self):
        pdf = airbnb_pandas(n=1000)
        assert list(pdf.columns) == [
            "id", "price", "accommodates", "bedrooms", "beds",
            "number_of_reviews", "review_scores_rating",
        ]

    def test_dim_order_matches_table1(self):
        assert AIRBNB_DIMS[0] == ("price", DimType.MIN)
        assert all(t is DimType.MAX for _, t in AIRBNB_DIMS[1:])

    def test_deterministic(self):
        a = airbnb_pandas(n=500, seed=1)
        b = airbnb_pandas(n=500, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_data(self):
        a = airbnb_pandas(n=500, seed=1)
        b = airbnb_pandas(n=500, seed=2)
        assert not a.equals(b)

    def test_null_row_rate_near_paper(self):
        # Paper: (1193465-820698)/1193465 ≈ 31% of rows have a NULL dim.
        pdf = airbnb_pandas(n=20_000)
        dims = [c for c, _ in AIRBNB_DIMS]
        rate = pdf[dims].isna().any(axis=1).mean()
        assert 0.24 <= rate <= 0.38, rate

    def test_price_positive_and_correlated(self):
        pdf = airbnb_pandas(n=20_000)
        assert (pdf["price"] > 0).all()
        corr = pdf[["price", "accommodates"]].corr().iloc[0, 1]
        assert corr > 0.3

    def test_rating_null_iff_no_reviews_mostly(self):
        pdf = airbnb_pandas(n=10_000)
        no_reviews = pdf["number_of_reviews"] == 0
        assert pdf.loc[no_reviews, "review_scores_rating"].isna().all()

    def test_ids_unique(self):
        pdf = airbnb_pandas(n=3000)
        assert pdf["id"].is_unique

    def test_dims_helper_prefix(self):
        dims = airbnb_dims(3)
        assert [d.expr for d in dims] == ["price", "accommodates", "bedrooms"]

    @pytest.mark.parametrize("k", [0, 7])
    def test_dims_helper_bounds(self, k):
        with pytest.raises(ValueError):
            airbnb_dims(k)


class TestStoreSales:
    def test_schema_matches_table2(self):
        pdf = store_sales_pandas(n=1000)
        assert list(pdf.columns) == [
            "ss_item_sk", "ss_ticket_number", "ss_quantity", "ss_wholesale_cost",
            "ss_list_price", "ss_sales_price", "ss_ext_discount_amt",
            "ss_ext_sales_price",
        ]

    def test_dim_order_matches_paper(self):
        assert STORE_SALES_DIMS[0] == ("ss_quantity", DimType.MAX)
        assert STORE_SALES_DIMS[1] == ("ss_wholesale_cost", DimType.MIN)

    def test_deterministic(self):
        pd.testing.assert_frame_equal(
            store_sales_pandas(n=500, seed=3), store_sales_pandas(n=500, seed=3)
        )

    def test_exact_row_count(self):
        assert len(store_sales_pandas(n=1234)) == 1234
        assert len(store_sales_pandas(n=1234, complete=True)) == 1234

    def test_complete_variant_null_free(self):
        pdf = store_sales_pandas(n=5000, complete=True)
        dims = [c for c, _ in STORE_SALES_DIMS]
        assert not pdf[dims].isna().any().any()

    def test_incomplete_variant_has_nulls_per_column(self):
        pdf = store_sales_pandas(n=20_000)
        for c, _ in STORE_SALES_DIMS:
            rate = pdf[c].isna().mean()
            assert 0.02 <= rate <= 0.06, (c, rate)

    def test_quantity_is_small_integer_with_max_ties(self):
        pdf = store_sales_pandas(n=20_000, complete=True)
        q = pdf["ss_quantity"]
        assert q.min() >= 1 and q.max() == 100
        assert (q == q.max()).sum() > 50  # the 1-dim reference blow-up fuel

    def test_price_chain_correlated(self):
        pdf = store_sales_pandas(n=10_000, complete=True)
        assert (pdf["ss_list_price"] >= pdf["ss_wholesale_cost"]).all()
        assert (pdf["ss_sales_price"] <= pdf["ss_list_price"]).all()

    def test_discount_mostly_zero(self):
        pdf = store_sales_pandas(n=10_000, complete=True)
        assert (pdf["ss_ext_discount_amt"] == 0).mean() > 0.6

    def test_dims_helper(self):
        assert [d.expr for d in store_sales_dims(2)] == ["ss_quantity", "ss_wholesale_cost"]
        with pytest.raises(ValueError):
            store_sales_dims(7)


class TestTaskSizeRule:
    """Which generated tables ``to_spark`` checkpoints, at 4 partitions."""

    COLUMNS = {
        "store_sales": len(store_sales_pandas(n=10).columns),
        "airbnb": len(airbnb_pandas(n=10).columns),
        **{name: len(pdf.columns)
           for name, pdf in musicbrainz_tables(None, n=10, register=False).items()},
    }

    @pytest.mark.parametrize("table", sorted(COLUMNS))
    @pytest.mark.parametrize("rows, above", [(8_000, False), (24_000, False), (100_000, True)])
    def test_side_of_threshold(self, table, rows, above):
        assert (partition_bytes(rows, self.COLUMNS[table], 4) > TASK_WARN_BYTES) is above

    def test_matches_spark_task_size(self):
        # Spark: "a task of very large size (2182 KiB)" = 2,234,823 bytes
        # for 100,000 store_sales rows in 4 partitions.
        assert partition_bytes(100_000, 8, 4) == pytest.approx(2_234_823, rel=0.01)

    def test_largest_slice_counts(self):
        assert partition_bytes(9, 1, 4) == 3 * 33
        assert partition_bytes(2, 1, 4) == 33
        assert partition_bytes(0, 1, 4) == 0
