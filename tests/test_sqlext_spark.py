"""End-to-end extended-SQL tests (repro.sqlext.engine) on Spark."""
import numpy as np
import pandas as pd
import pytest

from repro.api import skyline
from repro.core.physical import ALGORITHMS
from repro.core.spec import smax, smin, spec_of
from repro.oracle import assert_equivalent
from repro.sqlext import sky_sql
from repro.sqlext.analyzer import ResolvedSkylineQuery, resolve
from repro.sqlext.parser import SkylineParseError

from tests.helpers import skyline_oracle_pandas


@pytest.fixture(scope="module")
def hotels(spark):
    rng = np.random.default_rng(77)
    n = 250
    pdf = pd.DataFrame(
        {
            "id": np.arange(n),
            "price": rng.integers(50, 300, n).astype(float),
            "user_rating": rng.integers(1, 101, n).astype(float),
            "city": rng.choice(["vienna", "graz", "linz"], n),
            "nights": rng.integers(1, 8, n).astype(float),
        }
    )
    spark.createDataFrame(pdf).createOrReplaceTempView("hotels")
    # Every row twice under a new id: each skyline point is a tie on all
    # dimensions between rows that differ in ``id``.
    twice = pd.concat([pdf, pdf.assign(id=pdf["id"] + n)], ignore_index=True)
    spark.createDataFrame(twice).createOrReplaceTempView("hotels_twice")
    return pdf


class TestBasicQueries:
    def test_listing2_hotel_query(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX",
        )
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        got = out.toPandas().sort_values(["price", "user_rating"]).reset_index(drop=True)
        want = (
            exp[["price", "user_rating"]]
            .sort_values(["price", "user_rating"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

    @pytest.mark.parametrize("algorithm", [
        "distributed_complete", "non_distributed_complete",
        "distributed_incomplete", "reference",
    ])
    def test_all_algorithms_same_result(self, spark, hotels, algorithm):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, user_rating MAX",
            algorithm=algorithm,
        )
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out.toPandas()["id"]) == sorted(exp["id"])

    def test_non_skyline_query_passthrough(self, spark, hotels):
        q = "SELECT city, count(*) AS n FROM hotels GROUP BY city"
        assert_equivalent(sky_sql(spark, q), q, hotels=hotels)

    def test_order_by_applied_after_skyline(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX ORDER BY price DESC",
        ).toPandas()
        assert list(out["price"]) == sorted(out["price"], reverse=True)

    def test_limit(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX ORDER BY price LIMIT 2",
        ).toPandas()
        assert len(out) == 2

    def test_where_clause_restricts_input(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels WHERE city = 'vienna' "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.city == "vienna"]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distinct_keyword(self, spark, hotels, algorithm):
        # ``id`` differs between tied rows: DISTINCT must still keep one
        # row per dimension tuple, whatever else is projected.
        out = sky_sql(
            spark,
            "SELECT id, price, user_rating FROM hotels_twice "
            "SKYLINE OF DISTINCT price MIN, user_rating MAX",
            algorithm=algorithm,
        ).toPandas()
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert not out.duplicated(["price", "user_rating"]).any()
        assert set(zip(out["price"], out["user_rating"])) == set(
            zip(exp["price"], exp["user_rating"]))

    def test_single_dim_equals_min(self, spark, hotels):
        out = sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN").toPandas()
        assert set(out["price"]) == {hotels["price"].min()}

    def test_expression_dimension(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM hotels SKYLINE OF price / nights MIN, user_rating MAX",
        ).toPandas()
        work = hotels.assign(ppn=hotels.price / hotels.nights)
        exp = skyline_oracle_pandas(
            work, spec_of(smin("ppn"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])


class TestAnalyzerIntegration:
    """Listings 6/7: dimensions not in the projection, aggregate dims."""

    def test_dim_not_in_projection(self, spark, hotels):
        out = sky_sql(
            spark, "SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX"
        )
        assert out.columns == ["id"]
        exp = skyline_oracle_pandas(
            hotels, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out.toPandas()["id"]) == sorted(exp["id"])

    def test_base_output_dims_left_as_written(self, spark, hotels):
        spec = spec_of(smin("PRICE + 1"), smax("user_rating"))
        resolved = resolve(spark, "SELECT * FROM hotels", spec)
        assert resolved == ResolvedSkylineQuery("SELECT * FROM hotels", spec, ())

    def test_only_unevaluable_dims_spliced(self, spark, hotels):
        resolved = resolve(spark, "SELECT id, price FROM hotels",
                           spec_of(smin("price * 2"), smax("user_rating")))
        assert resolved.base_sql == "SELECT id, price, (user_rating) AS __sky_e0 FROM hotels"
        assert [d.expr for d in resolved.spec.dimensions] == ["price * 2", "__sky_e0"]
        assert resolved.final_columns == ("id", "price")

    def test_aggregate_dim_not_in_projection(self, spark, hotels):
        # Skyline over count(*) while the projection only has the avg —
        # the Listing-7 case (aggregate must be injected into the Aggregate).
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap FROM hotels GROUP BY city "
            "SKYLINE OF count(*) MAX",
        )
        assert out.columns == ["city", "ap"]
        counts = hotels.groupby("city").size()
        winners = set(counts[counts == counts.max()].index)
        assert set(out.toPandas()["city"]) == winners

    def test_aggregate_alias_dim(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT city, count(*) AS n FROM hotels GROUP BY city SKYLINE OF n MAX",
        ).toPandas()
        counts = hotels.groupby("city").size()
        assert set(out["city"]) == set(counts[counts == counts.max()].index)

    def test_having_then_skyline(self, spark, hotels):
        # Appendix-B query shape: Aggregate + HAVING Filter below the skyline.
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap, count(*) AS n FROM hotels "
            "GROUP BY city HAVING count(*) > 10 "
            "SKYLINE OF ap MIN, n MAX",
        ).toPandas()
        g = hotels.groupby("city").agg(ap=("price", "mean"), n=("id", "size")).reset_index()
        g = g[g.n > 10]
        exp = skyline_oracle_pandas(g, spec_of(smin("ap"), smax("n")), incomplete=False)
        assert set(out["city"]) == set(exp["city"])

    def test_having_with_sort_on_aggregate(self, spark, hotels):
        # Appendix-B bug shape: Sort on an aggregate + HAVING; our
        # front-end must resolve it (Catalyst sees ordinary select items).
        out = sky_sql(
            spark,
            "SELECT city, avg(price) AS ap FROM hotels GROUP BY city "
            "HAVING count(*) > 0 SKYLINE OF ap MIN ORDER BY ap",
        ).toPandas()
        assert list(out["ap"]) == sorted(out["ap"])

    def test_mixed_missing_and_present_dims(self, spark, hotels):
        out = sky_sql(
            spark, "SELECT id, price FROM hotels SKYLINE OF price MIN, user_rating MAX"
        )
        assert out.columns == ["id", "price"]

    def test_unresolvable_dim_raises(self, spark, hotels):
        with pytest.raises(Exception):
            sky_sql(spark, "SELECT id FROM hotels SKYLINE OF nonexistent MIN")

    def test_helper_name_clash_raises(self, spark, hotels):
        # user_rating must be spliced as a helper column, whose name the
        # base output already uses.
        with pytest.raises(SkylineParseError, match="'__sky_e0'"):
            sky_sql(spark, "SELECT price AS __sky_e0, id FROM hotels "
                           "SKYLINE OF user_rating MAX, id MIN")

    def test_helper_prefix_without_splice(self, spark, hotels):
        # Every dimension is a base output column: no helper, no clash.
        out = sky_sql(spark, "SELECT id, price AS __sky_e0 FROM hotels "
                             "SKYLINE OF __sky_e0 MIN").toPandas()
        assert sorted(out["id"]) == sorted(hotels.loc[hotels.price == hotels.price.min(), "id"])


class TestSkylineOverComplexBase:
    def test_skyline_over_subquery(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT * FROM (SELECT id, price, user_rating FROM hotels WHERE price < 200) t "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.price < 200]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_skyline_over_cte(self, spark, hotels):
        out = sky_sql(
            spark,
            "WITH cheap AS (SELECT * FROM hotels WHERE price < 150) "
            "SELECT id, price, user_rating FROM cheap "
            "SKYLINE OF price MIN, user_rating MAX",
        ).toPandas()
        sub = hotels[hotels.price < 150]
        exp = skyline_oracle_pandas(
            sub, spec_of(smin("price"), smax("user_rating")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_reference_with_final_projection(self, spark, hotels):
        out = sky_sql(
            spark,
            "SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX",
            algorithm="reference",
        )
        assert out.columns == ["id"]

    def test_bad_algorithm_rejected(self, spark, hotels):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN", algorithm="nope")

    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True])
    def test_bad_parallelism_rejected(self, spark, hotels, parallelism):
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX",
                    parallelism=parallelism)

    def test_parse_error_propagates(self, spark, hotels):
        with pytest.raises(SkylineParseError):
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price")


class TestSessionCatalog:
    def test_no_temp_views_left_behind(self, spark, hotels):
        def temp_views():
            return {t.name for t in spark.catalog.listTables() if t.isTemporary}

        before = temp_views()
        df = spark.table("hotels")
        spec = spec_of(smin("price"), smax("user_rating"))
        results = [
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX "
                           "ORDER BY price, id"),
            sky_sql(spark, "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX",
                    algorithm="reference"),
            skyline(df, smin("price"), smax("user_rating"), algorithm="reference"),
            skyline(df, smin("price"), smax("user_rating"), complete=True,
                    algorithm="reference"),
        ]
        assert temp_views() == before
        # The views were only needed for analysis: every result still runs.
        expected = len(skyline_oracle_pandas(hotels, spec, incomplete=False))
        assert [r.count() for r in results] == [expected] * len(results)
