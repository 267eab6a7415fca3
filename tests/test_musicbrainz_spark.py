"""Appendix-E complex-query tests on the synthetic MusicBrainz subset."""
import duckdb
import pytest

from repro.data.musicbrainz import (
    BASE_QUERY_COMPLETE, BASE_QUERY_INCOMPLETE, MUSICBRAINZ_DIMS,
    musicbrainz_dims, musicbrainz_tables,
)
from repro.core.physical import listing4_sql
from repro.sqlext import sky_sql
from repro.sqlext.parser import parse_skyline_query


@pytest.fixture(scope="module")
def mb(spark):
    return musicbrainz_tables(spark, n=1200, seed=3)


def _duckdb_base(tables, base_sql):
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return con.execute(base_sql).fetchdf()
    finally:
        con.close()


def skyline_query(base: str, k: int, complete: bool) -> str:
    items = ", ".join(f"{c} {t.value}" for c, t in MUSICBRAINZ_DIMS[:k])
    kw = "COMPLETE " if complete else ""
    return f"SELECT * FROM ({base}) q SKYLINE OF {kw}{items}"


class TestBaseQueries:
    def test_complete_base_runs_on_both_engines(self, spark, mb):
        spark_rows = spark.sql(BASE_QUERY_COMPLETE).count()
        duck_rows = len(_duckdb_base(mb, BASE_QUERY_COMPLETE))
        assert spark_rows == duck_rows > 0

    def test_incomplete_base_runs(self, spark, mb):
        assert spark.sql(BASE_QUERY_INCOMPLETE).count() > 0

    def test_left_join_produces_nulls(self, spark, mb):
        pdf = spark.sql(BASE_QUERY_COMPLETE).toPandas()
        assert pdf["num_tracks"].isna().any()  # recordings on no track


class TestComplexSkylines:
    """Skyline over join+aggregate base vs the DuckDB-run reference rewrite."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_incomplete_matches_reference_on_duckdb(self, spark, mb, k):
        q = skyline_query(BASE_QUERY_INCOMPLETE, k, complete=False)
        got = sky_sql(spark, q, algorithm="distributed_incomplete").toPandas()
        parsed = parse_skyline_query(q)
        dims = [d.expr for d in parsed.spec.dimensions]
        ref = listing4_sql(f"({parsed.base_sql})", parsed.spec, dims, null_aware=True)
        exp = _duckdb_base(mb, ref)
        assert sorted(got["id"]) == sorted(exp["id"])

    @pytest.mark.parametrize("k", [2, 6])
    def test_complete_base_all_algorithms_agree(self, spark, mb, k):
        # num_tracks/min_position are NULL for track-less recordings even
        # in the "complete" variant, so restrict to the NULL-free dims +
        # filtered base as the complete-algorithm input.
        base = f"SELECT * FROM ({BASE_QUERY_COMPLETE}) b WHERE num_tracks IS NOT NULL"
        q = skyline_query(base, k, complete=True)
        results = {}
        for algo in ("distributed_complete", "non_distributed_complete", "reference"):
            results[algo] = sorted(sky_sql(spark, q, algorithm=algo).toPandas()["id"])
        assert results["distributed_complete"] == results["non_distributed_complete"]
        assert results["distributed_complete"] == results["reference"]

    def test_listing14_style_query_parses(self, spark, mb):
        q = (
            f"SELECT * FROM ({BASE_QUERY_COMPLETE}) q SKYLINE OF COMPLETE "
            "rating MAX, rating_count MAX, length MIN, video MAX, "
            "num_tracks MAX, min_position MIN"
        )
        parsed = parse_skyline_query(q)
        assert len(parsed.spec.dimensions) == 6 and parsed.spec.complete

    def test_dims_helper(self):
        assert [d.expr for d in musicbrainz_dims(2)] == ["rating", "rating_count"]
        with pytest.raises(ValueError):
            musicbrainz_dims(0)
