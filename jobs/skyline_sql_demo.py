"""Demo: the extended SKYLINE syntax end-to-end (paper Listings 2/3).

Usage:
    python jobs/skyline_sql_demo.py

Loads the synthetic Airbnb listings, runs the hotel-style skyline
query of the paper's introduction in all four algorithm variants, and
prints the (identical) results plus the generated plain-SQL rewrite.
"""
from __future__ import annotations

from _session import get_session

from repro.data import airbnb
from repro.sqlext import sky_sql
from repro.sqlext.parser import parse_skyline_query
from repro.core.physical import ALGORITHMS, listing4_sql


def main() -> None:
    spark = get_session("skyline-demo")
    try:
        airbnb(spark, n=5000, complete=True).createOrReplaceTempView("listings")
        query = (
            "SELECT id, price, review_scores_rating FROM listings "
            "SKYLINE OF COMPLETE price MIN, review_scores_rating MAX "
            "ORDER BY price"
        )
        print(f"query:\n  {query}\n")
        parsed = parse_skyline_query(query)
        print(f"parsed spec: {parsed.spec.sql()}\n")
        print("plain-SQL rewrite (Listing 4):")
        dims = [d.expr for d in parsed.spec.dimensions]
        print(listing4_sql(f"({parsed.base_sql})", parsed.spec, dims, null_aware=False), "\n")
        for algo in ALGORITHMS:
            rows = sky_sql(spark, query, algorithm=algo).collect()
            print(f"{algo:>26}: {len(rows)} skyline rows")
        for r in sky_sql(spark, query).collect():
            print(f"  id={r.id:<6} price={r.price:<7} rating={r.review_scores_rating}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
