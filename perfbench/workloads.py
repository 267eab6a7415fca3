"""The benchmark's workloads: inputs from a seed, the queries, their answers.

Each workload builds its inputs with the program's own generators
(``repro.data``) from the seed it is given, computes its expected
answers with :mod:`oracle` (never with the code under test), and
exposes one *cycle*: the fixed list of queries a closed-loop client
sends one after another.

* ``ss_complete_6d``: one ``repro.api.skyline`` call per cycle on the
  complete store_sales variant; Listing 8 picks distributed_complete.
* ``sql_mix``: ten ``sky_sql`` statements that cover the SQL front
  end, the optimizer rules, the incomplete-data path and the
  Listing-4 reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import duckdb
import numpy as np
import pandas as pd

import oracle

# 100k rows (not the paper-scale 250k) so that one run of a few tens of
# seconds holds enough queries for a steady median.
SS_ROWS = 100_000
SS_PARALLELISM = 4
# sql_mix tables stay small because the DuckDB NOT EXISTS answers are
# quadratic: one null-aware 3-dimension statement takes 18 s in DuckDB
# at 24,000 rows, which does not fit in set-up.
MIX_ROWS = 8_000
WARMUP_ROWS = 10_000


@dataclass
class Query:
    """One query of a cycle: builds the lazy result and checks the rows."""

    label: str
    build: Callable  # (spark) -> DataFrame, timed as the plan span
    check: Callable  # (pandas result) -> bool


class StoreSales:
    """``skyline(store_sales, 6 dims, complete=True, parallelism=4)``."""

    name = "ss_complete_6d"

    def __init__(self, seed: int):
        from repro.data import STORE_SALES_DIMS

        self.seed = seed
        self.dims = [(c, t.value) for c, t in STORE_SALES_DIMS]
        self.params = {
            "dataset": "store_sales",
            "variant": "complete",
            "rows": SS_ROWS,
            "dims": len(self.dims),
            "api": "repro.api.skyline",
            "parallelism": SS_PARALLELISM,
            "algorithm": None,
            "seed": seed,
        }
        self.df = None
        self.expected: Optional[np.ndarray] = None

    def compute_answers(self) -> None:
        from repro.data.store_sales import store_sales_pandas

        pdf = store_sales_pandas(n=SS_ROWS, seed=self.seed, complete=True)
        keep = oracle.skyline_mask(oracle.min_matrix(pdf, self.dims))
        self.expected = np.sort(pdf["ss_ticket_number"].to_numpy()[keep])

    def load(self, spark) -> None:
        from repro.data import store_sales

        self.df = store_sales(spark, n=SS_ROWS, seed=self.seed, complete=True).persist()
        self.df.count()

    def unload(self) -> None:
        if self.df is not None:
            self.df.unpersist(blocking=True)
            self.df = None

    def dimensions(self):
        from repro.data import store_sales_dims

        return store_sales_dims(len(self.dims))

    def query(self, df=None, algorithm: Optional[str] = None):
        from repro.api import skyline

        return skyline(self.df if df is None else df, *self.dimensions(),
                       complete=True, algorithm=algorithm, parallelism=SS_PARALLELISM)

    def warmup(self) -> None:
        self.query(self.df.limit(WARMUP_ROWS)).toPandas()

    def replays(self) -> list[tuple]:
        """(input, dims, complete, parallelism) for the kernel replay."""
        return [(self.df, self.dimensions(), True, SS_PARALLELISM)]

    def check(self, pdf: pd.DataFrame) -> bool:
        return np.array_equal(np.sort(pdf["ss_ticket_number"].to_numpy()), self.expected)

    def cycle(self) -> list[Query]:
        return [Query("skyline_6d", lambda spark: self.query(), self.check)]


@dataclass(frozen=True)
class Statement:
    label: str
    sql: str
    expected_sql: str  # DuckDB, over the same tables
    algorithm: Optional[str] = None
    ordered: bool = False


def _ne(base, select, dims, null_aware, tail=""):
    return oracle.not_exists_sql(base, select, dims, null_aware=null_aware) + tail


# One statement per front-end / optimizer feature; the comment says
# which path it takes through the program.
MIX = (
    # SingleDimensionRewrite: scalar min + selection instead of BNL.
    Statement("single_min", "SELECT id, price FROM listings SKYLINE OF price MIN",
              _ne("SELECT id, price FROM listings", "id, price", [("price", "MIN")], True)),
    # Listing 8 with nullable dims: distributed_incomplete, 2 dims.
    Statement("incomplete_2d",
              "SELECT id, price, beds FROM listings SKYLINE OF price MIN, beds MAX",
              _ne("SELECT id, price, beds FROM listings", "id, price, beds",
                  [("price", "MIN"), ("beds", "MAX")], True)),
    # Listing 8 with nullable dims: distributed_incomplete, 3 dims.
    Statement("incomplete_3d",
              "SELECT ss_ticket_number, ss_quantity, ss_wholesale_cost, ss_list_price FROM sales "
              "SKYLINE OF ss_quantity MAX, ss_wholesale_cost MIN, ss_list_price MIN",
              _ne("SELECT ss_ticket_number, ss_quantity, ss_wholesale_cost, ss_list_price FROM sales",
                  "ss_ticket_number, ss_quantity, ss_wholesale_cost, ss_list_price",
                  [("ss_quantity", "MAX"), ("ss_wholesale_cost", "MIN"), ("ss_list_price", "MIN")],
                  True)),
    # COMPLETE keyword: distributed_complete.
    Statement("complete_3d",
              "SELECT id, price, accommodates, bedrooms FROM listings_c "
              "SKYLINE OF COMPLETE price MIN, accommodates MAX, bedrooms MAX",
              _ne("SELECT id, price, accommodates, bedrooms FROM listings_c",
                  "id, price, accommodates, bedrooms",
                  [("price", "MIN"), ("accommodates", "MAX"), ("bedrooms", "MAX")], False)),
    # Listing 7: an aggregate that appears only in the skyline clause.
    Statement("group_by_aggregate",
              "SELECT ss_item_sk, count(*) AS n FROM sales GROUP BY ss_item_sk "
              "SKYLINE OF n MAX, avg(ss_sales_price) MIN",
              _ne("SELECT ss_item_sk, count(*) AS n, avg(ss_sales_price) AS a FROM sales "
                  "GROUP BY ss_item_sk", "ss_item_sk, n", [("n", "MAX"), ("a", "MIN")], True)),
    # Listing 6: a dimension missing from the projection.
    Statement("missing_dimension",
              "SELECT id, price FROM listings_c "
              "SKYLINE OF COMPLETE price MIN, review_scores_rating MAX",
              _ne("SELECT id, price, review_scores_rating FROM listings_c", "id, price",
                  [("price", "MIN"), ("review_scores_rating", "MAX")], False)),
    # An expression dimension and a numeric DIFF dimension.
    Statement("expression_diff",
              "SELECT id, price, accommodates, bedrooms FROM listings_c SKYLINE OF COMPLETE "
              "price / accommodates MIN, number_of_reviews MAX, bedrooms DIFF",
              _ne("SELECT id, price, accommodates, bedrooms, price / accommodates AS e, "
                  "number_of_reviews AS r FROM listings_c", "id, price, accommodates, bedrooms",
                  [("e", "MIN"), ("r", "MAX"), ("bedrooms", "DIFF")], False)),
    # ORDER BY ... LIMIT after the skyline (id breaks price ties).
    Statement("order_by_limit",
              "SELECT id, price, review_scores_rating FROM listings_c SKYLINE OF COMPLETE "
              "price MIN, review_scores_rating MAX ORDER BY price, id LIMIT 5",
              _ne("SELECT id, price, review_scores_rating FROM listings_c",
                  "id, price, review_scores_rating",
                  [("price", "MIN"), ("review_scores_rating", "MAX")], False,
                  " ORDER BY price, id LIMIT 5"),
              ordered=True),
    # The Listing-4 reference rewrite run by the stock engine.
    Statement("reference",
              "SELECT id, price, accommodates FROM listings SKYLINE OF price MIN, accommodates MAX",
              _ne("SELECT id, price, accommodates FROM listings", "id, price, accommodates",
                  [("price", "MIN"), ("accommodates", "MAX")], True),
              algorithm="reference"),
    # Not a skyline query: passes straight through to spark.sql.
    Statement("passthrough",
              "SELECT accommodates, count(*) AS n FROM listings GROUP BY accommodates",
              "SELECT accommodates, count(*) AS n FROM listings GROUP BY accommodates"),
)

VIEWS = ("listings", "listings_c", "sales")


class SqlMix:
    """A fixed cycle of ``sky_sql`` statements over airbnb and store_sales."""

    name = "sql_mix"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = {
            "dataset": "airbnb+store_sales",
            "variant": "listings (incomplete), listings_c (complete), sales (incomplete)",
            "rows": MIX_ROWS,
            "dims": "1-3 per statement",
            "api": "repro.sqlext.sky_sql",
            "parallelism": None,
            "statements": [s.label for s in MIX],
            "seed": seed,
        }
        self.frames: dict = {}
        self.expected: dict[str, pd.DataFrame] = {}

    def _pandas_tables(self) -> dict[str, pd.DataFrame]:
        from repro.data.airbnb import AIRBNB_DIMS, airbnb_pandas
        from repro.data.store_sales import store_sales_pandas

        listings = airbnb_pandas(n=MIX_ROWS, seed=self.seed)
        complete = listings.dropna(subset=[c for c, _ in AIRBNB_DIMS]).reset_index(drop=True)
        return {"listings": listings, "listings_c": complete,
                "sales": store_sales_pandas(n=MIX_ROWS, seed=self.seed)}

    def compute_answers(self) -> None:
        con = duckdb.connect()
        try:
            con.execute("SET threads TO 2")
            for name, pdf in self._pandas_tables().items():
                con.register(name, pdf)
            for s in MIX:
                self.expected[s.label] = con.execute(s.expected_sql).fetchdf()
        finally:
            con.close()

    def load(self, spark) -> None:
        from repro.data import airbnb, store_sales

        tables = {
            "listings": airbnb(spark, n=MIX_ROWS, seed=self.seed),
            "listings_c": airbnb(spark, n=MIX_ROWS, seed=self.seed, complete=True),
            "sales": store_sales(spark, n=MIX_ROWS, seed=self.seed),
        }
        for name, df in tables.items():
            df = df.persist()
            df.count()
            df.createOrReplaceTempView(name)
            self.frames[name] = df

    def unload(self) -> None:
        for df in self.frames.values():
            df.unpersist(blocking=True)
        self.frames = {}

    def replays(self) -> list[tuple]:
        """The inputs of ``complete_3d`` and ``incomplete_3d`` for the kernel replay."""
        from repro.api import smax, smin

        return [
            (self.frames["listings_c"], [smin("price"), smax("accommodates"), smax("bedrooms")], True, None),
            (self.frames["sales"], [smax("ss_quantity"), smin("ss_wholesale_cost"), smin("ss_list_price")], False, None),
        ]

    def _run(self, spark, s: Statement):
        from repro.sqlext import sky_sql

        return sky_sql(spark, s.sql, algorithm=s.algorithm)

    def warmup(self) -> None:
        self._run(self.frames["listings"].sparkSession, MIX[1]).toPandas()

    def cycle(self) -> list[Query]:
        def make(s: Statement) -> Query:
            return Query(
                s.label,
                lambda spark: self._run(spark, s),
                lambda pdf: oracle.same_rows(pdf, self.expected[s.label], ordered=s.ordered),
            )
        return [make(s) for s in MIX]


WORKLOADS = ("ss_complete_6d", "sql_mix")


def make(name: str, seed: int):
    if name == "ss_complete_6d":
        return StoreSales(seed)
    if name == "sql_mix":
        return SqlMix(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
