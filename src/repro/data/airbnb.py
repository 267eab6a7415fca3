"""Synthetic Inside-Airbnb dataset (paper §6.2, Table 1).

The paper uses a 30-day Inside Airbnb snapshot: ~1,193,465 listings
with NULLs, ~820,698 after dropping every row with a NULL in some
skyline dimension (≈31% of rows carry at least one NULL).  The
snapshot is not redistributable, so this module generates a synthetic
equivalent with the exact Table-1 schema, correlated listing
attributes (bigger places cost more, more reviews → rating present)
and a NULL pattern tuned to the same ≈31% incomplete-row rate.

Scale: every caller passes the row count ``n``.  The table
reproduction runs at 1/2 of the paper (``AIRBNB_N`` = 500,000 rows
incomplete → ≈348,000 complete, ``repro.bench.tables``), the bench grid
at 24,000 rows.

Skyline dimensions, in the order the paper builds its 1..6-dimension
queries (Table 1, top to bottom):

    price MIN, accommodates MAX, bedrooms MAX, beds MAX,
    number_of_reviews MAX, review_scores_rating MAX
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.spec import DimType, SkylineDimension
from ._frame import to_spark

__all__ = ["AIRBNB_DIMS", "airbnb_dims", "airbnb", "airbnb_pandas"]

#: (column, type) in the paper's Table-1 order.
AIRBNB_DIMS: tuple[tuple[str, DimType], ...] = (
    ("price", DimType.MIN),
    ("accommodates", DimType.MAX),
    ("bedrooms", DimType.MAX),
    ("beds", DimType.MAX),
    ("number_of_reviews", DimType.MAX),
    ("review_scores_rating", DimType.MAX),
)


def airbnb_dims(k: int) -> list[SkylineDimension]:
    """First ``k`` skyline dimensions, as in the paper's k-dim queries."""
    if not 1 <= k <= len(AIRBNB_DIMS):
        raise ValueError(f"k must be in 1..{len(AIRBNB_DIMS)}")
    return [SkylineDimension(c, t) for c, t in AIRBNB_DIMS[:k]]


def airbnb_pandas(*, n: int, seed: int = 7) -> pd.DataFrame:
    """Generate the incomplete (NULL-bearing) listings table as pandas."""
    g = np.random.default_rng(seed)
    # Household size skews small.
    acc_vals = np.arange(1, 17)
    acc_p = 1.0 / acc_vals
    acc_p /= acc_p.sum()
    accommodates = g.choice(acc_vals, size=n, p=acc_p).astype(np.float64)

    bedrooms = np.maximum(0, np.round(accommodates / 2 + g.normal(0, 0.7, n)))
    beds = np.maximum(1, np.round(accommodates * 0.8 + g.normal(0, 1.0, n)))
    price = np.round(40.0 * accommodates**0.7 * np.exp(g.normal(0, 0.5, n)) + 10)

    # Review counts: heavy tail, many zero-review listings.
    number_of_reviews = np.floor(g.pareto(1.2, n) * 8)
    number_of_reviews[g.random(n) < 0.12] = 0
    # Ratings skew high (60..100), only exist when there are reviews.
    rating = np.clip(np.round(100 - g.gamma(2.0, 4.0, n), 1), 20, 100)

    # NULL pattern -> ~31% of rows have >=1 NULL in a skyline dimension:
    # no reviews -> no rating; bedrooms/beds occasionally unreported.
    rating[number_of_reviews == 0] = np.nan
    rating[g.random(n) < 0.02] = np.nan
    bedrooms[g.random(n) < 0.04] = np.nan
    beds[g.random(n) < 0.03] = np.nan

    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "price": price,
            "accommodates": accommodates,
            "bedrooms": bedrooms,
            "beds": beds,
            "number_of_reviews": number_of_reviews,
            "review_scores_rating": rating,
        }
    )


def airbnb(spark: SparkSession, *, n: int, seed: int = 7,
           complete: bool = False) -> DataFrame:
    """The listings table as a DataFrame.

    ``complete=True`` drops every row with a NULL in a skyline
    dimension (the paper's complete variant — hence smaller than the
    incomplete one, §6.2).
    """
    pdf = airbnb_pandas(n=n, seed=seed)
    if complete:
        pdf = pdf.dropna(subset=[c for c, _ in AIRBNB_DIMS]).reset_index(drop=True)
    return to_spark(spark, pdf)
