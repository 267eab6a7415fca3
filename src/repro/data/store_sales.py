"""Synthetic DSB ``store_sales`` table (paper §6.2, Table 2).

The paper generates ~15M rows with the DSB benchmark generator [14]
(TPC-DS schema with skew) and takes prefixes of 1e6..1e7 rows.  DSB is
not available offline, so this module generates the Table-2 columns
with the distributional features the paper's results hinge on:

* ``ss_quantity`` is a small integer (1..100): the one-dimensional
  skyline keeps *every* row tied at the maximum, which is what makes
  the reference (NOT EXISTS) query explode at 1 dimension (Fig. 4 /
  Table 5) — each tied row scans the whole table without finding a
  dominator.
* Prices are positively correlated along the retail chain
  (wholesale → list → sales), so adding price dimensions first
  *shrinks* the skyline (ties resolved) before independent dimensions
  grow it again — the two opposing effects of §6.4.
* ``ss_ext_discount_amt`` is mostly zero (sparse promotions).
* Every skyline dimension carries ~4% NULLs (TPC-DS semantics: NULL
  foreign events), independently per column.

The complete variant filters NULL-free rows from a larger pool and
takes the first ``n`` so that — as in the paper — complete and
incomplete variants have the *same* size.

Skyline dimensions in the paper's 1..6-dimension query order:

    ss_quantity MAX, ss_wholesale_cost MIN, ss_list_price MIN,
    ss_sales_price MIN, ss_ext_discount_amt MAX, ss_ext_sales_price MIN
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.spec import DimType, SkylineDimension
from ._frame import to_spark

__all__ = ["STORE_SALES_DIMS", "store_sales_dims", "store_sales", "store_sales_pandas"]

STORE_SALES_DIMS: tuple[tuple[str, DimType], ...] = (
    ("ss_quantity", DimType.MAX),
    ("ss_wholesale_cost", DimType.MIN),
    ("ss_list_price", DimType.MIN),
    ("ss_sales_price", DimType.MIN),
    ("ss_ext_discount_amt", DimType.MAX),
    ("ss_ext_sales_price", DimType.MIN),
)

_NULL_RATE = 0.04


def store_sales_dims(k: int) -> list[SkylineDimension]:
    """First ``k`` skyline dimensions, as in the paper's k-dim queries."""
    if not 1 <= k <= len(STORE_SALES_DIMS):
        raise ValueError(f"k must be in 1..{len(STORE_SALES_DIMS)}")
    return [SkylineDimension(c, t) for c, t in STORE_SALES_DIMS[:k]]


def _generate(n: int, g: np.random.Generator, id_offset: int = 0) -> pd.DataFrame:
    quantity = g.integers(1, 101, n).astype(np.float64)
    wholesale = np.round(g.uniform(1.0, 100.0, n), 2)
    list_price = np.round(wholesale * g.uniform(1.1, 3.0, n), 2)
    sales_price = np.round(list_price * g.uniform(0.2, 1.0, n), 2)
    discount = np.where(
        g.random(n) < 0.8, 0.0, np.round((list_price - sales_price) * quantity * g.random(n), 2)
    )
    ext_sales = np.round(sales_price * quantity, 2)
    pdf = pd.DataFrame(
        {
            "ss_item_sk": g.integers(1, max(2, n // 50), n),
            "ss_ticket_number": np.arange(id_offset + 1, id_offset + n + 1),
            "ss_quantity": quantity,
            "ss_wholesale_cost": wholesale,
            "ss_list_price": list_price,
            "ss_sales_price": sales_price,
            "ss_ext_discount_amt": discount,
            "ss_ext_sales_price": ext_sales,
        }
    )
    for c, _ in STORE_SALES_DIMS:
        pdf.loc[g.random(n) < _NULL_RATE, c] = np.nan
    return pdf


def store_sales_pandas(*, n: int, seed: int = 11, complete: bool = False) -> pd.DataFrame:
    """Generate ``n`` rows; ``complete=True`` → NULL-free rows, same size."""
    g = np.random.default_rng(seed)
    if not complete:
        return _generate(n, g)
    # Overgenerate (NULL-free survival rate is (1-rate)^6 ≈ 0.78) and
    # take the first n complete rows — the paper's prefix selection.
    dims = [c for c, _ in STORE_SALES_DIMS]
    chunks: list[pd.DataFrame] = []
    have = 0
    offset = 0
    while have < n:
        size = max(64, int((n - have) / (1 - _NULL_RATE) ** len(dims) * 1.1))
        pool = _generate(size, g, id_offset=offset)
        offset += size
        keep = pool.dropna(subset=dims)
        chunks.append(keep)
        have += len(keep)
    return pd.concat(chunks, ignore_index=True).head(n).reset_index(drop=True)


def store_sales(spark: SparkSession, *, n: int, seed: int = 11,
                complete: bool = False) -> DataFrame:
    """The ``store_sales`` prefix of size ``n`` as a DataFrame."""
    return to_spark(spark, store_sales_pandas(n=n, seed=seed, complete=complete))
