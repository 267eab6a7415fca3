"""DataFrame-level skyline API (paper §5.8).

The paper adds ``smin() / smax() / sdiff()`` column markers and a
DataFrame method to Scala/Java, bridged to PySpark via Py4J.  Here the
implementation *is* Python, so the API is direct:

    from repro.api import skyline, smin, smax, sdiff
    best = skyline(hotels, smin("price"), smax("user_rating"))

Dimension expressions are Spark SQL strings (arbitrary numeric
expressions allowed, e.g. ``smin("price / nights")``).
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame

from .core import optimizer, plan as P
from .core.spec import SkylineSpec, SkylineDimension, smin, smax, sdiff  # noqa: F401

__all__ = ["skyline", "smin", "smax", "sdiff", "SkylineSpec", "SkylineDimension"]


def skyline(df: DataFrame, *dims: SkylineDimension,
            distinct: bool = False, complete: bool = False,
            algorithm: Optional[str] = None,
            parallelism: Optional[int] = None) -> DataFrame:
    """Compute the skyline of ``df`` over ``dims``.

    ``complete`` is the COMPLETE keyword (§5.5): assert NULL-free
    dimensions so the faster complete algorithms are chosen.
    ``algorithm`` overrides Listing-8 selection; ``parallelism`` sizes
    the null-bitmap shuffle of ``distributed_incomplete`` (see
    ``repro.core.physical.compute_skyline``).  The complete local stage
    runs on ``df``'s own partitions: pass ``df.repartition(k)`` for ``k``.
    """
    spec = SkylineSpec(tuple(dims), distinct=distinct, complete=complete)
    node = optimizer.optimize(
        P.Skyline(df, spec, algorithm=algorithm, parallelism=parallelism))
    return P.execute(node)
