"""End-to-end skyline query execution (the paper's Figure-2 pipeline).

``sky_sql(spark, query)`` runs the full flow the paper builds inside
Spark SQL:

    parse  →  analyze  →  skyline node  →  optimize  →  physical
    (parser.py)  (analyzer.py)  (core.plan)  (core.optimizer)  (core.physical)

Non-skyline queries pass straight through to ``spark.sql`` — the
integration has no effect on other queries (§5.9).

Every algorithm, the Listing-4 ``reference`` baseline included, takes
the same path; the optimizer rule leaves a ``reference`` skyline alone.
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame, SparkSession

from ..core import optimizer, plan as P
from . import analyzer
from .parser import parse_skyline_query

__all__ = ["sky_sql"]


def sky_sql(spark: SparkSession, query: str, *,
            algorithm: Optional[str] = None,
            parallelism: Optional[int] = None) -> DataFrame:
    """Execute ``query``, which may contain a ``SKYLINE OF`` clause.

    ``algorithm``/``parallelism`` override physical planning exactly
    like :func:`repro.core.physical.compute_skyline`.
    """
    parsed = parse_skyline_query(query)
    if parsed is None:
        return spark.sql(query)

    resolved = analyzer.resolve(spark, parsed.base_sql, parsed.spec)
    node = optimizer.optimize(P.Skyline(
        spark.sql(resolved.base_sql), resolved.spec,
        algorithm=algorithm, parallelism=parallelism,
    ))
    out = P.execute(node)
    if resolved.final_columns:
        out = out.select(*resolved.final_columns)

    if parsed.order_by is not None:
        # The sort items are raw SQL over the output columns; ``spark.sql``
        # drops the view it registers for ``{out}`` once it has analyzed
        # the statement.  Braces are doubled so they reach Spark as typed.
        order = parsed.order_by.replace("{", "{{").replace("}", "}}")
        out = spark.sql(f"SELECT * FROM {{out}} ORDER BY {order}", out=out)
    if parsed.limit is not None:
        out = out.limit(parsed.limit)
    return out
