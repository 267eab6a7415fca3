"""Physical skyline operators and algorithm selection (paper §5.5–§5.7, §6.3).

The paper implements the skyline as *two* physical nodes — a
distributed local-skyline node (``UnspecifiedDistribution``) feeding a
single-instance global-skyline node (``AllTuples`` distribution).
From PySpark, each node becomes a ``mapInArrow`` stage over Arrow
buffers (the NumPy kernels read the dimension columns' buffers
directly); the ``AllTuples`` requirement is realized with
``repartition(1)`` (a shuffle, so the upstream local stage keeps its
parallelism).

Four executable algorithms, named as in §6.3 / the performance charts:

* ``distributed_complete``     — local BNL per partition, then global BNL.
* ``non_distributed_complete`` — global BNL only, on a single partition.
* ``distributed_incomplete``   — null-bitmap partitioning (§5.7), local
  BNL per bitmap group, then the all-pairs flag-then-delete global
  phase (Appendix A).
* ``reference``                — the Listing-4 plain-SQL ``NOT EXISTS``
  rewrite executed by the unmodified engine (the null-aware variant
  unless the query says ``COMPLETE``).

``select_algorithm`` is Listing 8: the complete path is taken iff the
query says ``COMPLETE`` or every skyline dimension is non-nullable.

Skyline dimensions may be arbitrary numeric, boolean or timestamp SQL
expressions (any other type is rejected when the DataFrame is built);
they are materialized into internal ``__sky_d<i>`` double columns for
the duration of the operator and dropped afterwards.  (Evaluating
dimensions as float64 — NaN for NULL — substitutes the paper's
per-datatype dispatch; exact for the integer/decimal/boolean
dimensions used throughout the evaluation.)
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import BooleanType, NumericType, TimestampType

from . import bnl
from .dominance import normalize_matrix
from .spec import DimType, SkylineSpec

__all__ = [
    "ALGORITHMS",
    "select_algorithm",
    "compute_skyline",
    "single_dim_skyline",
    "check_hints",
    "listing4_sql",
    "reference_skyline",
]

ALGORITHMS = (
    "distributed_complete",
    "non_distributed_complete",
    "distributed_incomplete",
    "reference",
)

_DIM_PREFIX = "__sky_d"


def _dim_cols(spec: SkylineSpec) -> list[str]:
    return [f"{_DIM_PREFIX}{i}" for i in range(len(spec.dimensions))]


def _materialize_dims(df: DataFrame, spec: SkylineSpec) -> tuple[DataFrame, list[str], bool]:
    """Append one double column per skyline dimension expression.

    Returns the extended DataFrame, the names of the appended columns,
    and whether any dimension is nullable as Catalyst derives it for
    the expression over ``df``'s output (Listing 8's input).

    Raises ``ValueError`` when the DataFrame is built, not when it runs,
    if a dimension is not numeric, boolean or timestamp: its values
    have no double representation for the kernels to compare.  A
    timestamp casts to its epoch seconds, which keep microseconds
    exactly in float64 for present-day values.
    """
    for c in df.columns:
        if c.startswith(_DIM_PREFIX):
            raise ValueError(f"input column {c!r} collides with internal skyline columns")
    cols = _dim_cols(spec)
    exprs = [F.expr(d.expr) for d in spec.dimensions]
    fields = df.select(*[e.alias(c) for e, c in zip(exprs, cols)]).schema.fields
    for d, field in zip(spec.dimensions, fields):
        if not isinstance(field.dataType, (NumericType, BooleanType, TimestampType)):
            raise ValueError(
                f"skyline dimension {d.sql()!r} has type {field.dataType.simpleString()}; "
                "only numeric, boolean and timestamp dimensions are supported"
            )
    out = df.select("*", *[e.cast("double").alias(c) for e, c in zip(exprs, cols)])
    return out, cols, any(f.nullable for f in fields)


def _drop_dims(out: DataFrame, spec: SkylineSpec, cols: list[str]) -> DataFrame:
    """Closing step of every lowering: DISTINCT on the dimensions, then drop them."""
    if spec.distinct:
        out = out.dropDuplicates(cols)
    return out.drop(*cols)


def check_hints(algorithm: Optional[str], parallelism: Optional[int]) -> None:
    """Reject physical-planning hints the stages cannot honour.

    ``algorithm`` must be None or one of :data:`ALGORITHMS`;
    ``parallelism`` must be None or a positive ``int`` (not a bool),
    since it becomes the partition count of a ``repartition``.
    """
    if algorithm is not None and algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if parallelism is not None and (
            not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1):
        raise ValueError(f"parallelism must be a positive int or None, got {parallelism!r}")


def select_algorithm(spec: SkylineSpec, nullable: bool) -> str:
    """Listing 8: complete algorithm iff COMPLETE keyword or no nullable dim.

    ``nullable`` is what :func:`_materialize_dims` reads off the
    analyzed dimension expressions: Catalyst's derived nullability, so
    ``v + 1`` over a non-nullable ``v`` counts as non-nullable.
    """
    if spec.complete or not nullable:
        return "distributed_complete"
    return "distributed_incomplete"


# ---------------------------------------------------------------------------
# mapInArrow stage body
# ---------------------------------------------------------------------------

def _make_stage(spec: SkylineSpec, cols: list[str], mask_fn):
    """Build a mapInArrow function keeping the rows of a partition that
    ``mask_fn(mm, diff)`` marks as its skyline.

    The kernels' matrices are read straight from the Arrow buffers and
    the mask is handed back as an Arrow bitmap, so no worker imports
    pandas (``pa.array`` and ``Array.to_numpy`` would).
    """

    def stage(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return
        table = pa.Table.from_batches(batches)
        mask = mask_fn(*normalize_matrix(table, spec, cols))
        keep = pa.BooleanArray.from_buffers(
            pa.bool_(), len(mask), [None, pa.py_buffer(np.packbits(mask, bitorder="little"))])
        yield from table.filter(keep).to_batches()

    return stage


# ---------------------------------------------------------------------------
# The three specialized algorithms: (local mask, global mask).  A None
# local mask skips the local stage (§6.3 item 2: one global BNL).
# ---------------------------------------------------------------------------

_STAGES = {
    "distributed_complete": (bnl.bnl_skyline_mask, bnl.bnl_skyline_mask),
    "non_distributed_complete": (None, bnl.bnl_skyline_mask),
    "distributed_incomplete": (bnl.incomplete_local_skyline_mask,
                               bnl.incomplete_global_skyline_mask),
}


def _local_global(df: DataFrame, spec: SkylineSpec, cols: list[str], algorithm: str,
                  parallelism: Optional[int]) -> DataFrame:
    """Local skyline per partition, then the global skyline on one partition."""
    local_fn, global_fn = _STAGES[algorithm]
    if local_fn is not None:
        keys = []
        if algorithm == "distributed_incomplete":
            # §5.7: distribution keyed on IsNull() of every skyline dimension,
            # so each bitmap's tuples land together.  The local stage still
            # groups by exact bitmap internally, so correctness does not
            # depend on how hash partitioning buckets the bitmaps.
            keys = [F.isnull(F.col(c)) for c in cols]
        if parallelism is not None:
            df = df.repartition(parallelism, *keys)
        elif keys:
            df = df.repartition(*keys)
        df = df.mapInArrow(_make_stage(spec, cols, local_fn), df.schema)
    # The paper's ``AllTuples`` distribution: everything on one instance.
    # ``repartition(1)`` (not ``coalesce``) so a shuffle boundary separates
    # the stages and the local stage keeps its parallelism.
    return df.repartition(1).mapInArrow(_make_stage(spec, cols, global_fn), df.schema)


def _dominance_condition(spec: SkylineSpec, cols: Sequence[str], *, null_aware: bool) -> str:
    """Dominance predicate of Listing 4: inner tuple ``i`` dominates outer ``o``.

    The null-aware variant implements the §3 incomplete-data dominance
    (comparisons restricted to dimensions where both sides are
    non-NULL) so the reference computes the same result as the
    specialized incomplete algorithm.
    """
    soft: list[str] = []
    strict: list[str] = []
    for d, c in zip(spec.dimensions, cols):
        i, o = f"i.{c}", f"o.{c}"
        nulls = f" OR {i} IS NULL OR {o} IS NULL" if null_aware else ""
        if d.dim_type is DimType.DIFF:
            soft.append(f"({i} = {o}{nulls})")
            continue
        op_soft, op_strict = ("<=", "<") if d.dim_type is DimType.MIN else (">=", ">")
        soft.append(f"({i} {op_soft} {o}{nulls})")
        strict.append(f"({i} {op_strict} {o})")  # NULL comparison is never TRUE in SQL
    return " AND ".join(soft + [f"({' OR '.join(strict)})"])


def listing4_sql(relation: str, spec: SkylineSpec, cols: Sequence[str], *,
                 null_aware: bool) -> str:
    """Listing 4: the skyline of ``relation`` as a plain-SQL ``NOT EXISTS`` query.

    ``relation`` is a table or view name or a parenthesized query;
    ``cols[k]`` is its column holding dimension ``k`` of ``spec``.
    The text is engine-neutral: Spark runs it as the reference
    algorithm, DuckDB runs it as the correctness oracle.
    Under SQL three-valued semantics (``null_aware=False``) a NULL
    comparison never satisfies the dominance conjuncts;
    ``null_aware=True`` adds the explicit IS NULL disjuncts of the §3
    dominance.  ``DISTINCT`` is not rendered: callers deduplicate on
    the dimensions.
    """
    cond = _dominance_condition(spec, cols, null_aware=null_aware)
    return (
        f"SELECT * FROM {relation} AS o WHERE NOT EXISTS ("
        f"SELECT 1 FROM {relation} AS i WHERE {cond})"
    )


def reference_skyline(df: DataFrame, spec: SkylineSpec, cols: list[str]) -> DataFrame:
    """Listing 4 run by the stock engine over ``df``.

    Without COMPLETE the null-aware variant is rendered, which matches
    the specialized incomplete algorithm.  With COMPLETE it is the
    paper's literal rewrite under SQL three-valued semantics: a NULL
    comparison never satisfies the dominance conjuncts, so on data
    that does hold NULLs every NULL-bearing tuple survives (a superset
    of the null-aware skyline, at the ~n² cost of the paper's
    reference rows).

    ``spark.sql`` registers ``df`` under a fresh view name for the one
    statement it analyzes and drops the view again, so nothing is left
    in the session catalog.
    """
    sql = listing4_sql("{df}", spec, cols, null_aware=not spec.complete)
    return df.sparkSession.sql(sql, df=df)


def single_dim_skyline(df: DataFrame, spec: SkylineSpec) -> DataFrame:
    """§5.4 single-MIN/MAX-dimension rewrite: scalar subquery + selection.

    The Pareto optimum of one dimension is its optimum.  We compute
    min/max in a scalar aggregate (O(n)) and select the matching rows
    instead of sorting (O(n log n)).  Without COMPLETE (null-aware
    semantics) rows with a NULL dimension are incomparable to
    everything, hence also kept.
    """
    if len(spec.minmax_dims) != 1 or spec.diff_dims:
        raise ValueError("single_dim_skyline requires exactly one MIN/MAX dim and no DIFF dims")
    dim = spec.minmax_dims[0]
    work, cols, _ = _materialize_dims(df, spec)
    c = cols[0]
    opt_col = f"{_DIM_PREFIX}_opt"  # in the prefix _materialize_dims reserves
    agg_fn = F.min if dim.dim_type is DimType.MIN else F.max
    opt = work.agg(agg_fn(F.col(c)).alias(opt_col))
    joined = work.crossJoin(opt)  # 1-row side: broadcast is disabled session-wide
    cond = F.col(c) == F.col(opt_col)
    if not spec.complete:
        cond = cond | F.col(c).isNull()
    return _drop_dims(joined.where(cond).drop(opt_col), spec, cols)


def compute_skyline(df: DataFrame, spec: SkylineSpec, *,
                    algorithm: Optional[str] = None,
                    parallelism: Optional[int] = None) -> DataFrame:
    """Evaluate the skyline of ``df`` under ``spec``.

    ``algorithm`` overrides Listing-8 selection (one of
    :data:`ALGORITHMS`; benchmarks use this to pit the four variants
    against each other).  ``parallelism`` simulates the paper's
    executor count: it is the partition count of the local-skyline
    stage (None = keep the child's partitioning, the paper's
    ``UnspecifiedDistribution`` default).
    """
    check_hints(algorithm, parallelism)
    work, cols, nullable = _materialize_dims(df, spec)
    algorithm = algorithm or select_algorithm(spec, nullable)
    if algorithm == "reference":
        out = reference_skyline(work, spec, cols)
    else:
        out = _local_global(work, spec, cols, algorithm, parallelism)
    return _drop_dims(out, spec, cols)
