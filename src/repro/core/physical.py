"""Physical skyline operators and algorithm selection (paper §5.5–§5.7, §6.3).

The paper implements the skyline as *two* physical nodes — a
distributed local-skyline node (``UnspecifiedDistribution``) feeding a
single-instance global-skyline node (``AllTuples`` distribution).
From PySpark, each node becomes a ``mapInArrow`` stage over Arrow
buffers (the NumPy kernels read the dimension columns' buffers
directly); the ``AllTuples`` requirement is realized with
``repartition(1)`` (a shuffle, so the upstream local stage keeps its
parallelism).  The complete local stage asks for no distribution and
runs on its child's partitions as they are; only the incomplete local
stage shuffles, clustered on the null bitmap (§5.7).

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
expressions (any other type is rejected when the DataFrame is built).
A dimension that names one column of the child is read from that
column in place; every other dimension is materialized, with the type
Spark gives it, into an internal ``__sky_d<i>`` column for the
duration of the operator and dropped afterwards.  The reference, the
single-dimension rewrite and DISTINCT compare these Spark values
exactly.  The BNL stages compare them as float64 (NaN for NULL),
converted in ``dominance.normalize_matrix``; this substitutes the
paper's per-datatype dispatch and is exact while distinct values stay
distinct as float64 (integers up to 2^53, decimals of up to 15
significant digits, booleans, and timestamps as epoch microseconds).

Every stage body first calls ``_freeze_spark_archives``, which stops
the Python worker re-reading the Spark installation's own zip archives
before each later task (see its docstring).
"""
from __future__ import annotations

import os
import re
import sys
import zipimport
from typing import Iterator, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyspark
from pyspark import SparkFiles
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import BooleanType, NumericType, StructField, TimestampType

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
# An unquoted identifier that Spark SQL does not parse as a literal.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LITERALS = {"true", "false", "null"}


def _in_place_field(df: DataFrame, expr: str) -> Optional[StructField]:
    """The column of ``df`` that dimension ``expr`` names, else None.

    Only a plain identifier that names exactly one column, in the same
    case and with no case-insensitive twin, is read in place; anything
    else is left to Catalyst to resolve (or to reject as ambiguous).
    """
    if not _IDENTIFIER.fullmatch(expr) or expr.lower() in _LITERALS:
        return None
    twins = [f for f in df.schema.fields if f.name.lower() == expr.lower()]
    if len(twins) == 1 and twins[0].name == expr:
        return twins[0]
    return None


def _materialize_dims(df: DataFrame,
                      spec: SkylineSpec) -> tuple[DataFrame, list[str], list[str], bool]:
    """Give every skyline dimension a column the stages can read.

    A dimension that names one column of ``df`` is read from that
    column in place; every other one is appended, uncast, as a
    ``__sky_d<i>`` column, all of them in one ``select``.  Returns the
    (possibly extended) DataFrame, each dimension's column name in
    clause order, the names of the appended columns, and whether any
    dimension is nullable as Catalyst derives it for the expression
    over ``df``'s output (Listing 8's input).

    Raises ``ValueError`` when the DataFrame is built, not when it runs,
    if a dimension is not numeric, boolean or timestamp: the kernels
    compare float64 values, and ``dominance.normalize_matrix`` converts
    only those types.
    """
    for c in df.columns:
        if c.startswith(_DIM_PREFIX):
            raise ValueError(f"input column {c!r} collides with internal skyline columns")
    fields = [_in_place_field(df, d.expr) for d in spec.dimensions]
    cols = [f"{_DIM_PREFIX}{i}" if f is None else f.name for i, f in enumerate(fields)]
    appended = [i for i, f in enumerate(fields) if f is None]
    if appended:
        df = df.select("*", *[F.expr(spec.dimensions[i].expr).alias(cols[i]) for i in appended])
        for i, field in zip(appended, df.schema.fields[-len(appended):]):
            fields[i] = field
    for d, field in zip(spec.dimensions, fields):
        if not isinstance(field.dataType, (NumericType, BooleanType, TimestampType)):
            raise ValueError(
                f"skyline dimension {d.sql()!r} has type {field.dataType.simpleString()}; "
                "only numeric, boolean and timestamp dimensions are supported"
            )
    return df, cols, [cols[i] for i in appended], any(f.nullable for f in fields)


def _drop_dims(out: DataFrame, spec: SkylineSpec, cols: list[str],
               appended: list[str]) -> DataFrame:
    """Closing step of every lowering: DISTINCT on the dimensions, then
    drop the columns :func:`_materialize_dims` appended."""
    if spec.distinct:
        out = out.dropDuplicates(cols)
    return out.drop(*appended) if appended else out


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

class _FrozenZipImporter(zipimport.zipimporter):
    """A ``zipimporter`` over an archive that does not change while the
    process lives: ``invalidate_caches`` keeps the directory it read."""

    def invalidate_caches(self) -> None:
        pass


_spark_archives_frozen = False  # per process: set by the first stage a worker runs


def _freeze_spark_archives() -> None:
    """Stop the Spark installation's zip archives being re-read before every task.

    Before each Python task PySpark calls ``importlib.invalidate_caches()``,
    and every cached ``zipimporter`` then re-reads its archive's
    directory: ``pyspark.zip`` (one importer per imported package), the
    py4j zip and the ``spark-core`` jar, 0.16–0.27 s per task on a
    4-core machine running four tasks.  Those archives do not change
    while a worker lives.  So the first call in a process switches every
    cached importer of exactly type ``zipimporter`` whose archive lies
    inside the installation -- the directory of the archive ``pyspark``
    was imported from, and ``SPARK_HOME`` if set, both resolved through
    symlinks -- to :class:`_FrozenZipImporter`.  Archives under the
    ``SparkFiles`` root (``addPyFile``) and every other importer keep
    re-reading, and a path added to ``sys.path`` later gets a new,
    unfrozen importer.  Where no cached importer lies inside the
    installation, as in a stage run outside Spark, nothing changes.
    """
    global _spark_archives_frozen
    if _spark_archives_frozen:
        return
    _spark_archives_frozen = True
    roots = [os.environ.get("SPARK_HOME"),
             os.path.dirname(getattr(pyspark.__loader__, "archive", ""))]
    roots = [os.path.realpath(r) for r in roots if r]
    # Set by PySpark's task set-up in a worker, None elsewhere.
    user_files = SparkFiles._root_directory
    user_files = os.path.realpath(user_files) if user_files else None

    def inside(path: str, root: str) -> bool:
        return os.path.commonpath([path, root]) == root

    for importer in list(sys.path_importer_cache.values()):
        if type(importer) is not zipimport.zipimporter:
            continue
        archive = os.path.realpath(importer.archive)
        if (any(inside(archive, r) for r in roots)
                and not (user_files and inside(archive, user_files))):
            importer.__class__ = _FrozenZipImporter


def _make_stage(spec: SkylineSpec, cols: list[str], mask_fn):
    """Build a mapInArrow function keeping the rows of a partition that
    ``mask_fn(mm, diff)`` marks as its skyline.

    The kernels' matrices are read straight from the Arrow buffers, and
    the kept rows are zero-copy slices of each run of True in the mask,
    concatenated once.  So no worker imports pandas (``pa.array`` and
    ``Array.to_numpy`` would) or ``pyarrow.compute`` (``Table.filter``
    would, several MB of resident memory per worker).
    """

    def stage(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        _freeze_spark_archives()
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return
        table = pa.Table.from_batches(batches)
        mask = mask_fn(*normalize_matrix(table, spec, cols))
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        runs = [table.slice(lo, hi - lo) for lo, hi in zip(edges[::2], edges[1::2])]
        if runs:
            yield from pa.concat_tables(runs).combine_chunks().to_batches()

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
    """Local skyline per partition, then the global skyline on one partition.

    The complete local stage runs on ``df``'s own partitions (§5.6:
    ``UnspecifiedDistribution``); only the incomplete one shuffles.
    """
    local_fn, global_fn = _STAGES[algorithm]
    if local_fn is not None:
        if algorithm == "distributed_incomplete":
            # §5.7: distribution keyed on IsNull() of every skyline dimension,
            # so each bitmap's tuples land together.  The local stage still
            # groups by exact bitmap internally, so correctness does not
            # depend on how hash partitioning buckets the bitmaps.
            keys = [F.isnull(F.col(c)) for c in cols]
            df = df.repartition(parallelism, *keys) if parallelism else df.repartition(*keys)
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
    in the session catalog.  Dropping a view uncaches every cached plan
    Spark takes for the view's own, ``df`` itself or a projection of
    it, so the view is over ``df`` under an always-true filter (which
    the optimizer removes): a persisted ``df`` stays cached and the
    join reads its cache.
    """
    sql = listing4_sql("{df}", spec, cols, null_aware=not spec.complete)
    return df.sparkSession.sql(sql, df=df.where(F.lit(True)))


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
    work, cols, appended, _ = _materialize_dims(df, spec)
    c = cols[0]
    opt_col = f"{_DIM_PREFIX}_opt"  # in the prefix _materialize_dims reserves
    agg_fn = F.min if dim.dim_type is DimType.MIN else F.max
    opt = work.agg(agg_fn(F.col(c)).alias(opt_col))
    joined = work.crossJoin(opt)  # 1-row side: broadcast is disabled session-wide
    cond = F.col(c) == F.col(opt_col)
    if not spec.complete:
        cond = cond | F.col(c).isNull()
    return _drop_dims(joined.where(cond).drop(opt_col), spec, cols, appended)


def compute_skyline(df: DataFrame, spec: SkylineSpec, *,
                    algorithm: Optional[str] = None,
                    parallelism: Optional[int] = None) -> DataFrame:
    """Evaluate the skyline of ``df`` under ``spec``.

    ``algorithm`` overrides Listing-8 selection (one of
    :data:`ALGORITHMS`; benchmarks use this to pit the four variants
    against each other).  ``parallelism`` is the partition count of
    the null-bitmap shuffle of ``distributed_incomplete`` (§5.7; None =
    Spark's default shuffle partition count).  The other algorithms
    ignore it: the ``distributed_complete`` local stage runs on ``df``'s
    own partitions, so a caller who wants ``k`` of them passes
    ``df.repartition(k)``.  Building the result starts no Spark job.
    """
    check_hints(algorithm, parallelism)
    work, cols, appended, nullable = _materialize_dims(df, spec)
    algorithm = algorithm or select_algorithm(spec, nullable)
    if algorithm == "reference":
        out = reference_skyline(work, spec, cols)
    else:
        out = _local_global(work, spec, cols, algorithm, parallelism)
    return _drop_dims(out, spec, cols, appended)
