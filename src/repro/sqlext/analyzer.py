"""Analyzer rules for skyline queries (paper §5.3, Listings 6 & 7).

The paper extends Spark's analyzer so skyline dimensions may reference

* columns that are *not* part of the final projection
  (``ResolveMissingReferences`` extension, Listing 6), and
* aggregate expressions when the child is an ``Aggregate`` — including
  aggregates that appear only in the skyline, not in the SELECT list
  (Listing 7), also through a HAVING ``Filter`` (Appendix B).

Working at the SQL-string level, both cases reduce to the same move
the paper makes inside Catalyst: *extend the child's output with the
missing expressions, compute the skyline over the extended output,
then re-project to the original output* (Listing 6, lines 10-12).

A dimension with no aggregate whose column identifiers are all
output columns of the base query is left as written: the physical
layer evaluates it over the base output.  Every other dimension is
spliced into the base query's top-level select list as
``, (expr) AS __sky_eN`` and Catalyst analyzes the result — this
covers missing source columns and missing aggregates (Spark injects
the aggregate into the Aggregate node when analyzing the modified
query, exactly the effect of Listing 7).

An expression containing an aggregate function is always spliced,
whatever its identifiers: evaluated over the base output, ``count(*)``
would aggregate the base query's result instead of its groups.  The
test is made on the text, before analysis.

Spark's own Appendix-B bug (Sort on aggregates with HAVING) cannot
bite here because the helper expressions become ordinary select items
of the base query before Catalyst ever sees a Sort.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.errors import AnalysisException

from ..core.spec import SkylineDimension, SkylineSpec
from .parser import SkylineParseError, tokenize

__all__ = ["ResolvedSkylineQuery", "resolve", "inject_select_items"]

_HELPER_PREFIX = "__sky_e"

_AGG_FUNCS = {
    "count", "sum", "min", "max", "avg", "mean", "median", "mode",
    "stddev", "stddev_pop", "stddev_samp", "variance", "var_pop", "var_samp",
    "first", "last", "any_value", "collect_list", "collect_set",
    "approx_count_distinct", "percentile", "percentile_approx", "bool_and", "bool_or",
}

_SQL_KEYWORDS = {
    "and", "or", "not", "case", "when", "then", "else", "end", "null",
    "true", "false", "is", "in", "between", "like", "rlike", "as",
    "distinct", "interval", "day", "month", "year", "over", "partition", "by",
}


def _contains_aggregate(expr: str) -> bool:
    tokens = tokenize(expr)
    for i, t in enumerate(tokens):
        if (
            t.kind == "word"
            and t.text.lower() in _AGG_FUNCS
            and i + 1 < len(tokens)
            and tokens[i + 1].text == "("
        ):
            return True
    return False


def _column_identifiers(expr: str) -> set[str]:
    """Lower-cased identifiers of ``expr`` that look like column refs;
    a backquoted one is unquoted."""
    tokens = tokenize(expr)
    out: set[str] = set()
    for i, t in enumerate(tokens):
        if t.kind == "bquote":
            name = t.text[1:-1].lower()
        elif t.kind == "word" and t.text.lower() not in _SQL_KEYWORDS:
            name = t.text.lower()
        else:
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is not None and nxt.text == "(":
            continue  # function name
        if nxt is not None and nxt.kind in ("string", "dquote"):
            continue  # typed literal prefix: TIMESTAMP '…'
        if i > 0 and tokens[i - 1].upper in ("AS", "::"):
            continue  # type name: CAST(x AS DOUBLE), x::double
        if i > 0 and tokens[i - 1].text == ".":
            continue  # qualified tail: keep only the qualifier-free form simple
        out.add(name)
    return out


@dataclass(frozen=True)
class ResolvedSkylineQuery:
    """Outcome of analysis: a base query whose output covers every dimension.

    ``base`` is the analyzed base query, with helper columns appended
    when some dimension needed them; ``spec`` names each spliced
    dimension by its helper column and keeps the others as written;
    ``final_columns`` is the original output to re-project to after the
    skyline (empty tuple = no re-projection needed).
    """

    base: DataFrame
    spec: SkylineSpec
    final_columns: tuple[str, ...]


def inject_select_items(base_sql: str, items: list[str]) -> str:
    """Splice extra select items into the top-level select list.

    Locates the first top-level ``FROM`` that follows the first
    top-level ``SELECT`` (CTE bodies and subqueries are at depth > 0,
    so a leading ``WITH`` works too) and inserts ``, item`` just
    before it.
    """
    tokens = tokenize(base_sql)
    sel = next(
        (i for i, t in enumerate(tokens) if t.depth == 0 and t.upper == "SELECT"),
        None,
    )
    if sel is None:
        raise SkylineParseError("base query has no top-level SELECT")
    frm = next(
        (t for t in tokens[sel + 1 :] if t.depth == 0 and t.upper == "FROM"),
        None,
    )
    if frm is None:
        raise SkylineParseError("base query has no top-level FROM")
    extra = "".join(f", {it}" for it in items)
    return base_sql[: frm.start].rstrip() + extra + " " + base_sql[frm.start :]


def resolve(spark: SparkSession, base_sql: str, spec: SkylineSpec) -> ResolvedSkylineQuery:
    """Splice the dimensions the base query's output cannot evaluate into it.

    Raises ``SkylineParseError`` when a dimension must be spliced and a
    base output column already has the helper prefix: Spark would find
    the helper's name ambiguous.
    """
    base = spark.sql(base_sql)  # analysis only; no job runs
    base_cols = base.columns
    base_lower = {c.lower() for c in base_cols}
    missing = [
        d for d in spec.dimensions
        if _contains_aggregate(d.expr) or not _column_identifiers(d.expr) <= base_lower
    ]
    if not missing:
        return ResolvedSkylineQuery(base, spec, ())
    for c in base_cols:
        if c.lower().startswith(_HELPER_PREFIX):
            raise SkylineParseError(
                f"base query column {c!r} collides with internal skyline columns")

    helper_names = {d: f"{_HELPER_PREFIX}{i}" for i, d in enumerate(missing)}
    # Listing 6/7 analogue: extend the base query's own select list.
    new_base = inject_select_items(
        base_sql, [f"({d.expr}) AS {name}" for d, name in helper_names.items()]
    )
    try:
        base = spark.sql(new_base)
    except AnalysisException as exc:
        raise SkylineParseError(
            f"cannot resolve skyline dimension(s) {[d.expr for d in missing]} "
            f"against the base query: {exc}"
        ) from exc

    new_dims = tuple(
        SkylineDimension(helper_names.get(d, d.expr), d.dim_type) for d in spec.dimensions
    )
    return ResolvedSkylineQuery(
        base,
        SkylineSpec(new_dims, distinct=spec.distinct, complete=spec.complete),
        tuple(base_cols),
    )
