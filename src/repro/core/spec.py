"""Skyline dimension / specification model.

Mirrors the paper's ``SkylineDimension`` expression (§5.2) and the
clause-level options of the extended syntax (Listing 3):

    SKYLINE OF [DISTINCT] [COMPLETE] d1 MIN|MAX|DIFF, ..., dm ...

A :class:`SkylineDimension` wraps an arbitrary Spark SQL expression
string (usually a column name) plus its dimension type.  A
:class:`SkylineSpec` is the whole clause: the ordered list of
dimensions plus the DISTINCT / COMPLETE flags.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DimType(enum.Enum):
    """Type of a skyline dimension (Definition 3.1).

    MIN / MAX dimensions participate in the "at least as good /
    strictly better" comparisons; DIFF dimensions must be equal for
    two tuples to be comparable at all.
    """

    MIN = "MIN"
    MAX = "MAX"
    DIFF = "DIFF"


@dataclass(frozen=True)
class SkylineDimension:
    """One skyline dimension: a Spark SQL expression and its type.

    ``expr`` is kept as SQL text (the paper stores a Catalyst
    ``Expression`` child; SQL text is the PySpark-level equivalent and
    is resolved against the child plan by the analyzer).
    """

    expr: str
    dim_type: DimType

    def __post_init__(self) -> None:
        if not self.expr or not self.expr.strip():
            raise ValueError("skyline dimension expression must be non-empty")
        if not isinstance(self.dim_type, DimType):
            raise TypeError(f"dim_type must be DimType, got {self.dim_type!r}")
        object.__setattr__(self, "expr", self.expr.strip())

    def sql(self) -> str:
        """Render back to the extended-SQL item syntax, e.g. ``price MIN``."""
        return f"{self.expr} {self.dim_type.value}"


def smin(expr: str) -> SkylineDimension:
    """MIN dimension constructor — paper's ``smin()`` API (§5.8)."""
    return SkylineDimension(expr, DimType.MIN)


def smax(expr: str) -> SkylineDimension:
    """MAX dimension constructor — paper's ``smax()`` API (§5.8)."""
    return SkylineDimension(expr, DimType.MAX)


def sdiff(expr: str) -> SkylineDimension:
    """DIFF dimension constructor — paper's ``sdiff()`` API (§5.8)."""
    return SkylineDimension(expr, DimType.DIFF)


@dataclass(frozen=True)
class SkylineSpec:
    """A full ``SKYLINE OF`` clause.

    ``complete`` is the user override of §5.5: assert that no NULL
    occurs in any skyline dimension so the (faster) complete
    algorithms may be selected even when the schema says "nullable".
    ``distinct`` keeps a single arbitrary representative among tuples
    that agree on every skyline dimension.
    """

    dimensions: tuple[SkylineDimension, ...]
    distinct: bool = False
    complete: bool = False

    def __post_init__(self) -> None:
        dims = tuple(self.dimensions)
        if not dims:
            raise ValueError("a skyline requires at least one dimension")
        for d in dims:
            if not isinstance(d, SkylineDimension):
                raise TypeError(f"expected SkylineDimension, got {d!r}")
        if len({d.expr for d in dims}) != len(dims):
            raise ValueError("duplicate skyline dimension expressions")
        if all(d.dim_type is DimType.DIFF for d in dims):
            raise ValueError(
                "a skyline needs at least one MIN or MAX dimension "
                "(DIFF-only skylines have no dominance relation)"
            )
        object.__setattr__(self, "dimensions", dims)

    @property
    def diff_dims(self) -> tuple[SkylineDimension, ...]:
        return tuple(d for d in self.dimensions if d.dim_type is DimType.DIFF)

    @property
    def minmax_dims(self) -> tuple[SkylineDimension, ...]:
        """MIN/MAX dimensions in clause order (the comparable ones)."""
        return tuple(d for d in self.dimensions if d.dim_type is not DimType.DIFF)

    def sql(self) -> str:
        """Render the clause in the extended syntax of Listing 3."""
        parts = ["SKYLINE OF"]
        if self.distinct:
            parts.append("DISTINCT")
        if self.complete:
            parts.append("COMPLETE")
        head = " ".join(parts)
        items = ", ".join(d.sql() for d in self.dimensions)
        return f"{head} {items}"


def spec_of(*dims: SkylineDimension, distinct: bool = False, complete: bool = False) -> SkylineSpec:
    """Convenience constructor: ``spec_of(smin("price"), smax("rating"))``."""
    return SkylineSpec(tuple(dims), distinct=distinct, complete=complete)
