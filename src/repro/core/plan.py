"""Mini logical-plan layer mirroring the paper's Spark SQL integration (§5.2).

The paper adds a ``SkylineOperator`` node (single child, single
output) to Catalyst's logical plan.  From PySpark we cannot add
Catalyst nodes, so this module provides a small logical algebra *on
top of* DataFrames: a leaf :class:`Relation` wraps an arbitrary
Catalyst plan (anything Spark SQL produced), and :class:`Skyline` is
modelled explicitly so optimizer rules (optimizer.py) can
pattern-match on it, exactly like Catalyst rules do.
:class:`SingleDimSkyline` is what the single-dimension rule rewrites
a :class:`Skyline` to.

``execute(plan)`` lowers the tree back to DataFrame operations;
the Skyline node is lowered by the physical layer (physical.py), which
performs the paper's Listing-8 algorithm selection.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from pyspark.sql import DataFrame

from . import physical
from .spec import SkylineSpec

__all__ = [
    "LogicalPlan", "Relation", "Skyline", "SingleDimSkyline",
    "execute", "transform_up",
]


@dataclass(frozen=True, eq=False)
class LogicalPlan:
    """Base class for logical nodes."""


@dataclass(frozen=True, eq=False)
class Relation(LogicalPlan):
    """Leaf: an arbitrary DataFrame (any Catalyst plan)."""

    df: DataFrame


@dataclass(frozen=True, eq=False)
class Skyline(LogicalPlan):
    """The skyline operator node — single child, single output (§5.2)."""

    child: LogicalPlan
    spec: SkylineSpec
    # Physical hints (None = let Listing-8 selection decide).
    algorithm: Optional[str] = None
    parallelism: Optional[int] = None

    def __post_init__(self) -> None:
        # Checked here, before any rule can replace the node, so a bad
        # hint fails the same way whichever lowering the plan ends in.
        physical.check_hints(self.algorithm, self.parallelism)


@dataclass(frozen=True, eq=False)
class SingleDimSkyline(LogicalPlan):
    """Result of the single-MIN/MAX-dimension optimizer rewrite (§5.4).

    Semantically equivalent to ``Skyline`` over a one-dimensional spec
    but executed as scalar-subquery + selection in O(n).
    """

    child: LogicalPlan
    spec: SkylineSpec


def transform_up(plan: LogicalPlan, rule) -> LogicalPlan:
    """Bottom-up tree rewrite: apply ``rule`` to every node, children first.

    ``rule(node) -> node`` returns the (possibly unchanged) node —
    the same contract as Catalyst's ``resolveOperatorsUp``.
    """
    updates = {}
    for name, v in plan.__dict__.items():
        if isinstance(v, LogicalPlan):
            new = transform_up(v, rule)
            if new is not v:
                updates[name] = new
    if updates:
        plan = replace(plan, **updates)
    return rule(plan)


def execute(plan: LogicalPlan) -> DataFrame:
    """Lower a logical plan to a DataFrame (physical planning + execution)."""
    if isinstance(plan, Relation):
        return plan.df
    if isinstance(plan, Skyline):
        return physical.compute_skyline(
            execute(plan.child),
            plan.spec,
            algorithm=plan.algorithm,
            parallelism=plan.parallelism,
        )
    if isinstance(plan, SingleDimSkyline):
        return physical.single_dim_skyline(execute(plan.child), plan.spec)
    raise TypeError(f"unknown plan node {plan!r}")
