"""The skyline operator node of the paper's Spark SQL integration (§5.2).

The paper adds a ``SkylineOperator`` node (single child, single
output) to Catalyst's logical plan.  From PySpark we cannot add
Catalyst nodes, so :class:`Skyline` sits *on top of* a DataFrame: its
child is whatever Catalyst plan Spark SQL or the caller produced.
:class:`SingleDimSkyline` is what the single-dimension rule
(optimizer.py) rewrites a :class:`Skyline` to.

``execute(node)`` lowers either node to DataFrame operations in the
physical layer (physical.py), which performs the paper's Listing-8
algorithm selection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame

from . import physical
from .spec import SkylineSpec

__all__ = ["Skyline", "SingleDimSkyline", "execute"]


@dataclass(frozen=True, eq=False)
class Skyline:
    """The skyline operator node — single child, single output (§5.2)."""

    child: DataFrame
    spec: SkylineSpec
    # Physical hints (None = let Listing-8 selection decide).
    algorithm: Optional[str] = None
    parallelism: Optional[int] = None

    def __post_init__(self) -> None:
        # Checked here, before the rule can replace the node, so a bad
        # hint fails the same way whichever lowering the plan ends in.
        physical.check_hints(self.algorithm, self.parallelism)


@dataclass(frozen=True, eq=False)
class SingleDimSkyline:
    """Result of the single-MIN/MAX-dimension optimizer rewrite (§5.4).

    Semantically equivalent to ``Skyline`` over a one-dimensional spec
    but executed as scalar-subquery + selection in O(n).
    """

    child: DataFrame
    spec: SkylineSpec


def execute(node: Skyline | SingleDimSkyline) -> DataFrame:
    """Lower a skyline node to a DataFrame (physical planning + execution)."""
    if isinstance(node, SingleDimSkyline):
        return physical.single_dim_skyline(node.child, node.spec)
    return physical.compute_skyline(
        node.child, node.spec, algorithm=node.algorithm, parallelism=node.parallelism)
