"""Skyline-specific optimizer rule (paper §5.4).

Catalyst is a rule-based optimizer over logical plans; our one rule,
SingleDimensionRewrite, is the function :func:`optimize` from a
:class:`plan.Skyline` node to a node — the contract of a Catalyst rule
(plan in, plan out) over a plan holding one skyline.

A skyline over a single MIN/MAX dimension is the plain optimum of that
dimension.  Rather than sorting (O(n log n)) the paper picks the
scalar-subquery-and-select formulation (O(n)); we rewrite to
:class:`plan.SingleDimSkyline` which executes exactly that.  Without
COMPLETE, NULL rows are additionally kept — with one dimension a NULL
tuple shares no non-NULL dimension with anyone, hence is incomparable
and belongs to the skyline.

The paper's second rule, pushing a skyline below a non-reductive join,
is not implemented: both entry points hand the skyline an opaque base
relation, so there is no join node to push through (DESIGN.md §5).

The reference algorithm never gets the rule — it represents the
un-integrated baseline (§6.3), so a Skyline node whose algorithm hint
is ``"reference"`` is left untouched.
"""
from __future__ import annotations

from . import plan as P

__all__ = ["optimize"]


def optimize(node: P.Skyline) -> P.Skyline | P.SingleDimSkyline:
    """SingleDimensionRewrite: one MIN/MAX dimension and no DIFF → scalar-subquery select.

    ``node`` itself comes back when the rule does not fire.
    """
    spec = node.spec
    if node.algorithm == "reference" or len(spec.minmax_dims) != 1 or spec.diff_dims:
        return node
    return P.SingleDimSkyline(node.child, spec)
