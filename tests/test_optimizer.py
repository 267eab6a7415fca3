"""Unit tests for the optimizer rule (repro.core.optimizer) — no Spark jobs."""
from repro.core import optimizer as O, plan as P
from repro.core.spec import sdiff, smax, smin, spec_of

from tests.test_plan import rel


class TestSingleDimensionRewrite:
    rule = O.SingleDimensionRewrite()

    def test_rewrites_single_min(self):
        node = P.Skyline(rel("a"), spec_of(smin("a")))
        out = self.rule(node)
        assert isinstance(out, P.SingleDimSkyline) and out.spec is node.spec

    def test_complete_spec_uses_plain_variant(self):
        node = P.Skyline(rel("a"), spec_of(smin("a"), complete=True))
        out = self.rule(node)
        assert isinstance(out, P.SingleDimSkyline) and out.spec.complete

    def test_single_max_rewritten(self):
        out = self.rule(P.Skyline(rel("a"), spec_of(smax("a"))))
        assert isinstance(out, P.SingleDimSkyline)

    def test_two_dims_not_rewritten(self):
        node = P.Skyline(rel("a", "b"), spec_of(smin("a"), smax("b")))
        assert self.rule(node) is node

    def test_diff_blocks_rewrite(self):
        node = P.Skyline(rel("a", "c"), spec_of(smin("a"), sdiff("c")))
        assert self.rule(node) is node

    def test_reference_algorithm_untouched(self):
        node = P.Skyline(rel("a"), spec_of(smin("a")), algorithm="reference")
        assert self.rule(node) is node

    def test_non_skyline_node_untouched(self):
        node = rel("a")
        assert self.rule(node) is node


class TestOptimizePipeline:
    def test_optimize_preserves_plain_tree(self):
        # No rule fires: the argument itself comes back.
        tree = P.Skyline(rel("a", "b"), spec_of(smin("a"), smax("b")))
        assert O.optimize(tree) is tree

    def test_rewrites_below_the_root(self):
        # Skyline of a one-dimension skyline: only the inner node qualifies.
        inner = P.Skyline(rel("a", "b"), spec_of(smin("a")))
        out = O.optimize(P.Skyline(inner, spec_of(smin("a"), smax("b"))))
        assert isinstance(out, P.Skyline)
        assert isinstance(out.child, P.SingleDimSkyline)
