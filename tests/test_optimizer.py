"""Unit tests for the optimizer rule (repro.core.optimizer) — no Spark jobs."""
from repro.core import optimizer as O, plan as P
from repro.core.spec import sdiff, smax, smin, spec_of

from tests.test_plan import CHILD


class TestSingleDimensionRewrite:
    def test_rewrites_single_min(self):
        node = P.Skyline(CHILD, spec_of(smin("a")))
        out = O.optimize(node)
        assert isinstance(out, P.SingleDimSkyline)
        assert out.spec is node.spec and out.child is CHILD

    def test_complete_spec_uses_plain_variant(self):
        node = P.Skyline(CHILD, spec_of(smin("a"), complete=True))
        out = O.optimize(node)
        assert isinstance(out, P.SingleDimSkyline) and out.spec.complete

    def test_single_max_rewritten(self):
        out = O.optimize(P.Skyline(CHILD, spec_of(smax("a"))))
        assert isinstance(out, P.SingleDimSkyline)

    def test_two_dims_not_rewritten(self):
        node = P.Skyline(CHILD, spec_of(smin("a"), smax("b")))
        assert O.optimize(node) is node

    def test_diff_blocks_rewrite(self):
        node = P.Skyline(CHILD, spec_of(smin("a"), sdiff("c")))
        assert O.optimize(node) is node

    def test_reference_algorithm_untouched(self):
        node = P.Skyline(CHILD, spec_of(smin("a")), algorithm="reference")
        assert O.optimize(node) is node


class TestOptimizePipeline:
    def test_optimize_preserves_plain_tree(self):
        # The rule does not fire: the argument itself comes back, hints kept.
        node = P.Skyline(CHILD, spec_of(smin("a"), smax("b")),
                         algorithm="distributed_complete", parallelism=3)
        assert O.optimize(node) is node
