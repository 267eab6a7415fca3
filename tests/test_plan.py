"""Unit tests for the logical plan layer (repro.core.plan) — no Spark jobs."""
import pytest

from repro.core import plan as P
from repro.core.spec import smax, smin, spec_of


class FakeDF:
    """Stands in for a DataFrame where only .columns is consulted."""

    def __init__(self, cols):
        self.columns = list(cols)


def rel(*cols):
    return P.Relation(FakeDF(cols))


class TestTransformUp:
    # Relation -> Skyline -> Skyline: a skyline of a skyline.
    def _tree(self):
        r = rel("a", "b")
        inner = P.Skyline(r, spec_of(smin("a")))
        return r, inner, P.Skyline(inner, spec_of(smin("a"), smax("b")))

    def test_identity(self):
        *_, tree = self._tree()
        assert P.transform_up(tree, lambda n: n) is tree

    def test_bottom_up_order(self):
        visited = []
        r, inner, tree = self._tree()
        P.transform_up(tree, lambda n: (visited.append(n), n)[1])
        assert visited == [r, inner, tree]

    def test_child_replacement_rebuilds_ancestors(self):
        r, inner, tree = self._tree()

        def rule(n):
            if n is inner:
                return P.SingleDimSkyline(n.child, n.spec)
            return n

        new = P.transform_up(tree, rule)
        assert new is not tree
        assert isinstance(new.child, P.SingleDimSkyline)
        assert new.child.child is r
        assert new.spec is tree.spec


class TestSkylineNode:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            P.Skyline(rel("a"), spec_of(smin("a")), algorithm="typo")

    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True, "4"])
    def test_bad_parallelism_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            P.Skyline(rel("a"), spec_of(smin("a")), parallelism=parallelism)
