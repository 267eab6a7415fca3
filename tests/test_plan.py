"""Unit tests for the skyline node (repro.core.plan) — no Spark jobs."""
import pytest

from repro.core import plan as P
from repro.core.spec import smin, spec_of

# Stands in for the child DataFrame: neither the node nor the rule reads it.
CHILD = object()


class TestSkylineNode:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            P.Skyline(CHILD, spec_of(smin("a")), algorithm="typo")

    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True, "4"])
    def test_bad_parallelism_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            P.Skyline(CHILD, spec_of(smin("a")), parallelism=parallelism)
