"""Unit tests for the skyline spec model (repro.core.spec)."""
import pytest

from repro.core.spec import (
    DimType, SkylineDimension, SkylineSpec, sdiff, smax, smin, spec_of,
)


class TestSkylineDimension:
    def test_min_constructor(self):
        d = smin("price")
        assert d.dim_type is DimType.MIN and d.expr == "price"

    def test_max_constructor(self):
        d = smax("rating")
        assert d.dim_type is DimType.MAX and d.expr == "rating"

    def test_diff_constructor(self):
        d = sdiff("category")
        assert d.dim_type is DimType.DIFF and d.expr == "category"

    def test_expr_is_stripped(self):
        assert smin("  price ").expr == "price"

    @pytest.mark.parametrize("bad", ["", "   "])
    def test_empty_expr_rejected(self, bad):
        with pytest.raises(ValueError):
            SkylineDimension(bad, DimType.MIN)

    def test_dim_type_must_be_enum(self):
        with pytest.raises(TypeError):
            SkylineDimension("x", "MIN")

    def test_sql_rendering(self):
        assert smin("price").sql() == "price MIN"
        assert smax("r").sql() == "r MAX"
        assert sdiff("c").sql() == "c DIFF"

    def test_frozen(self):
        with pytest.raises(Exception):
            smin("x").expr = "y"


class TestSkylineSpec:
    def test_basic(self):
        s = spec_of(smin("a"), smax("b"))
        assert len(s.dimensions) == 2
        assert not s.distinct and not s.complete

    def test_requires_dimension(self):
        with pytest.raises(ValueError):
            SkylineSpec(())

    def test_rejects_duplicate_exprs(self):
        with pytest.raises(ValueError, match="duplicate"):
            spec_of(smin("a"), smax("a"))

    def test_rejects_diff_only(self):
        with pytest.raises(ValueError, match="MIN or MAX"):
            spec_of(sdiff("a"), sdiff("b"))

    def test_rejects_non_dimension(self):
        with pytest.raises(TypeError):
            SkylineSpec(("price",))

    def test_partitions_by_type(self):
        s = spec_of(smin("a"), smax("b"), sdiff("c"), smin("d"))
        assert [d.expr for d in s.diff_dims] == ["c"]
        assert [d.expr for d in s.minmax_dims] == ["a", "b", "d"]

    def test_minmax_preserves_clause_order(self):
        s = spec_of(smax("b"), smin("a"))
        assert [d.expr for d in s.minmax_dims] == ["b", "a"]

    def test_sql_plain(self):
        assert spec_of(smin("a"), smax("b")).sql() == "SKYLINE OF a MIN, b MAX"

    def test_sql_distinct_complete(self):
        s = spec_of(smin("a"), distinct=True, complete=True)
        assert s.sql() == "SKYLINE OF DISTINCT COMPLETE a MIN"

    def test_sql_complete_only(self):
        assert spec_of(smin("a"), complete=True).sql() == "SKYLINE OF COMPLETE a MIN"

    def test_flags_stored(self):
        s = spec_of(smin("a"), distinct=True)
        assert s.distinct and not s.complete
