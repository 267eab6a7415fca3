"""Spark-free unit tests for the analyzer helpers (repro.sqlext.analyzer)."""
import pytest

from repro.sqlext.analyzer import (
    _column_identifiers, _contains_aggregate, inject_select_items,
)
from repro.sqlext.parser import SkylineParseError


class TestContainsAggregate:
    @pytest.mark.parametrize("expr", [
        "count(*)", "sum(x)", "min(a + b)", "avg(price) * 2",
        "COUNT(1)", "Sum(x)", "ifnull(sum(x), 0)",
    ])
    def test_positive(self, expr):
        assert _contains_aggregate(expr)

    @pytest.mark.parametrize("expr", [
        "price", "a + b", "ifnull(a, 0)", "abs(x)", "count_col", "summary",
    ])
    def test_negative(self, expr):
        assert not _contains_aggregate(expr)


class TestColumnIdentifiers:
    def test_bare_columns(self):
        assert _column_identifiers("a + b") == {"a", "b"}

    def test_function_names_excluded(self):
        assert _column_identifiers("ifnull(a, 0)") == {"a"}

    def test_keywords_excluded(self):
        assert _column_identifiers("CASE WHEN a THEN b ELSE c END") == {"a", "b", "c"}

    def test_case_folded(self):
        assert _column_identifiers("Price + TAX") == {"price", "tax"}

    def test_backquoted_unquoted(self):
        assert _column_identifiers("`Price` + `tax`") == {"price", "tax"}

    @pytest.mark.parametrize("expr", [
        "CAST(price AS DOUBLE)", "price::double", "CAST(price AS DECIMAL(10, 2))",
        "price - (TIMESTAMP '2020-01-01' - TIMESTAMP '2019-01-01')",
        'DATE "2020-01-01" < price',
    ])
    def test_type_names_excluded(self, expr):
        assert _column_identifiers(expr) == {"price"}


class TestInjectSelectItems:
    def test_plain_select(self):
        out = inject_select_items("SELECT a FROM t", ["b AS x"])
        assert out == "SELECT a, b AS x FROM t"

    def test_preserves_where(self):
        out = inject_select_items("SELECT a FROM t WHERE a > 1", ["b AS x"])
        assert out == "SELECT a, b AS x FROM t WHERE a > 1"

    def test_subquery_from_untouched(self):
        out = inject_select_items("SELECT a FROM (SELECT * FROM t) s", ["b AS x"])
        assert out.startswith("SELECT a, b AS x FROM (SELECT * FROM t)")

    def test_inner_from_not_confused(self):
        # The FROM inside the scalar subquery in the select list is at
        # depth > 0; injection targets the outer FROM.
        q = "SELECT (SELECT max(v) FROM u) AS m FROM t"
        out = inject_select_items(q, ["w AS x"])
        assert out == "SELECT (SELECT max(v) FROM u) AS m, w AS x FROM t"

    def test_group_by_query(self):
        out = inject_select_items(
            "SELECT k, sum(v) AS sv FROM t GROUP BY k", ["count(*) AS c"]
        )
        assert out == "SELECT k, sum(v) AS sv, count(*) AS c FROM t GROUP BY k"

    def test_with_cte(self):
        q = "WITH c AS (SELECT * FROM t) SELECT a FROM c"
        out = inject_select_items(q, ["b AS x"])
        assert out == "WITH c AS (SELECT * FROM t) SELECT a, b AS x FROM c"

    def test_multiple_items(self):
        out = inject_select_items("SELECT a FROM t", ["b AS x", "c AS y"])
        assert out == "SELECT a, b AS x, c AS y FROM t"

    def test_missing_from_rejected(self):
        with pytest.raises(SkylineParseError):
            inject_select_items("SELECT 1", ["b AS x"])

    def test_missing_select_rejected(self):
        with pytest.raises(SkylineParseError):
            inject_select_items("(SELECT a FROM t)", ["b AS x"])
