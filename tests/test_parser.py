"""Unit tests for the extended-SQL parser (repro.sqlext.parser)."""
import pytest

from repro.core.spec import DimType
from repro.sqlext.parser import (
    SkylineParseError, parse_skyline_query, tokenize,
)


class TestTokenizer:
    def test_words_and_ops(self):
        toks = tokenize("SELECT a, b FROM t")
        assert [t.text for t in toks] == ["SELECT", "a", ",", "b", "FROM", "t"]

    def test_depth_tracking(self):
        toks = tokenize("a (b (c) d) e")
        depths = {t.text: t.depth for t in toks if t.kind == "word"}
        assert depths == {"a": 0, "b": 1, "c": 2, "d": 1, "e": 0}

    def test_string_literal_single_token(self):
        toks = tokenize("x = 'SKYLINE OF'")
        assert any(t.kind == "string" and "SKYLINE" in t.text for t in toks)
        assert not any(t.kind == "word" and t.upper == "SKYLINE" for t in toks)

    def test_line_comment_skipped(self):
        toks = tokenize("a -- SKYLINE nonsense\n b")
        assert [t.text for t in toks] == ["a", "b"]

    def test_block_comment_skipped(self):
        toks = tokenize("a /* SKYLINE */ b")
        assert [t.text for t in toks] == ["a", "b"]

    def test_backquoted_identifier(self):
        toks = tokenize("`weird col`")
        assert toks[0].kind == "bquote"

    def test_multichar_operators(self):
        assert [t.text for t in tokenize("a <= b >= c <> d")] == [
            "a", "<=", "b", ">=", "c", "<>", "d"
        ]

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(SkylineParseError):
            tokenize("SELECT (a FROM t")
        with pytest.raises(SkylineParseError):
            tokenize("SELECT a) FROM t")

    def test_spans_reconstruct_source(self):
        sql = "SELECT  a FROM t"
        for t in tokenize(sql):
            assert sql[t.start:t.end] == t.text


class TestParseBasics:
    def test_no_skyline_returns_none(self):
        assert parse_skyline_query("SELECT * FROM t WHERE x > 1") is None

    def test_skyline_in_string_ignored(self):
        assert parse_skyline_query("SELECT 'SKYLINE OF x MIN' FROM t") is None

    def test_skyline_in_subquery_ignored(self):
        q = "SELECT * FROM (SELECT a FROM t SKYLINE OF a MIN) s"
        # Depth > 0: not a *top-level* clause for the outer statement.
        assert parse_skyline_query(q) is None

    def test_hotel_example(self):
        # Paper Listing 2.
        p = parse_skyline_query(
            "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX"
        )
        assert p.base_sql == "SELECT price, user_rating FROM hotels"
        assert [(d.expr, d.dim_type) for d in p.spec.dimensions] == [
            ("price", DimType.MIN), ("user_rating", DimType.MAX),
        ]
        assert not p.spec.distinct and not p.spec.complete
        assert p.order_by is None and p.limit is None

    def test_case_insensitive_keywords(self):
        p = parse_skyline_query("select a from t skyline of a min")
        assert p.spec.dimensions[0].dim_type is DimType.MIN

    def test_distinct_flag(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF DISTINCT a MIN")
        assert p.spec.distinct and not p.spec.complete

    def test_complete_flag(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF COMPLETE a MIN")
        assert p.spec.complete and not p.spec.distinct

    def test_distinct_complete_order(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF DISTINCT COMPLETE a MIN")
        assert p.spec.distinct and p.spec.complete

    def test_diff_dimension(self):
        p = parse_skyline_query("SELECT a, c FROM t SKYLINE OF a MIN, c DIFF")
        assert p.spec.dimensions[1].dim_type is DimType.DIFF

    def test_expression_dimension(self):
        p = parse_skyline_query("SELECT * FROM t SKYLINE OF price / nights MIN, r MAX")
        assert p.spec.dimensions[0].expr == "price / nights"

    def test_function_dimension_with_commas(self):
        p = parse_skyline_query("SELECT * FROM t SKYLINE OF ifnull(a, 0) MIN, b MAX")
        assert p.spec.dimensions[0].expr == "ifnull(a, 0)"
        assert p.spec.dimensions[1].expr == "b"

    def test_six_dimensions(self):
        items = ", ".join(f"d{i} MIN" for i in range(6))
        p = parse_skyline_query(f"SELECT * FROM t SKYLINE OF {items}")
        assert len(p.spec.dimensions) == 6


class TestParseTail:
    def test_order_by(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF a MIN ORDER BY a DESC")
        assert p.order_by == "a DESC"

    def test_order_by_multiple(self):
        p = parse_skyline_query("SELECT a, b FROM t SKYLINE OF a MIN ORDER BY a, b DESC")
        assert p.order_by == "a, b DESC"

    def test_limit(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF a MIN LIMIT 10")
        assert p.limit == 10 and p.order_by is None

    def test_order_by_and_limit(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF a MIN ORDER BY a LIMIT 3")
        assert p.order_by == "a" and p.limit == 3

    def test_trailing_semicolon_ok(self):
        p = parse_skyline_query("SELECT a FROM t SKYLINE OF a MIN;")
        assert p.spec.dimensions[0].expr == "a"

    def test_base_with_where_group_having(self):
        q = ("SELECT k, sum(v) AS sv FROM t WHERE v > 0 GROUP BY k HAVING sum(v) > 5 "
             "SKYLINE OF sv MAX")
        p = parse_skyline_query(q)
        assert p.base_sql.endswith("HAVING sum(v) > 5")
        assert p.spec.dimensions[0].expr == "sv"


class TestParseErrors:
    @pytest.mark.parametrize("q", [
        "SELECT a FROM t SKYLINE a MIN",              # missing OF
        "SELECT a FROM t SKYLINE OF",                 # no items
        "SELECT a FROM t SKYLINE OF a",               # missing type
        "SELECT a FROM t SKYLINE OF a MIN,",          # trailing comma
        "SELECT a FROM t SKYLINE OF a MIN, b",        # second item missing type
        "SELECT a FROM t SKYLINE OF MIN",             # missing expression
        "SKYLINE OF a MIN",                           # no base query
        "SELECT a FROM t SKYLINE OF a MIN ORDER a",   # ORDER without BY
        "SELECT a FROM t SKYLINE OF a MIN LIMIT x",   # non-numeric limit
        "SELECT a FROM t SKYLINE OF a MIN extra junk" # trailing garbage
    ])
    def test_malformed(self, q):
        with pytest.raises(SkylineParseError):
            parse_skyline_query(q)

    @pytest.mark.parametrize("limit", ["2.5", "1e3"])
    def test_non_integer_limit(self, limit):
        with pytest.raises(SkylineParseError, match="expected an integer after LIMIT"):
            parse_skyline_query(f"SELECT a FROM t SKYLINE OF a MIN LIMIT {limit}")

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(SkylineParseError):
            parse_skyline_query("SELECT a FROM t SKYLINE OF a MIN, a MAX")

    def test_diff_only_rejected(self):
        with pytest.raises(SkylineParseError):
            parse_skyline_query("SELECT a FROM t SKYLINE OF a DIFF")
