"""Parser for the extended skyline syntax (paper §5.1, Listings 3 & 5).

Grammar (after the optional HAVING clause, before ORDER BY / LIMIT):

    SKYLINE OF [DISTINCT] [COMPLETE] item (',' item)*
    item := expression (MIN | MAX | DIFF)

The paper extends Spark's ANTLR grammar; here a lightweight tokenizer
finds the top-level ``SKYLINE`` clause inside an otherwise-arbitrary
Spark SQL string (quotes, backticks, comments, and nested parentheses
are respected, so subqueries containing the word SKYLINE are not
touched).  The text before the clause (the *base query*) and the
ORDER BY / LIMIT tail keep their original spelling and are handed back
to Spark SQL untouched — mirroring how the paper reuses the rest of
the Spark parser.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..core.spec import DimType, SkylineDimension, SkylineSpec

__all__ = ["Token", "tokenize", "ParsedSkylineQuery", "parse_skyline_query", "SkylineParseError"]


class SkylineParseError(ValueError):
    """Raised for a malformed SKYLINE clause."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*|/\*.*?\*/)
  | (?P<string>'(?:[^'\\]|\\.|'')*')
  | (?P<dquote>"(?:[^"\\]|\\.|"")*")
  | (?P<bquote>`[^`]*`)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<op><=|>=|<>|!=|\|\||::|.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    """One lexical token: text, span in the source, paren depth, kind."""

    text: str
    start: int
    end: int
    depth: int
    kind: str

    @property
    def upper(self) -> str:
        return self.text.upper()


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``, tracking parenthesis depth; whitespace/comments dropped."""
    tokens: list[Token] = []
    depth = 0
    pos = 0
    n = len(sql)
    while pos < n:
        m = _TOKEN_RE.match(sql, pos)
        if m is None:  # pragma: no cover - the '.' alternative always matches
            raise SkylineParseError(f"cannot tokenize at offset {pos}: {sql[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup or "op"
        if kind in ("ws", "comment"):
            continue
        text = m.group()
        if text == "(":
            tokens.append(Token(text, m.start(), m.end(), depth, "op"))
            depth += 1
            continue
        if text == ")":
            depth -= 1
            if depth < 0:
                raise SkylineParseError(f"unbalanced ')' at offset {m.start()}")
        tokens.append(Token(text, m.start(), m.end(), depth, kind))
    if depth != 0:
        raise SkylineParseError("unbalanced '(' in query")
    return tokens


@dataclass(frozen=True)
class ParsedSkylineQuery:
    """A query split around its SKYLINE clause.

    ``base_sql`` is everything before the clause (a complete Spark SQL
    query); ``order_by``/``limit`` is the tail after the clause, to be
    applied on the skyline result (the clause sits between HAVING and
    ORDER BY, Listing 3).
    """

    base_sql: str
    spec: SkylineSpec
    order_by: Optional[str] = None
    limit: Optional[int] = None
    original: str = ""


def _find_skyline(tokens: list[Token]) -> Optional[int]:
    for idx, t in enumerate(tokens):
        if t.depth == 0 and t.kind == "word" and t.upper == "SKYLINE":
            return idx
    return None


def parse_skyline_query(query: str) -> Optional[ParsedSkylineQuery]:
    """Parse the SKYLINE clause out of ``query``.

    Returns None when the query has no top-level SKYLINE clause (the
    caller then passes it to Spark SQL verbatim — the integration has
    no effect on non-skyline queries, §5.9).
    """
    original = query
    query = query.rstrip()
    while query.endswith(";"):
        query = query[:-1].rstrip()
    tokens = tokenize(query)
    at = _find_skyline(tokens)
    if at is None:
        return None
    base_sql = query[: tokens[at].start].strip()
    if not base_sql:
        raise SkylineParseError("SKYLINE clause requires a preceding SELECT query")
    i = at + 1
    if i >= len(tokens) or tokens[i].upper != "OF":
        raise SkylineParseError("expected OF after SKYLINE")
    i += 1
    distinct = False
    complete = False
    if i < len(tokens) and tokens[i].upper == "DISTINCT":
        distinct, i = True, i + 1
    if i < len(tokens) and tokens[i].upper == "COMPLETE":
        complete, i = True, i + 1

    # Collect dimension items up to top-level ORDER / LIMIT or end.
    items: list[tuple[int, int]] = []  # token index spans [start, end)
    item_start = i
    end_clause = len(tokens)
    j = i
    while j < len(tokens):
        t = tokens[j]
        if t.depth == 0 and t.kind == "word" and t.upper in ("ORDER", "LIMIT"):
            end_clause = j
            break
        if t.depth == 0 and t.text == ",":
            items.append((item_start, j))
            item_start = j + 1
        j += 1
    items.append((item_start, end_clause))

    dims: list[SkylineDimension] = []
    for s, e in items:
        if e <= s:
            raise SkylineParseError("empty skyline dimension item")
        last = tokens[e - 1]
        if last.kind != "word" or last.upper not in ("MIN", "MAX", "DIFF"):
            raise SkylineParseError(
                f"skyline item must end with MIN, MAX or DIFF near {query[tokens[s].start:last.end]!r}"
            )
        if e - 1 <= s:
            raise SkylineParseError("skyline item is missing its expression")
        expr = query[tokens[s].start : tokens[e - 2].end].strip()
        dims.append(SkylineDimension(expr, DimType[last.upper]))
    try:
        spec = SkylineSpec(tuple(dims), distinct=distinct, complete=complete)
    except ValueError as exc:
        raise SkylineParseError(str(exc)) from exc

    # Tail: [ORDER BY ...] [LIMIT n]
    order_by: Optional[str] = None
    limit: Optional[int] = None
    k = end_clause
    if k < len(tokens) and tokens[k].upper == "ORDER":
        if k + 1 >= len(tokens) or tokens[k + 1].upper != "BY":
            raise SkylineParseError("expected BY after ORDER")
        k += 2
        ob_start = k
        while k < len(tokens) and not (tokens[k].depth == 0 and tokens[k].upper == "LIMIT"):
            k += 1
        if k <= ob_start:
            raise SkylineParseError("empty ORDER BY list")
        order_by = query[tokens[ob_start].start : tokens[k - 1].end].strip()
    if k < len(tokens) and tokens[k].upper == "LIMIT":
        if k + 1 >= len(tokens) or not tokens[k + 1].text.isdigit():
            raise SkylineParseError("expected an integer after LIMIT")
        limit = int(tokens[k + 1].text)
        k += 2
    if k < len(tokens):
        trailing = query[tokens[k].start :]
        if trailing.strip(" ;\n\t"):
            raise SkylineParseError(f"unexpected trailing input after skyline clause: {trailing!r}")
    return ParsedSkylineQuery(
        base_sql=base_sql, spec=spec, order_by=order_by, limit=limit, original=original
    )
