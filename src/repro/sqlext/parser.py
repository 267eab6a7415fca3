"""Parser for the extended skyline syntax (paper §5.1, Listings 3 & 5).

Grammar (after the optional HAVING clause, before ORDER BY / LIMIT / OFFSET):

    SKYLINE OF [DISTINCT] [COMPLETE] item (',' item)*
    item := expression (MIN | MAX | DIFF)

Spark does not reserve ``COMPLETE`` (nor, by default, ``DISTINCT``),
so either word followed by a type that ends the first item is that
item's column: ``SKYLINE OF complete MIN`` is a skyline over
``complete``.

The paper extends Spark's ANTLR grammar; here a lightweight tokenizer
finds the top-level ``SKYLINE`` clause inside an otherwise-arbitrary
Spark SQL string (quotes, backticks, comments, and nested parentheses
are respected, so subqueries containing the word SKYLINE are not
touched).  The word ``SKYLINE`` opens the clause only when ``OF``
follows it, so a column or alias named ``skyline`` is left to Spark.
The text before the clause (the *base query*) and the tail after it
(``ORDER BY``, ``LIMIT``, ``OFFSET``) keep their original spelling and
are handed back to Spark SQL untouched — mirroring how the paper
reuses the rest of the Spark parser.
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
    query); ``tail`` is the raw text after it, from its first ``ORDER``,
    ``LIMIT`` or ``OFFSET`` word on (None if there is none), which Spark
    applies to the skyline result (the clause sits between HAVING and
    ORDER BY, Listing 3).
    """

    base_sql: str
    spec: SkylineSpec
    tail: Optional[str] = None


_DIM_TYPES = ("MIN", "MAX", "DIFF")
_TAIL_WORDS = ("ORDER", "LIMIT", "OFFSET")


def _find_skyline(tokens: list[Token]) -> Optional[int]:
    """Index of the first top-level ``SKYLINE`` word that ``OF`` follows."""
    for idx, (t, nxt) in enumerate(zip(tokens, tokens[1:])):
        if t.depth == 0 and t.kind == "word" and t.upper == "SKYLINE" and nxt.upper == "OF":
            return idx
    return None


def _is_flag(tokens: list[Token], i: int, word: str) -> bool:
    """Whether ``tokens[i]`` is the ``word`` flag, not a column so named.

    It names a column when a dimension type follows it and closes the
    first item, i.e. a top-level ``,``, a tail word or the end follows
    that type: ``SKYLINE OF complete MIN``.
    """
    if i >= len(tokens) or tokens[i].upper != word:
        return False
    nxt = tokens[i + 1:i + 3]
    if not nxt or nxt[0].upper not in _DIM_TYPES:
        return True
    return len(nxt) == 2 and nxt[1].text != "," and nxt[1].upper not in _TAIL_WORDS


def parse_skyline_query(query: str) -> Optional[ParsedSkylineQuery]:
    """Parse the SKYLINE clause out of ``query``.

    Returns None when the query has no top-level SKYLINE clause (the
    caller then passes it to Spark SQL verbatim — the integration has
    no effect on non-skyline queries, §5.9).
    """
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
    i = at + 2
    distinct = _is_flag(tokens, i, "DISTINCT")
    i += distinct
    complete = _is_flag(tokens, i, "COMPLETE")
    i += complete

    # Collect dimension items up to the tail: a top-level ORDER, LIMIT or
    # OFFSET word right after an item's type (so a dimension may still
    # name a column ``offset``), or the end.
    items: list[tuple[int, int]] = []  # token index spans [start, end)
    item_start = i
    end_clause = len(tokens)
    for j in range(i, len(tokens)):
        t = tokens[j]
        if (t.depth == 0 and t.kind == "word" and t.upper in _TAIL_WORDS
                and tokens[j - 1].upper in _DIM_TYPES):
            end_clause = j
            break
        if t.depth == 0 and t.text == ",":
            items.append((item_start, j))
            item_start = j + 1
    items.append((item_start, end_clause))

    dims: list[SkylineDimension] = []
    for s, e in items:
        if e <= s:
            raise SkylineParseError("empty skyline dimension item")
        last = tokens[e - 1]
        if last.kind != "word" or last.upper not in _DIM_TYPES:
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

    tail = query[tokens[end_clause].start:] if end_clause < len(tokens) else None
    return ParsedSkylineQuery(base_sql=base_sql, spec=spec, tail=tail)
