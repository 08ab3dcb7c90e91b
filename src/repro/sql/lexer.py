"""SQL tokeniser for the subset the paper's examples use.

Covers: CREATE TABLE, INSERT INTO ... VALUES / SELECT, UPDATE ... SET,
DELETE FROM, SELECT with projections, aggregates, WHERE conjunctions of
range/join predicates, BETWEEN, GROUP BY, INTO and LIMIT.

One compiled alternation scans the text.  The plan cache's literal
splitter shares :data:`NUMBER` and :data:`STRING`, the script splitter
:data:`STRING`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "insert", "into",
    "values", "create", "table", "group", "by", "between", "limit",
    "order", "asc", "desc", "update", "set", "delete",
    "integer", "int", "float", "real", "text", "varchar", "as",
    "explain", "index",
}

#: At most one '.': ``1.2.3`` lexes as ``1.2`` ``.`` ``3``, which no rule parses.
NUMBER = r"\d+(?:\.\d*)?"
STRING = r"'[^']*'"  # no escapes: 'it''s' is two literals

_TOKEN = re.compile(
    r"\s+|--[^\n]*"  # skipped: whitespace, line comments
    r"|(?P<word>[^\W\d]\w*)"
    rf"|(?P<number>-?{NUMBER})"
    rf"|(?P<string>{STRING})"
    r"|(?P<symbol><=|>=|<>|!=|[=<>(),*.;])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token: kind is 'keyword', 'ident', 'number', 'string' or 'symbol'."""

    kind: str
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        value = match[kind]
        start = match.start()
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                append(Token("keyword", lowered, start))
            else:
                append(Token("ident", value, start))
        elif kind == "symbol":
            append(Token("symbol", value, start))
        elif kind == "number":
            if value[0] == "-" and not _prefix_negative(tokens):
                raise SQLSyntaxError(f"unexpected character '-' at position {start}")
            append(Token("number", value, start))
        elif kind == "string":
            append(Token("string", value[1:-1], start))
        elif value == "'":
            raise SQLSyntaxError(f"unterminated string literal at {start}")
        else:
            raise SQLSyntaxError(f"unexpected character {value!r} at position {start}")
    return tokens


def _prefix_negative(tokens: list[Token]) -> bool:
    """A '-' starts a negative literal unless the previous token is a value."""
    if not tokens:
        return True
    last = tokens[-1]
    if last.kind in ("number", "string", "ident"):
        return False
    return last.value not in (")", "*")
