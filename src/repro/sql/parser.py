"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    AggCall,
    Assignment,
    Between,
    ColRef,
    Comparison,
    Const,
    OrderItem,
    Star,
    TableRef,
)
from repro.sql.lexer import Token, number, tokenize
from repro.sql.statements import (
    CreateTableStmt,
    DeleteStmt,
    ExplainIndexStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectInto,
    SelectStmt,
    UpdateStmt,
)

_TYPE_MAP = {
    "integer": "int",
    "int": "int",
    "float": "float",
    "real": "float",
    "text": "str",
    "varchar": "str",
}

_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")

_AGG_NAMES = ("count", "sum", "min", "max", "avg")


class _Cursor:
    """Token stream with peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of input")
        self.index += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token is None or token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        self.index += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            wanted = value if value is not None else kind
            raise SQLSyntaxError(
                f"expected {wanted!r}, got "
                f"{actual.value if actual else 'end of input'!r}"
            )
        return token

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)


def parse(sql: str, tokens: list[Token] | None = None):
    """Parse one SQL statement (a trailing semicolon is allowed).

    ``tokens`` lets callers that already lexed the text (the session,
    which times the lexer apart from the parser) skip the second lexer
    pass; they must be exactly ``tokenize(sql)``.
    """
    cursor = _Cursor(tokenize(sql) if tokens is None else tokens)
    token = cursor.peek()
    if token is None:
        raise SQLSyntaxError("empty statement")
    if token.kind == "keyword" and token.value == "select":
        stmt = _parse_select(cursor)
    elif token.kind == "keyword" and token.value == "create":
        stmt = _parse_create(cursor)
    elif token.kind == "keyword" and token.value == "insert":
        stmt = _parse_insert(cursor)
    elif token.kind == "keyword" and token.value == "update":
        stmt = _parse_update(cursor)
    elif token.kind == "keyword" and token.value == "delete":
        stmt = _parse_delete(cursor)
    elif token.kind == "keyword" and token.value == "explain":
        stmt = _parse_explain(cursor)
    else:
        raise SQLSyntaxError(f"cannot parse statement starting with {token.value!r}")
    cursor.accept("symbol", ";")
    if not cursor.exhausted:
        trailing = cursor.peek()
        raise SQLSyntaxError(f"trailing input starting at {trailing.value!r}")
    return stmt


# ---------------------------------------------------------------------- #
# SELECT
# ---------------------------------------------------------------------- #


def _parse_select(cursor: _Cursor) -> SelectStmt:
    cursor.expect("keyword", "select")
    items = [_parse_select_item(cursor)]
    while cursor.accept("symbol", ","):
        items.append(_parse_select_item(cursor))
    into = None
    if cursor.accept("keyword", "into"):
        into = cursor.expect("ident").value
    cursor.expect("keyword", "from")
    tables = [_parse_table_ref(cursor)]
    while cursor.accept("symbol", ","):
        tables.append(_parse_table_ref(cursor))
    where: list = []
    if cursor.accept("keyword", "where"):
        where = _parse_conjunction(cursor)
    group_by: list[ColRef] = []
    if cursor.accept("keyword", "group"):
        cursor.expect("keyword", "by")
        group_by.append(_parse_colref(cursor))
        while cursor.accept("symbol", ","):
            group_by.append(_parse_colref(cursor))
    order_by: list[OrderItem] = []
    if cursor.accept("keyword", "order"):
        cursor.expect("keyword", "by")
        order_by.append(_parse_order_item(cursor))
        while cursor.accept("symbol", ","):
            order_by.append(_parse_order_item(cursor))
    limit = None
    if cursor.accept("keyword", "limit"):
        count = cursor.expect("number").value
        limit = number(count)
        if not isinstance(limit, int):
            raise SQLSyntaxError(f"LIMIT needs an integer, got {count!r}")
    return (SelectStmt if into is None else SelectInto)(
        items=items, tables=tables, where=where, group_by=group_by,
        order_by=order_by, into=into, limit=limit,
    )


def _parse_order_item(cursor: _Cursor) -> OrderItem:
    col = _parse_colref(cursor)
    descending = False
    if cursor.accept("keyword", "desc"):
        descending = True
    else:
        cursor.accept("keyword", "asc")
    return OrderItem(col=col, descending=descending)


def _parse_select_item(cursor: _Cursor):
    if cursor.accept("symbol", "*"):
        return Star()
    token = cursor.peek()
    if (
        token is not None
        and token.kind == "ident"
        and token.value.lower() in _AGG_NAMES
    ):
        after = (
            cursor.tokens[cursor.index + 1]
            if cursor.index + 1 < len(cursor.tokens)
            else None
        )
        if after is not None and after.value == "(":
            fn = cursor.next().value.lower()
            cursor.expect("symbol", "(")
            if cursor.accept("symbol", "*"):
                arg: ColRef | Star = Star()
            else:
                arg = _parse_colref(cursor)
            cursor.expect("symbol", ")")
            return AggCall(fn=fn, arg=arg)
    ref = _parse_colref(cursor)
    if cursor.accept("symbol", "."):  # pragma: no cover - defensive
        raise SQLSyntaxError("unexpected '.' after column reference")
    return ref


def _parse_table_ref(cursor: _Cursor) -> TableRef:
    name = cursor.expect("ident").value
    alias = None
    cursor.accept("keyword", "as")
    token = cursor.peek()
    if token is not None and token.kind == "ident":
        alias = cursor.next().value
    return TableRef(name=name, alias=alias)


def _parse_colref(cursor: _Cursor) -> ColRef:
    first = cursor.expect("ident").value
    if cursor.accept("symbol", "."):
        second = cursor.expect("ident").value
        return ColRef(table=first, column=second)
    return ColRef(table=None, column=first)


def _parse_conjunction(cursor: _Cursor) -> list:
    conditions = [_parse_condition(cursor)]
    while True:
        if cursor.accept("keyword", "and"):
            conditions.append(_parse_condition(cursor))
            continue
        token = cursor.peek()
        if token is not None and token.kind == "keyword" and token.value == "or":
            raise SQLSyntaxError(
                "OR is not supported: the cracker front-end assumes one "
                "conjunctive term (the paper's Eq. 1 normal form)"
            )
        return conditions


def _parse_condition(cursor: _Cursor):
    col = _parse_colref(cursor)
    if cursor.accept("keyword", "between"):
        low = _parse_const(cursor)
        cursor.expect("keyword", "and")
        high = _parse_const(cursor)
        return Between(col=col, low=low, high=high)
    op_token = cursor.peek()
    if op_token is None or op_token.kind != "symbol" or op_token.value not in _COMPARISON_OPS:
        raise SQLSyntaxError(
            f"expected a comparison operator after {col}, got "
            f"{op_token.value if op_token else 'end of input'!r}"
        )
    op = cursor.next().value
    token = cursor.peek()
    if token is not None and token.kind == "ident":
        right: ColRef | Const = _parse_colref(cursor)
    else:
        right = _parse_const(cursor)
    return Comparison(left=col, op=op, right=right)


def _parse_const(cursor: _Cursor) -> Const:
    token = cursor.next()
    if token.kind == "number":
        return Const(number(token.value))
    if token.kind == "string":
        return Const(token.value)
    raise SQLSyntaxError(f"expected a literal, got {token.value!r}")


# ---------------------------------------------------------------------- #
# CREATE TABLE / INSERT
# ---------------------------------------------------------------------- #


def _parse_create(cursor: _Cursor) -> CreateTableStmt:
    cursor.expect("keyword", "create")
    cursor.expect("keyword", "table")
    name = cursor.expect("ident").value
    cursor.expect("symbol", "(")
    columns = []
    while True:
        col_name = cursor.expect("ident").value
        type_token = cursor.next()
        col_type = _TYPE_MAP.get(type_token.value.lower())
        if col_type is None:
            raise SQLSyntaxError(f"unknown column type {type_token.value!r}")
        # Swallow optional length suffix: varchar(10).
        if cursor.accept("symbol", "("):
            cursor.expect("number")
            cursor.expect("symbol", ")")
        columns.append((col_name, col_type))
        if not cursor.accept("symbol", ","):
            break
    cursor.expect("symbol", ")")
    return CreateTableStmt(table=name, columns=columns)


def _parse_insert(cursor: _Cursor):
    cursor.expect("keyword", "insert")
    cursor.expect("keyword", "into")
    table = cursor.expect("ident").value
    token = cursor.peek()
    if token is not None and token.kind == "keyword" and token.value == "select":
        select = _parse_select(cursor)
        return InsertSelectStmt(table=table, select=select)
    cursor.expect("keyword", "values")
    values, widths = [], []
    while True:
        cursor.expect("symbol", "(")
        start = len(values)
        values.append(_parse_const(cursor).value)
        while cursor.accept("symbol", ","):
            values.append(_parse_const(cursor).value)
        cursor.expect("symbol", ")")
        widths.append(len(values) - start)
        if not cursor.accept("symbol", ","):
            break
    return InsertValuesStmt(table=table, values=tuple(values), widths=tuple(widths))


# ---------------------------------------------------------------------- #
# UPDATE / DELETE
# ---------------------------------------------------------------------- #


def _parse_update(cursor: _Cursor) -> UpdateStmt:
    cursor.expect("keyword", "update")
    table = cursor.expect("ident").value
    cursor.expect("keyword", "set")
    assignments = [_parse_assignment(cursor)]
    while cursor.accept("symbol", ","):
        assignments.append(_parse_assignment(cursor))
    seen: set[str] = set()
    for assignment in assignments:
        if assignment.column in seen:
            raise SQLSyntaxError(
                f"column {assignment.column!r} assigned twice in one UPDATE"
            )
        seen.add(assignment.column)
    where: list = []
    if cursor.accept("keyword", "where"):
        where = _parse_conjunction(cursor)
    return UpdateStmt(table=table, assignments=assignments, where=where)


def _parse_assignment(cursor: _Cursor) -> Assignment:
    column = cursor.expect("ident").value
    cursor.expect("symbol", "=")
    value = _parse_const(cursor)
    return Assignment(column=column, value=value)


def _parse_explain(cursor: _Cursor) -> ExplainIndexStmt:
    """EXPLAIN INDEX table(col).

    (EXPLAIN ANALYZE never reaches the parser: the session recognises
    that prefix before lexing and traces the wrapped statement instead.)
    """
    cursor.expect("keyword", "explain")
    cursor.expect("keyword", "index")
    table = cursor.expect("ident").value
    cursor.expect("symbol", "(")
    column = cursor.expect("ident").value
    cursor.expect("symbol", ")")
    return ExplainIndexStmt(table=table, column=column)


def _parse_delete(cursor: _Cursor) -> DeleteStmt:
    cursor.expect("keyword", "delete")
    cursor.expect("keyword", "from")
    table = cursor.expect("ident").value
    where: list = []
    if cursor.accept("keyword", "where"):
        where = _parse_conjunction(cursor)
    return DeleteStmt(table=table, where=where)
