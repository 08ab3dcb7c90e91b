"""Shared differential oracle harness for cross-engine testing.

Every execution configuration of the SQL stack must answer like an
independent reference: stdlib ``sqlite3`` (:class:`SqliteReference`),
which shares no lexer, parser, analyzer, planner or aggregate with the
engine.  Where the two may differ is one table, :data:`DIALECT`; any
other difference is a bug.  This module is the single place that knows
how to:

* build the standard engine configurations (:func:`make_databases`),
* load identical randomized data into each (:func:`load_standard`, which
  loads a :class:`SqliteReference` just the same),
* generate workloads (:func:`standard_query_suite`,
  :func:`pushdown_query_suite`, :func:`random_range_queries`, read-write
  :func:`random_mixed_dml`, storage-reorganising
  :func:`held_result_stream`),
* compare one answer with sqlite's (:func:`assert_matches_reference`,
  :func:`assert_matches_sqlite`),
* compare result sets exactly (:func:`assert_rows_equal`) or as sorted
  sets (:func:`assert_sorted_rows_equal`), and
* answer a mixed_dml-shaped stream (:func:`mixed_dml_stream`) from an
  engine-free numpy model (:class:`TableModel`).

Test modules import from here instead of growing private helpers, so a
new engine configuration buys differential coverage by adding one entry
to :data:`ENGINE_CONFIGS`.
"""

from __future__ import annotations

import math
import re
import sqlite3
from collections import Counter

import numpy as np

from repro.sql import Database

#: The standard sweep: constructor kwargs per configuration, each
#: compared with sqlite.  The crack cut-off is pinned explicitly: the
#: standard tables are smaller than the shipped default, so "cracked"
#: (``crack_threshold=0``) keeps the unbounded cracker under test — with
#: the plan cache off, so every statement compiles from scratch —
#: "bounded" (96) mixes cracks with sorted pieces, and "default" runs
#: whatever ``Database()`` ships.  "scan" answers without a cracker.
ENGINE_CONFIGS: dict[str, dict] = {
    "scan": dict(cracking=False),
    "cracked": dict(crack_threshold=0, plan_cache=False),
    "bounded": dict(crack_threshold=96),
    "default": dict(),
}


def make_databases() -> dict[str, Database]:
    """A fresh database for every standard configuration."""
    return {name: Database(**kwargs) for name, kwargs in ENGINE_CONFIGS.items()}


# ---------------------------------------------------------------------- #
# Data loading
# ---------------------------------------------------------------------- #


def load_standard(db: Database, seed: int, n_rows: int = 600) -> None:
    """The standard three-table randomized load (identical per seed).

    ``r(k, a, w, tag)`` is the fact table (k dense, a uniform ints, w
    rounded floats, tag a small varchar domain), ``s(k, g)`` a half-size
    joining table, ``t(g, label)`` a tiny dimension.
    """
    rng = np.random.default_rng(seed)
    db.execute("CREATE TABLE r (k integer, a integer, w float, tag varchar)")
    db.execute("CREATE TABLE s (k integer, g integer)")
    db.execute("CREATE TABLE t (g integer, label varchar)")
    a = rng.integers(0, 1000, n_rows)
    w = np.round(rng.uniform(0, 10, n_rows), 3)
    tags = [f"t{int(x)}" for x in rng.integers(0, 6, n_rows)]
    rows = ", ".join(
        f"({i}, {int(a[i])}, {w[i]}, '{tags[i]}')" for i in range(n_rows)
    )
    db.execute(f"INSERT INTO r VALUES {rows}")
    sk = rng.integers(0, n_rows, n_rows // 2)
    sg = rng.integers(0, 9, n_rows // 2)
    rows = ", ".join(f"({int(k)}, {int(g)})" for k, g in zip(sk, sg))
    db.execute(f"INSERT INTO s VALUES {rows}")
    rows = ", ".join(f"({g}, 'g{g}')" for g in range(9))
    db.execute(f"INSERT INTO t VALUES {rows}")


# ---------------------------------------------------------------------- #
# Workload generation
# ---------------------------------------------------------------------- #


def standard_query_suite(rng) -> list[str]:
    """The canonical mixed suite: ranges, joins, aggregates, sorts, limits.

    Queries whose result order is engine-defined (bare LIMIT) rely on the
    tuple/vector executors agreeing row-for-row; use
    :func:`random_range_queries` for configurations that only promise
    set equality.
    """
    lows = rng.integers(0, 900, 6)
    queries = []
    for low in lows:
        high = int(low) + int(rng.integers(10, 300))
        queries.append(f"SELECT * FROM r WHERE a BETWEEN {int(low)} AND {high}")
    queries += [
        # one-sided, point, empty and contradictory ranges
        "SELECT r.k, r.a FROM r WHERE a >= 700",
        "SELECT r.a FROM r WHERE a < 120",
        f"SELECT * FROM r WHERE a = {int(lows[0])}",
        "SELECT * FROM r WHERE a BETWEEN 500 AND 100",
        # residual predicates and projections
        "SELECT r.k FROM r WHERE a > 300 AND a < 600 AND tag <> 't3'",
        # joins (two- and three-way), with and without selections
        "SELECT r.k, s.g FROM r, s WHERE r.k = s.k",
        "SELECT r.a, s.g FROM r, s WHERE r.k = s.k AND r.a BETWEEN 200 AND 800",
        "SELECT r.k, t.label FROM r, s, t WHERE r.k = s.k AND s.g = t.g "
        "AND r.a >= 400",
        # grouped aggregation, global aggregation, HAVING-less group math
        "SELECT s.g, count(*), sum(r.a), avg(r.w), min(r.a), max(r.w) "
        "FROM r, s WHERE r.k = s.k GROUP BY s.g",
        "SELECT count(*), sum(r.a), avg(r.a) FROM r WHERE a > 250",
        "SELECT r.tag, count(*), min(r.tag) FROM r GROUP BY r.tag",
        # sorts (asc/desc/multi-key) and limits
        "SELECT r.k, r.a FROM r WHERE a < 500 ORDER BY a DESC LIMIT 17",
        "SELECT r.tag, r.a, r.k FROM r ORDER BY tag, a LIMIT 40",
        "SELECT s.g, count(*) FROM r, s WHERE r.k = s.k GROUP BY s.g "
        "ORDER BY g DESC",
        "SELECT * FROM r WHERE a >= 100 LIMIT 5",
    ]
    return queries + pushdown_query_suite()


def pushdown_query_suite() -> list[str]:
    """Queries a too-small ``needed=`` column set at the scans would break.

    Vector scans gather only the columns some operator above them reads;
    each query here reads a column *only* outside its projection list —
    as predicate, residual, sort key, join key, group key or aggregate
    argument — or reads none at all, or all of them.  No bare LIMIT, so
    sorted result sets are engine-independent.
    """
    return [
        # the predicate (cracked) column is not projected
        "SELECT r.k, r.tag FROM r WHERE a BETWEEN 200 AND 700",
        "SELECT r.w FROM r WHERE a >= 850",
        # ORDER BY a column that is not projected
        "SELECT r.k FROM r WHERE a < 400 ORDER BY w DESC",
        "SELECT r.tag FROM r ORDER BY a, k",
        # a residual (<>) on a column that is not projected
        "SELECT r.k, r.a FROM r WHERE a > 100 AND tag <> 't2'",
        "SELECT r.k FROM r WHERE tag <> 't0' AND w <> 0.5",
        # joins whose keys are not projected
        "SELECT r.a, s.g FROM r, s WHERE r.k = s.k AND r.a BETWEEN 300 AND 600",
        "SELECT t.label FROM r, s, t WHERE r.k = s.k AND s.g = t.g AND r.a < 250",
        # group keys and aggregate arguments; scans nothing else reads
        "SELECT count(*) FROM r",
        "SELECT count(*) FROM r WHERE tag <> 't1'",
        "SELECT sum(r.w), max(r.tag) FROM r WHERE a >= 500",
        "SELECT r.tag, avg(r.w) FROM r WHERE a BETWEEN 100 AND 900 GROUP BY r.tag",
        "SELECT s.g, min(r.w) FROM r, s WHERE r.k = s.k GROUP BY s.g ORDER BY g",
        # SELECT *: every column, alone and through a join
        "SELECT * FROM r WHERE a BETWEEN 400 AND 450",
        "SELECT * FROM r, s WHERE r.k = s.k AND r.a > 900",
    ]


def held_result_stream() -> list[str]:
    """Statements that reorganise the storage a held bulk answer came from.

    The first two statements are the answers to hold — a cracked span
    and a full scan, both views of engine storage before delivery; the
    rest crack strictly inside the span, rewrite base columns in place
    and move rows into the span (UPDATE) and out of it (DELETE), with a
    select after each to force the pending merge.  A result that aliased
    cracker or BAT storage would change underneath its holder somewhere
    along it.
    """
    return [
        "SELECT r.k, r.a, r.tag FROM r WHERE a BETWEEN 200 AND 700",
        "SELECT r.k, r.a FROM r",
        "SELECT r.k, r.a FROM r WHERE a BETWEEN 300 AND 400",
        "SELECT r.k FROM r WHERE a BETWEEN 450 AND 650",
        "SELECT count(*) FROM r WHERE a BETWEEN 250 AND 500",
        "UPDATE r SET a = 333 WHERE a BETWEEN 900 AND 950",
        "SELECT r.k, r.a FROM r WHERE a BETWEEN 320 AND 340",
        "UPDATE r SET tag = 'moved', w = 1.5 WHERE a BETWEEN 600 AND 640",
        "SELECT * FROM r WHERE a BETWEEN 590 AND 650",
        "DELETE FROM r WHERE a BETWEEN 500 AND 520",
        "SELECT r.k, r.a, r.tag FROM r WHERE a BETWEEN 200 AND 700",
        "SELECT r.k, r.a FROM r",
    ]


def random_range_queries(
    rng, n_queries: int, domain: int = 1000, insert_every: int = 0
) -> list[str]:
    """A randomized order-free workload over the standard tables.

    Range selects of varying shape (double/one-sided, counts, joins,
    grouped aggregates) — no bare LIMIT, so every query's *sorted* result
    set is engine-independent.  With ``insert_every`` > 0 an INSERT into
    ``r`` is interleaved every that many queries, exercising the
    merge-on-query update path of each cracking configuration.
    """
    queries: list[str] = []
    next_k = 1_000_000  # far above the loaded k range, keeps k unique
    for i in range(n_queries):
        if insert_every and i and i % insert_every == 0:
            values = ", ".join(
                f"({next_k + j}, {int(rng.integers(0, domain))}, "
                f"{round(float(rng.uniform(0, 10)), 3)}, "
                f"'t{int(rng.integers(0, 6))}')"
                for j in range(int(rng.integers(1, 5)))
            )
            next_k += 10
            queries.append(f"INSERT INTO r VALUES {values}")
            continue
        low = int(rng.integers(0, domain))
        high = low + int(rng.integers(0, domain // 3))
        shape = int(rng.integers(0, 6))
        if shape == 0:
            queries.append(f"SELECT * FROM r WHERE a BETWEEN {low} AND {high}")
        elif shape == 1:
            queries.append(f"SELECT r.k, r.a FROM r WHERE a >= {low}")
        elif shape == 2:
            queries.append(f"SELECT count(*), sum(r.a) FROM r WHERE a < {high}")
        elif shape == 3:
            queries.append(
                f"SELECT r.a, s.g FROM r, s WHERE r.k = s.k "
                f"AND r.a BETWEEN {low} AND {high}"
            )
        elif shape == 4:
            queries.append(
                "SELECT s.g, count(*), sum(r.a) FROM r, s "
                f"WHERE r.k = s.k AND r.a >= {low} GROUP BY s.g"
            )
        else:
            queries.append(
                f"SELECT r.tag, count(*) FROM r WHERE a > {low} GROUP BY r.tag"
            )
    return queries


def random_mixed_dml(rng, n_statements: int, domain: int = 1000) -> list[str]:
    """A randomized read-write workload: UPDATE and DELETE among the reads.

    Roughly half the statements mutate — point and range UPDATEs (integer,
    float and string assignments, including multi-column SET), narrow and
    residual-filtered DELETEs, and fresh INSERTs whose rows later become
    update/delete targets — and the other half are the order-free reads of
    :func:`random_range_queries` that must observe every prior mutation
    identically on every engine.  Delete windows are kept narrow so the
    table never empties mid-workload.
    """
    statements: list[str] = []
    next_k = 2_000_000  # above both the load and the insert key ranges
    for _ in range(n_statements):
        low = int(rng.integers(0, domain))
        high = low + int(rng.integers(0, domain // 4))
        shape = int(rng.integers(0, 10))
        if shape == 0:  # point update on the key
            statements.append(
                f"UPDATE r SET a = {int(rng.integers(0, domain))} "
                f"WHERE k = {int(rng.integers(0, 600))}"
            )
        elif shape == 1:  # range update of the cracked attribute itself
            statements.append(
                f"UPDATE r SET a = {int(rng.integers(0, domain))} "
                f"WHERE a BETWEEN {low} AND {high}"
            )
        elif shape == 2:  # multi-column SET (float + varchar), residual
            statements.append(
                f"UPDATE r SET w = {round(float(rng.uniform(0, 10)), 3)}, "
                f"tag = 't{int(rng.integers(0, 6))}' "
                f"WHERE a >= {int(rng.integers(domain - 100, domain))} "
                f"AND tag <> 't{int(rng.integers(0, 6))}'"
            )
        elif shape == 3:  # narrow range delete
            statements.append(
                f"DELETE FROM r "
                f"WHERE a BETWEEN {low} AND {low + int(rng.integers(0, 10))}"
            )
        elif shape == 4:  # residual-filtered delete at the domain edge
            statements.append(
                f"DELETE FROM r WHERE a > {domain - int(rng.integers(5, 40))} "
                f"AND tag = 't{int(rng.integers(0, 6))}'"
            )
        elif shape == 5:  # fresh rows: future update/delete targets
            values = ", ".join(
                f"({next_k + j}, {int(rng.integers(0, domain))}, "
                f"{round(float(rng.uniform(0, 10)), 3)}, "
                f"'t{int(rng.integers(0, 6))}')"
                for j in range(int(rng.integers(1, 4)))
            )
            next_k += 10
            statements.append(f"INSERT INTO r VALUES {values}")
        elif shape == 6:
            statements.append(
                f"SELECT * FROM r WHERE a BETWEEN {low} AND {high}"
            )
        elif shape == 7:
            statements.append(
                f"SELECT count(*), sum(r.a) FROM r WHERE a < {high}"
            )
        elif shape == 8:
            statements.append(
                f"SELECT r.a, s.g FROM r, s WHERE r.k = s.k "
                f"AND r.a BETWEEN {low} AND {high}"
            )
        else:
            statements.append(
                f"SELECT r.tag, count(*) FROM r WHERE a > {low} GROUP BY r.tag"
            )
    return statements


# ---------------------------------------------------------------------- #
# A numpy model of a mixed_dml-shaped stream
# ---------------------------------------------------------------------- #

#: Tags of :func:`mixed_dml_stream`: the empty atom and a multi-byte one
#: ride along, so varchar payloads meet both.
MIXED_TAGS = ("t0", "t1", "", "héllo ☃")


class TableModel:
    """``r(k, a, tag)`` as numpy arrays: the engine-free answer key.

    :meth:`apply` takes one op of :func:`mixed_dml_stream` —
    ``("create",)``, ``("insert", rows)``, ``("update", low, high, a)``
    (``SET a WHERE k BETWEEN``), ``("delete", low, high)`` (``WHERE k
    BETWEEN``) or ``("count", low, high)`` (``count(*) WHERE a BETWEEN``,
    the only op it answers).
    """

    def __init__(self) -> None:
        self.k = np.empty(0, dtype=np.int64)
        self.a = np.empty(0, dtype=np.int64)
        self.tag = np.empty(0, dtype=object)
        self.live = np.empty(0, dtype=bool)

    def apply(self, op):
        kind = op[0]
        if kind == "count":
            _, low, high = op
            return int((self.live & (self.a >= low) & (self.a <= high)).sum())
        if kind == "insert":
            k, a, tag = zip(*op[1])
            self.k = np.concatenate([self.k, np.array(k, dtype=np.int64)])
            self.a = np.concatenate([self.a, np.array(a, dtype=np.int64)])
            self.tag = np.concatenate([self.tag, np.array(tag, dtype=object)])
            self.live = np.concatenate([self.live, np.ones(len(k), dtype=bool)])
        elif kind in ("update", "delete"):
            hit = self.live & (self.k >= op[1]) & (self.k <= op[2])
            if kind == "update":
                self.a[hit] = op[3]
            else:
                self.live[hit] = False
        return None

    def rows(self) -> list[tuple]:
        """The live rows, sorted."""
        live = self.live
        return sorted(
            zip(self.k[live].tolist(), self.a[live].tolist(), self.tag[live].tolist())
        )


def mixed_dml_stream(
    rng, n_statements: int, rows: int = 200, insert_rows: int = 10
) -> list[tuple[str, tuple]]:
    """``(sql, op)`` pairs shaped like the perf ledger's ``mixed_dml``.

    A CREATE and a load of ``rows`` rows, then 70 % range counts on
    ``a`` and 10 % each of a fixed-size INSERT, an UPDATE of ``a`` and a
    DELETE over key ranges: three DML shapes with fresh literals.
    Every op but ``count`` is a logged statement.
    """

    def insert(first: int, count: int) -> tuple[str, tuple]:
        batch = [
            (
                first + i,
                int(rng.integers(0, 1000)),
                MIXED_TAGS[int(rng.integers(0, len(MIXED_TAGS)))],
            )
            for i in range(count)
        ]
        values = ", ".join(f"({k}, {a}, '{tag}')" for k, a, tag in batch)
        return f"INSERT INTO r VALUES {values}", ("insert", batch)

    stream = [
        ("CREATE TABLE r (k integer, a integer, tag varchar)", ("create",)),
        insert(0, rows),
    ]
    next_k = rows
    for _ in range(n_statements):
        draw = int(rng.integers(0, 10))
        low = int(rng.integers(0, 1000))
        key = int(rng.integers(0, next_k))
        if draw < 7:
            high = low + int(rng.integers(0, 200))
            stream.append((
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}",
                ("count", low, high),
            ))
        elif draw == 7:
            stream.append(insert(next_k, insert_rows))
            next_k += insert_rows
        elif draw == 8:
            stream.append((
                f"UPDATE r SET a = {low} WHERE k BETWEEN {key} AND {key + 24}",
                ("update", key, key + 24, low),
            ))
        else:
            stream.append((
                f"DELETE FROM r WHERE k BETWEEN {key} AND {key + 4}",
                ("delete", key, key + 4),
            ))
    return stream


# ---------------------------------------------------------------------- #
# Result comparison
# ---------------------------------------------------------------------- #


def _values_equal(left, right) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is None and right is None
        return math.isclose(float(left), float(right), rel_tol=1e-9, abs_tol=1e-12)
    return left == right


def assert_rows_equal(expected_rows, actual_rows, context) -> None:
    """Row-for-row equality with float tolerance (order-sensitive)."""
    assert len(expected_rows) == len(actual_rows), context
    for expected, actual in zip(expected_rows, actual_rows):
        assert len(expected) == len(actual), context
        for left, right in zip(expected, actual):
            assert _values_equal(left, right), (context, left, right)


def _sort_key(row):
    # None sorts first; floats are bucketed so near-equal values from
    # different accumulation orders land adjacently.
    return tuple(
        (value is not None, round(value, 6) if isinstance(value, float) else value)
        for value in row
    )


def assert_sorted_rows_equal(expected_rows, actual_rows, context) -> None:
    """Set-style equality: both sides sorted, then compared with tolerance."""
    assert_rows_equal(
        sorted(expected_rows, key=_sort_key),
        sorted(actual_rows, key=_sort_key),
        context,
    )


# ---------------------------------------------------------------------- #
# The independent reference: stdlib sqlite3
# ---------------------------------------------------------------------- #

#: Every way the engine's answers may differ from sqlite's, one row each;
#: any other difference is a bug.  Each row has a test in
#: ``tests/test_sqlite_reference.py`` that fails if the difference
#: disappears or changes.
DIALECT: dict[str, str] = {
    "unordered": (
        "Row order that ORDER BY does not fix is engine-defined: rows tied "
        "on every sort key (all rows, without ORDER BY) compare as a "
        "multiset, and a bare LIMIT may keep any of them."
    ),
    "limit_ties": (
        "Which rows tied on the sort key survive an ORDER BY ... LIMIT cut "
        "is engine-defined: the sort-key values and the row count match, "
        "and the kept rows are among the tied ones."
    ),
    "float_digits": (
        "Float aggregates accumulate in another order (crack order, numpy "
        "reductions): floats compare to 1e-9 relative."
    ),
    "empty_sum": "sum over no rows is 0 here; SQL and sqlite say NULL.",
    "mistyped": (
        "A varchar compared with a number, and sum or avg of a varchar "
        "column, are SQLAnalysisErrors here; sqlite answers them by its type "
        "affinity rules (every number sorts before every text, a text sums as 0). "
        "So is an INSERT or UPDATE of a number past the int64 range into an "
        "integer column; sqlite stores such a value as REAL."
    ),
}

_LIMIT = re.compile(r"\s+limit\s+(\d+)\s*;?\s*$", re.IGNORECASE)
_ORDER_BY = re.compile(r"\border\s+by\s+(.+?)\s*;?\s*$", re.IGNORECASE | re.DOTALL)
_DIRECTION = re.compile(r"\s+(?:asc|desc)$", re.IGNORECASE)
_SELECT = re.compile(r"^\s*select\s+", re.IGNORECASE)
_SELECT_INTO = re.compile(
    r"^\s*select\s+(.+?)\s+into\s+(\w+)\s+(from\b.*)$", re.IGNORECASE | re.DOTALL
)
_DML = re.compile(r"^\s*(?:insert|update|delete)\b", re.IGNORECASE)


class Answer:
    """sqlite's answer to one statement, ready to check an engine result.

    A SELECT's rows come as tie groups: the runs of the unlimited
    answer tied on every ``ORDER BY`` key, in sort order (one group
    without ORDER BY).  A DML statement carries sqlite's ``rowcount``.
    """

    def __init__(self, sql: str, groups=None, limit=None, names=(), rowcount=None):
        self.sql = sql
        self.groups = groups
        self.limit = limit
        self.names = list(names)
        self.rowcount = rowcount

    def check(self, result, context=()) -> None:
        """Assert ``result`` answers like sqlite, up to :data:`DIALECT`."""
        context = (self.sql, *context)
        if self.rowcount is not None:
            assert result.affected == self.rowcount, context
        if self.groups is None:
            return
        assert len(result.columns) == len(self.names), (context, result.columns)
        groups = self.groups
        sums = {
            i for i, name in enumerate(self.names) if name.lower().startswith("sum(")
        }
        if sums:  # DIALECT["empty_sum"]
            groups = [
                [
                    tuple(0 if v is None and i in sums else v for i, v in enumerate(row))
                    for row in group
                ]
                for group in groups
            ]
        rows = result.rows
        total = sum(map(len, groups))
        expected = total if self.limit is None else min(self.limit, total)
        assert len(rows) == expected, (context, len(rows), expected)
        start = 0
        for group in groups:
            take = min(len(group), expected - start)
            if take == 0:
                break
            chunk = rows[start : start + take]
            if len(group) == 1:  # a unique sort key fixes the row
                assert_rows_equal(group, chunk, context)
            elif take == len(group):  # DIALECT["unordered"], ["float_digits"]
                assert_sorted_rows_equal(group, chunk, context)
            else:  # DIALECT["limit_ties"]
                # Tied rows hold stored values, never an aggregate, so
                # they match exactly (ints and equal floats hash alike).
                pool = Counter(group)
                pool.subtract(chunk)
                assert min(pool.values()) >= 0, (context, chunk, group)
            start += take


class SqliteReference:
    """The statements of this module on an in-memory stdlib ``sqlite3``.

    Shares no code with the engine: no lexer, parser, analyzer, planner
    or aggregate.  It takes the engine's SQL text — the two dialects
    overlap on everything the workloads here generate — and rewrites
    only ``SELECT ... INTO t FROM`` into ``CREATE TABLE t AS SELECT ...
    FROM``.  Autocommit: a batch's ``BEGIN``/``ROLLBACK`` is explicit.
    """

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:", isolation_level=None)

    def execute(self, sql: str, params=()) -> sqlite3.Cursor:
        into = _SELECT_INTO.match(sql)
        if into is not None:
            items, target, rest = into.groups()
            sql = f"CREATE TABLE {target} AS SELECT {items} {rest}"
        return self.connection.execute(sql, params)

    def answer(self, sql: str, params=()) -> Answer:
        """Run one statement; its :class:`Answer`."""
        if not _SELECT.match(sql) or _SELECT_INTO.match(sql):
            cursor = self.execute(sql, params)
            return Answer(sql, rowcount=cursor.rowcount if _DML.match(sql) else None)
        limit = _LIMIT.search(sql)
        unlimited = sql[: limit.start()] if limit else sql
        order = _ORDER_BY.search(unlimited)
        keys = [] if order is None else [
            _DIRECTION.sub("", key.strip()) for key in order.group(1).split(",")
        ]
        # The sort keys are selected ahead of the projection, so a key
        # that is not projected still splits the groups.
        cursor = self.execute(
            _SELECT.sub(lambda m: m.group(0) + "".join(f"{k}, " for k in keys),
                        unlimited, count=1),
            params,
        )
        groups: list[list[tuple]] = []
        previous = None
        for row in cursor.fetchall():
            if not groups or row[: len(keys)] != previous:
                groups.append([])
                previous = row[: len(keys)]
            groups[-1].append(row[len(keys):])
        return Answer(
            sql,
            groups=groups or [[]],
            limit=int(limit.group(1)) if limit else None,
            names=[column[0] for column in cursor.description][len(keys):],
        )


def assert_matches_sqlite(
    databases: dict[str, Database], reference: SqliteReference, statements,
    context=(),
) -> None:
    """Run each statement on every database and once on ``reference``;
    every database's answer must match sqlite's (:meth:`Answer.check`)."""
    for sql in statements:
        results = {name: db.execute(sql) for name, db in databases.items()}
        answer = reference.answer(sql)
        for name, result in results.items():
            answer.check(result, (name, *context))
