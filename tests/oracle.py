"""Shared differential oracle harness for cross-engine testing.

Every execution configuration of the SQL stack — row-store-style scanning
(no cracking), tuple-mode cracking, vector-mode cracking — must return
the same result sets for the same statements.  This module is the single
place that knows how to:

* build the standard engine configurations (:func:`make_databases`),
* load identical randomized data into each (:func:`load_standard`),
* generate workloads (:func:`standard_query_suite`,
  :func:`pushdown_query_suite`, :func:`random_range_queries`, read-write
  :func:`random_mixed_dml`, storage-reorganising
  :func:`held_result_stream`),
* compare result sets exactly (:func:`assert_rows_equal`) or as sorted
  sets (:func:`assert_sorted_rows_equal`, for configurations that answer
  in different physical orders), and
* run a workload across many databases asserting agreement at every
  statement (:func:`assert_engines_agree`).

Test modules import from here instead of growing private helpers, so a
new engine configuration buys differential coverage by adding one entry
to :data:`ENGINE_CONFIGS`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sql import Database

#: The standard cross-engine sweep: constructor kwargs per configuration.
#: The first entry is the oracle the others are compared against.
#: "uncached" pins the plan cache (on by default everywhere else) against
#: per-statement recompilation.  The crack cut-off is pinned explicitly:
#: the standard tables are smaller than the shipped default, so
#: ``crack_threshold=0`` keeps the unbounded cracker under differential
#: test, "bounded" (96) mixes cracks with sorted pieces, and "default"
#: runs whatever ``Database`` ships.
ENGINE_CONFIGS: dict[str, dict] = {
    "rowstore": dict(cracking=False, mode="tuple"),
    "cracked": dict(cracking=True, mode="tuple", crack_threshold=0),
    "vectorized": dict(cracking=True, mode="vector", crack_threshold=0),
    "uncached": dict(
        cracking=True, mode="vector", plan_cache=False, crack_threshold=0
    ),
    "bounded": dict(cracking=True, mode="tuple", crack_threshold=96),
    "default": dict(cracking=True, mode="vector"),
}


def make_databases(configs: dict[str, dict] | None = None) -> dict[str, Database]:
    """Fresh databases for every configuration (default: all standard)."""
    chosen = ENGINE_CONFIGS if configs is None else configs
    return {name: Database(**kwargs) for name, kwargs in chosen.items()}


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


def assert_engines_agree(
    databases: dict[str, Database],
    statements,
    ordered: bool = False,
) -> None:
    """Run each statement on every database; all must match the first.

    The first database in the dict is the oracle.  ``ordered=True``
    demands row-for-row order agreement (tuple-vs-vector style),
    otherwise sorted result sets are compared (cracked storage answers
    in crack order, not base order).
    """
    names = list(databases)
    oracle_name = names[0]
    compare = assert_rows_equal if ordered else assert_sorted_rows_equal
    for statement in statements:
        results = {name: databases[name].execute(statement) for name in names}
        oracle_result = results[oracle_name]
        for name in names[1:]:
            result = results[name]
            context = (statement, oracle_name, name)
            assert result.columns == oracle_result.columns, context
            assert result.affected == oracle_result.affected, context
            compare(oracle_result.rows, result.rows, context)
