"""System-level property tests: randomized workloads across the stack.

These drive longer random operation sequences than the per-module property
tests, checking global invariants: engine equivalence under mixed
queries+updates, lineage losslessness under random cracker DAGs, and
consistent crack accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CrackedColumn,
    LineageGraph,
    omega_crack,
    psi_crack,
    xi_crack_range,
    xi_crack_theta,
)
from repro.sql import Database
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema


# ---------------------------------------------------------------------- #
# Mixed query/update sequences keep the cracked SQL database equivalent
# to a brute-force reference.
# ---------------------------------------------------------------------- #

operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 400), st.integers(0, 80)),
        st.tuples(st.just("insert"), st.integers(-50, 500), st.integers(0, 0)),
    ),
    min_size=1,
    max_size=15,
)


@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_property_sql_database_matches_reference(ops):
    db = Database(cracking=True)
    db.execute("CREATE TABLE t (k integer, a integer)")
    rng = np.random.default_rng(0)
    reference = (rng.permutation(300) + 1).tolist()
    rows = ", ".join(f"({i}, {v})" for i, v in enumerate(reference))
    db.execute(f"INSERT INTO t VALUES {rows}")
    next_k = len(reference)
    for op, x, y in ops:
        if op == "insert":
            db.execute(f"INSERT INTO t VALUES ({next_k}, {x})")
            reference.append(x)
            next_k += 1
        else:
            low, high = x, x + y
            got = db.execute(
                f"SELECT count(*) FROM t WHERE a BETWEEN {low} AND {high}"
            ).scalar()
            expected = sum(1 for v in reference if low <= v <= high)
            assert got == expected


# ---------------------------------------------------------------------- #
# Random cracker DAGs stay loss-less.
# ---------------------------------------------------------------------- #

crack_choices = st.lists(
    st.tuples(st.sampled_from(["xi_theta", "xi_range", "psi", "omega"]),
              st.integers(0, 100), st.integers(0, 30)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(choices=crack_choices)
def test_property_random_cracker_dag_lossless(choices):
    rng = np.random.default_rng(7)
    schema = Schema([Column("k", "int"), Column("a", "int"), Column("g", "int")])
    relation = Relation.from_columns(
        "R", schema,
        {
            "k": rng.permutation(120) + 1,
            "a": rng.permutation(120) + 1,
            "g": rng.integers(1, 6, 120),
        },
    )
    graph = LineageGraph()
    root = graph.add_base(relation)
    frontier = [root]
    for kind, x, y in choices:
        # Pick the largest current leaf the chosen cracker applies to.
        def applicable(node) -> bool:
            schema = node.relation.schema
            if not node.is_leaf or len(node.relation) <= 1 or "a" not in schema:
                return False
            if kind == "omega":
                return "g" in schema
            if kind == "psi":
                # Needs a non-trivial complement and no prior Ψ surrogate.
                return "_oid" not in schema and len(schema) >= 2
            return True

        candidates = [node for node in frontier if applicable(node)]
        if not candidates:
            continue
        target = max(candidates, key=lambda node: len(node.relation))
        if kind == "xi_theta":
            result = xi_crack_theta(target.relation, "a", "<", x)
        elif kind == "xi_range":
            result = xi_crack_range(target.relation, "a", x, x + y)
        elif kind == "psi":
            result = psi_crack(target.relation, ["a"])
        else:
            result = omega_crack(target.relation, "g")
        new_nodes = graph.record(result.op, result.params, [target], result.pieces)
        frontier.extend(new_nodes)
    assert graph.verify_lossless(root)


# ---------------------------------------------------------------------- #
# The cracked column's crack counters are internally consistent.
# ---------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    queries=st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 100)),
        min_size=1, max_size=10,
    )
)
def test_property_crack_accounting_consistent(queries):
    rng = np.random.default_rng(3)
    column = CrackedColumn(BAT.from_values("t", rng.permutation(500)))
    for low, span in queries:
        column.range_select(low, low + span, high_inclusive=True)
    stats = column.crack_stats
    # Moves can never exceed touches; every element moved is an element
    # touched by the same kernel call (swap pairs count 2).
    assert stats.tuples_moved <= stats.tuples_touched
    # Boundaries present imply at least piece_count-1 successful splits
    # (some cracks are no-ops when a bound coincides with a piece edge).
    assert column.piece_count - 1 <= 2 * len(queries)
    column.check_invariants()
