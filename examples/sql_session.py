"""The paper's Figure 5 query sequence, end-to-end through the SQL layer.

§3.2 works through:

    select * from R where R.a < 10;
    select * from R, S where R.k = S.k and R.a < 5;
    select * from S where S.b > 25;

and shows the cracker lineage it induces.  This example runs the same
sequence on the embedded :class:`repro.sql.Database`, printing the
cracker advice the analyzer extracts for each statement and the piece
counts that accumulate, then shows the equivalent lineage graph built
with the logical crackers.

Run:  python examples/sql_session.py
"""

import numpy as np

from repro.core import LineageGraph, wedge_crack, xi_crack_theta
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

N_ROWS = 50_000


def load(db: Database, rng: np.random.Generator) -> None:
    db.execute("CREATE TABLE R (k integer, a integer)")
    db.execute("CREATE TABLE S (k integer, b integer)")
    r_rows = ", ".join(
        f"({int(k)}, {int(a)})"
        for k, a in zip(rng.permutation(N_ROWS) + 1, rng.permutation(N_ROWS) + 1)
    )
    db.execute(f"INSERT INTO R VALUES {r_rows}")
    s_rows = ", ".join(
        f"({int(k)}, {int(b)})"
        for k, b in zip(rng.permutation(N_ROWS) + 1, rng.permutation(N_ROWS) + 1)
    )
    db.execute(f"INSERT INTO S VALUES {s_rows}")


def main() -> None:
    rng = np.random.default_rng(5)
    db = Database()
    load(db, rng)

    sequence = [
        "SELECT count(*) FROM R WHERE R.a < 10",
        "SELECT count(*) FROM R, S WHERE R.k = S.k AND R.a < 5",
        "SELECT count(*) FROM S WHERE S.b > 25",
    ]
    print("=== The Figure 5 sequence through the SQL front-end ===")
    for sql in sequence:
        result = db.execute(sql)
        advice = ", ".join(f"{a.op}({a.params})" for a in result.advice)
        print(f"  {sql}")
        print(f"    -> {result.rows[0][0]} rows qualify; cracker advice: {advice}")
        print(
            f"    pieces: R.a={db.piece_count('R', 'a')}, "
            f"S.b={db.piece_count('S', 'b')}"
        )

    print("\n=== The same lineage with the logical crackers (Figure 5) ===")
    schema_r = Schema([Column("k", "int"), Column("a", "int")])
    schema_s = Schema([Column("k", "int"), Column("b", "int")])
    R = Relation.from_columns(
        "R", schema_r,
        {"k": rng.permutation(1000) + 1, "a": rng.permutation(1000) + 1},
    )
    S = Relation.from_columns(
        "S", schema_s,
        {"k": rng.permutation(1000) + 1, "b": rng.permutation(1000) + 1},
    )
    graph = LineageGraph()
    root_r = graph.add_base(R)
    root_s = graph.add_base(S)

    # Query 1: R.a < 10 -> R[1], R[2]
    xi1 = xi_crack_theta(R, "a", "<", 10)
    r1, r2 = graph.record(xi1.op, xi1.params, [root_r], xi1.pieces)
    # Query 2: R.a < 5 within R[2]... the term limits search to R[2]; the
    # paper cracks R[2] by a < 5 then joins with S.
    xi2 = xi_crack_theta(r2.relation, "a", "<", 5)
    r3, r4 = graph.record(xi2.op, xi2.params, [r2], xi2.pieces)
    wedge = wedge_crack(r4.relation, S, "k", "k")
    graph.record(wedge.op, wedge.params, [r4, root_s], wedge.pieces)
    for node in graph.nodes():
        origin = node.produced_by.op if node.produced_by else "base"
        print(f"  {node.node_id:>6}: {len(node.relation):>5} rows  ({origin})")
    print(f"\n  R reconstructible from its pieces: {graph.verify_lossless(root_r)}")
    print(f"  S reconstructible from its pieces: {graph.verify_lossless(root_s)}")


if __name__ == "__main__":
    main()
