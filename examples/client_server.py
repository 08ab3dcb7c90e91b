"""Client/server quickstart: serve a cracking database over TCP.

Starts an in-process server (the same `ReproServer` that `repro serve`
runs standalone), then drives it like a deployment would: concurrent
clients stream range queries — paying the cracking burn-in once,
collectively — plus prepared statements, an atomic transaction, an
aborted one, and a graceful shutdown.

Run:  PYTHONPATH=src python examples/client_server.py
"""

import threading

import numpy as np

from repro.client import Client
from repro.errors import RemoteError
from repro.server import ServerThread
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

N_ROWS = 200_000
CLIENTS = 4
QUERIES_PER_CLIENT = 60


def build_database() -> Database:
    """r(k, a): k dense, a a random permutation — the paper's shape."""
    db = Database(concurrent=True)
    rng = np.random.default_rng(42)
    relation = Relation.from_columns(
        "r",
        Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(N_ROWS, dtype=np.int64), "a": rng.permutation(N_ROWS)},
    )
    db.catalog.create_table(relation)
    return db


def client_worker(host: str, port: int, seed: int, totals: list) -> None:
    """One networked client: a stream of random range counts."""
    rng = np.random.default_rng(seed)
    matched = 0
    with Client(host, port) as client:
        for _ in range(QUERIES_PER_CLIENT):
            low = int(rng.integers(0, N_ROWS))
            high = low + int(rng.integers(1, N_ROWS // 5))
            matched += client.execute(
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}"
            ).scalar()
    totals.append(matched)


def main() -> None:
    database = build_database()
    server = ServerThread(database)
    host, port = server.start()
    print(f"serving {N_ROWS} rows on {host}:{port}")

    # --- many clients, one shared self-organising store ----------------
    totals: list = []
    workers = [
        threading.Thread(target=client_worker, args=(host, port, seed, totals))
        for seed in range(CLIENTS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    pieces = database.piece_count("r", "a")
    print(
        f"{CLIENTS} clients ran {CLIENTS * QUERIES_PER_CLIENT} queries; "
        f"the column self-organised into {pieces} pieces"
    )

    with Client(host, port) as client:
        # --- prepared statements over the wire --------------------------
        stmt = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
        narrow = stmt.execute((0, 999)).scalar()
        wide = stmt.execute((0, N_ROWS)).scalar()
        print(f"prepared statement: narrow={narrow} wide={wide}")

        # --- transactions: COMMIT is atomic, ABORT leaves no trace ------
        client.begin()
        client.execute("CREATE TABLE audit (k integer, note varchar)")
        client.execute("INSERT INTO audit VALUES (1, 'committed')")
        committed = client.commit()
        print(f"committed transaction of {committed['statements']} statements")

        client.begin()
        client.execute("INSERT INTO audit VALUES (2, 'never happened')")
        client.abort()
        survivors = client.execute("SELECT count(*) FROM audit").scalar()
        print(f"after abort the audit table still has {survivors} row(s)")

        # --- typed errors ----------------------------------------------
        try:
            client.execute("SELECT boom FROM nowhere")
        except RemoteError as exc:
            print(f"typed error reply: code={exc.code}")

        stats = client.stats()
        print(
            f"server stats: {stats['gateway']['executed']} statements executed, "
            f"crackers {stats['crackers']}"
        )

    report = server.stop()
    print(
        f"graceful shutdown: drained {report['connections_drained']} "
        f"connection(s), served {report['accepted']} client(s) total"
    )


if __name__ == "__main__":
    main()
