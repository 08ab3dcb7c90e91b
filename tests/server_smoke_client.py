"""Driver process for the CI server-smoke job (not a pytest module).

Run once with ``--load`` to create and populate the table, then from
several concurrent *processes* (one per ``--seed``) to stream mixed
range counts, an INSERT and a prepared statement at a running
``repro serve`` instance.  Exits non-zero on any failure, so the CI
job's ``wait`` catches broken clients.

Usage::

    python tests/server_smoke_client.py --port 7744 --load
    python tests/server_smoke_client.py --port 7744 --seed 3
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.client import Client

ROWS = 2000
DOMAIN = 1009
QUERIES = 40


def load(client: Client) -> None:
    client.execute("CREATE TABLE r (k integer, a integer)")
    rows = ", ".join(f"({i}, {(i * 37) % DOMAIN})" for i in range(ROWS))
    result = client.execute(f"INSERT INTO r VALUES {rows}")
    assert result.affected == ROWS, result.affected
    print(f"loaded {ROWS} rows")


def stream(client: Client, seed: int) -> None:
    rng = np.random.default_rng(seed)
    matched = 0
    statements = [
        f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 100}"
        for low in (int(v) for v in rng.integers(0, DOMAIN, size=QUERIES))
    ]
    # Half sequentially, half pipelined.
    for statement in statements[: QUERIES // 2]:
        matched += client.execute(statement).scalar()
    for result in client.execute_many(statements[QUERIES // 2 :]):
        matched += result.scalar()
    client.execute(f"INSERT INTO r VALUES ({100000 + seed}, {seed})")
    statement = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
    assert statement.execute((0, DOMAIN)).scalar() >= ROWS
    # A transaction that aborts must leave the shared table untouched.
    client.begin()
    client.execute(f"INSERT INTO r VALUES ({200000 + seed}, {seed})")
    reply = client.abort()
    assert reply["discarded"] == 1, reply
    print(f"client {seed}: ok ({matched} rows matched)")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--load", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="fetch the METRICS exposition into PATH instead of "
        "streaming queries (CI uploads it as an artifact)",
    )
    args = parser.parse_args()
    with Client(
        args.host, args.port, max_retries=20, retry_delay=0.25
    ) as client:
        if args.metrics_out:
            text = client.metrics()
            # The wave before us must have left real latency data.
            assert "repro_statement_seconds_bucket" in text, text[:200]
            assert "repro_gateway_executed" in text
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(
                f"metrics exposition: {len(text.splitlines())} lines "
                f"-> {args.metrics_out}"
            )
        elif args.load:
            load(client)
        else:
            stream(client, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
