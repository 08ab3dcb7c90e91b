"""Concurrency stress: interleaved selects and inserts on one Database.

N worker threads fire mixed range selects and INSERTs at a shared
cracking database while a monitor thread polls the cracker
index through the read side of the column locks.  The interleaving is
nondeterministic, so per-query assertions are bound checks only; the
strong assertions come afterwards, when the final state *is*
deterministic (inserts commute):

* every cracked column passes ``check_invariants()`` — sorted boundaries,
  contiguous coverage, piece contents within bounds;
* row count and content match a single-threaded oracle replaying the
  same inserts.

Every join carries a deadline so a deadlock fails the test quickly
instead of hanging the runner (CI additionally wraps the file in a hard
``timeout``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from oracle import assert_sorted_rows_equal
from repro.sql import Database

N_THREADS = 8
OPS_PER_THREAD = 26  # 8 × 26 = 208 mixed statements
N_ROWS = 4000
DOMAIN = 10_000
DEADLINE_S = 60.0


def _build(**kwargs) -> tuple[Database, np.ndarray]:
    rng = np.random.default_rng(99)
    values = rng.integers(0, DOMAIN, N_ROWS)
    db = Database(cracking=True, **kwargs)
    db.execute("CREATE TABLE r (k integer, a integer)")
    rows = ", ".join(f"({i}, {int(values[i])})" for i in range(N_ROWS))
    db.execute(f"INSERT INTO r VALUES {rows}")
    return db, values


class Worker(threading.Thread):
    """One client session: mixed range selects and inserts."""

    def __init__(self, db: Database, thread_index: int) -> None:
        super().__init__(name=f"client-{thread_index}", daemon=True)
        self.db = db
        self.rng = np.random.default_rng(1000 + thread_index)
        # Disjoint key space per thread keeps inserted keys unique.
        self.next_k = 1_000_000 + thread_index * 100_000
        self.inserted: list[tuple[int, int]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            for _ in range(OPS_PER_THREAD):
                self._one_op()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            self.error = exc

    def _one_op(self) -> None:
        roll = self.rng.random()
        if roll < 0.3:
            n_rows = int(self.rng.integers(1, 5))
            rows = []
            for _ in range(n_rows):
                value = int(self.rng.integers(0, DOMAIN))
                rows.append((self.next_k, value))
                self.next_k += 1
            self.inserted.extend(rows)
            values_sql = ", ".join(f"({k}, {a})" for k, a in rows)
            self.db.execute(f"INSERT INTO r VALUES {values_sql}")
            return
        low = int(self.rng.integers(0, DOMAIN))
        high = low + int(self.rng.integers(0, DOMAIN // 4))
        if roll < 0.6:
            result = self.db.execute(
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}"
            )
            count = result.scalar()
            assert 0 <= count <= N_ROWS + N_THREADS * OPS_PER_THREAD * 4
        else:
            result = self.db.execute(
                f"SELECT * FROM r WHERE a >= {low} AND a <= {high}"
            )
            for _, a in result.rows:
                assert low <= a <= high, (low, high, a)


@pytest.mark.parametrize(
    "config",
    [dict(concurrent=True)],
    ids=["vector-single"],
)
def test_stress_mixed_selects_and_inserts(config):
    db, initial_values = _build(**config)
    workers = [Worker(db, i) for i in range(N_THREADS)]

    stop_monitor = threading.Event()
    monitor_error: list[BaseException] = []

    def monitor() -> None:
        # Exercises the read side of the column locks while writers crack.
        try:
            while not stop_monitor.is_set():
                pieces = db.piece_count("r", "a")
                assert pieces >= 1
        except BaseException as exc:  # noqa: BLE001
            monitor_error.append(exc)

    monitor_thread = threading.Thread(target=monitor, daemon=True)
    monitor_thread.start()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=DEADLINE_S)
    stuck = [worker.name for worker in workers if worker.is_alive()]
    stop_monitor.set()
    monitor_thread.join(timeout=5)
    if stuck:
        pytest.fail(f"deadlock suspected: {stuck} still running after {DEADLINE_S}s")
    errors = [worker.error for worker in workers if worker.error is not None]
    assert not errors, errors
    assert not monitor_error, monitor_error

    # The final state is deterministic: inserts commute.
    db.check_invariants()
    all_inserted = [row for worker in workers for row in worker.inserted]
    expected_rows = [
        (int(k), int(a)) for k, a in enumerate(initial_values)
    ] + all_inserted
    final = db.execute("SELECT * FROM r")
    assert final.row_count == len(expected_rows)
    assert_sorted_rows_equal(expected_rows, final.rows, "final state")
    # One more query after the storm: pending areas merge cleanly.
    total = db.execute("SELECT count(*) FROM r WHERE a >= 0").scalar()
    assert total == len(expected_rows)
    db.check_invariants()


def test_torn_insert_snapshot_clamped():
    """A scan racing a multi-column insert sees only fully published rows.

    Simulates the mid-insert state deterministically: one column BAT has
    received the new rows, the next has not yet.  The batch accessors
    must clamp to the shortest column (the pre-insert snapshot) instead
    of pairing a long column with a short one.
    """
    from repro.storage.table import Column, Relation, Schema
    from repro.volcano.vectorized import VecScan

    relation = Relation.from_columns(
        "r",
        Schema([Column("k", "int"), Column("a", "int")]),
        {"k": [0, 1, 2], "a": [10, 11, 12]},
    )
    relation.bats["k"].append_many([3, 4])  # insert half-way published
    columns = relation.column_arrays()
    assert [len(values) for values, _ in columns] == [3, 3]
    batches = list(VecScan(relation).batches())
    assert sum(len(batch) for batch in batches) == 3
    # Completing the insert makes the rows visible.
    relation.bats["a"].append_many([13, 14])
    assert [len(values) for values, _ in relation.column_arrays()] == [5, 5]


def test_check_invariants_concurrent_with_queries():
    """``check_invariants()`` never sees a torn column under SELECT + INSERT.

    Four client threads share one ``Database(concurrent=True)``.  Every
    INSERT adds three rows above the loaded domain, so a range count over
    that band is a multiple of three exactly when an INSERT is visible
    to a range query on the column entirely or not at all.
    """
    db, _ = _build(concurrent=True)
    errors: list[BaseException] = []

    def churn(index: int) -> None:
        rng = np.random.default_rng(index)
        next_k = 1_000_000 + index * 100_000
        try:
            for _ in range(40):
                low = int(rng.integers(0, DOMAIN))
                db.execute(
                    f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 500}"
                )
                a = DOMAIN + int(rng.integers(0, 1000))
                db.execute(
                    f"INSERT INTO r VALUES ({next_k}, {a}), ({next_k + 1}, {a}), "
                    f"({next_k + 2}, {a})"
                )
                next_k += 3
                fresh = db.execute(
                    f"SELECT count(*) FROM r WHERE a >= {DOMAIN}"
                ).scalar()
                assert fresh % 3 == 0, fresh
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=churn, args=(i,), daemon=True) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + DEADLINE_S
    checks = 0
    while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
        db.check_invariants()  # must never see a torn column
        checks += 1
        # The column lock is not fair: a tight re-acquire loop here would
        # barge past the waiting clients for the whole deadline.
        time.sleep(0.001)
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "churn deadlock"
    assert not errors, errors
    assert checks > 0
    db.check_invariants()
    assert db.execute(f"SELECT count(*) FROM r WHERE a >= {DOMAIN}").scalar() == 480


def test_concurrent_readers_on_converged_column():
    """Pure query traffic (no inserts) from many threads stays consistent."""
    db, initial_values = _build(concurrent=True)
    # Converge the index a little first.
    for low in range(0, DOMAIN, 1000):
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 500}")

    errors: list[BaseException] = []

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(30):
                low = int(rng.integers(0, DOMAIN))
                high = low + int(rng.integers(0, 2000))
                count = db.execute(
                    f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}"
                ).scalar()
                expected = int(
                    ((initial_values >= low) & (initial_values <= high)).sum()
                )
                assert count == expected, (low, high, count, expected)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DEADLINE_S)
    assert not any(thread.is_alive() for thread in threads), "reader deadlock"
    assert not errors, errors
    db.check_invariants()
