"""Crash-recovery smoke: kill -9 a writer mid-WAL, recover, verify.

The writer subprocess (:mod:`crash_writer`) runs a deterministic
DDL/INSERT/UPDATE/DELETE/SELECT stream against a durable database
(fsync per statement, auto-checkpoint every 200 statements).  The test SIGKILLs it
mid-stream, recovers the directory, and verifies the recovered database
against the cross-engine oracle: a non-cracking row-store replay of
exactly the durable statement prefix must produce identical result
sets.  Runs in CI as its own job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crash_writer import crash_workload, is_mutation
from oracle import assert_sorted_rows_equal
from repro.persist.wal import frame_record
from repro.sql import Database

WRITER = Path(__file__).with_name("crash_writer.py")

VERIFY_QUERIES = [
    "SELECT count(*) FROM r",
    "SELECT * FROM r WHERE a BETWEEN 100 AND 400",
    "SELECT count(*), sum(r.a) FROM r WHERE a >= 500",
    "SELECT r.tag, count(*) FROM r GROUP BY r.tag",
    "SELECT r.k, r.a FROM r WHERE a < 90",
]

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="SIGKILL unavailable on this platform"
)


def _spawn_writer(state_dir: Path, seed: int, *hold: int) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(WRITER), str(state_dir), str(seed), *map(str, hold)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_wal(state_dir: Path, min_bytes: int, deadline_s: float = 60.0) -> None:
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        total = sum(p.stat().st_size for p in state_dir.glob("wal-*.log"))
        if total >= min_bytes:
            return
        time.sleep(0.005)
    raise AssertionError(f"writer produced < {min_bytes} WAL bytes in {deadline_s}s")


def _verify_against_oracle(recovered: Database, seed: int) -> None:
    durable = recovered.persistence_stats()["durable_statements"]
    assert durable > 0
    mutations = [s for s in crash_workload(seed) if is_mutation(s)]
    assert durable <= len(mutations)
    oracle = Database(cracking=False)  # the row-store oracle configuration
    for statement in mutations[:durable]:
        oracle.execute(statement)
    for query in VERIFY_QUERIES:
        expected = oracle.execute(query)
        actual = recovered.execute(query)
        assert expected.columns == actual.columns, query
        assert_sorted_rows_equal(expected.rows, actual.rows, query)


class TestCrashRecovery:
    def test_kill9_mid_wal_then_recover(self, tmp_path):
        seed = 7
        state = tmp_path / "state"
        writer = _spawn_writer(state, seed)
        try:
            _wait_for_wal(state, min_bytes=4096)
            os.kill(writer.pid, signal.SIGKILL)
        finally:
            writer.wait(timeout=30)
        assert writer.returncode != 0  # killed, not completed

        recovered = Database(cracking=True, persist_dir=state)
        recovered.check_invariants()
        _verify_against_oracle(recovered, seed)
        # The durable prefix must have exercised the DML WAL records —
        # the kill lands well past the first update/delete slots.
        durable = recovered.persistence_stats()["durable_statements"]
        prefix = [s for s in crash_workload(seed) if is_mutation(s)][:durable]
        assert any(s.startswith("UPDATE") for s in prefix)
        assert any(s.startswith("DELETE") for s in prefix)
        # The recovered store keeps working durably: write, restart, read.
        recovered.execute("INSERT INTO r VALUES (999991, 5, 0.5, 'zz')")
        after = recovered.execute("SELECT count(*) FROM r").scalar()
        recovered.close()
        reopened = Database(cracking=True, persist_dir=state)
        assert reopened.execute("SELECT count(*) FROM r").scalar() == after
        reopened.close()

    def test_kill9_with_torn_frame_tail(self, tmp_path):
        """A frame half-written at kill time is discarded, prefix kept."""
        seed = 11
        state = tmp_path / "state"
        writer = _spawn_writer(state, seed)
        try:
            _wait_for_wal(state, min_bytes=2048)
            os.kill(writer.pid, signal.SIGKILL)
        finally:
            writer.wait(timeout=30)
        # Simulate the torn in-flight frame deterministically.
        wal_path = max(state.glob("wal-*.log"))
        with open(wal_path, "ab") as handle:
            handle.write(frame_record(b"INSERT INTO r VALUES (1, 2, 3.0, 'x')")[:-7])

        recovered = Database(cracking=True, persist_dir=state)
        assert recovered.persistence_stats()["recovery_torn_tail_discarded"]
        recovered.check_invariants()
        _verify_against_oracle(recovered, seed)
        recovered.close()

    def test_kill9_between_a_partial_merge_and_the_next_checkpoint(self, tmp_path):
        """The writer checkpoints every 200 mutations with pending
        changes a range has merged only in part; it is killed right
        after the next row-reading range merged another part, before
        the following checkpoint.  Recovery (that snapshot plus the WAL
        tail) must still match the oracle."""
        seed = 5
        statements = crash_workload(seed)
        mutations = 0
        for hold, statement in enumerate(statements):
            mutations += is_mutation(statement)
            if mutations > 250 and statement.startswith("SELECT r.k"):
                break
        state = tmp_path / "state"
        writer = _spawn_writer(state, seed, hold)
        try:
            deadline = time.monotonic() + 120
            while not (state / "held").exists():
                assert writer.poll() is None, "writer exited before the hold point"
                assert time.monotonic() < deadline, "writer never reached the hold point"
                time.sleep(0.01)
            os.kill(writer.pid, signal.SIGKILL)
        finally:
            writer.wait(timeout=30)
        assert writer.returncode != 0

        recovered = Database(cracking=True, persist_dir=state)
        assert recovered.persistence_stats()["durable_statements"] == mutations
        recovered.check_invariants()
        _verify_against_oracle(recovered, seed)
        recovered.close()
