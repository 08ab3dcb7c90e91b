"""Unit tests for copy-on-write transaction snapshots."""

import numpy as np
import pytest

from repro.errors import TransactionError
from repro.storage.bat import BAT
from repro.storage.transaction import Transaction


class TestTransaction:
    def test_commit_keeps_mutation(self):
        bat = BAT.from_values("t", [1, 2, 3])
        txn = Transaction(1)
        txn.protect(bat)
        bat.tail_array()[0] = 99
        txn.commit()
        assert bat.tail_array()[0] == 99

    def test_rollback_restores_tail(self):
        bat = BAT.from_values("t", [1, 2, 3])
        txn = Transaction(1)
        txn.protect(bat)
        bat.tail_array()[:] = 0
        txn.rollback()
        assert np.array_equal(bat.tail_array(), [1, 2, 3])

    def test_rollback_restores_after_shuffle(self):
        bat = BAT.from_values("t", list(range(100)))
        txn = Transaction(1)
        txn.protect(bat)
        bat.tail_array()[:] = bat.tail_array()[::-1].copy()
        txn.rollback()
        assert np.array_equal(bat.tail_array(), np.arange(100))

    def test_rollback_restores_appends(self):
        bat = BAT.from_values("t", [1])
        txn = Transaction(1)
        txn.protect(bat)
        bat.append_many([2, 3, 4])
        txn.rollback()
        assert len(bat) == 1

    def test_protect_is_idempotent(self):
        bat = BAT.from_values("t", [1, 2])
        txn = Transaction(1)
        txn.protect(bat)
        bat.tail_array()[0] = 50   # mutate between the two protect calls
        txn.protect(bat)           # must NOT re-snapshot the dirty state
        txn.rollback()
        assert bat.tail_array()[0] == 1

    def test_commit_twice_raises(self):
        txn = Transaction(1)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_rollback_after_commit_raises(self):
        txn = Transaction(1)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_protect_after_commit_raises(self):
        txn = Transaction(1)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.protect(BAT.from_values("t", [1]))


class TestAbortPreImage:
    """Abort must restore the byte-for-byte pre-image — including when
    pending-insert merges and cracking ran inside the transaction."""

    def test_abort_restores_after_append_merge_and_shuffle(self):
        # The full in-place lifecycle inside one transaction: bulk
        # append (the pending-insert path), a whole-tail shuffle (what a
        # crack kernel does), then a sort that materialises the head.
        bat = BAT.from_values("t", list(range(64)))
        before_tail = bat.tail_array().copy()
        txn = Transaction(1)
        txn.protect(bat)
        bat.append_many([200, 100, 300])
        bat.tail_array()[:] = bat.tail_array()[::-1].copy()
        bat.sort_by_tail()
        assert bat.nbytes == 67 * 16  # sort materialised the head
        txn.rollback()
        assert len(bat) == 64
        assert np.array_equal(bat.tail_array(), before_tail)
        assert bat.nbytes == 64 * 8  # head restored to void, not left dense
        assert np.array_equal(bat.head_array(), np.arange(64))

    def test_abort_restores_preimage_with_cracked_pending_merges(self):
        # SQL-level scenario: a cracker exists over r.a, new rows arrive
        # (cracker pending area), and a query merges them — all inside
        # the protected window.  The base BAT sees only the appends; the
        # pre-image must come back exactly, while the cracker (private
        # copy) is free to keep its own state.
        from repro.sql import Database

        db = Database(cracking=True)
        db.execute("CREATE TABLE r (k integer, a integer)")
        rows = ", ".join(f"({i}, {(i * 37) % 101})" for i in range(101))
        db.execute(f"INSERT INTO r VALUES {rows}")
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 20 AND 60")  # crack
        bat = db.catalog.table("r").column("a")
        before_tail = bat.tail_array().copy()
        before_len = len(bat)

        txn = Transaction(1)
        txn.protect(bat)
        db.execute("INSERT INTO r VALUES (900, 7), (901, 55), (902, 99)")
        # This query merges the pending inserts into the cracker pieces.
        merged = db.execute("SELECT k FROM r WHERE a BETWEEN 0 AND 100")
        assert len(merged.rows) == 104
        assert len(bat) == before_len + 3
        txn.rollback()

        assert len(bat) == before_len
        assert np.array_equal(bat.tail_array(), before_tail)
        assert bat.tail_array().tobytes() == before_tail.tobytes()

    def test_abort_restores_explicit_head_preimage(self):
        bat = BAT.from_values("t", [30, 10])
        bat.append(20, oid=9)  # a sparse oid materialises the head
        before_tail = bat.tail_array().copy()
        before_head = bat.head_array().copy()
        txn = Transaction(1)
        txn.protect(bat)
        bat.sort_by_tail()
        bat.append(99, oid=42)
        txn.rollback()
        assert np.array_equal(bat.tail_array(), before_tail)
        assert np.array_equal(bat.head_array(), before_head)
        assert bat.tail_array().tobytes() == before_tail.tobytes()
        assert bat.head_array().tobytes() == before_head.tobytes()
