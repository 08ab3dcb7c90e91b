"""Durability layer: WAL framing, snapshot round trips, warm restart.

The acceptance property: for any workload of DDL/INSERT/SELECT, both
``snapshot → restore`` and ``crash → WAL replay`` yield a database whose
query results and ``check_invariants()`` match the never-restarted
original — verified against the cross-engine oracle helpers, on the
unbounded, bounded and default cracking configurations.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from oracle import (
    ENGINE_CONFIGS,
    assert_sorted_rows_equal,
    load_standard,
    random_range_queries,
)
from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.errors import PersistError
from repro.persist import scan_wal
from repro.persist import snapshot as snapshot_module
from repro.persist.wal import StatementWAL, frame_record
from repro.sql import Database
from repro.storage.bat import BAT

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: Persistence-capable configurations: the cracking ones of the oracle's
#: ENGINE_CONFIGS sweep (cracked / bounded / default).
PERSIST_CONFIGS: dict[str, dict] = {
    name: config
    for name, config in ENGINE_CONFIGS.items()
    if config.get("cracking", True)
}

#: Order-free verification suite run on both sides of every restart.
VERIFY_QUERIES = [
    "SELECT * FROM r WHERE a BETWEEN 100 AND 400",
    "SELECT r.k, r.a FROM r WHERE a >= 700",
    "SELECT count(*), sum(r.a) FROM r WHERE a < 550",
    "SELECT r.tag, count(*) FROM r GROUP BY r.tag",
    "SELECT * FROM r WHERE a BETWEEN 500 AND 100",
    "SELECT r.a, s.g FROM r, s WHERE r.k = s.k AND r.a BETWEEN 0 AND 650",
    "SELECT s.g, count(*), sum(r.a) FROM r, s WHERE r.k = s.k GROUP BY s.g",
    "SELECT count(*) FROM t",
]


def _has_pending(column) -> bool:
    """Anything buffered: inserts, deletes or updates not yet merged."""
    stats = column.observability()
    return bool(
        stats["pending_inserts"] or stats["pending_deletes"] or stats["pending_updates"]
    )



def assert_databases_agree(expected: Database, actual: Database) -> None:
    for query in VERIFY_QUERIES:
        left = expected.execute(query)
        right = actual.execute(query)
        assert left.columns == right.columns, query
        assert_sorted_rows_equal(left.rows, right.rows, query)


def rewrite_cracker_meta(store_dir, rewrite) -> int:
    """Apply ``rewrite(meta) -> meta`` to every cracker entry of the first
    snapshot generation's manifest, sealed again with its CRC; returns
    how many entries it holds."""
    path = store_dir / "snapshot-000001" / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["crackers"]:
        entry["meta"] = rewrite(entry["meta"])
    snapshot_module._write_manifest(path.parent, manifest)
    return len(manifest["crackers"])


def run_workload(databases, statements) -> None:
    for statement in statements:
        for db in databases:
            db.execute(statement)


# ---------------------------------------------------------------------- #
# WAL framing
# ---------------------------------------------------------------------- #


class TestWAL:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = StatementWAL(path, fsync_every=1)
        statements = ["CREATE TABLE t (v integer)", "INSERT INTO t VALUES (1)", "x'; -- ;"]
        for statement in statements:
            wal.append(statement)
        wal.close()
        replayed, valid, torn = scan_wal(path)
        assert replayed == statements
        assert valid == path.stat().st_size
        assert not torn

    def test_missing_file_is_empty(self, tmp_path):
        assert scan_wal(tmp_path / "absent.log") == ([], 0, False)

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = StatementWAL(path, fsync_every=0)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("INSERT INTO t VALUES (2)")
        wal.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(frame_record(b"INSERT INTO t VALUES (3)")[:-5])
        replayed, valid, torn = scan_wal(path)
        assert len(replayed) == 2
        assert valid == intact
        assert torn

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = StatementWAL(path, fsync_every=0)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("INSERT INTO t VALUES (2)")
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the last frame
        path.write_bytes(bytes(data))
        replayed, _, torn = scan_wal(path)
        assert replayed == ["INSERT INTO t VALUES (1)"]
        assert torn

    def test_append_after_close_raises(self, tmp_path):
        wal = StatementWAL(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(PersistError):
            wal.append("INSERT INTO t VALUES (1)")

    def test_negative_fsync_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            StatementWAL(tmp_path / "wal.log", fsync_every=-1)

    def test_oversized_record_rejected_before_write(self, tmp_path, monkeypatch):
        # An oversized frame would read as a torn tail on replay and void
        # every later statement; append must refuse it up front.
        from repro.persist import wal as wal_module

        monkeypatch.setattr(wal_module, "MAX_RECORD_BYTES", 32)
        path = tmp_path / "wal.log"
        wal = StatementWAL(path, fsync_every=0)
        wal.append("INSERT INTO t VALUES (1)")
        with pytest.raises(PersistError):
            wal.append("INSERT INTO t VALUES " + ", ".join(["(1)"] * 50))
        wal.close()
        replayed, _, torn = scan_wal(path)
        assert replayed == ["INSERT INTO t VALUES (1)"]
        assert not torn


# ---------------------------------------------------------------------- #
# State codecs (BAT / cracked column)
# ---------------------------------------------------------------------- #


class TestStateCodecs:
    def test_bat_roundtrip_numeric(self):
        bat = BAT.from_values("t", [5, 1, 4, 2], seq_base=3)
        clone = BAT.from_state(bat.export_state())
        assert np.array_equal(clone.tail_array(), bat.tail_array())
        assert np.array_equal(clone.head_array(), bat.head_array())
        assert clone.head_array().tolist() == [3, 4, 5, 6]  # the seq base

    def test_bat_roundtrip_str(self):
        bat = BAT.from_values("t", ["b", "a", "b", "c"], tail_type="str")
        clone = BAT.from_state(bat.export_state())
        assert clone.tail_values() == ["b", "a", "b", "c"]

    def test_bat_roundtrip_materialised_head(self):
        bat = BAT.from_values("t", [3.5, 1.5, 2.5], tail_type="float")
        bat.sort_by_tail()
        clone = BAT.from_state(bat.export_state())
        assert np.array_equal(clone.tail_array(), bat.tail_array())
        assert np.array_equal(clone.head_array(), bat.head_array())
        assert clone.export_state()["sorted"]

    def test_cracked_column_roundtrip_with_pending(self):
        column = CrackedColumn.from_arrays(np.arange(200)[::-1].copy())
        column.range_select(40, 120)
        column.range_select(10, None)
        column.append([500, 501, 502])
        state = column.export_state()
        clone = CrackedColumn.from_state(state)
        assert clone.piece_count == column.piece_count
        assert clone.observability()["pending_inserts"] == 3
        left = column.range_select(30, 150)
        right = clone.range_select(30, 150)
        assert sorted(left.values.tolist()) == sorted(right.values.tolist())
        assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
        clone.check_invariants()

    def test_cracker_index_state_rejects_corruption(self):
        column = CrackedColumn.from_arrays(np.arange(100)[::-1].copy())
        column.range_select(20, 60)
        state = column.export_state()
        state["index"]["positions"] = state["index"]["positions"][::-1].copy()
        if len(state["index"]["positions"]) > 1:
            from repro.errors import CrackerIndexError

            with pytest.raises(CrackerIndexError):
                CrackedColumn.from_state(state)


# ---------------------------------------------------------------------- #
# Snapshot -> restore and crash -> WAL replay round trips
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("config_name", sorted(PERSIST_CONFIGS))
class TestRestartRoundTrip:
    def _databases(self, config_name, tmp_path, **persist_kwargs):
        config = PERSIST_CONFIGS[config_name]
        original = Database(**config)
        persisted = Database(
            **config, persist_dir=tmp_path / "state", **persist_kwargs
        )
        return config, original, persisted

    def test_snapshot_restore_matches_original(self, config_name, tmp_path):
        config, original, persisted = self._databases(config_name, tmp_path)
        rng = np.random.default_rng(42)
        for db in (original, persisted):
            load_standard(db, seed=42, n_rows=200)
        run_workload(
            (original, persisted), random_range_queries(rng, 16, insert_every=4)
        )
        persisted.checkpoint()
        pieces = {
            key: column.piece_count
            for key, column in persisted.cracked_columns().items()
        }
        persisted.close()

        restored = Database(**config, persist_dir=tmp_path / "state")
        # Warm restart: the earned cracker indexes come back piece for
        # piece (checked before the verify suite cracks any further).
        assert {
            key: column.piece_count
            for key, column in restored.cracked_columns().items()
        } == pieces
        assert_databases_agree(original, restored)
        restored.check_invariants()
        restored.close()

    def test_wal_replay_matches_original(self, config_name, tmp_path):
        config, original, persisted = self._databases(config_name, tmp_path)
        rng = np.random.default_rng(7)
        for db in (original, persisted):
            load_standard(db, seed=7, n_rows=150)
        run_workload(
            (original, persisted), random_range_queries(rng, 12, insert_every=3)
        )
        persisted.close()  # no checkpoint: recovery is pure WAL replay

        restored = Database(**config, persist_dir=tmp_path / "state")
        stats = restored.persistence_stats()
        assert not stats["recovery_snapshot_loaded"]
        assert stats["recovery_wal_statements_replayed"] > 0
        assert_databases_agree(original, restored)
        restored.check_invariants()
        restored.close()

    def test_snapshot_plus_wal_tail(self, config_name, tmp_path):
        config, original, persisted = self._databases(config_name, tmp_path)
        rng = np.random.default_rng(19)
        for db in (original, persisted):
            load_standard(db, seed=19, n_rows=150)
        persisted.checkpoint()
        # Post-checkpoint statements live only in the WAL tail.
        run_workload(
            (original, persisted), random_range_queries(rng, 10, insert_every=2)
        )
        persisted.close()

        restored = Database(**config, persist_dir=tmp_path / "state")
        stats = restored.persistence_stats()
        assert stats["recovery_snapshot_loaded"]
        assert_databases_agree(original, restored)
        restored.check_invariants()
        restored.close()


class TestDurabilityMechanics:
    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path, wal_fsync_every=1)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.close()
        wal_path = next(tmp_path.glob("wal-*.log"))
        with open(wal_path, "ab") as handle:
            handle.write(frame_record(b"INSERT INTO t VALUES (99)")[:-4])

        restored = Database(cracking=True, persist_dir=tmp_path)
        stats = restored.persistence_stats()
        assert stats["recovery_torn_tail_discarded"]
        assert restored.execute("SELECT count(*) FROM t").scalar() == 2
        # The truncation point is clean: new appends replay correctly.
        restored.execute("INSERT INTO t VALUES (3)")
        restored.close()
        reopened = Database(cracking=True, persist_dir=tmp_path)
        assert reopened.execute("SELECT count(*) FROM t").scalar() == 3
        reopened.close()

    def test_checkpoint_policy_statement_trigger(self, tmp_path):
        db = Database(
            cracking=True, persist_dir=tmp_path, checkpoint_statements=3
        )
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.persistence_stats()["generation"] == 0
        db.execute("INSERT INTO t VALUES (2)")  # third logged statement
        stats = db.persistence_stats()
        assert stats["generation"] == 1
        assert stats["statements_since_checkpoint"] == 0
        db.close()

    def test_checkpoint_policy_wal_bytes_trigger(self, tmp_path):
        db = Database(
            cracking=True, persist_dir=tmp_path, checkpoint_wal_bytes=64
        )
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.persistence_stats()["generation"] >= 1
        db.close()

    def test_checkpoint_compacts_wal(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.persistence_stats()["wal_bytes"] > 0
        report = db.checkpoint()
        assert report["generation"] == 1
        assert db.persistence_stats()["wal_bytes"] == 0
        # Old generation files are swept.
        assert not list(tmp_path.glob("wal-000000.log"))
        db.close()

    def test_select_into_is_durable(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (5), (9)")
        db.execute("SELECT * INTO big FROM t WHERE v >= 5")
        db.close()
        restored = Database(cracking=True, persist_dir=tmp_path)
        assert restored.execute("SELECT count(*) FROM big").scalar() == 2
        restored.close()

    def test_recovery_bumps_plan_cache_epochs(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.checkpoint()
        db.close()
        restored = Database(cracking=True, persist_dir=tmp_path)
        # Recovery invalidated per-table epochs (beyond the replayed DDL).
        assert restored.stats()["plan_cache"]["invalidations"] > 0
        assert restored._plan_cache.epochs_for(["t"]) > (("t", 0),)
        restored.close()

    def test_checkpoint_requires_persistence(self):
        with pytest.raises(PersistError):
            Database(cracking=True).checkpoint()

    def test_cracking_disabled_checkpoint_refuses_to_drop_warm_state(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path, crack_threshold=0)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (5), (9), (13)")
        db.execute("SELECT count(*) FROM t WHERE v BETWEEN 4 AND 10")  # crack
        db.checkpoint()
        db.close()
        # Data-only recovery works, but compacting from it would discard
        # (and sweep) the snapshot's earned cracker state — refuse.
        data_only = Database(cracking=False, persist_dir=tmp_path)
        assert data_only.execute("SELECT count(*) FROM t").scalar() == 4
        with pytest.raises(PersistError):
            data_only.checkpoint()
        data_only.close()
        # The warm state survived for cracking-enabled sessions.
        warm = Database(cracking=True, persist_dir=tmp_path, crack_threshold=0)
        assert warm.piece_count("t", "v") > 1
        warm.checkpoint()  # and a warm session may still compact
        warm.close()

    def test_store_checkpointed_with_shards_still_opens(self, tmp_path):
        """A generation written by the removed shard-parallel path opens:
        its cracker entries are dropped (the BATs are the truth), the WAL
        tail replays, and the column re-cracks from the live rows."""
        oracle = Database(cracking=False)
        db = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        for target in (oracle, db):
            load_standard(target, seed=31, n_rows=200)
        rng = np.random.default_rng(31)
        run_workload((oracle, db), random_range_queries(rng, 8))
        assert db.piece_count("r", "a") > 1
        db.checkpoint()
        tail = [
            "INSERT INTO r VALUES (900, 450, 1.5, 't1'), (901, 20, 2.5, 't2')",
            "UPDATE r SET a = 777 WHERE a BETWEEN 100 AND 180",
            "DELETE FROM r WHERE a BETWEEN 400 AND 430",
        ]
        run_workload((oracle, db), tail)
        db.close()
        rewritten = rewrite_cracker_meta(
            tmp_path, lambda meta: {"kind": "sharded", "shard_count": 4, "shards": []}
        )
        assert rewritten > 0

        reopened = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        stats = reopened.persistence_stats()
        assert stats["recovery_crackers_dropped"] == rewritten
        assert stats["recovery_wal_statements_replayed"] == len(tail)
        assert_databases_agree(oracle, reopened)
        assert reopened.piece_count("r", "a") > 1  # re-cracked on first touch
        reopened.check_invariants()
        reopened.checkpoint()
        fresh = json.loads(
            (tmp_path / "snapshot-000002" / "manifest.json").read_text()
        )
        assert fresh["crackers"]
        assert all(e["meta"]["kind"] == "single" for e in fresh["crackers"])
        reopened.close()

    def test_checkpoint_with_buffered_dml_reopens_and_merges(self, tmp_path):
        """A snapshot can hold a cracker's unmerged DELETE/UPDATE buffers.
        The format carries no stored-oid bitmap: the reopened column
        rebuilds it from its oids and merges the buffers on first query,
        answering as a never-restarted store would."""
        oracle = Database(cracking=False)
        db = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        for target in (oracle, db):
            load_standard(target, seed=13, n_rows=300)
        rng = np.random.default_rng(13)
        run_workload((oracle, db), random_range_queries(rng, 8))
        run_workload(
            (oracle, db),
            [
                # Narrow enough to stay under the write-side backstop
                # (buffers over 1/8 of the column merge at the write).
                "UPDATE r SET a = 640 WHERE a BETWEEN 100 AND 120",
                "DELETE FROM r WHERE a BETWEEN 400 AND 420",
                "INSERT INTO r VALUES (900, 450, 1.5, 't1')",
            ],
        )
        column = db.cracked_columns()[("r", "a")]
        buffered = (column.observability()["pending_deletes"], column.pending_update_count)
        assert min(buffered) > 0
        db.checkpoint()
        db.close()

        reopened = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        restored = reopened.cracked_columns()[("r", "a")]
        assert (
            restored.observability()["pending_deletes"], restored.pending_update_count
        ) == buffered
        everything = np.arange(len(restored._state))
        assert np.array_equal(
            restored._is_stored(everything), np.isin(everything, restored.oids)
        )
        assert_databases_agree(oracle, reopened)
        assert not _has_pending(restored)
        reopened.check_invariants()
        reopened.close()

    @pytest.mark.parametrize("config_name", ["bounded", "default"])
    def test_checkpoint_with_partially_merged_buffers_reopens_equal(
        self, config_name, tmp_path
    ):
        """A partial merge leaves pending changes where no range has looked:
        a row-reading range merges its own slice, a count merges
        nothing.  A checkpoint of such buffers reopens equal to the
        oracle, with the same changes still pending."""
        config = PERSIST_CONFIGS[config_name]
        oracle = Database(cracking=False)
        db = Database(**config, persist_dir=tmp_path)
        for target in (oracle, db):
            load_standard(target, seed=29, n_rows=600)
        rng = np.random.default_rng(29)
        run_workload((oracle, db), random_range_queries(rng, 12))
        run_workload(
            (oracle, db),
            [
                "UPDATE r SET a = 333 WHERE a BETWEEN 50 AND 60",
                "UPDATE r SET a = 777 WHERE a BETWEEN 300 AND 306",
                "DELETE FROM r WHERE a BETWEEN 600 AND 610",
                "INSERT INTO r VALUES (9001, 310, 1.5, 't1'), (9002, 905, 2.5, 't2')",
                "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 999",
                "SELECT r.k FROM r WHERE a BETWEEN 280 AND 400",
            ],
        )
        column = db.cracked_columns()[("r", "a")]
        pending = (
            column.observability()["pending_inserts"],
            column.observability()["pending_deletes"],
            column.pending_update_count,
        )
        assert column.query_stats.merged_updates and sum(pending)
        db.checkpoint()
        db.close()

        reopened = Database(**config, persist_dir=tmp_path)
        restored = reopened.cracked_columns()[("r", "a")]
        assert (
            restored.observability()["pending_inserts"],
            restored.observability()["pending_deletes"],
            restored.pending_update_count,
        ) == pending
        assert_databases_agree(oracle, reopened)
        reopened.check_invariants()
        reopened.close()

    @pytest.mark.parametrize("before, after", [(0, 96), (96, 0), (0, None)])
    def test_crack_threshold_given_at_open_wins_on_warm_restart(
        self, before, after, tmp_path
    ):
        """The checkpoint does not record the cut-off it ran with; the
        reopening session's value (None = the shipped default) applies."""
        oracle = Database(cracking=False)
        db = Database(
            cracking=True, persist_dir=tmp_path,
            crack_threshold=before,
        )
        for target in (oracle, db):
            load_standard(target, seed=5, n_rows=400)
        rng = np.random.default_rng(5)
        run_workload((oracle, db), random_range_queries(rng, 12))
        assert_databases_agree(oracle, db)
        db.checkpoint()
        db.close()

        chosen = {} if after is None else {"crack_threshold": after}
        expected = DEFAULT_CRACK_THRESHOLD if after is None else after
        reopened = Database(
            cracking=True, persist_dir=tmp_path, **chosen
        )
        columns = reopened.cracked_columns()
        assert columns  # warm: the crackers came back
        assert {c.crack_threshold for c in columns.values()} == {expected}
        assert_databases_agree(oracle, reopened)
        run_workload((oracle, reopened), random_range_queries(rng, 12))
        assert_databases_agree(oracle, reopened)
        reopened.check_invariants()
        reopened.close()

    def test_store_with_legacy_cracker_keys_reopens_unchanged(self, tmp_path):
        """Older checkpoints carry ``kernel``, ``crack_in_three_enabled``
        and ``crack_threshold`` in each cracker's manifest meta.  A fresh
        checkpoint writes none of them; a store that has them opens with
        the same pieces and answers, and the cut-off given at open."""
        oracle = Database(cracking=False)
        db = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        for target in (oracle, db):
            load_standard(target, seed=17, n_rows=300)
        rng = np.random.default_rng(17)
        run_workload((oracle, db), random_range_queries(rng, 10))
        pieces = {key: c.piece_count for key, c in db.cracked_columns().items()}
        assert max(pieces.values()) > 1
        db.checkpoint()
        db.close()
        manifest = json.loads(
            (tmp_path / "snapshot-000001" / "manifest.json").read_text()
        )
        assert manifest["crackers"]
        for entry in manifest["crackers"]:
            assert set(entry["meta"]) == {"kind", "next_oid", "index"}
        legacy = {
            "kernel": "vectorised",
            "crack_in_three_enabled": True,
            "crack_threshold": 96,
        }
        rewrite_cracker_meta(tmp_path, lambda meta: {**meta, **legacy})

        reopened = Database(
            cracking=True, persist_dir=tmp_path, crack_threshold=0
        )
        columns = reopened.cracked_columns()
        assert {key: c.piece_count for key, c in columns.items()} == pieces
        assert {c.crack_threshold for c in columns.values()} == {0}
        assert_databases_agree(oracle, reopened)
        reopened.check_invariants()
        reopened.close()

    def test_unknown_cracker_kind_still_refuses_to_open(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (5), (9)")
        db.execute("SELECT count(*) FROM t WHERE v > 4")  # crack
        db.checkpoint()
        db.close()
        assert rewrite_cracker_meta(tmp_path, lambda meta: {**meta, "kind": "striped"})
        with pytest.raises(PersistError):
            Database(cracking=True, persist_dir=tmp_path)

    def test_concurrent_mutations_replay_in_execution_order(self, tmp_path):
        # The WAL barrier serialises execute+append, so a CREATE/INSERT
        # race between threads can never replay inverted.
        import threading

        db = Database(cracking=True, persist_dir=tmp_path, wal_fsync_every=0)
        db.execute("CREATE TABLE t (v integer)")
        errors: list = []

        def writer(base: int) -> None:
            try:
                for i in range(25):
                    db.execute(f"INSERT INTO t VALUES ({base + i})")
                    if i == 10:
                        db.execute(f"SELECT * INTO t{base} FROM t WHERE v >= {base}")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(b,)) for b in (1000, 2000, 3000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = db.execute("SELECT count(*) FROM t").scalar()
        db.close()
        restored = Database(cracking=True, persist_dir=tmp_path)
        assert restored.execute("SELECT count(*) FROM t").scalar() == total
        restored.close()

    def test_mutation_after_close_refused_before_applying(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        with pytest.raises(PersistError):
            db.execute("INSERT INTO t VALUES (2)")
        # The refused mutation was never applied: memory and the durable
        # image agree, and reads keep working.
        assert db.execute("SELECT count(*) FROM t").scalar() == 1
        with pytest.raises(PersistError):
            db.checkpoint()
        reopened = Database(cracking=True, persist_dir=tmp_path)
        assert reopened.execute("SELECT count(*) FROM t").scalar() == 1
        reopened.close()

    def test_checkpoint_reports_compacted_tail_not_lifetime(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1)")
        first = db.checkpoint()
        assert first["statements_compacted"] == 2
        second = db.checkpoint()  # WAL is empty now
        assert second["statements_compacted"] == 0
        db.execute("INSERT INTO t VALUES (2)")
        third = db.checkpoint()
        assert third["statements_compacted"] == 1
        db.close()

    def test_persistence_stats_shape(self, tmp_path):
        assert Database().persistence_stats() == {"persistent": False}
        db = Database(persist_dir=tmp_path)
        stats = db.persistence_stats()
        assert stats["persistent"]
        assert stats["generation"] == 0
        # What CURRENT names, and the checkpoint writer's state.
        assert stats["durable_generation"] == 0
        assert stats["checkpoint_in_flight"] is False
        assert stats["checkpoint_failures"] == 0
        db.close()

    def test_corrupt_current_fails_loudly(self, tmp_path):
        (tmp_path / "CURRENT").write_text("not-a-number\n")
        with pytest.raises(PersistError):
            Database(persist_dir=tmp_path)

    def test_str_columns_roundtrip_through_snapshot(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE t (name varchar, v integer)")
        db.execute("INSERT INTO t VALUES ('a;b', 1), ('x y', 2), ('a;b', 3)")
        db.checkpoint()
        db.close()
        restored = Database(cracking=True, persist_dir=tmp_path)
        rows = restored.execute("SELECT * FROM t").rows
        assert sorted(rows) == [("a;b", 1), ("a;b", 3), ("x y", 2)]
        restored.close()


# ---------------------------------------------------------------------- #
# Property: restart equivalence over randomized workloads
# ---------------------------------------------------------------------- #


def check_restart_equivalence(seed: int, tmp_path_factory) -> None:
    """Both restart paths reproduce the never-restarted original."""
    config_name = sorted(PERSIST_CONFIGS)[seed % len(PERSIST_CONFIGS)]
    config = PERSIST_CONFIGS[config_name]
    rng = np.random.default_rng(seed)
    workload = random_range_queries(rng, 14, insert_every=3)
    base = tmp_path_factory.mktemp(f"prop-{seed}")

    original = Database(**config)
    snap_db = Database(**config, persist_dir=base / "snap")
    wal_db = Database(**config, persist_dir=base / "wal")
    for db in (original, snap_db, wal_db):
        load_standard(db, seed=seed, n_rows=120)
    run_workload((original, snap_db, wal_db), workload)

    snap_db.checkpoint()
    snap_db.close()
    wal_db.close()

    for directory in (base / "snap", base / "wal"):
        restored = Database(**config, persist_dir=directory)
        assert_databases_agree(original, restored)
        restored.check_invariants()
        restored.close()


if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_restart_equivalence_property(seed, tmp_path_factory):
        check_restart_equivalence(seed, tmp_path_factory)

else:  # pragma: no cover - minimal installs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_restart_equivalence_property(seed, tmp_path_factory):
        check_restart_equivalence(seed, tmp_path_factory)
