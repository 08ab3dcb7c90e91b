"""Cross-engine differential tests: every configuration vs the row store.

The shared :mod:`oracle` harness runs randomized workloads across the
standard configurations — row-store scanning (no cracking), tuple-mode
cracking and vector-mode cracking — and asserts
identical *sorted* result sets at every statement (cracked storage
answers in crack order, so only set equality is engine-independent).

Workloads interleave INSERTs, so the merge-on-query update path of each
cracking configuration is exercised against the scan oracle too, and a
final invariant check proves the adaptive indexes stayed consistent.
"""

import numpy as np
import pytest

from oracle import (
    ENGINE_CONFIGS,
    assert_engines_agree,
    held_result_stream,
    load_standard,
    make_databases,
    pushdown_query_suite,
    random_mixed_dml,
    random_range_queries,
)
from repro.sql import Database


@pytest.mark.parametrize("seed", [5, 23, 91])
def test_all_engines_agree_on_random_workload(seed):
    databases = make_databases()
    assert list(databases) == list(ENGINE_CONFIGS)
    for db in databases.values():
        load_standard(db, seed)
    rng = np.random.default_rng(seed + 500)
    workload = random_range_queries(rng, 40, insert_every=7)
    assert_engines_agree(databases, workload)
    for db in databases.values():
        db.check_invariants()


@pytest.mark.parametrize("seed", [11, 47, 83])
def test_all_engines_agree_on_mixed_dml_workload(seed):
    """UPDATE/DELETE interleaved with reads: every engine vs the scan oracle.

    Exercises the pending-delete/pending-update buffers of every cracking
    configuration (tombstone-aware merges, bounded pieces)
    against the row store, then proves the adaptive indexes survived the
    write traffic intact.
    """
    databases = make_databases()
    for db in databases.values():
        load_standard(db, seed)
    rng = np.random.default_rng(seed + 900)
    workload = random_mixed_dml(rng, 60)
    assert_engines_agree(databases, workload)
    for db in databases.values():
        db.check_invariants()


@pytest.mark.parametrize("seed", [19, 64])
def test_all_engines_agree_on_pushdown_suite(seed):
    """Projection pushdown: scans that gather only referenced columns
    answer like the tuple engines that reconstruct whole rows — cold,
    again once cracked, and after the held-result stream's UPDATE/DELETE
    traffic (whose own statements join the differential, so columnar
    and row-native results are compared statement by statement)."""
    databases = make_databases()
    for db in databases.values():
        load_standard(db, seed)
    suite = pushdown_query_suite()
    assert_engines_agree(databases, suite + suite)
    assert_engines_agree(databases, held_result_stream() + suite)
    for db in databases.values():
        db.check_invariants()


def _cracker_storage(db: Database):
    """Every array a cracker of ``db`` administers in place."""
    for column in db.cracked_columns().values():
        yield column.values
        yield column.oids


@pytest.mark.parametrize("concurrent", [False, True])
def test_held_result_owns_its_data(concurrent):
    """A held bulk result never changes and never aliases engine storage.

    Vector-mode results are handed over as column arrays, and the
    cracked span / full-scan slices they start from are *views* of
    cracker and BAT storage: each is copied once at delivery.  Without
    that copy the next in-place crack (or the merge an UPDATE/DELETE
    queues) shuffles a held ``arrays`` face underneath its holder — and
    under ``concurrent=True`` a held result would pin the copy-on-write
    storage generation it was answered from.
    """
    db = Database(cracking=True, mode="vector", concurrent=concurrent)
    load_standard(db, seed=61)
    relation = db.catalog.table("r")
    held = []  # (result, frozen copy of each array, frozen rows)

    def check_held() -> None:
        stores = list(_cracker_storage(db)) + [
            relation.column(name).tail_array() for name in relation.schema.names()
        ]
        for result, arrays, rows in held:
            for name, array in result.arrays.items():
                assert array.tolist() == arrays[name].tolist(), name
                assert array.dtype == arrays[name].dtype
                assert not any(np.shares_memory(array, store) for store in stores)
            assert result.rows == rows

    for statement in held_result_stream():
        result = db.execute(statement)
        if result.row_count > 16:  # every bulk answer along the way is held
            arrays = {name: array.copy() for name, array in result.arrays.items()}
            held.append((result, arrays, list(result.rows)))
        check_held()
    assert len(held) >= 6
    assert all(type(v) in (int, float, str) for row in held[0][2] for v in row)
    db.check_invariants()


def test_concurrent_snapshot_mode_agrees():
    """concurrent=True (snapshotted answers) changes nothing semantically."""
    databases = make_databases(
        {
            "plain": dict(cracking=True, mode="vector"),
            "concurrent": dict(cracking=True, mode="vector", concurrent=True),
        }
    )
    for db in databases.values():
        load_standard(db, seed=29)
    rng = np.random.default_rng(292)
    assert_engines_agree(
        databases, random_range_queries(rng, 20, insert_every=4), ordered=True
    )
