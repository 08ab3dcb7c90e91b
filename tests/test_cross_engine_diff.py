"""Cross-engine differential tests: every configuration vs stdlib sqlite3.

The shared :mod:`oracle` harness runs randomized workloads across the
standard configurations and checks every answer against
:class:`oracle.SqliteReference`, up to the :data:`oracle.DIALECT` table
(cracked storage answers in crack order, so order counts only where
ORDER BY fixes it).

Workloads interleave INSERTs, so the merge-on-query update path of each
cracking configuration is exercised too, and a final invariant check
proves the adaptive indexes stayed consistent.
"""

import numpy as np
import pytest

from oracle import (
    ENGINE_CONFIGS,
    SqliteReference,
    assert_matches_sqlite,
    held_result_stream,
    load_standard,
    make_databases,
    pushdown_query_suite,
    random_mixed_dml,
    random_range_queries,
)
from repro.sql import Database
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema


def _loaded(seed: int) -> tuple[dict[str, Database], SqliteReference]:
    databases, reference = make_databases(), SqliteReference()
    assert list(databases) == list(ENGINE_CONFIGS)
    for target in (*databases.values(), reference):
        load_standard(target, seed)
    return databases, reference


@pytest.mark.parametrize("seed", [5, 23, 91])
def test_all_engines_agree_on_random_workload(seed):
    databases, reference = _loaded(seed)
    rng = np.random.default_rng(seed + 500)
    workload = random_range_queries(rng, 40, insert_every=7)
    assert_matches_sqlite(databases, reference, workload)
    for db in databases.values():
        db.check_invariants()


@pytest.mark.parametrize("seed", [11, 47, 83])
def test_all_engines_agree_on_mixed_dml_workload(seed):
    """UPDATE/DELETE interleaved with reads: every engine vs sqlite.

    Exercises the pending-delete/pending-update buffers of every cracking
    configuration (tombstone-aware merges, bounded pieces), then proves
    the adaptive indexes survived the write traffic intact.
    """
    databases, reference = _loaded(seed)
    rng = np.random.default_rng(seed + 900)
    workload = random_mixed_dml(rng, 60)
    assert_matches_sqlite(databases, reference, workload)
    for db in databases.values():
        db.check_invariants()


@pytest.mark.parametrize("seed", [19, 64])
def test_all_engines_agree_on_pushdown_suite(seed):
    """Projection pushdown: scans that gather only referenced columns
    answer like sqlite, which reads whole rows — cold, again once
    cracked, and after the held-result stream's UPDATE/DELETE traffic
    (whose own statements join the differential, so columnar and
    row-native results are compared statement by statement)."""
    databases, reference = _loaded(seed)
    suite = pushdown_query_suite()
    assert_matches_sqlite(databases, reference, suite + suite)
    assert_matches_sqlite(databases, reference, held_result_stream() + suite)
    for db in databases.values():
        db.check_invariants()


def _cracker_storage(db: Database):
    """Every array a cracker of ``db`` administers in place."""
    for column in db.cracked_columns().values():
        yield column.values
        yield column.oids


@pytest.mark.parametrize("cracking", [False, True])
def test_held_result_owns_its_data(cracking):
    """A held bulk result never changes and never aliases engine storage.

    Bulk results are handed over as column arrays.  A cracked answer is
    copied out of cracker storage under the statement lock; a full-scan
    slice views BAT storage, which UPDATE writes in place, and is copied
    once at delivery.  Without those copies the next in-place crack (or
    the merge an UPDATE/DELETE queues) would shuffle a held ``arrays``
    face underneath its holder.
    """
    db = Database(cracking=cracking)
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


@pytest.mark.parametrize(
    "name", [name for name, kwargs in ENGINE_CONFIGS.items() if kwargs.get("cracking", True)]
)
def test_a_crack_between_answer_and_gather_tears_no_row(name, monkeypatch):
    """Another statement's crack lands between a range answer and the
    gather of its sibling column, and every row still pairs its own
    ``k`` with its own ``a``.

    Running the count right after the first sibling gather stands in,
    deterministically, for another thread sharing the database: the
    count cracks the column the SELECT was answered from.
    """
    rows = 20_000
    a = np.random.default_rng(5).permutation(rows)
    db = Database(**ENGINE_CONFIGS[name])
    db.catalog.create_table(
        Relation.from_columns(
            "r",
            Schema([Column("k", "int"), Column("a", "int")]),
            {"k": np.arange(rows, dtype=np.int64), "a": a},
        )
    )
    real = BAT.decoded_array
    interleaved = []

    def gather_then_crack(bat, positions=None):
        gathered = real(bat, positions)
        if not interleaved:
            interleaved.append(
                db.execute("SELECT count(*) FROM r WHERE a BETWEEN 3000 AND 7000").scalar()
            )
        return gathered

    monkeypatch.setattr(BAT, "decoded_array", gather_then_crack)
    result = db.execute("SELECT k, a FROM r WHERE a BETWEEN 2000 AND 8000")
    assert interleaved == [4001]
    assert result.row_count == 6001
    k, got = result.arrays["r.k"], result.arrays["r.a"]
    torn = int(np.count_nonzero(a[k] != got))
    assert torn == 0, f"{torn} of {len(k)} rows pair k with another row's a"
    db.check_invariants()
