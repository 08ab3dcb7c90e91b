"""Cross-module integration tests: full paper workflows end to end."""

import numpy as np
import pytest

from repro.benchmark import DBtapestry, MQS, homerun_sequence, run_sequence
from repro.core import (
    CrackedColumn,
    LineageGraph,
    psi_crack,
    wedge_crack,
    xi_crack_range,
)
from repro.engines import ColumnStoreEngine, CrackingEngine, SQLCrackingEngine
from repro.sql import Database
from repro.storage.transaction import TransactionManager


class TestPaperSection2:
    """§2: a query both answers and reorganises."""

    def test_query_as_reorganisation_advice(self):
        tapestry = DBtapestry(10_000, seed=0)
        column = CrackedColumn(tapestry.build_relation("R").column("a"))
        result = column.range_select(1, 1000, high_inclusive=True)
        assert result.count == 1000
        # The column is now physically partitioned around the bounds.
        sizes = column.index.piece_sizes()
        assert sizes[0] + sizes[1] + sizes[2] == 10_000
        assert 1000 in sizes


class TestPaperSection3:
    """§3: cracker index + lineage through a realistic sequence."""

    def test_figure5_lineage_counts(self, rng):
        from repro.storage.table import Column, Relation, Schema

        schema = Schema([Column("k", "int"), Column("a", "int")])
        R = Relation.from_columns(
            "R", schema,
            {"k": rng.permutation(100) + 1, "a": rng.permutation(100) + 1},
        )
        S = Relation.from_columns(
            "S", schema,
            {"k": rng.permutation(100) + 1, "a": rng.permutation(100) + 1},
        )
        graph = LineageGraph()
        root_r, root_s = graph.add_base(R), graph.add_base(S)
        xi1 = xi_crack_range(R, "a", 1, 9)
        pieces = graph.record(xi1.op, xi1.params, [root_r], xi1.pieces)
        wedge = wedge_crack(pieces[1].relation, S, "k", "k")
        graph.record(wedge.op, wedge.params, [pieces[1], root_s], wedge.pieces)
        assert graph.verify_lossless(root_r)
        assert graph.verify_lossless(root_s)
        # Two cracks on R's lineage: Ξ produced 3, ^ produced 2 more.
        r_pieces = [n for n in graph.nodes() if n.node_id.startswith("R[")]
        assert len(r_pieces) == 5


class TestPaperSection5:
    """§5: the three experimental settings, miniaturised."""

    def test_sql_level_vs_kernel_level_cracking_cost(self):
        tapestry = DBtapestry(5000, seed=1)
        sql_engine = SQLCrackingEngine()
        kernel_engine = CrackingEngine()
        for engine in (sql_engine, kernel_engine):
            engine.load(tapestry.build_relation("R"))
        sql_outcome = sql_engine.range_query("R", "a", 100, 350, delivery="materialise")
        kernel_outcome = kernel_engine.range_query("R", "a", 100, 350, delivery="count")
        assert sql_outcome.rows == 251
        # SQL-level cracking pays per-tuple WAL for every piece; the
        # kernel-level cracker writes no WAL at all for a count query.
        assert sql_outcome.io.wal_bytes > 0
        assert kernel_outcome.io.wal_bytes == 0
        assert sql_outcome.io.page_writes > kernel_outcome.io.page_writes

    def test_homerun_crack_beats_scan(self):
        tapestry = DBtapestry(1_000_000, seed=2)
        mqs = MQS(alpha=2, n=1_000_000, k=64, sigma=0.05, rho="exponential")
        queries = homerun_sequence(mqs, attr="a", seed=2)
        crack = CrackingEngine()
        scan = ColumnStoreEngine()
        for engine in (crack, scan):
            engine.load(tapestry.build_relation("R"))
        crack_result = run_sequence(crack, "R", queries)
        scan_result = run_sequence(scan, "R", queries)
        assert crack_result.steps[-1].rows == scan_result.steps[-1].rows
        assert crack_result.total_s < scan_result.total_s

    def test_transaction_protected_cracking_rollback(self):
        tapestry = DBtapestry(2000, seed=3)
        bat = tapestry.build_relation("R").column("a")
        manager = TransactionManager()
        original = bat.tail_array().copy()
        with pytest.raises(RuntimeError):
            with manager.begin() as txn:
                txn.protect(bat)
                # Shuffle the BAT in place as the MonetDB cracker would.
                bat.tail_array()[:] = np.sort(bat.tail_array())
                raise RuntimeError("abort mid-crack")
        assert np.array_equal(bat.tail_array(), original)
        assert manager.aborted == 1


class TestFullStack:
    def test_sql_database_runs_tapestry_benchmark(self):
        tapestry = DBtapestry(300, arity=2, seed=4)
        database = Database(cracking=True, crack_threshold=0)
        database.execute_script(tapestry.to_sql_script("tap", batch=64))
        mqs = MQS(alpha=2, n=300, k=6, sigma=0.1)
        for query in homerun_sequence(mqs, attr="a", seed=4):
            sql = (
                f"SELECT count(*) FROM tap WHERE a BETWEEN {query.low} "
                f"AND {query.high}"
            )
            assert database.execute(sql).scalar() == query.width
        assert database.piece_count("tap", "a") > 1

    def test_psi_then_xi_composition(self, rng):
        from repro.storage.table import Column, Relation, Schema

        schema = Schema([Column("k", "int"), Column("a", "int"), Column("b", "int")])
        relation = Relation.from_columns(
            "R", schema,
            {
                "k": rng.permutation(200) + 1,
                "a": rng.permutation(200) + 1,
                "b": rng.permutation(200) + 1,
            },
        )
        graph = LineageGraph()
        root = graph.add_base(relation)
        psi = psi_crack(relation, ["a"])
        nodes = graph.record(psi.op, psi.params, [root], psi.pieces)
        xi = xi_crack_range(nodes[0].relation, "a", 50, 100)
        graph.record(xi.op, xi.params, [nodes[0]], xi.pieces)
        assert graph.verify_lossless(root)
