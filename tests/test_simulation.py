"""Tests for the §2.2 vector simulation and cost model (Figures 2/3)."""

import pytest

from repro.errors import BenchmarkError
from repro.simulation.cost_model import CostModel
from repro.simulation.vector_sim import (
    VectorCrackingSimulation,
    accumulated_cost_ratio,
    fractional_write_overhead,
)


class TestCostModel:
    def test_scan_query_cost(self):
        model = CostModel()
        assert model.scan_query_cost(100, 10) == 110
        assert model.scan_query_cost(100, 10, count_only=True) == 100

    def test_crack_query_cost(self):
        model = CostModel()
        assert model.crack_query_cost(50, 50, 10) == 110  # 50+10 reads, 50 writes

    def test_crack_materialise_adds_answer_writes(self):
        model = CostModel()
        counting = model.crack_query_cost(50, 50, 10, count_only=True)
        materialising = model.crack_query_cost(50, 50, 10, count_only=False)
        assert materialising == counting + 10

    def test_weights_respected(self):
        model = CostModel(read_weight=2.0, write_weight=0.5)
        assert model.scan_query_cost(10, 4) == 22.0

class TestVectorSimulation:
    def test_first_query_rewrites_everything(self):
        sim = VectorCrackingSimulation(10_000, seed=0)
        record = sim.run_query(1, 0.1)
        # Crack-in-three of the virgin vector: the whole piece rewritten.
        assert record.moved == 10_000 or record.moved == 10_000 - record.answer
        assert record.moved / sim.n >= 0.9

    def test_piece_count_grows(self):
        sim = VectorCrackingSimulation(10_000, seed=0)
        sim.run(10, 0.05)
        assert len(sim.cracks) + 1 > 10  # pieces

    def test_piece_sizes_partition_vector(self):
        sim = VectorCrackingSimulation(10_000, seed=0)
        sim.run(10, 0.05)
        assert sim.cracks == sorted(set(sim.cracks))
        assert all(0 < crack < sim.n for crack in sim.cracks)

    def test_repeated_boundary_is_free(self):
        sim = VectorCrackingSimulation(1000, seed=0)
        touched, moved = sim._crack_at(500)
        assert touched == 1000
        touched2, moved2 = sim._crack_at(500)
        assert (touched2, moved2) == (0, 0)

    def test_edge_positions_are_free(self):
        sim = VectorCrackingSimulation(1000, seed=0)
        assert sim._crack_at(0) == (0, 0)
        assert sim._crack_at(1000) == (0, 0)

    def test_overhead_decays(self):
        series = fractional_write_overhead(100_000, 20, 0.05, repetitions=5)
        assert series[0] == pytest.approx(1.0, abs=0.05)
        assert series[-1] < series[0] / 3

    def test_invalid_selectivity_rejected(self):
        sim = VectorCrackingSimulation(100)
        with pytest.raises(BenchmarkError):
            sim.run_query(1, 0.0)
        with pytest.raises(BenchmarkError):
            sim.run_query(1, 1.5)

    def test_invalid_size_rejected(self):
        with pytest.raises(BenchmarkError):
            VectorCrackingSimulation(0)


class TestFigureShapes:
    def test_fig3_starts_above_one(self):
        ratio = accumulated_cost_ratio(100_000, 20, 0.05, repetitions=5)
        assert ratio[0] > 1.0

    def test_fig3_breakeven_for_selective_queries(self):
        ratio = accumulated_cost_ratio(100_000, 20, 0.05, repetitions=5)
        assert min(ratio) < 1.0  # cracking wins within 20 steps

    def test_fig3_no_breakeven_for_unselective_queries(self):
        ratio = accumulated_cost_ratio(100_000, 20, 0.8, repetitions=5)
        assert ratio[-1] > 1.0  # 80% selectivity never amortises in 20 steps

    def test_fig3_ratio_decreases_over_time(self):
        ratio = accumulated_cost_ratio(100_000, 20, 0.1, repetitions=5)
        assert ratio[-1] < ratio[0]
