"""Tests for the Decomposer (graph creation + per-layer code)."""

from dataclasses import replace

import pytest

from repro.common.errors import GraphError
from repro.core.decomposer import (
    Decomposer,
    KERNEL_NOISE,
    SHAPE_JITTER,
    split_minibatch,
)
from repro.graph.layer import Phase
from repro.models.cnn import tiny_cnn


class TestDecompose:
    def test_units_match_layers(self, toy_model, toy_decomposed):
        assert toy_decomposed.n_layers == toy_model.n_layers
        assert len(toy_decomposed.units) == toy_model.n_layers

    def test_branching_model_sequentialized(self):
        model = tiny_cnn(n_blocks=2)
        decomposed = Decomposer().decompose(model)
        assert decomposed.graph.is_chain()

    def test_deterministic_across_instances(self, toy_model, small_gpu):
        a = Decomposer(seed=3).decompose(toy_model)
        b = Decomposer(seed=3).decompose(toy_model)
        for unit_a, unit_b in zip(a.units, b.units):
            assert unit_a.run_time(small_gpu, Phase.FWD, 4) == (
                unit_b.run_time(small_gpu, Phase.FWD, 4)
            )

    def test_seed_changes_kernel_times(self, toy_model, small_gpu):
        a = Decomposer(seed=0).decompose(toy_model)
        b = Decomposer(seed=1).decompose(toy_model)
        times_a = [u.run_time(small_gpu, Phase.FWD, 4) for u in a.units]
        times_b = [u.run_time(small_gpu, Phase.FWD, 4) for u in b.units]
        assert times_a != times_b

    def test_noise_is_bounded(self, toy_decomposed, small_gpu):
        for unit in toy_decomposed.units:
            for u in (1, 3, 17):
                measured = unit.run_time(small_gpu, Phase.BWD, u)
                exact = small_gpu.compute_time(unit.spec.flops(Phase.BWD, u))
                if exact == 0:
                    continue
                deviation = abs(measured / exact - 1.0)
                assert deviation <= KERNEL_NOISE + SHAPE_JITTER + 1e-9

    def test_true_times_table_is_the_unit_run_times(self, toy_model,
                                                    small_gpu):
        decomposed = Decomposer(seed=2).decompose(toy_model)
        twin = Decomposer(seed=2).decompose(toy_model)
        row = decomposed.true_times(small_gpu, Phase.BWD, 3)
        assert row == tuple(unit.run_time(small_gpu, Phase.BWD, 3)
                            for unit in decomposed.units)
        assert decomposed.true_times(small_gpu, Phase.BWD, 3) is row
        faster = replace(small_gpu, peak_flops=2 * small_gpu.peak_flops)
        assert decomposed.true_times(faster, Phase.BWD, 3) != row
        # The lazily filled table does not take part in equality.
        assert decomposed == twin

    def test_memory_bytes_by_phase(self, toy_decomposed):
        unit = toy_decomposed.units[2]
        assert unit.memory_bytes(Phase.BWD, 4) > unit.memory_bytes(Phase.FWD, 4)


class TestSplitMinibatch:
    def test_even_split(self):
        assert split_minibatch(8, 2) == [2, 2, 2, 2]

    def test_remainder_microbatch(self):
        assert split_minibatch(10, 4) == [4, 4, 2]

    def test_single(self):
        assert split_minibatch(3, 8) == [3]

    def test_bad_inputs(self):
        with pytest.raises(GraphError):
            split_minibatch(0, 4)
        with pytest.raises(GraphError):
            split_minibatch(4, 0)
