"""Tests for the ground-truth time model."""

import pytest

import repro.core.decomposer as decomposer
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import DEFAULT_SAMPLE_SIZES
from repro.core.types import Task, TaskKind
from repro.experiments.common import server_for
from repro.graph.layer import Phase
from repro.perf import DISABLE_ENV
from repro.runtime.timemodel import TrueTimeModel


@pytest.fixture
def time_model(toy_decomposed, small_server):
    return TrueTimeModel(toy_decomposed, small_server.gpu, small_server.host,
                         n_gpus=small_server.n_gpus)


def make_task(kind, first=1, last=3, fused=False, recompute=True,
              on_cpu=False, flops=0.0):
    return Task(tid=0, kind=kind, first_layer=first, last_layer=last,
                device=0, microbatches=(2, 2), fused=fused,
                recompute=recompute, on_cpu=on_cpu, compute_flops=flops)


class TestMicrobatchTime:
    def test_bwd_with_recompute_costs_fwd_plus_bwd(self, time_model):
        plain = make_task(TaskKind.BWD, recompute=False)
        remat = make_task(TaskKind.BWD, recompute=True)
        fwd = make_task(TaskKind.FWD)
        assert time_model.microbatch_time(remat, 2) == pytest.approx(
            time_model.microbatch_time(plain, 2)
            + time_model.microbatch_time(fwd, 2)
        )

    def test_fused_equals_recompute_cost(self, time_model):
        fused = make_task(TaskKind.BWD, fused=True, recompute=False)
        remat = make_task(TaskKind.BWD, fused=False, recompute=True)
        assert time_model.microbatch_time(fused, 2) == pytest.approx(
            time_model.microbatch_time(remat, 2)
        )

    def test_update_task_rejected_here(self, time_model):
        with pytest.raises(ValueError):
            time_model.microbatch_time(make_task(TaskKind.UPD), 1)


class TestUpdateTime:
    def test_cpu_update_uses_host_model(self, time_model, small_server):
        task = make_task(TaskKind.UPD, on_cpu=True, flops=1e9)
        cores = small_server.host.cores // small_server.n_gpus
        assert time_model.update_time(task) == pytest.approx(
            small_server.host.optimizer_time(1e9, cores)
        )

    def test_gpu_update_sums_layer_times(self, time_model):
        task = make_task(TaskKind.UPD, on_cpu=False)
        assert time_model.update_time(task) > 0

    def test_non_update_rejected(self, time_model):
        with pytest.raises(ValueError):
            time_model.update_time(make_task(TaskKind.FWD))


class TestTaskTotal:
    def test_group_sums_microbatches(self, time_model):
        task = make_task(TaskKind.FWD)
        total = time_model.task_compute_time(task)
        per_mb = time_model.microbatch_time(task, 2)
        assert total == pytest.approx(2 * per_mb)


def _planned(model):
    harmony = Harmony(model, server_for(4), 32,
                      options=HarmonyOptions(mode="pp", search_workers=1))
    return harmony, harmony.plan()


def _time_model(harmony, plan):
    server = harmony.server
    return TrueTimeModel(plan.decomposed, server.gpu, server.host,
                         n_gpus=server.n_gpus)


def _naive_pack(plan, gpu, task, phase, u):
    return sum(plan.decomposed.units[i].run_time(gpu, phase, u)
               for i in task.layers)


class TestTrueTimeTable:
    """The table-backed model is bit-identical to the naive per-kernel
    ``run_time`` sums it replaces, and draws no kernel noise once the
    plan has been profiled and run."""

    @pytest.mark.parametrize("model", ["resnet1k", "gpt2"])
    def test_every_task_matches_the_naive_sums(self, model, monkeypatch):
        harmony, plan = _planned(model)
        fast = _time_model(harmony, plan)
        monkeypatch.setenv(DISABLE_ENV, "1")
        slow = _time_model(harmony, plan)
        gpu = harmony.server.gpu
        for task in plan.graph.tasks:
            if task.kind is TaskKind.UPD:
                if not task.on_cpu:
                    naive = _naive_pack(plan, gpu, task, Phase.UPD, 1)
                    assert fast.update_time(task).hex() == naive.hex()
                assert fast.update_time(task).hex() == (
                    slow.update_time(task).hex())
                continue
            # Beyond the planned sizes, ragged ones (a remainder
            # microbatch) share the pack but not the memo entry.
            for u in (*task.microbatches, 1, 3):
                want = slow.microbatch_time(task, u).hex()
                # Twice: the first call fills the pack memo, later ones
                # are served from it.
                assert fast.microbatch_time(task, u).hex() == want
                assert fast.microbatch_time(task, u).hex() == want
                if task.kind is TaskKind.FWD:
                    naive = _naive_pack(plan, gpu, task, Phase.FWD, u)
                    assert fast.microbatch_time(task, u).hex() == naive.hex()
            assert fast.task_compute_time(task).hex() == (
                slow.task_compute_time(task).hex())

    def test_noise_drawn_once_per_plan(self, monkeypatch):
        draws = []
        noise = decomposer._noise

        def counted(*args):
            draws.append(args)
            return noise(*args)

        monkeypatch.setattr(decomposer, "_noise", counted)
        harmony = Harmony("toy-transformer", server_for(2), 8,
                          options=HarmonyOptions(mode="pp", search_workers=1))
        plan = harmony.plan()
        n_layers = plan.decomposed.n_layers
        assert len(draws) == n_layers * (2 * len(DEFAULT_SAMPLE_SIZES) + 1)
        harmony.run(plan=plan, iterations=2)
        draws.clear()
        harmony.run(plan=plan, iterations=2)
        assert draws == []

    def test_disabled_model_draws_per_kernel(self, toy_decomposed,
                                             small_server, monkeypatch):
        """The ``REPRO_PERF_DISABLE=1`` oracle really is the naive path."""
        monkeypatch.setenv(DISABLE_ENV, "1")
        model = TrueTimeModel(toy_decomposed, small_server.gpu,
                              small_server.host, n_gpus=small_server.n_gpus)
        draws = []
        noise = decomposer._noise
        monkeypatch.setattr(decomposer, "_noise",
                            lambda *a: draws.append(a) or noise(*a))
        task = make_task(TaskKind.FWD)
        model.microbatch_time(task, 2)
        model.microbatch_time(task, 2)
        assert len(draws) == 2 * task.n_layers
