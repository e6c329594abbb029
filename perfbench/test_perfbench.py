"""Tests of the benchmark itself: its checks catch wrong outputs, its
traced self times add up, and its metric names match ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads are shrunk to toy models so the suite takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from repro.analysis.inject import inject_cycle
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class ToyZoo(workloads.PlanZoo):
    CASES = (("toy-transformer", "pp"), ("tiny-cnn", "dp"))
    GPUS = 2
    MINIBATCH = 8
    pass_size = len(CASES)
    min_calls = 6 * pass_size
    max_calls = 6 * pass_size
    trace_calls = pass_size


class ToyTrain(workloads.TrainMassive):
    CASES = (("toy-transformer", "pp", 8), ("tiny-cnn", "dp", 8))
    GPUS = 2
    pass_size = len(CASES)
    min_calls = 6 * pass_size
    max_calls = 6 * pass_size
    trace_calls = pass_size


class ToyServe(workloads.ServeFleet):
    REQUESTS = 40
    min_calls = 11
    max_calls = 11
    trace_calls = 2


class ShortChaos(workloads.ChaosRecover):
    min_calls = 11
    max_calls = 11
    trace_calls = 2


def measured(cls, seed: int = 3) -> tuple[run.Measurement, object]:
    workload = cls()
    workload.setup(seed)
    m = run.measure(workload, 0.0, cls.min_calls, cls.max_calls)
    run.finish(workload, m)
    return m, workload


@pytest.mark.parametrize("cls", [ToyZoo, ToyTrain, ToyServe, ShortChaos])
def test_correct_outputs_pass_every_check(cls):
    m, _ = measured(cls)
    assert m.failed == 0, m.problems
    assert m.attempted == cls.min_calls + 1


# -- each check, fed a deliberately wrong output, counts a failure ---------------


def test_plan_zoo_counts_an_analyzer_error():
    class Broken(ToyZoo):
        def call(self, index):
            case, harmony, plan = super().call(index)
            if index == 0:
                inject_cycle(plan.graph, harmony.options.schedule_options())
            return case, harmony, plan

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("deadlock/cycle" in p for p in m.problems)


def test_plan_zoo_counts_a_changed_estimate():
    class Broken(ToyZoo):
        def call(self, index):
            case, harmony, plan = super().call(index)
            if index == 3:
                plan.search.best_estimate *= 1 + 2**-40
            return case, harmony, plan

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("best_estimate" in p for p in m.problems)


def test_train_massive_counts_a_changed_iteration_time():
    class Broken(ToyTrain):
        def call(self, index):
            case, metrics = super().call(index)
            if index == 4:
                metrics.iteration_time = metrics.iteration_time * (1 + 2**-40)
            return case, metrics

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("iteration_time" in p for p in m.problems)


def test_serve_fleet_counts_a_lost_request():
    class Broken(ToyServe):
        def call(self, index):
            service, results = super().call(index)
            return service, results[:-1] if index == 2 else results

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("39 of 40 requests resolved" in p for p in m.problems)


def test_serve_fleet_counts_a_fleet_left_occupied():
    class Broken(ToyServe):
        def call(self, index):
            service, results = super().call(index)
            if index == 1:
                service.fleet.reserve("intruder", 2)
            return service, results

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("fleet occupancy" in p for p in m.problems)


def test_serve_fleet_counts_a_nondeterministic_replay():
    class Broken(ToyServe):
        def finish(self):
            self.snapshot0 = self.snapshot0.replace("0", "1", 1)
            return super().finish()

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("replaying storm 0" in p for p in m.problems)


def test_chaos_recover_counts_a_bad_run_and_a_changed_rerun():
    class Broken(ShortChaos):
        def call(self, index):
            device, cluster, cluster_metrics = super().call(index)
            if index == 5 and not isinstance(device, Exception):
                device.iteration_time = 0.0
            return device, cluster, cluster_metrics

        def finish(self):
            self.first += " "
            return super().finish()

    m, _ = measured(Broken)
    assert m.failed == 2
    assert any("non-positive iteration time" in p for p in m.problems)
    assert any("rerunning seed 0" in p for p in m.problems)


def test_a_crashing_call_is_counted_not_raised():
    class Broken(ToyTrain):
        def call(self, index):
            if index == 2:
                raise RuntimeError("boom")
            return super().call(index)

    m, _ = measured(Broken)
    assert m.failed == 1
    assert any("RuntimeError: boom" in p for p in m.problems)


# -- tracing ---------------------------------------------------------------------


@pytest.mark.parametrize("cls", [ToyZoo, ToyTrain, ToyServe, ShortChaos])
def test_self_times_of_each_call_sum_within_its_wall_time(cls):
    workload = cls()
    workload.setup(5)
    with Tracer() as tracer:
        m = run.measure(workload, 0.0, cls.trace_calls, cls.trace_calls,
                        tracer=tracer)
    assert m.failed == 0, m.problems
    own = tracer.self_times()
    calls = [i for i, s in enumerate(tracer.spans) if s[0] == "call"]
    assert len(calls) == cls.trace_calls
    inside: dict[int, float] = {i: 0.0 for i in calls}
    for index, span in enumerate(tracer.spans):
        assert own[index] >= -1e-9, span
        root = tracer.root_of(index)
        if index != root and root in inside:
            inside[root] += own[index]
    for root in calls:
        wall = tracer.spans[root][2] - tracer.spans[root][1]
        assert 0.0 < inside[root] <= wall + 1e-9


def test_tracer_restores_every_entry_point():
    from repro.core.harmony import Harmony
    from repro.faults.plan import FaultPlan, ScriptedFaultPlan
    from repro.models import zoo

    before = (Harmony.plan, FaultPlan.gpu_loss, ScriptedFaultPlan.gpu_loss,
              zoo.build_model)
    with Tracer():
        assert Harmony.plan is not before[0]
        assert ScriptedFaultPlan.gpu_loss is not before[2]
    assert (Harmony.plan, FaultPlan.gpu_loss, ScriptedFaultPlan.gpu_loss,
            zoo.build_model) == before


# -- the output contract ---------------------------------------------------------


def test_end_to_end_metrics_match_benchmark_json():
    m, metrics = run.end_to_end(ToyTrain, 1, 0.0, import_s=0.1)
    assert m.failed == 0, m.problems
    expected = {e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == expected
    assert all(v > 0 for v, _ in metrics.values())


def test_per_layer_metrics_match_benchmark_json():
    m, metrics = run.per_layer(ShortChaos, 1, 0.0)
    assert m.failed == 0, m.problems
    expected = {e["name"]: e["unit"] for e in BENCH["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == expected
    for name in ("faults.injected", "elastic.replans", "cluster.replans",
                 "sim.events", "timemodel.calls"):
        assert metrics[name][0] > 0, name


def test_layers_json_maps_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(e["name"] for e in BENCH["per_layer"])
    workload_names = {w["name"] for w in BENCH["workloads"]}
    metric_names = {e["name"] for e in BENCH["end_to_end"]}
    for layer in layers["layers"]:
        assert set(layer["no_change_on"]) <= workload_names
        for move in layer["moves"]:
            assert move["workload"] in workload_names
            assert move["metric"] in metric_names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-zoo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
