"""Bit-identity regression: the perf caches must not move a single bit.

Every optimization behind :func:`repro.perf.perf_enabled` promises that
planner and simulator outputs are *bit-identical* with caches on
(default) and off (``REPRO_PERF_DISABLE=1``).  This suite holds that
promise down to ``float.hex()`` on the small zoo models in both
execution modes: the chosen configuration, the best estimate, every
explored candidate's estimate, the full task graph shape, the simulated
iteration time, and the canonical execution trace.

``perf_enabled`` is consulted at object construction time, so flipping
the environment variable and building a fresh ``Harmony`` per arm is
sufficient -- no subprocess needed.
"""

import json
from dataclasses import asdict

import pytest

from repro.common.errors import FaultError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.perf import DISABLE_ENV
from repro.trace import TraceRecorder

MATRIX = (
    ("toy-transformer", "pp"),
    ("toy-transformer", "dp"),
    ("tiny-cnn", "pp"),
    ("tiny-cnn", "dp"),
)
GPUS = 2
MINIBATCH = 8


def _fingerprint(model, mode, monkeypatch, disable, workers=1):
    """Plan + run one cell and capture every output, floats as hex."""
    if disable:
        monkeypatch.setenv(DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    harmony = Harmony(
        model, server_for(GPUS), MINIBATCH,
        options=HarmonyOptions(mode=mode, search_workers=workers),
    )
    plan = harmony.plan()
    recorder = TraceRecorder()
    report = harmony.run(plan=plan, trace=recorder)
    return {
        "config": plan.search.best,
        "best_estimate": plan.search.best_estimate.hex(),
        "explored": tuple(
            (e.config, e.estimate.hex()) for e in plan.search.explored
        ),
        "n_feasible": plan.search.n_feasible,
        "n_infeasible": plan.search.n_infeasible,
        "tasks": tuple(
            (t.tid, t.kind, t.device, t.first_layer, t.last_layer,
             t.microbatches)
            for t in plan.graph.tasks
        ),
        "iteration_time": report.metrics.iteration_time.hex(),
        "trace": recorder.canonical(),
    }


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_caches_are_bit_identical_to_disabled(model, mode, monkeypatch):
    fast = _fingerprint(model, mode, monkeypatch, disable=False)
    slow = _fingerprint(model, mode, monkeypatch, disable=True)
    for field in fast:
        assert fast[field] == slow[field], (
            f"{model}/{mode}: {field} diverged between cached and "
            f"{DISABLE_ENV}=1 runs -- a perf cache changed an output bit"
        )


def _chaos_fingerprint(monkeypatch, disable, seed):
    """One seeded ``FaultSpec.chaos(1.0)`` run: its metrics as exact text,
    or the typed fault it ended in."""
    if disable:
        monkeypatch.setenv(DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    harmony = Harmony(
        "toy-transformer", server_for(GPUS), MINIBATCH,
        options=HarmonyOptions(mode="pp", search_workers=1),
    )
    plan = harmony.plan()
    try:
        report = harmony.run(
            plan=plan, iterations=2,
            fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=seed),
        )
    except FaultError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(asdict(report.metrics), sort_keys=True, default=repr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_run_is_bit_identical_to_disabled(seed, monkeypatch):
    """Retries, crashes and slowdowns re-time tasks through the same
    true-time tables; the chaos metrics must not move a bit either."""
    fast = _chaos_fingerprint(monkeypatch, disable=False, seed=seed)
    slow = _chaos_fingerprint(monkeypatch, disable=True, seed=seed)
    assert fast == slow


def _storm_fingerprint(monkeypatch, disable, seed):
    """One seeded fleet + chaos storm through the planner service: the
    metrics snapshot, every outcome with its latency bits, and the
    fleet's final state.  Some requests also execute their plan, so the
    shared decompositions' true-time tables are exercised too."""
    from repro.fleet import FleetPlacer, fleet_of
    from repro.service import (
        PlannerService,
        ServiceChaosSpec,
        ServiceConfig,
        ServiceFaultPlan,
        scripted_workload,
    )

    if disable:
        monkeypatch.setenv(DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    service = PlannerService(
        ServiceConfig(workers=3),
        options=HarmonyOptions(search_workers=1),
        chaos=ServiceFaultPlan(ServiceChaosSpec.chaos(1.0), seed=seed),
        seed=seed, fleet=FleetPlacer(fleet_of(2, 4)),
    )
    results = service.run(scripted_workload(
        100, seed=seed, gpus=(2, 4), shares=(1.0, 0.5),
        execute_fraction=0.2,
    ))
    return json.dumps({
        "metrics": service.metrics.snapshot(),
        "fleet": service.fleet.snapshot(),
        "results": [
            (r.outcome.value, r.latency.hex(), r.plan_key, r.attempts,
             r.run_seconds.hex())
            for r in results
        ],
    }, sort_keys=True)


def test_service_storm_is_bit_identical_to_disabled(monkeypatch):
    """The service's shared profiles and per-shape key memo are perf
    caches too: with them off every fresh plan profiles afresh, and the
    storm must not move a bit."""
    fast = _storm_fingerprint(monkeypatch, disable=False, seed=3)
    slow = _storm_fingerprint(monkeypatch, disable=True, seed=3)
    assert fast == slow


def test_parallel_search_is_bit_identical_to_serial(monkeypatch):
    """workers=2 fans candidate evaluation over a fork pool; the reduce
    must pick the same winner with the same bits as the serial sweep."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable on this platform")
    serial = _fingerprint("toy-transformer", "pp", monkeypatch,
                          disable=False, workers=1)
    parallel = _fingerprint("toy-transformer", "pp", monkeypatch,
                            disable=False, workers=2)
    for field in serial:
        assert serial[field] == parallel[field], (
            f"{field} diverged between serial and workers=2 search"
        )


def test_disable_env_truthy_forms(monkeypatch):
    """The escape hatch accepts the documented truthy spellings."""
    from repro.perf import perf_enabled

    for raw in ("1", "true", "YES", " on "):
        monkeypatch.setenv(DISABLE_ENV, raw)
        assert not perf_enabled(), raw
    for raw in ("", "0", "no", "off"):
        monkeypatch.setenv(DISABLE_ENV, raw)
        assert perf_enabled(), raw
