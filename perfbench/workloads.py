"""The benchmark's workloads: seeded inputs, timed calls, output checks.

Each workload turns ``--seed`` into the program's inputs (model names,
minibatches, request storms, fault plans), then exposes one *call* -- the
unit the runner times -- plus the checks that prove each call's output
correct.  Everything runs in one process with one planner worker
(``HarmonyOptions(search_workers=1)``).

Calls are grouped in *passes* of ``pass_size``.  Where calls differ in
kind (plan-zoo's five models, train-massive's three plans) every pass
holds one of each, in a seeded order, and the runner only stops after
whole passes, so the median and tail always fall on the same kind of
call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, replace
from typing import Any

from repro import Harmony, HarmonyOptions
from repro.analysis import analyze
from repro.cluster import (
    ClusterFaultSpec,
    ClusterPlanner,
    ClusterRunner,
    ScriptedClusterFaultPlan,
    homogeneous_cluster,
)
from repro.common.errors import FaultError
from repro.core.types import TaskKind
from repro.experiments.common import server_for
from repro.faults import FaultSpec, ScriptedFaultPlan
from repro.fleet import FleetPlacer, fleet_of
from repro.models import zoo
from repro.service import (
    Outcome,
    PlannerService,
    ServiceChaosSpec,
    ServiceConfig,
    ServiceFaultPlan,
    scripted_workload,
)
from repro.service.workload import DEFAULT_MODELS
from repro.trace import TraceRecorder

OPTIONS = HarmonyOptions(search_workers=1)

#: The memoized model builder, captured before a tracer wraps the
#: module attribute (the wrapper has no ``cache_clear``).
_BUILD_MODEL = zoo.build_model


def build_models(names: tuple[str, ...]) -> None:
    """Build ``names`` from scratch (set-up pays the cold build)."""
    _BUILD_MODEL.cache_clear()
    for name in names:
        zoo.build_model(name)


def derived_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th generated input of a run."""
    return random.Random(f"{seed}/{index}").getrandbits(31)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fingerprint(value: Any) -> str:
    """Exact text of a metrics record; ``repr`` of a float round-trips,
    so equal fingerprints mean ``float.hex``-identical numbers."""
    return json.dumps(value, sort_keys=True, default=repr)


class Workload:
    """One named workload; see the module docstring for the contract."""

    name = ""
    #: what one throughput unit is
    unit = ""
    #: calls per pass; runs stop only on whole passes
    pass_size = 1
    #: bounds on calls per untraced run (whole passes)
    min_calls = 1
    max_calls = 10**6
    #: calls per phase of a traced run
    trace_calls = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def call(self, index: int) -> Any:
        raise NotImplementedError

    def units(self, result: Any) -> int:
        return 1

    def check(self, index: int, result: Any) -> list[str]:
        """Problems with one call's output (empty when correct).  Runs
        outside the timed region and records what :meth:`sim_rates` and
        :meth:`facts` report."""
        return []

    def finish(self) -> list[str]:
        """Run-level checks after the last call (e.g. a seeded replay)."""
        return []

    def sim_rates(self) -> list[float]:
        """``RunMetrics.throughput`` of the workload's fixed case set."""
        raise NotImplementedError

    def facts(self, calls: int) -> dict[str, float]:
        """Per-layer outcome facts gathered by :meth:`check` over
        ``calls`` checked calls; counts are per call."""
        return {}

    def recorder_overhead(self) -> float:
        """Extra host seconds of one call with a ``TraceRecorder``
        attached; only train-massive measures it."""
        return 0.0


class PlanZoo(Workload):
    """Table 1's scheduler time: a fresh ``Harmony.plan()`` per call."""

    name = "plan-zoo"
    unit = "plans"
    CASES = (("gpt2", "pp"), ("gpt2", "dp"), ("bert96", "pp"),
             ("resnet1k", "pp"), ("vgg416", "pp"))
    GPUS = 4
    MINIBATCH = 32
    pass_size = len(CASES)
    # Exactly seven passes: the tail (10 calls beyond it) then always
    # falls on the median resnet1k plan, and the median on gpt2 pp.
    min_calls = max_calls = 7 * pass_size
    trace_calls = 2 * pass_size

    def setup(self, seed: int) -> None:
        build_models(tuple(dict.fromkeys(m for m, _ in self.CASES)))
        self.server = server_for(self.GPUS)
        self.seed = seed
        self.orders: dict[int, list[tuple[str, str]]] = {}
        #: case -> (config, best_estimate hex) of its first plan
        self.first: dict[tuple[str, str], tuple[Any, str]] = {}
        self.rates: dict[tuple[str, str], float] = {}

    def case(self, index: int) -> tuple[str, str]:
        p = index // self.pass_size
        if p not in self.orders:
            order = list(self.CASES)
            random.Random(derived_seed(self.seed, p)).shuffle(order)
            self.orders[p] = order
        return self.orders[p][index % self.pass_size]

    def call(self, index: int) -> Any:
        model, mode = case = self.case(index)
        harmony = Harmony(model, self.server, self.MINIBATCH,
                          options=replace(OPTIONS, mode=mode))
        return case, harmony, harmony.plan()

    def check(self, index: int, result: Any) -> list[str]:
        case, harmony, plan = result
        label = f"{case[0]} {case[1]}"
        key = (plan.config, plan.search.best_estimate.hex())
        if case in self.first:
            if key != self.first[case]:
                return [f"{label}: replanning changed the chosen config or "
                        f"best_estimate ({key[1]} vs {self.first[case][1]})"]
            return []
        self.first[case] = key
        problems = [
            f"{label}: analyzer {d.rule}: {d.message}"
            for d in analyze_plan(harmony, plan).errors
        ]
        if not problems:
            self.rates[case] = harmony.run(plan=plan).metrics.throughput
        return problems

    def sim_rates(self) -> list[float]:
        return [self.rates[c] for c in self.CASES]


def analyze_plan(harmony: Harmony, plan: Any) -> Any:
    """The full static analyzer over a plan's final task graph."""
    return analyze(
        plan.graph,
        server=harmony.server,
        options=harmony.options.schedule_options(),
        host_state_bytes=harmony.host_state_bytes,
        host_input_bytes=harmony.minibatch * harmony.model.sample_bytes,
        prefetch=harmony.options.prefetch,
    )


class TrainMassive(Workload):
    """Fig. 15's massive-model regime: ``Harmony.run`` on set-up plans."""

    name = "train-massive"
    unit = "simulated iterations"
    CASES = (("gpt2-10b", "pp", 64), ("resnet1k", "pp", 32),
             ("gpt2", "dp", 32))
    GPUS = 4
    ITERATIONS = 2
    pass_size = len(CASES)
    # Exactly twelve passes: the tail (10 calls beyond it) then always
    # falls on the second-fastest gpt2-10b run, the median on resnet1k.
    min_calls = max_calls = 12 * pass_size
    trace_calls = 2 * pass_size

    def setup(self, seed: int) -> None:
        build_models(tuple(m for m, _, _ in self.CASES))
        server = server_for(self.GPUS)
        self.seed = seed
        self.orders: dict[int, list[int]] = {}
        self.harmonys = []
        self.plans = []
        for model, mode, minibatch in self.CASES:
            harmony = Harmony(model, server, minibatch,
                              options=replace(OPTIONS, mode=mode))
            self.harmonys.append(harmony)
            self.plans.append(harmony.plan())
        #: case index -> iteration_time hex of its first run
        self.first: dict[int, str] = {}
        self.rates: dict[int, float] = {}
        self.swap_gib: list[float] = []
        self.idle: list[float] = []

    def case(self, index: int) -> int:
        p = index // self.pass_size
        if p not in self.orders:
            order = list(range(self.pass_size))
            random.Random(derived_seed(self.seed, p)).shuffle(order)
            self.orders[p] = order
        return self.orders[p][index % self.pass_size]

    def call(self, index: int) -> Any:
        case = self.case(index)
        report = self.harmonys[case].run(plan=self.plans[case],
                                         iterations=self.ITERATIONS)
        return case, report.metrics

    def units(self, result: Any) -> int:
        return self.ITERATIONS

    def check(self, index: int, result: Any) -> list[str]:
        case, metrics = result
        self.swap_gib.append(metrics.global_swap_bytes / 2**30)
        self.idle.append(sum(metrics.idle_fraction(g)
                             for g in range(len(metrics.gpus)))
                         / len(metrics.gpus))
        hexed = metrics.iteration_time.hex()
        if case not in self.first:
            self.first[case] = hexed
            self.rates[case] = metrics.throughput
            return []
        if hexed != self.first[case]:
            model, mode, minibatch = self.CASES[case]
            return [f"{model} {mode} mb{minibatch}: iteration_time {hexed} "
                    f"differs from the first run's {self.first[case]}"]
        return []

    def sim_rates(self) -> list[float]:
        return [self.rates[c] for c in range(len(self.CASES))]

    def facts(self, calls: int) -> dict[str, float]:
        return {
            "runtime.swap_gib_per_iter": sum(self.swap_gib) / len(self.swap_gib),
            "runtime.idle_frac": sum(self.idle) / len(self.idle),
        }

    def recorder_overhead(self) -> float:
        """Extra host seconds the cheapest case's call takes with a trace
        recorder attached (the cost of the program's own observability)."""
        import time

        case = len(self.CASES) - 1
        harmony, plan = self.harmonys[case], self.plans[case]
        t0 = time.perf_counter()
        harmony.run(plan=plan, iterations=self.ITERATIONS)
        t1 = time.perf_counter()
        harmony.run(plan=plan, iterations=self.ITERATIONS,
                    trace=TraceRecorder())
        return (time.perf_counter() - t1) - (t1 - t0)


class ServeFleet(Workload):
    """A seeded request storm through the fleet-backed planner service,
    under service chaos.  Every call serves a distinct storm."""

    name = "serve-fleet"
    unit = "resolved requests"
    REQUESTS = 3000
    CHAOS_INTENSITY = 1.0
    min_calls = 12
    trace_calls = 4

    def setup(self, seed: int) -> None:
        build_models(DEFAULT_MODELS)
        self.seed = seed
        self.storms = {i: self.storm(i) for i in range(self.min_calls)}
        self.snapshot0 = ""
        self.rates: list[float] = []
        self.latencies: list[float] = []
        self.totals: dict[str, float] = {
            "hits": 0, "lookups": 0, "fresh": 0, "shed": 0, "placements": 0,
            "utilization": 0.0, "requests": 0, "refused": 0,
        }

    def storm(self, index: int) -> list:
        return scripted_workload(self.REQUESTS,
                                 seed=derived_seed(self.seed, index),
                                 gpus=(2, 4), shares=(1.0, 0.5))

    def service(self, index: int) -> PlannerService:
        seed = derived_seed(self.seed, index)
        return PlannerService(
            ServiceConfig(), options=OPTIONS,
            chaos=ServiceFaultPlan(
                ServiceChaosSpec.chaos(self.CHAOS_INTENSITY), seed=seed),
            seed=seed, fleet=FleetPlacer(fleet_of(2, 4)),
        )

    def requests(self, index: int) -> list:
        if index not in self.storms:
            self.storms[index] = self.storm(index)
        return self.storms[index]

    def call(self, index: int) -> Any:
        service = self.service(index)
        return service, service.run(self.requests(index))

    def units(self, result: Any) -> int:
        return len(result[1])

    def check(self, index: int, result: Any) -> list[str]:
        service, results = result
        if index > 0:
            self.storms.pop(index, None)
        problems = storm_problems(service, results, self.REQUESTS)
        m = service.metrics
        if index == 0:
            self.snapshot0 = json.dumps(m.snapshot(), sort_keys=True)
        if index < self.min_calls:
            self.rates.append(service.run_metrics().throughput)
            self.latencies.extend(m.latencies)
        t = self.totals
        t["hits"] += m.cache_hits
        t["lookups"] += m.cache_hits + m.cache_misses
        t["fresh"] += m.of(Outcome.SERVED_FRESH)
        t["shed"] += m.shed
        t["placements"] += m.fleet_placements
        t["utilization"] += m.fleet_utilization
        t["requests"] += m.requests
        t["refused"] += m.shed + m.failed
        return problems

    def finish(self) -> list[str]:
        service = self.service(0)
        service.run(self.requests(0))
        again = json.dumps(service.metrics.snapshot(), sort_keys=True)
        if again != self.snapshot0:
            return ["serve-fleet: replaying storm 0 gave a different "
                    "metrics snapshot"]
        return []

    def sim_rates(self) -> list[float]:
        return self.rates

    def facts(self, calls: int) -> dict[str, float]:
        t = self.totals
        ordered = sorted(self.latencies)
        p99 = ordered[max(1, math.ceil(0.99 * len(ordered))) - 1]
        return {
            "cache.hit_ratio": t["hits"] / t["lookups"],
            "service.fresh_plans": t["fresh"] / calls,
            "service.shed": t["shed"] / calls,
            "service.refused_frac": t["refused"] / t["requests"],
            "service.p99_virt_s": p99,
            "fleet.placements": t["placements"] / calls,
            "fleet.utilization": t["utilization"] / calls,
        }


def storm_problems(service: PlannerService, results: list,
                   requests: int) -> list[str]:
    """Every request reached one typed terminal outcome and the fleet
    drained back to zero occupancy."""
    problems = []
    rids = [r.request.rid for r in results]
    if len(results) != requests or len(set(rids)) != requests:
        problems.append(f"serve-fleet: {len(set(rids))} of {requests} "
                        f"requests resolved")
    if any(not isinstance(r.outcome, Outcome) for r in results):
        problems.append("serve-fleet: a request ended without a typed "
                        "outcome")
    if service.metrics.resolved != requests:
        problems.append(f"serve-fleet: metrics count "
                        f"{service.metrics.resolved} resolutions for "
                        f"{requests} requests")
    fleet = service.fleet
    if fleet is not None and (fleet.occupancy() != 0 or fleet.active):
        problems.append(f"serve-fleet: fleet occupancy "
                        f"{fleet.occupancy()} after the storm")
    return problems


class ChaosRecover(Workload):
    """Seeded chaos runs on both recovery paths.  One call runs the
    single-server path (gpt2 pp x4 under ``FaultSpec.chaos(1.0)`` plus
    one scripted GPU loss) and the cluster path (toy-transformer on 3
    servers, one server lost), both with the call's fault seed."""

    name = "chaos-recover"
    unit = "chaos runs"
    INTENSITY = 1.0
    ITERATIONS = 3
    LOSE_AT = 1
    SERVERS = 3
    min_calls = 96
    trace_calls = 8

    def setup(self, seed: int) -> None:
        build_models(("gpt2", "toy-transformer"))
        self.seed = seed
        self.harmony = Harmony("gpt2", server_for(4), 16,
                               options=replace(OPTIONS, mode="pp"))
        self.plan = self.harmony.plan()
        self.planner = ClusterPlanner(
            "toy-transformer", homogeneous_cluster(self.SERVERS, server_for(2)),
            8, mode="pp", options=OPTIONS,
        )
        self.planner.plan_for(tuple(range(self.SERVERS)))
        self.spec = FaultSpec.chaos(self.INTENSITY)
        self.cluster_spec = replace(
            ClusterFaultSpec.cluster_chaos(self.INTENSITY),
            server_crash_rate=0.0,
        )
        self.owners = sorted({t.device for t in self.plan.graph.tasks
                              if t.kind is TaskKind.UPD})
        self.first = ""
        #: path (0 device loss, 1 cluster) -> throughputs of its runs
        self.rates: tuple[list[float], list[float]] = ([], [])
        self.totals: dict[str, float] = {
            "injected": 0, "retries": 0, "typed": 0, "replans": 0,
            "cluster_replans": 0, "network_bytes": 0,
        }

    def call(self, index: int) -> Any:
        seed = derived_seed(self.seed, index)
        victim = self.owners[seed % len(self.owners)]
        device = self.attempt(lambda: self.harmony.run(
            plan=self.plan, iterations=self.ITERATIONS,
            fault_plan=ScriptedFaultPlan(losses={victim: self.LOSE_AT},
                                         spec=self.spec, seed=seed),
        ).metrics)
        runner = ClusterRunner(self.planner, ScriptedClusterFaultPlan(
            crashes={seed % self.SERVERS: self.LOSE_AT}, partitions=[],
            spec=self.cluster_spec, seed=seed,
        ))
        cluster = self.attempt(lambda: runner.run(self.ITERATIONS))
        return device, cluster, runner.metrics

    @staticmethod
    def attempt(run: Any) -> Any:
        """The run's metrics, or its typed fault (an accepted chaos
        outcome).  Hard failures propagate and fail the call."""
        try:
            return run()
        except FaultError as exc:
            return exc

    def units(self, result: Any) -> int:
        return 2

    @staticmethod
    def record(outcome: Any) -> Any:
        if isinstance(outcome, FaultError):
            return [type(outcome).__name__, str(outcome)]
        return [outcome.iteration_time, outcome.throughput,
                asdict(outcome.recovery), asdict(outcome.elastic)]

    def check(self, index: int, result: Any) -> list[str]:
        device, cluster, cluster_metrics = result
        problems = []
        for path, outcome in enumerate((device, cluster)):
            if isinstance(outcome, FaultError):
                self.totals["typed"] += 1
                continue
            if not outcome.iteration_time > 0:
                problems.append(f"chaos-recover call {index}: "
                                f"non-positive iteration time")
                continue
            if index < self.min_calls:
                self.rates[path].append(outcome.throughput)
            rec = outcome.recovery
            self.totals["injected"] += rec.faults_injected
            self.totals["retries"] += rec.transfer_retries + rec.compute_retries
            self.totals["replans"] += outcome.elastic.replans
        self.totals["cluster_replans"] += cluster_metrics.cluster_replans
        self.totals["network_bytes"] += cluster_metrics.network_bytes
        if index == 0:
            self.first = fingerprint([self.record(device),
                                      self.record(cluster),
                                      asdict(cluster_metrics)])
        return problems

    def finish(self) -> list[str]:
        device, cluster, cluster_metrics = self.call(0)
        again = fingerprint([self.record(device), self.record(cluster),
                             asdict(cluster_metrics)])
        if again != self.first:
            return ["chaos-recover: rerunning seed 0 changed its metrics"]
        return []

    def sim_rates(self) -> list[float]:
        # One value per path, so typed failures cannot shift the mix of
        # two throughputs that differ by three orders of magnitude.
        return [geomean(rates) for rates in self.rates]

    def facts(self, calls: int) -> dict[str, float]:
        t = self.totals
        return {
            "faults.injected": t["injected"] / calls,
            "faults.retries": t["retries"] / calls,
            "faults.typed_failures": t["typed"] / calls,
            "elastic.replans": t["replans"] / calls,
            "cluster.replans": t["cluster_replans"] / calls,
            "cluster.network_gib": t["network_bytes"] / 2**30 / calls,
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PlanZoo, TrainMassive, ServeFleet, ChaosRecover)
}
