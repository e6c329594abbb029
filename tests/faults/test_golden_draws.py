"""Golden fault draws: the exact decisions of every fault-plan draw method.

A chaos run is reproducible from its seed only while every stateless
draw keeps its label tuple and arithmetic.  This test pins the decisions
of :class:`FaultPlan`, :class:`ClusterFaultPlan` and
:class:`ServiceFaultPlan` (and their scripted subclasses, including the
fall-through to the seeded spec) over a few seeds and arguments, plus
the ``describe()`` text of the specs and plans.  Floats are compared by
``float.hex()``, so any change to a draw -- a renamed label, a reordered
tuple, a different clamp -- shows up here bit for bit.
"""

from __future__ import annotations

from repro.cluster import (
    ClusterFaultPlan,
    ClusterFaultSpec,
    ScriptedClusterFaultPlan,
)
from repro.faults import Crash, FaultPlan, FaultSpec, ScriptedFaultPlan
from repro.service import (
    ScriptedServiceFaultPlan,
    ServiceChaosSpec,
    ServiceFaultPlan,
)

SEEDS = (0, 5)
CONTEXTS = ((), (1, 0))

HALF = FaultSpec(
    transfer_fault_rate=0.5, link_degrade_rate=0.5, gpu_slowdown_rate=0.5,
    task_crash_rate=0.5, host_pressure_rate=0.5, gpu_loss_rate=0.5,
)
CLUSTER_HALF = ClusterFaultSpec(
    server_crash_rate=0.5, partition_rate=0.5, nic_degrade_rate=0.5,
    switch_flap_rate=0.5, inner=HALF,
)
SERVICE_HALF = ServiceChaosSpec(slow_rate=0.5, crash_rate=0.5,
                                poison_rate=0.5)


def canon(value):
    """A draw result with every float replaced by its ``float.hex()``."""
    if isinstance(value, Crash):
        return ("crash", value.fraction.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(canon(v) for v in value)
    return value


def fault_draws(plan: FaultPlan) -> dict:
    return {
        "transfer_fault": [
            canon(plan.transfer_fault(entity, label, attempt, ctx))
            for entity in ("gpu0.h2d", "host")
            for label in ("W3", "A5")
            for attempt in (0, 1)
            for ctx in CONTEXTS
        ],
        "task_crash": [
            canon(plan.task_crash(tid, mb, attempt, ctx))
            for tid in (0, 4)
            for mb in (0, 1)
            for attempt in (0, 1)
            for ctx in CONTEXTS
        ],
        "gpu_slowdown": [canon(plan.gpu_slowdown(d)) for d in range(4)],
        "gpu_slowdown_at": [
            canon(plan.gpu_slowdown_at(d, it))
            for d in range(4) for it in (0, 2)
        ],
        "gpu_loss": [canon(plan.gpu_loss(d)) for d in range(4)],
        "link_degradation": [
            canon(plan.link_degradation(link, epoch, ctx))
            for link in ("pcie.sw0.up", "gpu1.h2d")
            for epoch in range(3)
            for ctx in CONTEXTS
        ],
        "host_pressure": [
            canon(plan.host_pressure(epoch, ctx))
            for epoch in range(4) for ctx in CONTEXTS
        ],
    }


def cluster_draws(plan: ClusterFaultPlan) -> dict:
    times = (0.0, 0.012, 0.051, 0.13, 0.26)
    return {
        "server_plan": [
            (plan.server_plan(s).seed,
             plan.server_plan(s).spec is plan.spec.inner)
            for s in range(3)
        ],
        "server_crash": [canon(plan.server_crash(s)) for s in range(4)],
        "partition_sides": [canon(plan.partition_sides(t)) for t in times],
        "partitioned": [
            plan.partitioned(a, b, t)
            for a, b in ((0, 1), (0, 2), (1, 2), (1, 1))
            for t in times
        ],
        "partition_blocked": [
            plan.partition_blocked([(0, 1), (1, 2)], t) for t in times
        ],
        "next_partition_change": [
            canon(plan.next_partition_change(t)) for t in times
        ],
        "nic_degradation": [
            canon(plan.nic_degradation(s, direction, epoch, ctx))
            for s in range(2)
            for direction in ("up", "down")
            for epoch in range(2)
            for ctx in CONTEXTS
        ],
        "switch_degradation": [
            canon(plan.switch_degradation(epoch, ctx))
            for epoch in range(4) for ctx in CONTEXTS
        ],
    }


def service_draws(plan: ServiceFaultPlan) -> dict:
    return {
        "poisoned": [plan.poisoned(rid) for rid in range(6)],
        "slowdown": [
            canon(plan.slowdown(rid, attempt))
            for rid in range(4) for attempt in range(2)
        ],
        "crash": [
            plan.crash(rid, attempt)
            for rid in range(4) for attempt in range(3)
        ],
    }


def scripted_fault_plan(seed: int) -> ScriptedFaultPlan:
    return ScriptedFaultPlan(
        transfer_faults={("W3", 0): 0.25},
        crashes={(4, 1, 0): 0.5},
        slowdowns={1: (2.5, True)},
        slowdowns_at={2: (1, 3.0, False)},
        losses={3: 2},
        spec=HALF, seed=seed,
    )


def scripted_cluster_plan(seed: int) -> ScriptedClusterFaultPlan:
    return ScriptedClusterFaultPlan(
        crashes={1: 3},
        partitions=[(0.01, 0.06, {2})],
        server_plans={0: FaultPlan(FaultSpec.chaos(), seed=99)},
        spec=CLUSTER_HALF, seed=seed,
    )


def scripted_service_plan(seed: int) -> ScriptedServiceFaultPlan:
    return ScriptedServiceFaultPlan(
        poisoned_rids=[1], crashes={2: 1, 3: -1}, slowdowns={0: 7.0},
        spec=SERVICE_HALF, seed=seed,
    )


def all_draws() -> dict:
    draws = {}
    for seed in SEEDS:
        draws[f"FaultPlan/{seed}"] = fault_draws(FaultPlan(HALF, seed=seed))
        draws[f"FaultPlan.chaos/{seed}"] = fault_draws(
            FaultPlan(FaultSpec.chaos(2.0), seed=seed))
        draws[f"ScriptedFaultPlan/{seed}"] = fault_draws(
            scripted_fault_plan(seed))
        draws[f"ClusterFaultPlan/{seed}"] = cluster_draws(
            ClusterFaultPlan(CLUSTER_HALF, seed=seed))
        draws[f"ScriptedClusterFaultPlan/{seed}"] = cluster_draws(
            scripted_cluster_plan(seed))
        draws[f"ServiceFaultPlan/{seed}"] = service_draws(
            ServiceFaultPlan(SERVICE_HALF, seed=seed))
        draws[f"ScriptedServiceFaultPlan/{seed}"] = service_draws(
            scripted_service_plan(seed))
    return draws


def all_descriptions() -> dict:
    return {
        "FaultSpec()": FaultSpec().describe(),
        "FaultSpec.none()": FaultSpec.none().describe(),
        "FaultSpec.chaos()": FaultSpec.chaos().describe(),
        "FaultSpec.chaos(0.05)": FaultSpec.chaos(0.05).describe(),
        "FaultSpec.chaos(30)": FaultSpec.chaos(30.0).describe(),
        "FaultSpec(half)": HALF.describe(),
        "FaultSpec(magnitudes)": FaultSpec(
            link_flap_interval=0.2, gpu_persistent_rate=0.25,
            host_pressure_factor=0.75).describe(),
        "ClusterFaultSpec()": ClusterFaultSpec().describe(),
        "ClusterFaultSpec.none()": ClusterFaultSpec.none().describe(),
        "ClusterFaultSpec.cluster_chaos()":
            ClusterFaultSpec.cluster_chaos().describe(),
        "ClusterFaultSpec.cluster_chaos(3)":
            ClusterFaultSpec.cluster_chaos(3.0).describe(),
        "ClusterFaultSpec(half)": CLUSTER_HALF.describe(),
        "ClusterFaultSpec(inner only)":
            ClusterFaultSpec(inner=FaultSpec(gpu_loss_rate=0.1)).describe(),
        "ClusterFaultSpec(magnitudes)": ClusterFaultSpec(
            partition_interval=0.5, switch_flap_factor=0.125,
            inner=FaultSpec(gpu_slowdown_factor=3.0)).describe(),
        "ServiceChaosSpec()": ServiceChaosSpec().describe(),
        "ServiceChaosSpec.none()": ServiceChaosSpec.none().describe(),
        "ServiceChaosSpec.chaos()": ServiceChaosSpec.chaos().describe(),
        "ServiceChaosSpec.chaos(0.5)": ServiceChaosSpec.chaos(0.5).describe(),
        "ServiceChaosSpec(half)": SERVICE_HALF.describe(),
        "FaultPlan": FaultPlan(FaultSpec.chaos(), seed=7).describe(),
        "FaultPlan(off)": FaultPlan(FaultSpec(), seed=3).describe(),
        "ScriptedFaultPlan": scripted_fault_plan(4).describe(),
        "ScriptedFaultPlan(empty)": ScriptedFaultPlan().describe(),
        "ClusterFaultPlan": ClusterFaultPlan(
            ClusterFaultSpec.cluster_chaos(), seed=2).describe(),
        "ScriptedClusterFaultPlan": scripted_cluster_plan(1).describe(),
        "ScriptedClusterFaultPlan(empty)":
            ScriptedClusterFaultPlan().describe(),
        "ServiceFaultPlan": ServiceFaultPlan(
            ServiceChaosSpec.chaos(), seed=6).describe(),
        "ServiceFaultPlan(default)": ServiceFaultPlan().describe(),
        "ScriptedServiceFaultPlan": scripted_service_plan(8).describe(),
        "ScriptedServiceFaultPlan(empty)":
            ScriptedServiceFaultPlan().describe(),
    }


def all_enabled() -> dict:
    return {
        "FaultPlan(off)": FaultPlan(FaultSpec()).enabled,
        "FaultPlan(half)": FaultPlan(HALF).enabled,
        "FaultPlan(persistent only)":
            FaultPlan(FaultSpec(gpu_persistent_rate=1.0)).enabled,
        "ScriptedFaultPlan(empty)": ScriptedFaultPlan().enabled,
        "ScriptedFaultPlan(losses)": ScriptedFaultPlan(losses={0: 1}).enabled,
        "ScriptedFaultPlan(slowdowns_at)":
            ScriptedFaultPlan(slowdowns_at={0: (1, 2.0, True)}).enabled,
        "ClusterFaultPlan(off)": ClusterFaultPlan(ClusterFaultSpec()).enabled,
        "ClusterFaultPlan(inner)": ClusterFaultPlan(
            ClusterFaultSpec(inner=FaultSpec(task_crash_rate=0.1))).enabled,
        "ScriptedClusterFaultPlan(empty)":
            ScriptedClusterFaultPlan().enabled,
        "ScriptedClusterFaultPlan(partitions)": ScriptedClusterFaultPlan(
            partitions=[(0.0, 1.0, {0})]).enabled,
        "ScriptedClusterFaultPlan(server_plans)": ScriptedClusterFaultPlan(
            server_plans={0: FaultPlan(FaultSpec())}).enabled,
        "ServiceFaultPlan(off)": ServiceFaultPlan().enabled,
        "ServiceFaultPlan(slow factor only)":
            ServiceFaultPlan(ServiceChaosSpec(slow_factor=8.0)).enabled,
        "ScriptedServiceFaultPlan(empty)": ScriptedServiceFaultPlan().enabled,
        "ScriptedServiceFaultPlan(poisoned)":
            ScriptedServiceFaultPlan(poisoned_rids=[3]).enabled,
    }


def test_draws_match_golden():
    draws = all_draws()
    assert draws.keys() == GOLDEN_DRAWS.keys()
    for plan, methods in draws.items():
        assert methods.keys() == GOLDEN_DRAWS[plan].keys(), plan
        for method, values in methods.items():
            assert values == GOLDEN_DRAWS[plan][method], f"{plan}.{method}"


def test_descriptions_match_golden():
    assert all_descriptions() == GOLDEN_DESCRIPTIONS


def test_enabled_matches_golden():
    assert all_enabled() == GOLDEN_ENABLED


# -- golden values (recorded from the seeded draws; never re-bless) -----------

GOLDEN_DRAWS: dict = {
    "FaultPlan/0": {
        "transfer_fault": [
            "0x1.f43e156cd4c3ep-5", None, None, None, None, None,
            "0x1.d69e839475300p-2", "0x1.fb72c7429ae07p-2", None,
            "0x1.8c496757d2313p-1", None, None, None, "0x1.66345411f9701p-2",
            None, None,
        ],
        "task_crash": [
            None, ("crash", "0x1.3fcb7440d69ccp-3"), None,
            ("crash", "0x1.3a9308fc4c5ddp-1"),
            ("crash", "0x1.f0adae22b1f86p-4"),
            ("crash", "0x1.825e230dfbbdcp-3"),
            ("crash", "0x1.42b4656e3ca0dp-3"),
            ("crash", "0x1.847619d1d375ep-3"), None, None, None,
            ("crash", "0x1.96e892f8a0ea5p-2"),
            ("crash", "0x1.c2575cc34c5cbp-1"),
            ("crash", "0x1.9f14607bce09bp-1"),
            ("crash", "0x1.b80478d20cd71p-1"), None,
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+1", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+1", False), ("0x1.0000000000000p+1", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            2, 4, 2, 4,
        ],
        "link_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        ],
    },
    "FaultPlan.chaos/0": {
        "transfer_fault": [
            None, None, None, None, None, None, None, None, None, None, None,
            None, None, "0x1.66345411f9701p-2", None, None,
        ],
        "task_crash": [
            None, None, None, None, None, None, None, None, None, None, None,
            None, None, None, None, None,
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.8000000000000p+1", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.8000000000000p+1", False), ("0x1.8000000000000p+1", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            None, None, None, None,
        ],
        "link_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "ScriptedFaultPlan/0": {
        "transfer_fault": [
            "0x1.0000000000000p-2", "0x1.0000000000000p-2", None, None, None,
            None, "0x1.d69e839475300p-2", "0x1.fb72c7429ae07p-2",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2", None, None, None,
            "0x1.66345411f9701p-2", None, None,
        ],
        "task_crash": [
            None, ("crash", "0x1.3fcb7440d69ccp-3"), None,
            ("crash", "0x1.3a9308fc4c5ddp-1"),
            ("crash", "0x1.f0adae22b1f86p-4"),
            ("crash", "0x1.825e230dfbbdcp-3"),
            ("crash", "0x1.42b4656e3ca0dp-3"),
            ("crash", "0x1.847619d1d375ep-3"), None, None, None,
            ("crash", "0x1.96e892f8a0ea5p-2"),
            ("crash", "0x1.0000000000000p-1"),
            ("crash", "0x1.0000000000000p-1"),
            ("crash", "0x1.b80478d20cd71p-1"), None,
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.4000000000000p+1", True),
            ("0x1.0000000000000p+1", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.4000000000000p+1", True), ("0x1.4000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.8000000000000p+1", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            2, 4, 2, 2,
        ],
        "link_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        ],
    },
    "ClusterFaultPlan/0": {
        "server_plan": [
            (2097497824, True), (173464078, True), (924189046, True),
        ],
        "server_crash": [
            4, 1, 1, None,
        ],
        "partition_sides": [
            0, 0, None, None, 5,
        ],
        "partitioned": [
            True, True, False, False, False, False, False, False, False,
            False, True, True, False, False, False, False, False, False,
            False, False,
        ],
        "partition_blocked": [
            True, True, False, False, False,
        ],
        "next_partition_change": [
            "0x1.999999999999ap-5", "0x1.999999999999ap-5",
            "0x1.999999999999ap-4", "0x1.3333333333334p-3",
            "0x1.3333333333334p-2",
        ],
        "nic_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
        ],
        "switch_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        ],
    },
    "ScriptedClusterFaultPlan/0": {
        "server_plan": [
            (99, False), (173464078, True), (924189046, True),
        ],
        "server_crash": [
            4, 3, 1, None,
        ],
        "partition_sides": [
            0, 0, None, None, 5,
        ],
        "partitioned": [
            True, True, False, False, False, False, True, True, False, False,
            True, True, True, False, False, False, False, False, False, False,
        ],
        "partition_blocked": [
            True, True, True, False, False,
        ],
        "next_partition_change": [
            "0x1.47ae147ae147bp-7", "0x1.999999999999ap-5",
            "0x1.eb851eb851eb8p-5", "0x1.3333333333334p-3",
            "0x1.3333333333334p-2",
        ],
        "nic_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
        ],
        "switch_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        ],
    },
    "ServiceFaultPlan/0": {
        "poisoned": [
            True, False, False, True, True, False,
        ],
        "slowdown": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        ],
        "crash": [
            False, False, False, True, True, False, False, True, True, False,
            False, True,
        ],
    },
    "ScriptedServiceFaultPlan/0": {
        "poisoned": [
            True, True, False, True, True, False,
        ],
        "slowdown": [
            "0x1.c000000000000p+2", "0x1.c000000000000p+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        ],
        "crash": [
            False, False, False, True, True, False, True, False, False, True,
            True, True,
        ],
    },
    "FaultPlan/5": {
        "transfer_fault": [
            None, None, None, "0x1.45b1268db9138p-4", None, None,
            "0x1.794f27d7071dfp-1", None, None, None, "0x1.7ceb0d10cfad1p-2",
            None, "0x1.52161fc0453b2p-3", "0x1.8367aa0dcfc82p-1",
            "0x1.f728ebe5b490ap-2", None,
        ],
        "task_crash": [
            None, None, ("crash", "0x1.9646c40abee83p-2"),
            ("crash", "0x1.c3c1f514965b9p-2"), None, None, None, None, None,
            None, ("crash", "0x1.b2e880fcd5287p-2"),
            ("crash", "0x1.28fe3e5eba124p-1"),
            ("crash", "0x1.7891974f11491p-2"), None,
            ("crash", "0x1.cba37a93ad3fap-1"),
            ("crash", "0x1.64273d80b6bfbp-1"),
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+1", True), ("0x1.0000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            3, 1, 1, 4,
        ],
        "link_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "FaultPlan.chaos/5": {
        "transfer_fault": [
            None, None, None, None, None, None, "0x1.794f27d7071dfp-1", None,
            None, None, None, None, None, None, None, None,
        ],
        "task_crash": [
            None, None, None, ("crash", "0x1.c3c1f514965b9p-2"), None, None,
            None, None, None, None, None, None, None, None, None, None,
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.8000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.8000000000000p+1", True), ("0x1.8000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            None, None, None, None,
        ],
        "link_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "ScriptedFaultPlan/5": {
        "transfer_fault": [
            "0x1.0000000000000p-2", "0x1.0000000000000p-2", None,
            "0x1.45b1268db9138p-4", None, None, "0x1.794f27d7071dfp-1", None,
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.7ceb0d10cfad1p-2", None, "0x1.52161fc0453b2p-3",
            "0x1.8367aa0dcfc82p-1", "0x1.f728ebe5b490ap-2", None,
        ],
        "task_crash": [
            None, None, ("crash", "0x1.9646c40abee83p-2"),
            ("crash", "0x1.c3c1f514965b9p-2"), None, None, None, None, None,
            None, ("crash", "0x1.b2e880fcd5287p-2"),
            ("crash", "0x1.28fe3e5eba124p-1"),
            ("crash", "0x1.0000000000000p-1"),
            ("crash", "0x1.0000000000000p-1"),
            ("crash", "0x1.cba37a93ad3fap-1"),
            ("crash", "0x1.64273d80b6bfbp-1"),
        ],
        "gpu_slowdown": [
            ("0x1.0000000000000p+0", False), ("0x1.4000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_slowdown_at": [
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
            ("0x1.4000000000000p+1", True), ("0x1.4000000000000p+1", True),
            ("0x1.0000000000000p+0", False), ("0x1.8000000000000p+1", False),
            ("0x1.0000000000000p+0", False), ("0x1.0000000000000p+0", False),
        ],
        "gpu_loss": [
            3, 1, 1, 2,
        ],
        "link_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
        ],
        "host_pressure": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "ClusterFaultPlan/5": {
        "server_plan": [
            (1220267688, True), (1637549677, True), (844970530, True),
        ],
        "server_crash": [
            None, 1, None, None,
        ],
        "partition_sides": [
            0, 0, 1, 2, 5,
        ],
        "partitioned": [
            False, False, True, True, True, True, True, False, False, True,
            True, True, True, True, False, False, False, False, False, False,
        ],
        "partition_blocked": [
            True, True, True, True, True,
        ],
        "next_partition_change": [
            "0x1.999999999999ap-5", "0x1.999999999999ap-5",
            "0x1.999999999999ap-4", "0x1.3333333333334p-3",
            "0x1.3333333333334p-2",
        ],
        "nic_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
        ],
        "switch_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "ScriptedClusterFaultPlan/5": {
        "server_plan": [
            (99, False), (1637549677, True), (844970530, True),
        ],
        "server_crash": [
            None, 3, None, None,
        ],
        "partition_sides": [
            0, 0, 1, 2, 5,
        ],
        "partitioned": [
            False, False, True, True, True, True, True, True, False, True,
            True, True, True, True, False, False, False, False, False, False,
        ],
        "partition_blocked": [
            True, True, True, True, True,
        ],
        "next_partition_change": [
            "0x1.47ae147ae147bp-7", "0x1.999999999999ap-5",
            "0x1.eb851eb851eb8p-5", "0x1.3333333333334p-3",
            "0x1.3333333333334p-2",
        ],
        "nic_degradation": [
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p-2", "0x1.0000000000000p-2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x1.0000000000000p+0",
        ],
        "switch_degradation": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "ServiceFaultPlan/5": {
        "poisoned": [
            False, False, True, False, True, False,
        ],
        "slowdown": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        ],
        "crash": [
            True, True, True, False, True, True, True, True, True, True, True,
            False,
        ],
    },
    "ScriptedServiceFaultPlan/5": {
        "poisoned": [
            False, True, True, False, True, False,
        ],
        "slowdown": [
            "0x1.c000000000000p+2", "0x1.c000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        ],
        "crash": [
            True, True, True, False, True, True, True, False, False, True,
            True, True,
        ],
    },
}

GOLDEN_DESCRIPTIONS: dict = {
    "FaultSpec()": "FaultSpec(off)",
    "FaultSpec.none()": "FaultSpec(off)",
    "FaultSpec.chaos()":
        "FaultSpec(transfer_fault_rate=0.02, link_degrade_rate=0.1, "
        "gpu_slowdown_rate=0.2, task_crash_rate=0.01, host_pressure_rate=0.1)",
    "FaultSpec.chaos(0.05)":
        "FaultSpec(transfer_fault_rate=0.001, link_degrade_rate=0.005, "
        "gpu_slowdown_rate=0.01, gpu_slowdown_factor=1.1, "
        "task_crash_rate=0.0005, host_pressure_rate=0.005)",
    "FaultSpec.chaos(30)":
        "FaultSpec(transfer_fault_rate=0.6, link_degrade_rate=1, "
        "gpu_slowdown_rate=1, gpu_slowdown_factor=31, task_crash_rate=0.3, "
        "host_pressure_rate=1)",
    "FaultSpec(half)":
        "FaultSpec(transfer_fault_rate=0.5, link_degrade_rate=0.5, "
        "gpu_slowdown_rate=0.5, task_crash_rate=0.5, host_pressure_rate=0.5, "
        "gpu_loss_rate=0.5)",
    "FaultSpec(magnitudes)":
        "FaultSpec(link_flap_interval=0.2, gpu_persistent_rate=0.25, "
        "host_pressure_factor=0.75)",
    "ClusterFaultSpec()": "ClusterFaultSpec(off)",
    "ClusterFaultSpec.none()": "ClusterFaultSpec(off)",
    "ClusterFaultSpec.cluster_chaos()":
        "ClusterFaultSpec(server_crash_rate=0.25, partition_rate=0.15, "
        "nic_degrade_rate=0.1, switch_flap_rate=0.1, "
        "inner=FaultSpec(transfer_fault_rate=0.01, link_degrade_rate=0.05, "
        "gpu_slowdown_rate=0.1, gpu_slowdown_factor=1.5, "
        "task_crash_rate=0.005, host_pressure_rate=0.05))",
    "ClusterFaultSpec.cluster_chaos(3)":
        "ClusterFaultSpec(server_crash_rate=0.75, partition_rate=0.45, "
        "nic_degrade_rate=0.3, switch_flap_rate=0.3, "
        "inner=FaultSpec(transfer_fault_rate=0.03, link_degrade_rate=0.15, "
        "gpu_slowdown_rate=0.3, gpu_slowdown_factor=2.5, "
        "task_crash_rate=0.015, host_pressure_rate=0.15))",
    "ClusterFaultSpec(half)":
        "ClusterFaultSpec(server_crash_rate=0.5, partition_rate=0.5, "
        "nic_degrade_rate=0.5, switch_flap_rate=0.5, "
        "inner=FaultSpec(transfer_fault_rate=0.5, link_degrade_rate=0.5, "
        "gpu_slowdown_rate=0.5, task_crash_rate=0.5, host_pressure_rate=0.5, "
        "gpu_loss_rate=0.5))",
    "ClusterFaultSpec(inner only)":
        "ClusterFaultSpec(inner=FaultSpec(gpu_loss_rate=0.1))",
    "ClusterFaultSpec(magnitudes)":
        "ClusterFaultSpec(partition_interval=0.5, switch_flap_factor=0.125)",
    "ServiceChaosSpec()": "ServiceChaosSpec(off)",
    "ServiceChaosSpec.none()": "ServiceChaosSpec(off)",
    "ServiceChaosSpec.chaos()":
        "ServiceChaosSpec(slow=0.15x4, crash=0.1, poison=0.02)",
    "ServiceChaosSpec.chaos(0.5)":
        "ServiceChaosSpec(slow=0.075x2.5, crash=0.05, poison=0.01)",
    "ServiceChaosSpec(half)":
        "ServiceChaosSpec(slow=0.5x4, crash=0.5, poison=0.5)",
    "FaultPlan":
        "FaultPlan(seed=7, FaultSpec(transfer_fault_rate=0.02, "
        "link_degrade_rate=0.1, gpu_slowdown_rate=0.2, task_crash_rate=0.01, "
        "host_pressure_rate=0.1))",
    "FaultPlan(off)": "FaultPlan(seed=3, FaultSpec(off))",
    "ScriptedFaultPlan":
        "FaultPlan(seed=4, FaultSpec(transfer_fault_rate=0.5, "
        "link_degrade_rate=0.5, gpu_slowdown_rate=0.5, task_crash_rate=0.5, "
        "host_pressure_rate=0.5, gpu_loss_rate=0.5))",
    "ScriptedFaultPlan(empty)": "FaultPlan(seed=0, FaultSpec(off))",
    "ClusterFaultPlan":
        "ClusterFaultPlan(seed=2, ClusterFaultSpec(server_crash_rate=0.25, "
        "partition_rate=0.15, nic_degrade_rate=0.1, switch_flap_rate=0.1, "
        "inner=FaultSpec(transfer_fault_rate=0.01, link_degrade_rate=0.05, "
        "gpu_slowdown_rate=0.1, gpu_slowdown_factor=1.5, "
        "task_crash_rate=0.005, host_pressure_rate=0.05)))",
    "ScriptedClusterFaultPlan":
        "ClusterFaultPlan(seed=1, ClusterFaultSpec(server_crash_rate=0.5, "
        "partition_rate=0.5, nic_degrade_rate=0.5, switch_flap_rate=0.5, "
        "inner=FaultSpec(transfer_fault_rate=0.5, link_degrade_rate=0.5, "
        "gpu_slowdown_rate=0.5, task_crash_rate=0.5, host_pressure_rate=0.5, "
        "gpu_loss_rate=0.5)))",
    "ScriptedClusterFaultPlan(empty)":
        "ClusterFaultPlan(seed=0, ClusterFaultSpec(off))",
    "ServiceFaultPlan":
        "ServiceFaultPlan(seed=6, ServiceChaosSpec(slow=0.15x4, crash=0.1, "
        "poison=0.02))",
    "ServiceFaultPlan(default)":
        "ServiceFaultPlan(seed=0, ServiceChaosSpec(off))",
    "ScriptedServiceFaultPlan":
        "ServiceFaultPlan(seed=8, ServiceChaosSpec(slow=0.5x4, crash=0.5, "
        "poison=0.5))",
    "ScriptedServiceFaultPlan(empty)":
        "ServiceFaultPlan(seed=0, ServiceChaosSpec(off))",
}

GOLDEN_ENABLED: dict = {
    "FaultPlan(off)": False,
    "FaultPlan(half)": True,
    "FaultPlan(persistent only)": False,
    "ScriptedFaultPlan(empty)": False,
    "ScriptedFaultPlan(losses)": True,
    "ScriptedFaultPlan(slowdowns_at)": True,
    "ClusterFaultPlan(off)": False,
    "ClusterFaultPlan(inner)": True,
    "ScriptedClusterFaultPlan(empty)": False,
    "ScriptedClusterFaultPlan(partitions)": True,
    "ScriptedClusterFaultPlan(server_plans)": True,
    "ServiceFaultPlan(off)": False,
    "ServiceFaultPlan(slow factor only)": False,
    "ScriptedServiceFaultPlan(empty)": False,
    "ScriptedServiceFaultPlan(poisoned)": True,
}
