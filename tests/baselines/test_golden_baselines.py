"""Golden regression for every baseline planner's graph and run.

Each case plans one scheme on a small model whose GPU is sized to force
LMS evictions mid-iteration, then pins:

- the plan: ``name``, microbatch, ``host_state_bytes``, notes, and a
  sha256 over the graph header plus every task's ``repr`` (emission
  order, tids, labels, moves and resident bytes all included);
- one run: ``float.hex`` of the iteration time and the global swap and
  p2p byte totals.

A refactor of the baselines must leave all of it bit-identical.  If a
change legitimately moves a baseline's schedule, rewrite the golden with
``PYTHONPATH=src python tests/baselines/test_golden_baselines.py`` and
commit it with the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.hardware.gpu import GpuSpec
from repro.hardware.interconnect import TopologySpec
from repro.hardware.host import HostSpec
from repro.hardware.server import ServerSpec

GOLDEN = Path(__file__).resolve().parent / "golden" / "baselines.json"
MINIBATCH = 16
#: (model, GPU memory in KiB): small enough that the LMS replay evicts
MODELS = (("toy-transformer", 1024), ("tiny-cnn", 256))
GPUS = (2, 4)
SCHEMES = (
    ("dp-swap", DpSwapPlanner, {}),
    ("gp-swap", GpipeSwapPlanner, {}),
    ("gp-swap-r", GpipeSwapPlanner, {"recompute": True}),
    ("2bw-swap", PipeDream2BWPlanner, {}),
    ("2bw-swap-r", PipeDream2BWPlanner, {"recompute": True}),
    ("zero-infinity", ZeroInfinityPlanner, {}),
)
CASES = [
    (label, model, kib, n)
    for label, _cls, _kw in SCHEMES
    for model, kib in MODELS
    for n in GPUS
]


def _server(n_gpus: int, kib: int) -> ServerSpec:
    gpu = GpuSpec(name="tight-gpu", memory_bytes=kib * 2**10,
                  peak_flops=2e12, efficiency=0.5)
    return ServerSpec(
        n_gpus=n_gpus,
        gpu=gpu,
        host=HostSpec(cores=8, memory_bytes=64 * 2**30),
        topology=TopologySpec(n_gpus=n_gpus, gpus_per_switch=n_gpus),
    )


def _key(label: str, model: str, n_gpus: int) -> str:
    return f"{label}/{model}/{n_gpus}"


def record(label: str, model: str, kib: int, n_gpus: int) -> dict:
    _label, cls, kwargs = next(s for s in SCHEMES if s[0] == label)
    planner = cls(model, _server(n_gpus, kib), MINIBATCH, **kwargs)
    plan = planner.plan()
    graph = plan.graph
    digest = hashlib.sha256(
        f"{graph.mode}|{graph.n_devices}|{graph.pageable_swaps}".encode()
    )
    for task in graph.tasks:
        digest.update(b"\n" + repr(task).encode())
    metrics = planner.run(plan)
    return {
        "name": planner.name,
        "scheme": plan.scheme,
        "microbatch": plan.microbatch,
        "host_state_bytes": plan.host_state_bytes,
        "notes": plan.notes,
        "graph_sha256": digest.hexdigest(),
        "iteration_time": metrics.iteration_time.hex(),
        "swap_bytes": metrics.global_swap_bytes,
        "p2p_bytes": metrics.global_p2p_bytes,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(c[0], c[1], c[3]) for c in CASES)


@pytest.mark.parametrize("label,model,kib,n_gpus", CASES)
def test_baseline_matches_golden(golden, label, model, kib, n_gpus):
    assert record(label, model, kib, n_gpus) == golden[
        _key(label, model, n_gpus)
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {_key(c[0], c[1], c[3]): record(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
