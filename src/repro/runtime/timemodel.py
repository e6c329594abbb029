"""Ground-truth task timing for the Runtime.

The Scheduler estimates with regressed profiles; the Runtime executes with
the *true* per-layer kernel times (including the deterministic kernel
noise), which is exactly the estimated-vs-actual gap Figure 14 measures.

Those per-layer times come from the plan's
:meth:`~repro.core.decomposer.DecomposedModel.true_times` table -- the
very numbers the Profiler sampled -- and each pack sum is memoized per
``(first_layer, last_layer, phase, u)``.  A memoized sum was computed
once with the same left-to-right order as the naive
``sum(unit.run_time(...))``, so every hit is bit-identical to it.
``REPRO_PERF_DISABLE=1`` (read at construction) runs the naive sums.
"""

from __future__ import annotations

from typing import Optional

from repro.core.decomposer import DecomposedModel
from repro.core.types import Task, TaskKind
from repro.graph.layer import Phase
from repro.hardware.gpu import GpuSpec
from repro.hardware.host import HostSpec
from repro.perf import perf_enabled


class TrueTimeModel:
    """Computes what a task's kernels actually take on the machine."""

    def __init__(self, decomposed: DecomposedModel, gpu: GpuSpec, host: HostSpec,
                 n_gpus: int):
        self.decomposed = decomposed
        self.units = decomposed.units
        self.gpu = gpu
        self.host = host
        self.cores_per_runtime = max(1, host.cores // max(1, n_gpus))
        self._packs: Optional[dict[tuple[int, int, Phase, int], float]] = (
            {} if perf_enabled() else None
        )

    def _pack_time(self, task: Task, phase: Phase, u: int) -> float:
        packs = self._packs
        if packs is None:
            return sum(
                self.units[i].run_time(self.gpu, phase, u) for i in task.layers
            )
        key = (task.first_layer, task.last_layer, phase, u)
        try:
            return packs[key]
        except KeyError:
            row = self.decomposed.true_times(self.gpu, phase, u)
            value = packs[key] = sum(row[i] for i in task.layers)
            return value

    def microbatch_time(self, task: Task, u: int) -> float:
        """Wall time of one microbatch of ``task`` on the GPU."""
        if task.kind is TaskKind.FWD:
            return self._pack_time(task, Phase.FWD, u)
        if task.kind is TaskKind.BWD:
            bwd = self._pack_time(task, Phase.BWD, u)
            if task.fused:
                # jit-compute: forward runs here instead of a separate task;
                # no rematerialization needed.
                return self._pack_time(task, Phase.FWD, u) + bwd
            if task.recompute:
                return self._pack_time(task, Phase.FWD, u) + bwd
            return bwd
        raise ValueError(f"update tasks are timed via update_time: {task.label}")

    def update_time(self, task: Task) -> float:
        """Weight-update wall time (CPU-offloaded or on the GPU)."""
        if task.kind is not TaskKind.UPD:
            raise ValueError(f"not an update task: {task.label}")
        if task.on_cpu:
            return self.host.optimizer_time(
                task.compute_flops, cores_used=self.cores_per_runtime
            )
        return self._pack_time(task, Phase.UPD, 1)

    def task_compute_time(self, task: Task) -> float:
        """Total compute across the task's microbatch group."""
        if task.kind is TaskKind.UPD:
            return self.update_time(task)
        return sum(self.microbatch_time(task, u) for u in task.microbatches)
