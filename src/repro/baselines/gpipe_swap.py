"""GP Swap: GPipe pipeline parallelism with per-GPU memory virtualization.

The model is split into N compute-balanced stages pinned one per GPU
(early binding); microbatches flow through all stages' forwards, then all
backwards, with a pipeline flush per iteration.  Stage state that exceeds
GPU memory is virtualized by the LMS replay, which exposes the paper's
*unbalanced swaps* (Section 2, item 4): without recomputation the head
stages stash activations for every in-flight microbatch, so their swap
load -- and hence the pipeline's bottleneck -- is far higher than the
tail's (Figure 2c).

``recompute=True`` gives the GP Swap (R) variant: stages checkpoint only
their input and rematerialize in the backward pass, trading compute for a
large reduction in stash traffic (the (R) bars of Figure 9).

:class:`StagePipelinePlanner` is the stage-pipeline core GP Swap shares
with 2BW Swap (:mod:`~repro.baselines.pipedream_2bw`): the two differ
only in the order they run the same per-stage steps and in how many
weight versions a stage keeps.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.baselines.base import (
    BaselinePlan,
    BaselineScheme,
    LmsReplay,
    lms_task,
    order_after,
)
from repro.core.config import Pack, microbatch_group, packs_from_boundaries
from repro.core.types import Channel, Move, TaskGraph, TaskKind, TensorKind
from repro.graph.layer import Phase

#: one schedule step: ("F" or "B", stage, microbatch index)
Step = tuple[str, int, int]


def compute_balanced_stages(profiles, n_stages: int) -> tuple[Pack, ...]:
    """Split layers into ``n_stages`` contiguous stages with near-equal
    total (forward + backward) compute -- how GPipe/PipeDream partition."""
    times = [
        profiles[i].time(Phase.FWD, 1) + profiles[i].time(Phase.BWD, 1)
        for i in range(len(profiles))
    ]
    prefix = np.cumsum(times)
    targets = np.arange(1, n_stages) * (prefix[-1] / n_stages)
    cuts = np.searchsorted(prefix, targets) + 1
    cuts = np.clip(cuts, 1, len(times) - 1)
    boundaries = [0] + sorted(set(int(c) for c in cuts))
    while len(boundaries) < n_stages:  # degenerate tiny models
        boundaries.append(boundaries[-1] + 1)
    return packs_from_boundaries(boundaries[:n_stages], len(times))


class StagePipelinePlanner(BaselineScheme):
    """The stage-pipelined LMS baselines: N compute-balanced stages pinned
    one per GPU, each stage's state virtualized by its own LMS replay.

    Subclasses declare only the global step order (:meth:`steps`), the
    number of weight versions a stage keeps (:attr:`versions`) and the
    plan :meth:`notes`; the touch replay, the boundary ``act`` /
    ``grad-act`` transfers and the end-of-iteration update live here.
    ``recompute=True`` checkpoints each stage's input and rematerializes
    in the backward pass (the ``-r`` variants).
    """

    #: weight versions per stage; step ``i`` uses version ``i % versions``
    versions = 1

    def __init__(self, *args, recompute: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.recompute = recompute
        if recompute:
            self.name = f"{self.name}-r"

    def default_microbatch(self) -> int:
        """Pipelines need several microbatches per stage to fill (GPipe
        recommends m >= 4x the stage count), on top of the memory bound."""
        fit = super().default_microbatch()
        pipelined = max(1, self.minibatch // (4 * self.server.n_gpus))
        return min(fit, pipelined)

    # -- to override ---------------------------------------------------------------

    def steps(self, n_stages: int, n_mbs: int) -> Iterator[Step]:
        """Every (kind, stage, microbatch) step, in emission order; a step
        comes after the neighbouring-stage step it receives from."""
        raise NotImplementedError

    def notes(self, n_stages: int, n_mbs: int) -> str:
        raise NotImplementedError

    # -- schedule -----------------------------------------------------------------

    def _version(self, i: int) -> str:
        """Weight-key suffix of microbatch ``i``'s weight version."""
        return "" if self.versions == 1 else f"@{i % self.versions}"

    def _replay(self, replay: LmsReplay, kind: str, s: int, stage: Pack,
                i: int, size: int) -> None:
        """Replay one step's tensor touches on stage ``s``'s GPU."""
        profiles = self.profiles
        weight = self._version(i)
        if kind == "F":
            for layer in stage.layers:
                replay.use(f"W:{layer}{weight}", profiles[layer].param_bytes)
                if not self.recompute:
                    replay.produce(
                        f"stash:{layer}:{i}",
                        profiles[layer].saved_for_backward_bytes(size),
                    )
            if self.recompute:
                replay.produce(
                    f"ckpt:{s}:{i}", profiles.boundary_in_bytes(stage, size)
                )
            return
        if self.recompute:
            replay.use(f"ckpt:{s}:{i}", profiles.boundary_in_bytes(stage, size))
            replay.drop(f"ckpt:{s}:{i}")
        for layer in reversed(stage.layers):
            replay.use(f"W:{layer}{weight}", profiles[layer].param_bytes)
            stash = profiles[layer].saved_for_backward_bytes(size)
            key = f"restash:{layer}" if self.recompute else f"stash:{layer}:{i}"
            if self.recompute:
                replay.produce(key, stash)
            else:
                replay.use(key, stash)
            replay.drop(key)
            replay.use(f"dW:{layer}", profiles[layer].param_bytes, write=True)

    def plan(self) -> BaselinePlan:
        n = self.server.n_gpus
        u = min(self.microbatch, self.minibatch)
        mbs = microbatch_group(self.minibatch, u)
        stages = compute_balanced_stages(self.profiles, n)
        profiles = self.profiles

        graph = TaskGraph(mode=self.name, n_devices=n, pageable_swaps=True)
        replays = [LmsReplay(self.server.gpu.memory_bytes) for _ in range(n)]
        emitted: dict[Step, int] = {}
        last_bwd: dict[int, int] = {}
        for kind, s, i in self.steps(n, len(mbs)):
            stage, size = stages[s], mbs[i]
            replays[s].begin_step()
            self._replay(replays[s], kind, s, stage, i, size)
            deps: list[Move] = []
            if kind == "F" and s > 0:
                deps.append(Move(
                    tensor=TensorKind.X,
                    nbytes=profiles.boundary_in_bytes(stage, size),
                    channel=Channel.P2P, peer=s - 1,
                    src_task=emitted[("F", s - 1, i)], label="act",
                ))
            if kind == "B" and s < n - 1:
                deps.append(Move(
                    tensor=TensorKind.DY,
                    nbytes=profiles.boundary_out_bytes(stage, size),
                    channel=Channel.P2P, peer=s + 1,
                    src_task=emitted[("B", s + 1, i)], label="grad-act",
                ))
            task = lms_task(
                graph, TaskKind.FWD if kind == "F" else TaskKind.BWD,
                stage.first, stage.last, s, (size,), replays[s].end_step(),
                f"{kind}{s}mb{i}", deps,
                recompute=self.recompute and kind == "B",
            )
            emitted[(kind, s, i)] = task.tid
            if kind == "B":
                last_bwd[s] = task.tid

        # Per-stage weight update at iteration end (Task's default
        # recompute flag, like every update task).
        for s, stage in enumerate(stages):
            replays[s].begin_step()
            replays[s].update(stage.layers, profiles,
                              self.model.optimizer_slots, self._version(0))
            lms_task(graph, TaskKind.UPD, stage.first, stage.last, s, (1,),
                     replays[s].end_step(), f"U{s}", order_after(last_bwd[s]))

        recompute = "on" if self.recompute else "off"
        return self._finish(
            graph, u, f"{self.notes(n, len(mbs))}, recompute={recompute}",
            extra_host_bytes=(self.versions - 1) * self.model.weight_bytes,
        )


class GpipeSwapPlanner(StagePipelinePlanner):
    """Plan and run GP Swap / GP Swap (R)."""

    name = "gp-swap"

    def steps(self, n_stages: int, n_mbs: int) -> Iterator[Step]:
        """All forwards microbatch-major, then (after the flush) all
        backwards in reverse."""
        for i in range(n_mbs):
            for s in range(n_stages):
                yield "F", s, i
        for i in reversed(range(n_mbs)):
            for s in reversed(range(n_stages)):
                yield "B", s, i

    def notes(self, n_stages: int, n_mbs: int) -> str:
        return f"{n_stages} stages, {n_mbs} microbatches"
