"""Shared machinery for the baseline planners.

The core piece is the *LMS replay*: walk the exact tensor-touch sequence a
schedule performs (weights, stashed activations, gradient buffers,
optimizer state, layer by layer, microbatch by microbatch) through a
per-GPU :class:`~repro.memory.swap_manager.LruSwapManager`, and record the
swap-in/out bytes each schedule step incurs.  :func:`lms_task` attaches
those bytes as moves on the step's task and the standard Runtime
executes the graph.

IBM-LMS moves tensors rather than dropping clean copies, so evictions
write back unconditionally -- this is what reproduces the paper's
``(4m+2)N|W|`` weight-swap volume for DP Swap without hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.decomposer import DecomposedModel, Decomposer
from repro.core.profiler import ModelProfiles, Profiler
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.hardware.server import ServerSpec, SimulatedServer
from repro.memory.swap_manager import LruSwapManager
from repro.models.spec import ModelSpec
from repro.models.zoo import build_model
from repro.runtime.executor import Executor
from repro.runtime.metrics import RunMetrics
from repro.runtime.timemodel import TrueTimeModel
from repro.sim.engine import Simulator


class LmsReplay:
    """Replays a schedule's tensor touches and accumulates step volumes.

    Touches between :meth:`begin_step` and :meth:`end_step` are charged to
    that step; the caller turns each step's (swap_in, swap_out) totals into
    one task's moves.
    """

    def __init__(self, capacity: int):
        self.manager = LruSwapManager(capacity, writeback_clean=True)
        self._step_in = 0
        self._step_out = 0

    def begin_step(self) -> None:
        self._step_in = 0
        self._step_out = 0

    def end_step(self) -> tuple[int, int]:
        return self._step_in, self._step_out

    # -- touch vocabulary -------------------------------------------------------

    def use(self, key: str, nbytes: int, write: bool = False) -> None:
        """Access a tensor that lives in (virtualized) GPU memory."""
        if nbytes == 0:
            return
        decision = self.manager.touch(key, nbytes, write=write)
        self._step_in += decision.swap_in_bytes
        self._step_out += decision.swap_out_bytes

    def produce(self, key: str, nbytes: int) -> None:
        """A tensor created on the GPU (activation, gradient)."""
        if nbytes == 0:
            return
        decision = self.manager.produce(key, nbytes)
        self._step_out += decision.swap_out_bytes

    def drop(self, key: str) -> None:
        """Free a dead tensor without write-back."""
        self.manager.discard(key)

    def flush(self, key: str) -> None:
        """Force a dirty tensor back to host (end-of-iteration state)."""
        self._step_out += self.manager.flush(key)

    def update(self, layers: Sequence[int], profiles: ModelProfiles,
               slots: int, version: str = "") -> None:
        """The optimizer step: read ``dW``, rewrite the weights (key
        ``W:{layer}{version}``) and optimizer state, then flush both back
        to host."""
        for layer in layers:
            nbytes = profiles[layer].param_bytes
            self.use(f"W:{layer}{version}", nbytes, write=True)
            self.use(f"dW:{layer}", nbytes)
            self.use(f"K:{layer}", nbytes * slots, write=True)
        for layer in layers:
            self.flush(f"W:{layer}{version}")
            self.flush(f"K:{layer}")


def order_after(tid: Optional[int]) -> list[Move]:
    """A zero-byte dependency on task ``tid`` (none when ``tid`` is None):
    the next step on the same device starts after it."""
    if tid is None:
        return []
    return [Move(tensor=TensorKind.DW, nbytes=0, channel=Channel.LOCAL,
                 src_task=tid, label="order")]


def lms_task(
    graph: TaskGraph,
    kind: TaskKind,
    first: int,
    last: int,
    device: int,
    microbatches: tuple[int, ...],
    swap: tuple[int, int],
    label: str,
    deps: Sequence[Move] = (),
    always_swap: bool = False,
    **fields,
) -> Task:
    """Emit one LMS-replayed schedule step and return its task.

    ``swap`` is the step's ``(swap_in, swap_out)`` from
    :meth:`LmsReplay.end_step`: the inputs are the ``lms-in`` swap then
    ``deps``, the output the ``lms-out`` swap.  Empty swaps are left out
    unless ``always_swap``.  Everything fetched across PCIe (host swaps
    and peer transfers alike) occupies GPU memory while the task runs.
    ``fields`` go to :class:`~repro.core.types.Task` unchanged.
    """
    swap_in, swap_out = swap
    task = Task(tid=len(graph.tasks), kind=kind, first_layer=first,
                last_layer=last, device=device, microbatches=microbatches,
                label=label, **fields)
    if swap_in or always_swap:
        task.ins.append(Move(tensor=TensorKind.W, nbytes=swap_in,
                             channel=Channel.SWAP, label="lms-in"))
    task.ins.extend(deps)
    if swap_out or always_swap:
        task.outs.append(Move(tensor=TensorKind.DW, nbytes=swap_out,
                              channel=Channel.SWAP, label="lms-out"))
    task.resident_bytes = sum(
        move.nbytes for move in task.ins if move.channel.crosses_pcie
    )
    graph.add(task)
    return task


@dataclass
class BaselinePlan:
    """A baseline schedule ready to execute."""

    scheme: str
    model: ModelSpec
    server: ServerSpec
    minibatch: int
    microbatch: int
    decomposed: DecomposedModel
    profiles: ModelProfiles
    graph: TaskGraph
    host_state_bytes: int
    notes: str = ""

    def describe(self) -> str:
        return (
            f"{self.scheme} for {self.model.name}, minibatch "
            f"{self.minibatch} (microbatch {self.microbatch}): "
            f"{len(self.graph)} tasks, static swap "
            f"{self.graph.global_swap_bytes() / 2**30:.1f} GiB/iter"
        )


class BaselineScheme:
    """Base class: owns decomposition/profiling and the run loop.

    ``reactive = True`` (the LMS-style schemes) runs without prefetch:
    on-demand virtualization faults block compute until the tensor
    arrives, exactly the behaviour per-GPU swapping exhibits.  The
    ZeRO-Infinity analog overrides this -- it ships its own pinned,
    overlapped transfer engine.
    """

    name = "baseline"
    reactive = True
    #: Justified analyzer exceptions for this scheme's schedules; each is
    #: surfaced (not silenced) by the analyzer as a waived INFO finding.
    waivers: tuple = ()

    def __init__(
        self,
        model: Union[str, ModelSpec],
        server: ServerSpec,
        minibatch: int,
        microbatch: Optional[int] = None,
        seed: int = 0,
    ):
        self.model = build_model(model) if isinstance(model, str) else model
        self.server = server
        self.minibatch = minibatch
        # One seed pins the whole baseline run: the Decomposer draws its
        # kernel noise through repro.common.rng, the package-wide seeding
        # scheme shared with Harmony runs and chaos fault plans.
        self.seed = seed
        self.decomposed = Decomposer(seed=seed).decompose(self.model)
        self.profiles = Profiler(server.gpu).profile(self.decomposed)
        self.microbatch = microbatch or self.default_microbatch()

    # -- to override ---------------------------------------------------------------

    def default_microbatch(self) -> int:
        """Largest microbatch whose single-layer working set fits the GPU."""
        from repro.graph.layer import Phase

        capacity = int(self.server.gpu.memory_bytes * 0.9)
        u = 1
        while u * 2 <= self.minibatch:
            peak = max(
                self.profiles[i].memory(Phase.BWD, u * 2)
                for i in range(len(self.profiles))
            )
            if peak > capacity // 4:
                break
            u *= 2
        return u

    def plan(self) -> BaselinePlan:
        raise NotImplementedError

    def _finish(self, graph: TaskGraph, microbatch: int, notes: str,
                extra_host_bytes: int = 0) -> BaselinePlan:
        """Validate ``graph`` and wrap it as this scheme's plan.  Host
        memory holds the model state, any ``extra_host_bytes`` the scheme
        keeps on top, and the minibatch's input samples."""
        graph.validate()
        host_state = (
            self.model.model_state_bytes
            + extra_host_bytes
            + self.minibatch * self.model.sample_bytes
        )
        return BaselinePlan(
            scheme=self.name,
            model=self.model,
            server=self.server,
            minibatch=self.minibatch,
            microbatch=microbatch,
            decomposed=self.decomposed,
            profiles=self.profiles,
            graph=graph,
            host_state_bytes=host_state,
            notes=notes,
        )

    # -- execution -------------------------------------------------------------------

    def run(self, plan: Optional[BaselinePlan] = None) -> RunMetrics:
        plan = plan or self.plan()
        sim = Simulator()
        live = SimulatedServer(sim, self.server)
        time_model = TrueTimeModel(
            self.decomposed, self.server.gpu, self.server.host,
            n_gpus=self.server.n_gpus,
        )
        executor = Executor(
            live, time_model, prefetch=not self.reactive,
            host_state_bytes=plan.host_state_bytes,
        )
        return executor.run(plan.graph)
