"""Runtime Estimator (the ``epsilon`` of Algorithm 1).

Estimates one iteration's end-to-end time for a candidate task graph by
event-driven simulation over per-device timelines (compute, swap, p2p,
host optimizer lane), at per-microbatch granularity so pipeline overlap is
captured.

It deliberately differs from the full Runtime in two ways -- it uses the
Profiler's *regressed* layer times rather than true kernel times, and it
ignores cross-GPU link contention -- which is why Figure 14 compares its
estimates against actual (fully simulated) runs and finds them close but
not identical.  Being contention-free and allocation-free, it evaluates a
configuration in microseconds, enabling the sweep of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import Pack
from repro.core.profiler import ModelProfiles
from repro.core.taskgraph import Placement, mb_dependency
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.graph.layer import Phase
from repro.hardware.server import ServerSpec
from repro.perf import perf_enabled

_PER_TASK_TENSORS = frozenset({TensorKind.W, TensorKind.DW, TensorKind.K})


@dataclass
class _TaskTimes:
    mb_done: list[float]
    done: float
    outs_flushed: float


def _remat(task: Task) -> bool:
    """A backward task re-runs its forward when fused or rematerializing."""
    return task.kind is TaskKind.BWD and (task.fused or task.recompute)


class RuntimeEstimator:
    """Estimates iteration time for task graphs on a server spec."""

    def __init__(self, profiles: ModelProfiles, server: ServerSpec,
                 prefetch: bool = True):
        self.profiles = profiles
        self.server = server
        self.prefetch = prefetch
        topo = server.topology
        self._swap_bw = min(topo.leaf_bandwidth, topo.uplink_bandwidth)
        self._p2p_bw = topo.leaf_bandwidth
        self._staging_bw = server.host.pageable_copy_bandwidth
        # Shared cross-configuration task-time cache.  One estimator scores
        # every candidate of a configuration search, and candidates share
        # most of their (pack, u, phase) combinations; the per-layer time
        # sums dominate search CPU time (>75% on deep CNNs).  Entries are
        # computed once with the naive left-to-right summation order, so
        # hits are bit-identical to the uncached path.  The cache is tied
        # to the profiles' ``cache_token``: a profile mutation invalidates
        # every entry (see _sync_cache).
        self._cache_enabled = perf_enabled()
        self._time_cache: dict[tuple, float] = {}
        self._profiles_token = profiles.cache_token

    def _sync_cache(self) -> None:
        """Drop cached task times if the underlying profiles changed."""
        token = self.profiles.cache_token
        if token != self._profiles_token:
            self._time_cache.clear()
            self._profiles_token = token

    # -- task timing from regressed profiles -------------------------------------

    def mb_time(self, task: Task, u: int) -> float:
        if task.kind is TaskKind.UPD:
            raise ValueError("update tasks timed separately")
        return self._pass_time(task.kind, task.first_layer, task.last_layer,
                               u, _remat(task))

    def _pass_time(self, kind: TaskKind, first: int, last: int, u: int,
                   remat: bool) -> float:
        """One microbatch of a pass over layers ``first..last`` (a GPU
        update's whole run for UPD); ``remat`` adds the forward a fused or
        rematerializing backward re-runs."""
        key = (kind, first, last, u, remat)
        if self._cache_enabled:
            self._sync_cache()
            cached = self._time_cache.get(key)
            if cached is not None:
                return cached
        value = self._pass_time_uncached(kind, Pack(first, last), u, remat)
        if self._cache_enabled:
            self._time_cache[key] = value
        return value

    def _mb_time_uncached(self, task: Task, u: int) -> float:
        """:meth:`mb_time` without the cache (the tests' oracle)."""
        return self._pass_time_uncached(
            task.kind, Pack(task.first_layer, task.last_layer), u,
            _remat(task),
        )

    def _pass_time_uncached(self, kind: TaskKind, pack: Pack, u: int,
                            remat: bool) -> float:
        if kind is TaskKind.UPD:
            return self.profiles.pack_time(Phase.UPD, pack, 1)
        if kind is TaskKind.FWD:
            return self.profiles.pack_time(Phase.FWD, pack, u)
        bwd = self.profiles.pack_time(Phase.BWD, pack, u)
        if remat:
            bwd += self.profiles.pack_time(Phase.FWD, pack, u)
        return bwd

    def update_time(self, task: Task, n_gpus: int) -> float:
        if task.on_cpu:
            cores = max(1, self.server.host.cores // max(1, n_gpus))
            return self.server.host.optimizer_time(task.compute_flops, cores)
        return self._pass_time(TaskKind.UPD, task.first_layer,
                               task.last_layer, 1, False)

    def _xfer(self, move: Move, nbytes: int) -> float:
        if move.channel is Channel.LOCAL or nbytes == 0:
            return 0.0
        if move.channel is Channel.MSG and move.src_task is not None:
            # Two PCIe hops plus the host staging copy (a relay).
            return nbytes * (2.0 / self._swap_bw + 1.0 / self._staging_bw)
        bw = self._p2p_bw if move.channel is Channel.P2P else self._swap_bw
        return nbytes / bw

    # -- the estimate -----------------------------------------------------------------

    def estimate_graph(self, graph: TaskGraph) -> float:
        """The estimated iteration time of ``graph``."""
        n = graph.n_devices
        compute_free = [0.0] * n
        swap_in_free = [0.0] * n
        swap_out_free = [0.0] * n
        p2p_free = [0.0] * n
        cpu_free = [0.0] * n
        prev_compute_done = [0.0] * n

        times: list[_TaskTimes] = []
        finish = 0.0

        for task in graph.tasks:
            d = task.device
            if task.kind is TaskKind.UPD:
                tt = self._estimate_update(task, times, cpu_free, compute_free)
                times.append(tt)
                finish = max(finish, tt.outs_flushed)
                continue

            fetch_floor = 0.0 if self.prefetch else prev_compute_done[d]

            # Per-task state tensors ride the swap-in lane back-to-back.
            state_bytes = 0
            state_dep = 0.0
            for move in task.ins:
                if move.tensor not in _PER_TASK_TENSORS:
                    continue
                if move.src_task is not None:
                    state_dep = max(state_dep, times[move.src_task].outs_flushed)
                if move.channel is not Channel.LOCAL:
                    state_bytes += move.nbytes
            start = max(swap_in_free[d], state_dep, fetch_floor)
            state_ready = start + state_bytes / self._swap_bw
            swap_in_free[d] = state_ready

            # Per-microbatch chunks.
            mbs = task.microbatches
            input_ready = [state_ready] * len(mbs)
            for move in task.ins:
                if move.tensor in _PER_TASK_TENSORS:
                    continue
                chunk = move.nbytes / len(mbs) if mbs else 0.0
                for i in range(len(mbs)):
                    dep = self._chunk_dep(graph, move, task, i, times)
                    if move.channel is Channel.LOCAL:
                        input_ready[i] = max(input_ready[i], dep)
                        continue
                    lane = p2p_free if move.channel is Channel.P2P else swap_in_free
                    begin = max(lane[d], dep, fetch_floor)
                    end = begin + self._xfer(move, int(chunk))
                    lane[d] = end
                    input_ready[i] = max(input_ready[i], end)

            durations = {u: self.mb_time(task, u) for u in set(mbs)}
            mb_done = []
            for i, u in enumerate(mbs):
                begin = max(compute_free[d], input_ready[i])
                end = begin + durations[u]
                compute_free[d] = end
                mb_done.append(end)
            done = mb_done[-1]
            prev_compute_done[d] = done

            outs_flushed = done
            for move in task.outs:
                if move.channel is Channel.LOCAL or move.nbytes == 0:
                    continue
                if move.tensor in _PER_TASK_TENSORS:
                    begin = max(swap_out_free[d], done)
                    end = begin + self._xfer(move, move.nbytes)
                else:
                    chunk = move.nbytes / len(mbs)
                    end = swap_out_free[d]
                    for i in range(len(mbs)):
                        begin = max(end, mb_done[i])
                        end = begin + self._xfer(move, int(chunk))
                swap_out_free[d] = end
                outs_flushed = max(outs_flushed, end)

            times.append(_TaskTimes(mb_done, done, outs_flushed))
            finish = max(finish, outs_flushed)

        return finish

    def lower_bound(self, placements: Sequence[Placement]) -> float:
        """An admissible lower bound on :meth:`estimate_graph` for the graph
        the builder emits from ``placements``, computed without building it.

        The estimate is a max-plus recurrence whose per-device lanes only
        move forward, so this folds, in graph order, two of its lanes per
        device with the same additions: the state swap-in (each task's
        pack weights) and the compute lane (each microbatch's
        :meth:`mb_time`, a task's first microbatch waiting for its state).
        A chained pass also waits for its chain predecessor's first
        microbatch, which is the pipeline fill across devices in PP.  Every
        term it drops (activation transfers, swap-outs, updates) only
        delays the estimate, and rounded addition is monotone, so the
        bound never exceeds the estimate, bit for bit.
        """
        n = 1 + max(p.device for p in placements)
        compute = [0.0] * n
        swap_in = [0.0] * n
        first_done = 0.0  # the previous placement's first microbatch
        for p in placements:
            d = p.device
            first, last = p.pack.first, p.pack.last
            # The builder's backward tasks keep Task.recompute on, and a
            # group differs from ``u`` only in its last microbatch.
            remat = p.kind is TaskKind.BWD
            durations = {
                u: self._pass_time(p.kind, first, last, u, remat)
                for u in {p.groups[0][0], p.groups[-1][-1]}
            }
            state = self.profiles.pack_param_bytes(p.pack) / self._swap_bw
            chain = first_done if p.chained else 0.0
            c, s = compute[d], swap_in[d]
            for i, group in enumerate(p.groups):
                if not self.prefetch:
                    s = max(s, c)
                s = s + state
                c = max(c, s, chain) + durations[group[0]]
                if i == 0:
                    first_done = c
                for u in group[1:]:
                    c = c + durations[u]
            compute[d], swap_in[d] = c, s
        return max(compute)

    def _chunk_dep(self, graph: TaskGraph, move: Move, task: Task,
                   mb_index: int, times: list[_TaskTimes]) -> float:
        if move.src_task is None:
            return 0.0
        producer = times[move.src_task]
        if move.channel is Channel.SWAP:
            return producer.outs_flushed
        src_sizes = graph.tasks[move.src_task].microbatches
        if sum(src_sizes) != task.group_samples:
            return producer.done
        return producer.mb_done[
            mb_dependency(src_sizes, task.microbatches)[mb_index]
        ]

    def _estimate_update(self, task: Task, times: list[_TaskTimes],
                         cpu_free: list[float], compute_free: list[float]) -> _TaskTimes:
        d = task.device
        dep = 0.0
        for move in task.ins:
            if move.src_task is not None:
                dep = max(dep, times[move.src_task].outs_flushed)
        duration = self.update_time(task, n_gpus=len(cpu_free))
        if task.on_cpu:
            begin = max(cpu_free[d], dep)
            end = begin + duration
            cpu_free[d] = end
        else:
            swap_bytes = sum(
                m.nbytes for m in task.ins if m.channel.via_host
            )
            out_bytes = sum(
                m.nbytes for m in task.outs if m.channel.via_host
            )
            begin = max(compute_free[d], dep + swap_bytes / self._swap_bw)
            end = begin + duration + out_bytes / self._swap_bw
            compute_free[d] = end
        return _TaskTimes([end], end, end)
