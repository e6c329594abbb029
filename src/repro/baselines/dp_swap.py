"""DP Swap: data parallelism with per-GPU memory virtualization.

Every GPU holds a full model replica and processes ``D/N`` samples per
iteration in microbatches (gradient accumulation), with IBM-LMS-style
swapping standing in for the memory it does not have.  The touch replay
exposes the paper's pathologies mechanically:

- *repeated swaps*: each microbatch's forward and backward re-fetch every
  layer's weights, because the stash evicted them (Section 2, item 1);
- *unnecessary swaps*: gradients and weights bounce to host between the
  backward pass and the end-of-iteration update (item 2);
- *CPU-GPU swaps only*: all N replicas hammer the shared host link with
  identical traffic -- swap volume grows linearly with N (item 3).

Result: swap volume ``(4m+2)N|W|`` plus activation/gradient traffic --
the left bars of Figure 9 and the dominant line of Figure 10.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import (
    BaselinePlan,
    BaselineScheme,
    LmsReplay,
    lms_task,
    order_after,
)
from repro.core.config import microbatch_group
from repro.core.types import Channel, Move, TaskGraph, TaskKind, TensorKind


def layer_chunks(profiles, max_bytes: int, max_layers: int = 32) -> list[tuple[int, int]]:
    """Contiguous layer chunks whose weights fit a transfer window.

    LMS interleaves swapping and compute layer by layer; emitting one task
    per (microbatch, chunk) lets the Runtime's prefetch reproduce that
    overlap without one task per layer.
    """
    chunks = []
    first = 0
    n = len(profiles)
    while first < n:
        last = first
        acc = profiles[first].param_bytes
        while (
            last + 1 < n
            and last - first + 1 < max_layers
            and acc + profiles[last + 1].param_bytes <= max_bytes
        ):
            last += 1
            acc += profiles[last].param_bytes
        chunks.append((first, last))
        first = last + 1
    return chunks


class DpSwapPlanner(BaselineScheme):
    """Plan and run DP Swap."""

    name = "dp-swap"

    def plan(self) -> BaselinePlan:
        n = self.server.n_gpus
        if self.minibatch % n:
            raise ValueError("DP minibatch must divide across GPUs")
        share = self.minibatch // n
        u = min(self.microbatch, share)
        mbs = microbatch_group(share, u)
        capacity = self.server.gpu.memory_bytes
        chunks = layer_chunks(self.profiles, max_bytes=capacity // 8)
        profiles = self.profiles

        graph = TaskGraph(mode=self.name, n_devices=n, pageable_swaps=True)
        last_bwd_tid: dict[int, int] = {}

        for gpu in range(n):
            replay = LmsReplay(capacity)
            prev_tid: Optional[int] = None

            # -- forward: all microbatches, stashing every activation ------
            for i, size in enumerate(mbs):
                for first, last in chunks:
                    replay.begin_step()
                    for layer in range(first, last + 1):
                        replay.use(f"W:{layer}", profiles[layer].param_bytes)
                        replay.produce(
                            f"stash:{layer}:{i}",
                            profiles[layer].saved_for_backward_bytes(size),
                        )
                    # DP Swap stashes; it does not rematerialize.
                    prev_tid = lms_task(
                        graph, TaskKind.FWD, first, last, gpu, (size,),
                        replay.end_step(), f"F[{first}-{last}]mb{i}@g{gpu}",
                        order_after(prev_tid), recompute=False,
                    ).tid

            # -- backward: reverse order, consuming stash, accumulating dW --
            for i in reversed(range(len(mbs))):
                size = mbs[i]
                for first, last in reversed(chunks):
                    replay.begin_step()
                    for layer in range(last, first - 1, -1):
                        replay.use(f"W:{layer}", profiles[layer].param_bytes)
                        replay.use(
                            f"stash:{layer}:{i}",
                            profiles[layer].saved_for_backward_bytes(size),
                        )
                        replay.drop(f"stash:{layer}:{i}")
                        replay.use(
                            f"dW:{layer}", profiles[layer].param_bytes,
                            write=True,
                        )
                    prev_tid = lms_task(
                        graph, TaskKind.BWD, first, last, gpu, (size,),
                        replay.end_step(), f"B[{first}-{last}]mb{i}@g{gpu}",
                        order_after(prev_tid), recompute=False,
                    ).tid
            last_bwd_tid[gpu] = prev_tid

        # -- allreduce + weight update, per replica -------------------------
        # Ring allreduce: each replica receives ~2(N-1)/N |W| from its
        # peers over p2p before it can apply the averaged gradient; the
        # shards occupy GPU memory alongside the swapped-in state.
        ring_bytes = int(2 * (n - 1) / n * profiles.total_param_bytes)
        for gpu in range(n):
            replay = LmsReplay(capacity)
            replay.begin_step()
            replay.update(range(len(profiles)), profiles,
                          self.model.optimizer_slots)
            allreduce = [
                Move(tensor=TensorKind.DW,
                     nbytes=ring_bytes // max(1, n - 1),
                     channel=Channel.P2P, peer=peer,
                     src_task=last_bwd_tid[peer],
                     label=f"allreduce<-g{peer}")
                for peer in range(n) if peer != gpu
            ]
            lms_task(graph, TaskKind.UPD, 0, len(profiles) - 1, gpu, (1,),
                     replay.end_step(), f"U@g{gpu}", allreduce,
                     always_swap=True)

        return self._finish(
            graph, u, f"{len(mbs)} microbatches/GPU, {len(chunks)} layer chunks"
        )
