"""2BW Swap: PipeDream-2BW with per-GPU memory virtualization.

PipeDream-2BW runs the 1F1B schedule (each stage alternates one forward
and one backward in steady state), avoiding GPipe's flush bubbles, at the
cost of keeping *two* weight versions per stage.  With per-GPU swapping
the doubled weight state adds memory pressure -- which is why the paper
finds the gap between GP Swap and 2BW Swap "less dramatic" in the
swap-dominated regime than when models fit in memory.

``recompute=True`` gives 2BW Swap (R).
"""

from __future__ import annotations

from typing import Iterator

from repro.baselines.gpipe_swap import Step, StagePipelinePlanner


def one_f_one_b_order(n_stages: int, stage: int, n_mbs: int) -> list[tuple[str, int]]:
    """The 1F1B schedule for one stage: warmup forwards, steady-state
    alternation, drain backwards."""
    warmup = min(n_stages - stage, n_mbs)
    order: list[tuple[str, int]] = [("F", i) for i in range(warmup)]
    next_f, next_b = warmup, 0
    while next_b < n_mbs:
        order.append(("B", next_b))
        next_b += 1
        if next_f < n_mbs:
            order.append(("F", next_f))
            next_f += 1
    return order


class PipeDream2BWPlanner(StagePipelinePlanner):
    """Plan and run 2BW Swap / 2BW Swap (R)."""

    name = "2bw-swap"
    versions = 2  # double-buffered weight versions

    def steps(self, n_stages: int, n_mbs: int) -> Iterator[Step]:
        """A global order consistent with every stage's local 1F1B order
        and with cross-stage data deps: walk the per-stage orders,
        releasing a step once its dependency has been emitted."""
        per_stage = [one_f_one_b_order(n_stages, s, n_mbs)
                     for s in range(n_stages)]
        cursor = [0] * n_stages
        emitted: set[Step] = set()

        def ready(s: int) -> bool:
            kind, i = per_stage[s][cursor[s]]
            if kind == "F":
                return s == 0 or ("F", s - 1, i) in emitted
            return s == n_stages - 1 or ("B", s + 1, i) in emitted

        remaining = sum(len(order) for order in per_stage)
        while remaining:
            progressed = False
            for s in range(n_stages):
                while cursor[s] < len(per_stage[s]) and ready(s):
                    kind, i = per_stage[s][cursor[s]]
                    cursor[s] += 1
                    emitted.add((kind, s, i))
                    yield kind, s, i
                    remaining -= 1
                    progressed = True
            if not progressed:
                raise RuntimeError("1F1B schedule deadlocked (bug)")

    def notes(self, n_stages: int, n_mbs: int) -> str:
        return f"1F1B, {self.versions} weight versions"
