"""Service request/response records and the terminal-outcome taxonomy.

Every request the service admits (or refuses) resolves to exactly one
:class:`Outcome`; the acceptance criterion "every request terminally
resolved (served/degraded/shed with reason)" is checked over these.
Kept import-light (standard library only) so tests and tooling can
consume results without pulling in the daemon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Optional


class Outcome(enum.Enum):
    """How one request terminated.  ``group`` buckets for reporting."""

    #: planner ran and produced a plan for exactly this request
    SERVED_FRESH = "served_fresh"
    #: content-addressed cache hit: same model/server/options fingerprint
    SERVED_CACHED = "served_cached"
    #: near-spec cached plan relabeled onto the requested device range
    DEGRADED_STALE = "degraded_stale"
    #: cheap baseline-scheme plan (the last rung before shedding)
    DEGRADED_BASELINE = "degraded_baseline"
    #: load shed at admission: the bounded queue was full
    SHED_QUEUE_FULL = "shed_queue_full"
    #: load shed at admission: the tenant exceeded its quota
    SHED_QUOTA = "shed_quota"
    #: breaker open / planner unavailable and no degraded rung fit
    SHED_BREAKER = "shed_breaker"
    #: fleet placement failed: no server can host the job's devices at
    #: its memory share, or the analyzer rejected the carved partition
    SHED_NO_CAPACITY = "shed_no_capacity"
    #: the virtual deadline expired before any rung could finish
    TIMED_OUT = "timed_out"
    #: chaos-poisoned (malformed) request, rejected with a typed error
    FAILED_POISONED = "failed_poisoned"

    @property
    def group(self) -> str:
        """``served`` | ``degraded`` | ``shed`` | ``failed``."""
        return _GROUPS[self]

    @property
    def carries_plan(self) -> bool:
        """True when the result hands the caller a usable plan."""
        return self.group in ("served", "degraded")


_GROUPS = {
    Outcome.SERVED_FRESH: "served",
    Outcome.SERVED_CACHED: "served",
    Outcome.DEGRADED_STALE: "degraded",
    Outcome.DEGRADED_BASELINE: "degraded",
    Outcome.SHED_QUEUE_FULL: "shed",
    Outcome.SHED_QUOTA: "shed",
    Outcome.SHED_BREAKER: "shed",
    Outcome.SHED_NO_CAPACITY: "shed",
    Outcome.TIMED_OUT: "shed",
    Outcome.FAILED_POISONED: "failed",
}


@dataclass(frozen=True)
class PlanRequest:
    """One planning (or plan+run) request submitted to the service.

    ``deadline`` is a *relative* virtual-time budget measured from
    ``arrival``; ``None`` falls back to the service's default.
    ``execute`` asks the service to also run one simulated training
    iteration of the plan it serves (degraded plans downgrade to
    plan-only -- that is part of the degradation contract).
    ``memory_share`` is the per-GPU memory fraction the job declares it
    needs (Synergy-style resource sensitivity); a fleet-backed service
    carves exactly that partition, letting jobs with share < 1 share
    GPUs with other tenants.  Ignored without a fleet.
    """

    rid: int
    tenant: str
    model: str
    minibatch: int
    mode: str = "pp"
    gpus: int = 2
    arrival: float = 0.0
    deadline: Optional[float] = None
    execute: bool = False
    memory_share: float = 1.0

    def __post_init__(self) -> None:
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be >= 1, got {self.minibatch}")
        if self.gpus < 1:
            raise ValueError(f"gpus must be >= 1, got {self.gpus}")
        if self.mode not in ("pp", "dp"):
            raise ValueError(f"mode must be 'pp' or 'dp', got {self.mode!r}")
        if not (math.isfinite(self.arrival) and self.arrival >= 0):
            raise ValueError(
                f"arrival must be finite and >= 0, got {self.arrival}"
            )
        if self.deadline is not None and not (
                math.isfinite(self.deadline) and self.deadline > 0):
            raise ValueError(
                f"deadline must be finite and > 0, got {self.deadline}"
            )
        if not 0.0 < self.memory_share <= 1.0:
            raise ValueError(
                f"memory_share must be in (0, 1], got {self.memory_share}"
            )


@dataclass(frozen=True)
class RequestResult:
    """The terminal resolution of one request.

    ``latency`` is arrival -> resolution in virtual seconds; ``wait`` is
    the queued portion of it.  ``plan`` (when :attr:`Outcome.
    carries_plan`) is the served plan object -- a
    :class:`~repro.core.harmony.HarmonyPlan`, a relabeled stale plan, or
    a :class:`~repro.baselines.base.BaselinePlan` -- excluded from
    equality so results stay comparable records.
    """

    request: PlanRequest
    outcome: Outcome
    detail: str = ""
    resolved_at: float = 0.0
    latency: float = 0.0
    wait: float = 0.0
    attempts: int = 0
    plan_key: str = ""
    plan: Optional[Any] = field(default=None, compare=False, repr=False)
    #: virtual seconds of simulated training executed (run requests)
    run_seconds: float = 0.0

    @property
    def terminal(self) -> bool:
        return True  # every constructed result is terminal by definition

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"req{self.request.rid} [{self.request.tenant}] "
            f"{self.request.model}/{self.request.mode}"
            f"x{self.request.gpus} mb{self.request.minibatch}: "
            f"{self.outcome.value}{extra}, latency {self.latency:.3f}s "
            f"(queued {self.wait:.3f}s)"
        )
