"""Service-level chaos: seeded faults against the planning daemon.

Mirrors :mod:`repro.faults`'s discipline at the service layer: a frozen
spec of *rates*, bound to a seed, answering every "does this go wrong?"
question with a stateless :func:`repro.common.rng.unit` draw keyed on
``(seed, kind, request id, attempt)`` -- order-independent, so a chaos
storm is bit-reproducible from its seed no matter how the simulator
interleaves workers.

Three service fault classes:

- **slow planner** -- a planning attempt takes ``slow_factor`` times its
  nominal virtual cost (GC pause, noisy neighbor on the planner host);
  drawn per attempt, so retries may escape it;
- **crashed planner** -- a planning attempt dies after its work was
  spent (worker OOM, segfault); retried with backoff until the budget
  or deadline runs out;
- **poisoned request** -- the request itself is malformed in a way only
  planning-time validation catches; resolves FAILED with a typed reason
  and, crucially, does *not* count against the circuit breaker (a bad
  request is the client's fault, not the planner's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.rng import unit
from repro.faults.domain import RateSpec, SeededPlan, tagged


@dataclass(frozen=True)
class ServiceChaosSpec(RateSpec):
    """Rates and magnitudes for service-level faults.  Rates in [0, 1]."""

    #: probability one planning attempt runs slow
    slow_rate: float = tagged("rate")
    #: virtual-cost multiplier of a slow attempt
    slow_factor: float = tagged("slowdown", 4.0)
    #: probability one planning attempt crashes after doing its work
    crash_rate: float = tagged("rate")
    #: probability a request is poisoned (malformed payload)
    poison_rate: float = tagged("rate")

    @classmethod
    def chaos(cls, intensity: float = 1.0) -> "ServiceChaosSpec":
        """The standard service chaos mix, scaled like
        :meth:`repro.faults.plan.FaultSpec.chaos`."""
        return cls(
            **cls.scaled(intensity, slow_rate=0.15, crash_rate=0.10,
                         poison_rate=0.02),
            slow_factor=1.0 + 3.0 * max(intensity, 0.1),
        )

    def describe(self) -> str:
        if not self.any_enabled:
            return "ServiceChaosSpec(off)"
        return (
            f"ServiceChaosSpec(slow={self.slow_rate:g}"
            f"x{self.slow_factor:g}, crash={self.crash_rate:g}, "
            f"poison={self.poison_rate:g})"
        )


class ServiceFaultPlan(SeededPlan):
    """Seeded oracle for service fault decisions (stateless draws)."""

    spec: ServiceChaosSpec

    def __init__(self, spec: Optional[ServiceChaosSpec] = None,
                 seed: int = 0):
        super().__init__(spec if spec is not None else ServiceChaosSpec(),
                         seed)

    def poisoned(self, rid: int) -> bool:
        """Is request ``rid`` malformed?  A per-request property."""
        return unit(self.seed, "svc-poison", rid) < self.spec.poison_rate

    def slowdown(self, rid: int, attempt: int) -> float:
        """Virtual-cost multiplier for planning attempt ``attempt``."""
        if unit(self.seed, "svc-slow", rid, attempt) < self.spec.slow_rate:
            return self.spec.slow_factor
        return 1.0

    def crash(self, rid: int, attempt: int) -> bool:
        """Does planning attempt ``attempt`` of ``rid`` crash?"""
        return unit(self.seed, "svc-crash", rid, attempt) < \
            self.spec.crash_rate


class ScriptedServiceFaultPlan(ServiceFaultPlan):
    """Explicitly scripted service faults (for tests).

    ``poisoned_rids`` poisons those requests; ``crashes`` maps
    ``rid -> n`` (the first ``n`` attempts crash; ``-1`` = every
    attempt); ``slowdowns`` maps ``rid -> factor`` applied to every
    attempt.  Anything unscripted falls through to the seeded spec.
    """

    scripted = ("poisoned_rids", "crashes", "slowdowns")

    def __init__(self, poisoned_rids: Iterable[int] = (),
                 crashes: Optional[dict[int, int]] = None,
                 slowdowns: Optional[dict[int, float]] = None,
                 spec: Optional[ServiceChaosSpec] = None, seed: int = 0):
        super().__init__(spec, seed=seed)
        self.poisoned_rids = frozenset(poisoned_rids)
        self.crashes = dict(crashes or {})
        self.slowdowns = dict(slowdowns or {})

    def poisoned(self, rid: int) -> bool:
        if rid in self.poisoned_rids:
            return True
        return super().poisoned(rid)

    def slowdown(self, rid: int, attempt: int) -> float:
        if rid in self.slowdowns:
            return self.slowdowns[rid]
        return super().slowdown(rid, attempt)

    def crash(self, rid: int, attempt: int) -> bool:
        if rid in self.crashes:
            budget = self.crashes[rid]
            return budget < 0 or attempt < budget
        return super().crash(rid, attempt)
