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

:meth:`ServiceChaosSpec.from_fault_spec` maps a runtime
:class:`~repro.faults.plan.FaultSpec` onto these rates so one chaos
intensity knob drives both layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.rng import unit
from repro.faults.plan import FaultSpec, check_intensity

_RATES = ("slow_rate", "crash_rate", "poison_rate")


@dataclass(frozen=True)
class ServiceChaosSpec:
    """Rates and magnitudes for service-level faults.  Rates in [0, 1]."""

    #: probability one planning attempt runs slow
    slow_rate: float = 0.0
    #: virtual-cost multiplier of a slow attempt
    slow_factor: float = 4.0
    #: probability one planning attempt crashes after doing its work
    crash_rate: float = 0.0
    #: probability a request is poisoned (malformed payload)
    poison_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_factor < 1.0:
            raise ValueError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _RATES)

    @classmethod
    def none(cls) -> "ServiceChaosSpec":
        return cls()

    @classmethod
    def chaos(cls, intensity: float = 1.0) -> "ServiceChaosSpec":
        """The standard service chaos mix, scaled like
        :meth:`repro.faults.plan.FaultSpec.chaos`."""
        check_intensity(intensity)
        clamp = lambda r: min(1.0, r * intensity)  # noqa: E731
        return cls(
            slow_rate=clamp(0.15),
            slow_factor=1.0 + 3.0 * max(intensity, 0.1),
            crash_rate=clamp(0.10),
            poison_rate=clamp(0.02),
        )

    @classmethod
    def from_fault_spec(cls, spec: FaultSpec) -> "ServiceChaosSpec":
        """Project runtime fault rates onto the service layer: straggler
        GPUs -> slow planners, task crashes -> crashed planner attempts,
        transfer faults -> poisoned requests."""
        return cls(
            slow_rate=spec.gpu_slowdown_rate,
            slow_factor=max(1.0, spec.gpu_slowdown_factor),
            crash_rate=spec.task_crash_rate,
            poison_rate=spec.transfer_fault_rate,
        )

    def describe(self) -> str:
        if not self.any_enabled:
            return "ServiceChaosSpec(off)"
        return (
            f"ServiceChaosSpec(slow={self.slow_rate:g}"
            f"x{self.slow_factor:g}, crash={self.crash_rate:g}, "
            f"poison={self.poison_rate:g})"
        )


class ServiceFaultPlan:
    """Seeded oracle for service fault decisions (stateless draws)."""

    def __init__(self, spec: Optional[ServiceChaosSpec] = None,
                 seed: int = 0):
        self.spec = spec if spec is not None else ServiceChaosSpec.none()
        self.seed = seed

    @property
    def enabled(self) -> bool:
        return self.spec.any_enabled

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

    def describe(self) -> str:
        return f"ServiceFaultPlan(seed={self.seed}, {self.spec.describe()})"


class ScriptedServiceFaultPlan(ServiceFaultPlan):
    """Explicitly scripted service faults (for tests).

    ``poisoned_rids`` poisons those requests; ``crashes`` maps
    ``rid -> n`` (the first ``n`` attempts crash; ``-1`` = every
    attempt); ``slowdowns`` maps ``rid -> factor`` applied to every
    attempt.  Anything unscripted falls through to the seeded spec.
    """

    def __init__(self, poisoned_rids: Iterable[int] = (),
                 crashes: Optional[dict[int, int]] = None,
                 slowdowns: Optional[dict[int, float]] = None,
                 spec: Optional[ServiceChaosSpec] = None, seed: int = 0):
        super().__init__(spec, seed=seed)
        self.poisoned_rids = frozenset(poisoned_rids)
        self.crashes = dict(crashes or {})
        self.slowdowns = dict(slowdowns or {})

    @property
    def enabled(self) -> bool:
        return bool(
            self.poisoned_rids or self.crashes or self.slowdowns
            or self.spec.any_enabled
        )

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
