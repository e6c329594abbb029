"""The fault-domain core shared by every chaos layer.

Runtime faults (:mod:`repro.faults.plan`), cluster faults
(:mod:`repro.cluster.faults`) and service chaos (:mod:`repro.service.chaos`)
share one discipline: a frozen spec of rates and magnitudes whose fields
declare their checks (:func:`tagged`, enforced by :class:`RateSpec`), bound
to a seed by a :class:`SeededPlan` whose every decision is a stateless
:func:`repro.common.rng.unit` draw.  A domain declares only its fields,
presets and draws.  Draws keep their ``unit(...)`` calls inline: each label
tuple is one fault class's reproducibility contract, and a shared per-draw
helper would cost every draw an extra call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, TypeVar

_S = TypeVar("_S", bound="RateSpec")

#: check tag -> (predicate, what a valid value must be)
_CHECKS: dict[str, tuple[Callable[[float], bool], str]] = {
    "rate": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "probability": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "factor": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "slowdown": (lambda v: math.isfinite(v) and v >= 1.0,
                 "must be finite and >= 1"),
    "interval": (lambda v: math.isfinite(v) and v > 0.0,
                 "must be finite and positive"),
}


def check_intensity(intensity: float) -> None:
    """Reject a chaos intensity that is negative or not finite (a NaN
    would pass every ``< 0`` test and silently scale rates to NaN)."""
    if not math.isfinite(intensity) or intensity < 0:
        raise ValueError(
            f"intensity must be a finite number >= 0, got {intensity}"
        )


def tagged(check: str, default: float = 0.0) -> Any:
    """A spec field validated by ``check``: ``rate`` and ``probability``
    in [0, 1], ``factor`` in (0, 1], ``slowdown`` finite and >= 1,
    ``interval`` finite and > 0.  Only ``rate`` fields enable a plan; a
    ``probability`` is conditional on another draw firing."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class RateSpec:
    """Base of the frozen fault specs: tag-driven validation and views."""

    def __post_init__(self) -> None:
        for f in fields(self):
            check = f.metadata.get("check")
            if check is not None:
                valid, must = _CHECKS[check]
                value = getattr(self, f.name)
                if not valid(value):
                    raise ValueError(f"{f.name} {must}, got {value}")

    @property
    def any_enabled(self) -> bool:
        """True when some ``rate`` field, or a nested spec, is non-zero."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RateSpec):
                if value.any_enabled:
                    return True
            elif f.metadata.get("check") == "rate" and value > 0.0:
                return True
        return False

    @classmethod
    def none(cls: type[_S]) -> _S:
        """All faults off (the zero-overhead baseline)."""
        return cls()

    @staticmethod
    def scaled(intensity: float, **rates: float) -> dict[str, float]:
        """Preset ``rates`` scaled by a checked chaos ``intensity``,
        each clamped to 1."""
        check_intensity(intensity)
        return {name: min(1.0, r * intensity) for name, r in rates.items()}

    def describe(self) -> str:
        """The non-default fields; an enabled nested spec as ``name=...``."""
        default = type(self)()
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RateSpec):
                if value.any_enabled:
                    parts.append(f"{f.name}={value.describe()}")
            elif value != getattr(default, f.name):
                parts.append(f"{f.name}={value:g}")
        name = type(self).__name__
        return f"{name}(" + ", ".join(parts) + ")" if parts else f"{name}(off)"


class SeededPlan:
    """A spec bound to a seed: the oracle a domain's draws hang off."""

    #: attribute names of a scripted subclass's override tables; any
    #: non-empty table enables the plan even when the spec is all off
    scripted: ClassVar[tuple[str, ...]] = ()

    def __init__(self, spec: Any, seed: int = 0):
        self.spec = spec
        self.seed = seed

    @property
    def enabled(self) -> bool:
        """False for an all-faults-disabled plan (zero-overhead mode)."""
        return self.spec.any_enabled or any(
            getattr(self, name) for name in self.scripted
        )

    def describe(self) -> str:
        # Scripted plans describe themselves as their seeded base plan.
        base = next(c for c in type(self).__mro__ if SeededPlan in c.__bases__)
        return f"{base.__name__}(seed={self.seed}, {self.spec.describe()})"
