"""Span tracing around the program's layer entry points.

The traced run alone installs :class:`Tracer`: it wraps the public entry
point of every layer (see :data:`TARGETS`) from outside the program, so
untraced runs execute the program untouched.  Each wrapped call records
one span -- name, start, end, parent -- into an in-memory list that is
read only after the run.  Optional hooks add exact work counts at the
same boundaries (tasks built, candidates searched, simulator events).

A layer's *busy* time is the union of its spans (outermost span of that
layer only, so recursion is not counted twice); its *self* time is each
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

Counter = Callable[[Any, tuple, Any], dict]


def _search_counts(token: Any, args: tuple, result: Any) -> dict:
    return {"search.candidates": result.n_feasible + result.n_infeasible,
            "search.feasible": result.n_feasible}


def _sim_before(args: tuple) -> int:
    return args[0].steps


def _sim_counts(token: Any, args: tuple, result: Any) -> dict:
    return {"sim.events": args[0].steps - token}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` recorded as ``span``."""

    module: str
    qualname: str
    span: str
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[Counter] = None


#: Every layer entry point the traced run wraps, named after the
#: ``src/repro`` module it belongs to.
TARGETS: tuple[Target, ...] = (
    Target("repro.models.zoo", "build_model", "models"),
    Target("repro.core.harmony", "Harmony.plan", "harmony.plan"),
    Target("repro.core.decomposer", "Decomposer.decompose", "decomposer"),
    Target("repro.core.profiler", "Profiler.profile", "profiler"),
    Target("repro.core.packing", "balanced_time_packing", "packing"),
    Target("repro.core.taskgraph", "HarmonyGraphBuilder.build", "taskgraph",
           after=lambda _t, _a, graph: {"taskgraph.tasks": len(graph)}),
    Target("repro.core.estimator", "RuntimeEstimator.estimate_graph",
           "estimator"),
    Target("repro.core.search", "ConfigurationSearch.search", "search",
           after=_search_counts),
    Target("repro.core.types", "TaskGraph.validate", "analysis"),
    Target("repro.analysis.analyzer", "analyze", "analysis"),
    Target("repro.virt.bind", "verify_bound", "analysis"),
    Target("repro.runtime.executor", "Executor.run", "executor"),
    Target("repro.runtime.timemodel", "TrueTimeModel.microbatch_time",
           "timemodel"),
    Target("repro.runtime.timemodel", "TrueTimeModel.update_time",
           "timemodel"),
    Target("repro.runtime.timemodel", "TrueTimeModel.task_compute_time",
           "timemodel"),
    Target("repro.sim.engine", "Simulator.run", "sim",
           before=_sim_before, after=_sim_counts),
    Target("repro.service.daemon", "PlannerService.run", "service"),
    Target("repro.service.cache", "PlanCache.get", "cache"),
    Target("repro.service.cache", "PlanCache.put", "cache"),
    Target("repro.fleet.placer", "FleetPlacer.reserve", "fleet"),
    Target("repro.fleet.placer", "FleetPlacer.release", "fleet"),
    Target("repro.fleet.placer", "FleetPlacer.bind", "fleet"),
    Target("repro.virt.bind", "bind", "virt"),
    Target("repro.virt.devices", "DeviceBinding.apply", "virt"),
    Target("repro.faults.runner", "FaultTolerantRunner.run", "faults.runner"),
    *(Target("repro.faults.plan", f"FaultPlan.{draw}", "faults.draw")
      for draw in ("transfer_fault", "task_crash", "gpu_slowdown",
                   "gpu_slowdown_at", "gpu_loss", "link_degradation",
                   "host_pressure")),
    Target("repro.core.harmony", "Harmony.plan_for_server", "elastic.replan"),
    Target("repro.runtime.migration", "MigrationExecutor.run",
           "elastic.migration"),
    Target("repro.runtime.migration", "NetworkMigrationExecutor.run",
           "elastic.migration"),
    Target("repro.cluster.runner", "ClusterRunner.run", "cluster.runner"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``spans`` holds ``[name, start, end, parent]`` lists (``parent`` is an
    index into ``spans`` or -1); ``counts`` accumulates hook counters
    keyed by ``(root span index, counter name)``.
    Use as a context manager: entering installs every wrapper, leaving
    restores the originals.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        name, before, after = target.span, target.before, target.after

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            index = tracer.begin(name)
            root = tracer._stack[0]
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                for key, value in after(token, args, result).items():
                    tracer.counts[root, key] += value
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                cls = getattr(module, cls_name)
                # Subclasses that override the method (scripted fault
                # plans) are entry points too.
                pending = [cls]
                while pending:
                    klass = pending.pop()
                    pending.extend(klass.__subclasses__())
                    if attr in klass.__dict__:
                        self._patch(klass, attr,
                                    self._wrap(target, klass.__dict__[attr]))
                continue
            original = getattr(module, target.qualname)
            wrapped = self._wrap(target, original)
            # Rebind every module-level alias, so ``from x import f``
            # call sites see the wrapper too.
            for name, loaded in list(sys.modules.items()):
                if (name.split(".")[0] == "repro" and loaded is not None
                        and loaded.__dict__.get(target.qualname) is original):
                    self._patch(loaded, target.qualname, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def count(self, name: str, roots: set[int]) -> float:
        """Counter ``name`` summed over the spans below ``roots``."""
        return sum(value for (root, key), value in self.counts.items()
                   if key == name and root in roots)

    def layer_totals(self, roots: set[int]) -> dict[str, dict[str, float]]:
        """``{span name: {busy, self, calls}}`` over the spans below
        ``roots``."""
        own = self.self_times()
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if self.root_of(index) not in roots:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["self"] += own[index]
            if not self.under(index, name):
                entry["busy"] += end - start
        return totals

    def under(self, index: int, name: str) -> bool:
        """Whether a span named ``name`` encloses span ``index``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def root_of(self, index: int) -> int:
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return index
