"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-zoo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, host
throughput, median and tail call time, peak memory and the deterministic
simulated throughput.  ``--trace 1`` measures the per-layer breakdown
instead: it times an untraced phase, then the same calls with every layer
entry point wrapped by :mod:`tracer`, and reports per-call busy/self
times and work counts per layer plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any correctness check failed and 2 when the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-up is repeated this many times per untraced run; the median counts
SETUP_REPEATS = 3
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: iterations of the speed-sample loop, and its time on the reference host
#: (2 CPUs, Python 3.11, idle); host times are reported at that speed
SPEED_SCALE = 20_000
REFERENCE_SPEED_S = 0.003


def speed_sample() -> float:
    """Seconds one fixed pure-Python loop takes right now (best of two).

    The loop mixes arithmetic, dict and list traffic like
    ``repro.perf.bench.calibrate`` (which it copies, so that a change to
    the program cannot move it).  Shared hosts change speed by up to 2x,
    in spells that last seconds; samples taken just before and just
    after a call tell the speed the call ran at."""
    return min(_speed_loop(), _speed_loop())


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time, rescaled to the reference host's speed
    from the speed samples taken around it."""
    return seconds * REFERENCE_SPEED_S / ((before + after) / 2)


def _speed_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    values = []
    for i in range(SPEED_SCALE):
        acc += i * i & 0xFFFF
        if i % 7 == 0:
            table[i & 1023] = acc
        if i % 13 == 0:
            values.append(acc)
    acc += len(table) + len(values)
    return time.perf_counter() - t0


class Measurement:
    """The timed calls of one phase and what their checks found."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: each call's host seconds at the reference host's speed
        self.scaled: list[float] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def tail(times: list[float]) -> Optional[tuple[float, float]]:
    """``(seconds, percentile)`` of the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it, or None if too few calls."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return (sorted(times)[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n)


def measure(workload: Any, seconds: float, min_calls: int, max_calls: int,
            tracer: Any = None) -> Measurement:
    """Time whole passes of calls until ``seconds`` have passed, within
    ``[min_calls, max_calls]``.  Each call's output is checked outside the
    timed region; an exception or a failed check counts the call failed."""
    m = Measurement()
    start = time.perf_counter()
    index = 0
    while index < max_calls and (
            index < min_calls or index % workload.pass_size
            or time.perf_counter() - start < seconds):
        m.attempted += 1
        # Garbage left by earlier calls and checks is not this call's work.
        gc.collect()
        before = speed_sample()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = workload.call(index)
            else:
                with tracer.span("call"):
                    result = workload.call(index)
            elapsed = time.perf_counter() - t0
            m.durations.append(elapsed)
            m.scaled.append(at_reference_speed(elapsed, before,
                                               speed_sample()))
            m.units += workload.units(result)
            problems = workload.check(index, result)
        except Exception as exc:  # a crashed call is a counted failure
            problems = [f"call {index}: {type(exc).__name__}: {exc}"]
        if problems:
            m.fail(problems)
        index += 1
    return m


def finish(workload: Any, m: Measurement) -> None:
    """Run the workload's run-level checks, counted like calls."""
    m.attempted += 1
    try:
        problems = workload.finish()
    except Exception as exc:
        problems = [f"finish: {type(exc).__name__}: {exc}"]
    if problems:
        m.fail(problems)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts(seed: int) -> dict[str, Any]:
    from repro.perf.bench import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": calibrate(),
        "seed": seed,
    }


def end_to_end(cls: Any, seed: int, seconds: float, import_s: float
               ) -> tuple[Measurement, dict[str, tuple[float, str]]]:
    """Untraced run of workload class ``cls``: its end-to-end metrics."""
    from workloads import geomean

    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed_sample()
        workload = cls()
        t0 = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        scaled_setups.append(at_reference_speed(setups[-1], before,
                                                speed_sample()))
    m = measure(workload, seconds, workload.min_calls, workload.max_calls)
    finish(workload, m)
    scaled_tail, raw_tail = tail(m.scaled), tail(m.durations)
    if scaled_tail is None or raw_tail is None:
        m.fail([f"{len(m.durations)} calls are too few for a tail"])
        return m, {}
    # The imports ran before the first speed sample; scale them like the
    # first set-up.
    import_scale = scaled_setups[0] / setups[0]
    raw = {
        "setup_s": import_s + statistics.median(setups),
        "throughput": m.units / sum(m.durations),
        "call_p50_s": statistics.median(m.durations),
        "call_tail_s": raw_tail[0],
    }
    metrics = {
        "setup_s": (import_s * import_scale
                    + statistics.median(scaled_setups), "s"),
        "throughput": (m.units / sum(m.scaled), "1/s"),
        "call_p50_s": (statistics.median(m.scaled), "s"),
        "call_tail_s": (scaled_tail[0], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "sim_samples_per_s": (geomean(workload.sim_rates()), "1/sim_s"),
    }
    print(f"{cls.name}: {len(m.durations)} calls, {m.units} {workload.unit} "
          f"in {sum(m.durations):.3f} host s ({sum(m.scaled):.3f} s at "
          f"reference speed); set-up runs "
          + ", ".join(f"{s:.4f}" for s in setups) + f" s + imports "
          f"{import_s:.4f} s")
    for key, (value, unit) in metrics.items():
        note = f"  (raw {raw[key]:.6g})" if key in raw else ""
        if key == "call_tail_s":
            note += (f"  (p{scaled_tail[1]:.1f} of {len(m.durations)} calls, "
                     f"{TAIL_BEYOND} beyond)")
        print(f"  {key:<18} {value:.6g} {unit}{note}")
    print(f"  {'failed_frac':<18} {m.failed / m.attempted:.6g} ratio  "
          f"({m.failed} of {m.attempted} operations)")
    for key, value in workload.facts(len(m.durations)).items():
        if key.startswith("service."):
            print(f"  {key:<18} {value:.6g}")
    return m, metrics


def layer_metrics(tracer: Any, setup_end: int, calls: list[int],
                  facts: dict[str, float], overhead: float,
                  recorder_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the timed ``calls`` (root span
    indices) and of the set-up (spans before ``setup_end``)."""
    n = len(calls)
    roots = set(calls)
    call_totals = tracer.layer_totals(roots)
    setup_totals = tracer.layer_totals(set(range(setup_end)))

    def busy(span: str) -> float:
        return call_totals[span]["busy"] / n if span in call_totals else 0.0

    def own(span: str) -> float:
        return call_totals[span]["self"] / n if span in call_totals else 0.0

    def count(span: str) -> float:
        return call_totals[span]["calls"] / n if span in call_totals else 0.0

    candidates = tracer.count("search.candidates", roots)
    events = tracer.count("sim.events", roots)
    plan_in_service = sum(
        end - start for i, (name, start, end, _) in enumerate(tracer.spans)
        if name == "harmony.plan" and tracer.root_of(i) in roots
        and tracer.under(i, "service"))
    values = {
        "models.build_s": (setup_totals["models"]["busy"]
                           if "models" in setup_totals else 0.0, "s"),
        "decomposer.busy_s": (busy("decomposer"), "s/call"),
        "decomposer.calls": (count("decomposer"), "count/call"),
        "profiler.busy_s": (busy("profiler"), "s/call"),
        "profiler.calls": (count("profiler"), "count/call"),
        "packing.busy_s": (busy("packing"), "s/call"),
        "packing.calls": (count("packing"), "count/call"),
        "taskgraph.busy_s": (busy("taskgraph"), "s/call"),
        "taskgraph.builds": (count("taskgraph"), "count/call"),
        "taskgraph.tasks": (tracer.count("taskgraph.tasks", roots) / n,
                            "count/call"),
        "estimator.busy_s": (busy("estimator"), "s/call"),
        "estimator.calls": (count("estimator"), "count/call"),
        "search.self_s": (own("search"), "s/call"),
        "search.candidates": (candidates / n, "count/call"),
        "search.feasible_ratio": (
            tracer.count("search.feasible", roots) / candidates
            if candidates else 0.0, "ratio"),
        "analysis.busy_s": (busy("analysis"), "s/call"),
        "analysis.calls": (count("analysis"), "count/call"),
        "executor.self_s": (own("executor"), "s/call"),
        "timemodel.busy_s": (busy("timemodel"), "s/call"),
        "timemodel.calls": (count("timemodel"), "count/call"),
        "runtime.swap_gib_per_iter": (
            facts.get("runtime.swap_gib_per_iter", 0.0), "GiB"),
        "runtime.idle_frac": (facts.get("runtime.idle_frac", 0.0), "ratio"),
        "sim.busy_s": (busy("sim"), "s/call"),
        "sim.events": (events / n, "count/call"),
        "sim.host_us_per_event": (
            1e6 * busy("sim") * n / events if events else 0.0, "us"),
        "trace.recorder_overhead_s": (recorder_s, "s/call"),
        "service.self_s": (own("service"), "s/call"),
        "service.plan_s": (plan_in_service / n, "s/call"),
        "cache.busy_s": (busy("cache"), "s/call"),
        "cache.hit_ratio": (facts.get("cache.hit_ratio", 0.0), "ratio"),
        "service.fresh_plans": (facts.get("service.fresh_plans", 0.0),
                                "count/call"),
        "service.shed": (facts.get("service.shed", 0.0), "count/call"),
        "service.refused_frac": (facts.get("service.refused_frac", 0.0),
                                 "ratio"),
        "service.p99_virt_s": (facts.get("service.p99_virt_s", 0.0),
                               "virt_s"),
        "fleet.busy_s": (busy("fleet"), "s/call"),
        "fleet.placements": (facts.get("fleet.placements", 0.0),
                             "count/call"),
        "fleet.utilization": (facts.get("fleet.utilization", 0.0), "ratio"),
        "virt.bind_s": (busy("virt"), "s/call"),
        "virt.bind_calls": (count("virt"), "count/call"),
        "faults.runner_self_s": (own("faults.runner"), "s/call"),
        "faults.draws": (count("faults.draw"), "count/call"),
        "faults.injected": (facts.get("faults.injected", 0.0), "count/call"),
        "faults.retries": (facts.get("faults.retries", 0.0), "count/call"),
        "faults.typed_failures": (facts.get("faults.typed_failures", 0.0),
                                  "count/call"),
        "elastic.replan_s": (busy("elastic.replan"), "s/call"),
        "elastic.replans": (facts.get("elastic.replans", 0.0), "count/call"),
        "elastic.migration_s": (busy("elastic.migration"), "s/call"),
        "cluster.runner_self_s": (own("cluster.runner"), "s/call"),
        "cluster.replans": (facts.get("cluster.replans", 0.0), "count/call"),
        "cluster.network_gib": (facts.get("cluster.network_gib", 0.0),
                                "GiB/call"),
        "bench.trace_overhead_s": (overhead, "s"),
    }
    return values


def per_layer(cls: Any, seed: int, seconds: float
              ) -> tuple[Measurement, dict[str, tuple[float, str]]]:
    """Traced run of workload class ``cls``: its per-layer metrics."""
    from tracer import Tracer

    plain = cls()
    plain.setup(seed)
    untraced = measure(plain, seconds / 2, cls.trace_calls, cls.max_calls)
    recorder_s = plain.recorder_overhead()
    with Tracer() as tracer:
        workload = cls()
        workload.setup(seed)
        first = len(tracer.spans)
        traced = measure(workload, seconds / 2, cls.trace_calls,
                         cls.max_calls, tracer=tracer)
        finish(workload, traced)
    calls = [i for i, s in enumerate(tracer.spans)
             if i >= first and s[0] == "call" and s[3] < 0]
    merged = Measurement()
    for m in (untraced, traced):
        merged.attempted += m.attempted
        merged.failed += m.failed
        merged.problems += m.problems
    if not calls or not untraced.durations:
        return merged, {}
    overhead = (statistics.median(traced.durations)
                - statistics.median(untraced.durations))
    metrics = layer_metrics(tracer, first, calls,
                            workload.facts(len(traced.durations)),
                            overhead, recorder_s)
    print(f"{cls.name} (traced): {len(calls)} traced calls, "
          f"{len(tracer.spans)} spans; untraced call_p50 "
          f"{statistics.median(untraced.durations):.6g} s, traced "
          f"{statistics.median(traced.durations):.6g} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<26} {value:.6g} {unit}")
    return merged, metrics


def main(argv: Optional[list[str]] = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources ({SRC}) are missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # imports the whole program

    import_s = time.perf_counter() - t_start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        m, metrics = per_layer(cls, args.seed, args.seconds)
    else:
        m, metrics = end_to_end(cls, args.seed, args.seconds, import_s)
    print("host: " + json.dumps(host_facts(args.seed), sort_keys=True))
    for problem in m.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = m.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
