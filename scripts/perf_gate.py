#!/usr/bin/env python
"""Perf-regression gate: compare a bench report against the baseline.

Usage::

    python scripts/perf_gate.py --current BENCH_smoke.json
    python scripts/perf_gate.py --run                 # bench first, then gate
    python scripts/perf_gate.py --current X.json --update   # bless as baseline

Loads the committed baseline (``benchmarks/BENCH_baseline.json`` by
default) and the current report, matches cases by
``model|mode|gpus|minibatch``, and fails (exit 1) when any gated timing
regressed beyond the tolerance band.

Wall-clock comparisons across machines are meaningless raw, so every
timing is **normalized by its report's ``calibration_seconds``** -- the
wall time of a fixed pure-Python workload measured by the same process
that took the timings.  A machine that is 2x slower overall produces
~2x calibration and ~2x case timings; the ratio cancels.  What does not
cancel is a real hot-path regression: the case timing grows, the
calibration does not.

Gated metrics: ``search_seconds``, ``plan_seconds``, ``run_seconds``
per case, and ``serve_seconds`` of the ``service`` and ``fleet`` storms
(tracing overhead is reported but informational -- it is a difference
of two small numbers and too noisy to gate).  Timings under the noise
floor (50 ms raw) are never gated.  The gate also refuses to compare
reports whose facts disagree: different planner facts (``n_feasible``,
``n_tasks``) or storm facts (``requests``, ``seed``, and for the fleet
``placements``, ``certified``) mean the two reports did not measure the
same work -- that is a correctness alarm, not a perf number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.perf.schema import SCHEMA_VERSION, check_report  # noqa: E402

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "BENCH_baseline.json"
)

#: Timings gated against the baseline (normalized by calibration).
GATED_METRICS = ("search_seconds", "plan_seconds", "run_seconds")

#: Planner facts that must match exactly for a comparison to be valid.
FACT_METRICS = ("n_feasible", "n_tasks")

#: Storm sections whose ``serve_seconds`` is gated, with the storm facts
#: that must match exactly for the comparison to be valid.
STORM_FACTS = {
    "service": ("requests", "seed"),
    "fleet": ("requests", "seed", "placements", "certified"),
}

#: Raw timings below this are noise, never gated (seconds).
NOISE_FLOOR = 0.05

#: Default tolerance band: fail on > 25% normalized regression.
TOLERANCE = 0.25


def load_report(path: str) -> dict[str, Any]:
    with open(path) as fh:
        report = json.load(fh)
    check_report(report)
    return report


def compare(baseline: dict[str, Any], current: dict[str, Any],
            tolerance: float = TOLERANCE) -> list[str]:
    """Return a list of failure strings; empty means the gate passes."""
    failures: list[str] = []
    if baseline["schema_version"] != SCHEMA_VERSION \
            or current["schema_version"] != SCHEMA_VERSION:
        return [
            f"schema version mismatch: baseline "
            f"v{baseline['schema_version']}, current "
            f"v{current['schema_version']}, gate speaks v{SCHEMA_VERSION}"
        ]
    base_cal = baseline["calibration_seconds"]
    cur_cal = current["calibration_seconds"]
    if base_cal <= 0 or cur_cal <= 0:
        return ["calibration_seconds must be positive in both reports"]

    def key(case: dict[str, Any]) -> str:
        return (f"{case['model']}|{case['mode']}|{case['gpus']}"
                f"|{case['minibatch']}")

    def gate(label: str, base: dict[str, Any], cur: dict[str, Any],
             facts: Sequence[str], metrics: Sequence[str]) -> None:
        changed = [fact for fact in facts if cur[fact] != base[fact]]
        for fact in changed:
            failures.append(
                f"{label}: {fact} changed {base[fact]} -> {cur[fact]} "
                f"(the reports did not measure the same work; "
                f"re-baseline deliberately)"
            )
        if changed:
            return
        for metric in metrics:
            base_raw, cur_raw = base[metric], cur[metric]
            if base_raw < NOISE_FLOOR and cur_raw < NOISE_FLOOR:
                continue
            base_norm = base_raw / base_cal
            cur_norm = cur_raw / cur_cal
            if cur_norm > base_norm * (1.0 + tolerance):
                failures.append(
                    f"{label}: {metric} regressed "
                    f"{base_norm:.2f} -> {cur_norm:.2f} "
                    f"(normalized; raw {base_raw:.3f}s -> {cur_raw:.3f}s, "
                    f"> {tolerance:.0%} over baseline)"
                )

    base_cases = {key(c): c for c in baseline["cases"]}
    matched = 0
    for case in current["cases"]:
        base = base_cases.get(key(case))
        if base is None:
            continue  # new case: no baseline yet, nothing to gate
        matched += 1
        gate(key(case), base, case, FACT_METRICS, GATED_METRICS)
    for section, facts in STORM_FACTS.items():
        gate(f"{section} storm", baseline[section], current[section],
             facts, ("serve_seconds",))
    if matched == 0:
        failures.append(
            "no case in the current report matches the baseline; "
            "nothing was gated"
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a bench report against the committed baseline"
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline report "
                             "(default benchmarks/BENCH_baseline.json)")
    parser.add_argument("--current", default=None,
                        help="current report to gate")
    parser.add_argument("--run", action="store_true",
                        help="run the smoke bench suite now and gate its "
                             "report (written to BENCH_gate.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats when --run is given (default 3)")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help=f"allowed normalized regression "
                             f"(default {TOLERANCE})")
    parser.add_argument("--update", action="store_true",
                        help="bless the current report as the new baseline "
                             "instead of gating")
    args = parser.parse_args(argv)

    if args.run:
        from repro.perf.bench import run_bench, write_report

        report = run_bench("smoke", repeats=args.repeats)
        write_report(report, "BENCH_gate.json")
        current = report
        print("ran smoke suite -> BENCH_gate.json")
    elif args.current:
        current = load_report(args.current)
    else:
        parser.error("need --current PATH or --run")

    if args.update:
        with open(args.baseline, "w") as fh:
            json.dump(current, fh, indent=2)
            fh.write("\n")
        print(f"updated baseline {args.baseline}")
        return 0

    baseline = load_report(args.baseline)
    failures = compare(baseline, current, tolerance=args.tolerance)
    if failures:
        print("PERF GATE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf gate passed: {len(current['cases'])} case(s) and "
          f"{len(STORM_FACTS)} storm(s) within "
          f"{args.tolerance:.0%} of baseline "
          f"(calibration {current['calibration_seconds'] * 1e3:.1f} ms vs "
          f"baseline {baseline['calibration_seconds'] * 1e3:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
