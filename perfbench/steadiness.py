"""Measure the benchmark's own run-to-run spread.

Runs ``run.py`` untraced once per seed (1 to ``--seeds``) for every
workload named in ``BENCHMARK.json`` and reports, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` beside the metric's bound::

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/steadiness.json

``--workloads`` restricts the run to some workloads (comma-separated).
``--recheck N`` then reruns the first N seeds of each workload and checks
that the deterministic ``sim_samples_per_s`` repeats exactly.  Exits 1
if any run fails, a deterministic value changes, or any spread other
than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n"
                           f"{out.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--recheck", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        seconds: list[float] = []
        for seed in range(1, 1 + args.seeds):
            t0 = time.perf_counter()
            result = run_once(bench["command"], name, seed,
                              bench["run_seconds"])
            seconds.append(time.perf_counter() - t0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        rows = {}
        for metric, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            rows[metric] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[metric], "values": series,
            }
            flag = ""
            if metric != "setup_s" and spread > bounds[metric]:
                flag, ok = "  OVER BOUND", False
            print(f"{name:<14} {metric:<18} median {rows[metric]['median']:.6g}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound {bounds[metric]}{flag}")
        print(f"{name:<14} wall per run: median "
              f"{statistics.median(seconds):.1f} s, max {max(seconds):.1f} s")
        report["workloads"][name] = {
            "seeds": list(range(1, 1 + args.seeds)),
            "wall_s_per_run": seconds, "metrics": rows,
        }
        recheck = []
        for i in range(args.recheck):
            seed = 1 + i
            again = run_once(bench["command"], name, seed,
                             bench["run_seconds"])
            value = again["metrics"]["sim_samples_per_s"]["value"]
            same = value == values["sim_samples_per_s"][i]
            ok = ok and same
            recheck.append({"seed": seed, "sim_samples_per_s": value,
                            "identical": same})
            print(f"{name:<14} seed {seed} rerun: sim_samples_per_s "
                  f"{value!r} {'identical' if same else 'CHANGED'}")
        if recheck:
            report["workloads"][name]["recheck"] = recheck
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
