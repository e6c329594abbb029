"""Figure 14: accuracy of the Runtime Estimator.

Sample configurations from the Scheduler's candidates for BERT-Large
(minibatch 600, Harmony PP, 4 GPUs), run each for real on the simulated
server, and compare the estimator's iteration time against the measured
one.  The paper's scatter hugs y=x; ours differs only by the regression
error and link contention the estimator ignores.
"""

from __future__ import annotations

from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.search import ConfigurationSearch
from repro.experiments.common import Row, render, server_for

MODEL = "bert-large"
MINIBATCH = 600
N_SAMPLES = 15


def run(fast: bool = False) -> list[Row]:
    minibatch = 120 if fast else MINIBATCH
    harmony = Harmony(MODEL, server_for(4), minibatch,
                      options=HarmonyOptions(mode="pp"))
    plan = harmony.plan()
    # Sample over every candidate, not only the ones the pruned search
    # built: the bound skips the slow configurations this figure needs.
    search = ConfigurationSearch(
        plan.profiles, harmony.server, minibatch,
        harmony.options.schedule_options(), harmony.options.search_settings(),
    )
    ranked = sorted(((search.estimate(config), config)
                     for config in search.candidates()),
                    key=lambda pair: pair[0])
    n = 5 if fast else N_SAMPLES
    stride = max(1, len(ranked) // n)
    sampled = ranked[::stride][:n]

    rows: list[Row] = []
    for estimate, config in sampled:
        config_plan = harmony.plan(config=config)
        actual = harmony.run(plan=config_plan).metrics.iteration_time
        rows.append({
            "config": config.describe(),
            "estimated(s)": estimate,
            "actual(s)": actual,
            "error(%)": 100.0 * abs(estimate - actual) / actual,
        })
    return rows


def max_error(rows: list[Row]) -> float:
    return max(row["error(%)"] for row in rows)


def main() -> None:
    rows = run()
    print(render(rows))
    print(f"max estimation error: {max_error(rows):.1f}%")


if __name__ == "__main__":
    main()
