"""Bound-and-prune configuration search.

``RuntimeEstimator.lower_bound`` must never exceed the estimate of the
graph the same configuration builds (compared exactly, as floats), and
the pruned search must pick exactly what the full sweep over
``candidates()``/``estimate()`` picks: its first strict minimum, with the
same ``float.hex`` estimate.
"""

from dataclasses import replace

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.search import ConfigurationSearch, _visit
from repro.experiments.common import server_for

ABLATIONS = (None, "grouping", "jit", "p2p", "offload_optimizer",
             "prefetch", "equi_fb")
SMALL = [
    (model, mode, ablation)
    for model in ("toy-transformer", "tiny-cnn")
    for mode in ("pp", "dp")
    for ablation in ABLATIONS
]


def _options(mode: str, ablation) -> HarmonyOptions:
    options = HarmonyOptions(mode=mode)
    if ablation == "equi_fb":
        return replace(options, equi_fb=True)
    return options.without(ablation) if ablation else options


def _planned(model, mode, n_gpus, minibatch, ablation=None):
    """A plan plus a fresh search over the same profiles."""
    options = _options(mode, ablation)
    harmony = Harmony(model, server_for(n_gpus), minibatch, options=options)
    plan = harmony.plan()
    search = ConfigurationSearch(
        plan.profiles, harmony.server, minibatch,
        options.schedule_options(), options.search_settings(),
    )
    return plan.search, search


def _check_against_full_sweep(result, search):
    candidates = search.candidates()
    estimates = [search.estimate(config) for config in candidates]
    for config, estimate in zip(candidates, estimates):
        bound = search.lower_bound(config)
        assert bound <= estimate, (
            f"bound {bound.hex()} > estimate {estimate.hex()} for "
            f"{config.describe()}"
        )
    first = min(range(len(candidates)), key=lambda i: (estimates[i], i))
    assert (result.best, result.best_estimate.hex()) == (
        candidates[first], estimates[first].hex())
    by_config = dict(zip(candidates, estimates))
    assert [e.estimate.hex() for e in result.explored] == [
        by_config[e.config].hex() for e in result.explored]
    order = {config: i for i, config in enumerate(candidates)}
    indices = [order[e.config] for e in result.explored]
    assert indices == sorted(indices), "explored is in enumeration order"
    assert result.n_feasible == len(candidates)
    assert result.n_pruned == len(candidates) - len(result.explored)


@pytest.mark.parametrize("model,mode,ablation", SMALL,
                         ids=[f"{m}-{mode}-{a}" for m, mode, a in SMALL])
def test_bound_admissible_and_winner_exact(model, mode, ablation):
    for n_gpus in (1, 2, 4):
        for minibatch in (8, 16, 32):
            _check_against_full_sweep(
                *_planned(model, mode, n_gpus, minibatch, ablation))


def test_bound_prunes_the_zoo_without_moving_the_plan():
    result, search = _planned("gpt2", "pp", 4, 32)
    _check_against_full_sweep(result, search)
    assert result.n_pruned > 0
    assert f"({result.n_pruned} pruned by bound)" in result.describe()


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 64])
def test_chunked_visit_replays_the_serial_stop(chunk_size):
    """The pool's chunked visit keeps exactly the serial visit's
    estimates, whatever it evaluated speculatively past the stop."""
    bounds = [1.0, 1.0, 2.0, 2.5, 3.0, 3.0, 4.0, 9.0]
    truth = [5.0, 3.0, 2.5, 2.5, 3.0, 7.0, 4.0, 9.0]
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    asked: list[int] = []

    def evaluate(chunk):
        asked.extend(chunk)
        return [truth[i] for i in chunk]

    visited = _visit(order, bounds, chunk_size, evaluate)
    assert visited == {i: truth[i] for i in range(4)}
    if chunk_size == 1:
        assert asked == [0, 1, 2, 3]
