"""The estimator's shared task-time cache must never serve stale values.

The cache in :class:`RuntimeEstimator` is keyed on
``(kind, first_layer, last_layer, u, recompute)`` and tied to the
profiles' ``cache_token``: mutating a layer profile through
:meth:`ModelProfiles.replace_layer` (or calling ``invalidate_caches``)
bumps the token and must flush every cached task time.  These tests
mutate profiles mid-flight and check the estimator tracks reality, plus
cover reuse of one estimator across graphs and the
``REPRO_PERF_DISABLE=1`` arm.
"""

from dataclasses import replace

import pytest

from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import AffineFit
from repro.core.types import TaskKind
from repro.experiments.common import server_for
from repro.perf import DISABLE_ENV


@pytest.fixture
def planned():
    """A fresh plan per test: these tests mutate its profiles."""
    harmony = Harmony("toy-transformer", server_for(2), 8,
                      options=HarmonyOptions(mode="pp"))
    return harmony.plan()


def _fwd_task(graph):
    return next(t for t in graph.tasks if t.kind is TaskKind.FWD)


def _upd_gpu_task(graph):
    return next(
        (t for t in graph.tasks if t.kind is TaskKind.UPD and not t.on_cpu),
        None,
    )


def test_mb_time_cache_hit_is_identical(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    first = estimator.mb_time(task, u)
    assert (TaskKind.FWD, task.first_layer, task.last_layer, u, False) \
        in estimator._time_cache
    assert estimator.mb_time(task, u).hex() == first.hex()
    assert estimator.mb_time(task, u) == estimator._mb_time_uncached(task, u)


def test_replace_layer_invalidates_cached_times(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    before = estimator.mb_time(task, u)

    layer = planned.profiles[task.first_layer]
    doubled = replace(layer, time_fwd=AffineFit(
        2 * layer.time_fwd.intercept, 2 * layer.time_fwd.slope))
    planned.profiles.replace_layer(task.first_layer, doubled)

    after = estimator.mb_time(task, u)
    assert after > before, "estimator served a stale cached task time"
    assert after == estimator._mb_time_uncached(task, u)


def test_invalidate_caches_bumps_token_and_flushes(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    estimator.mb_time(task, task.microbatches[0])
    assert estimator._time_cache
    token = planned.profiles.cache_token
    planned.profiles.invalidate_caches()
    assert planned.profiles.cache_token == token + 1
    # The flush happens lazily on the next timed call.
    estimator.mb_time(task, task.microbatches[0])
    assert estimator._profiles_token == planned.profiles.cache_token


def test_distinct_u_are_distinct_entries(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    t1, t2 = estimator.mb_time(task, 1), estimator.mb_time(task, 2)
    assert t1 != t2
    keys = {k for k in estimator._time_cache if k[0] is TaskKind.FWD}
    assert len(keys) >= 2


def test_update_time_gpu_cached_cpu_not():
    harmony = Harmony(
        "toy-transformer", server_for(2), 8,
        options=HarmonyOptions(mode="pp", offload_optimizer=False),
    )
    planned = harmony.plan()
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    upd = _upd_gpu_task(planned.graph)
    assert upd is not None, "offload disabled, expected a GPU update task"
    first = estimator.update_time(upd, planned.server.n_gpus)
    key = (TaskKind.UPD, upd.first_layer, upd.last_layer, 1, False)
    assert estimator._time_cache[key] == first
    assert estimator.update_time(upd, planned.server.n_gpus) == first


def test_one_estimator_matches_fresh_per_graph():
    """Producer microbatch sizes come from the graph being estimated, so
    one estimator scoring two graphs of different granularities returns
    each graph's fresh-estimator value, in either order."""
    harmony = Harmony("toy-transformer", server_for(2), 8,
                      options=HarmonyOptions(mode="pp"))
    planned = harmony.plan()
    search = planned.search
    graphs = [
        harmony.plan(config=config).graph
        for config in (search.best, replace(search.best, u_f=1, u_b=8))
    ]
    fresh = [
        RuntimeEstimator(planned.profiles, planned.server).estimate_graph(g)
        for g in graphs
    ]
    assert fresh[0] != fresh[1]
    shared = RuntimeEstimator(planned.profiles, planned.server)
    for graph, expected in [*zip(graphs, fresh), *zip(graphs[::-1],
                                                      fresh[::-1])]:
        assert shared.estimate_graph(graph).hex() == expected.hex()


def test_estimates_track_profile_mutation_end_to_end(planned):
    """The headline staleness scenario: estimate, mutate, re-estimate."""
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    before = estimator.estimate_graph(planned.graph)
    layer = planned.profiles[0]
    planned.profiles.replace_layer(0, replace(layer, time_fwd=AffineFit(
        layer.time_fwd.intercept, 10 * layer.time_fwd.slope)))
    after = estimator.estimate_graph(planned.graph)
    assert after > before


def test_disabled_estimator_never_caches(planned, monkeypatch):
    monkeypatch.setenv(DISABLE_ENV, "1")
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    value = estimator.mb_time(task, task.microbatches[0])
    assert estimator._time_cache == {}
    assert value == estimator._mb_time_uncached(task, task.microbatches[0])
