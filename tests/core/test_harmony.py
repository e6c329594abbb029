"""End-to-end tests of the Harmony facade."""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions


@pytest.fixture
def options():
    return HarmonyOptions(capacity_fraction=0.005, u_fmax=8, u_bmax=8)


class TestPlan:
    def test_plan_is_memoized(self, toy_model, small_server, options):
        harmony = Harmony(toy_model, small_server, 8, options)
        assert harmony.plan() is harmony.plan()

    def test_plan_with_config_is_not_memoized(self, toy_model, small_server,
                                              options):
        harmony = Harmony(toy_model, small_server, 8, options)
        base = harmony.plan()
        manual = harmony.plan(config=base.config)
        assert manual is not base
        assert harmony.plan() is base

    def test_describe_mentions_model_and_mode(self, toy_model, small_server,
                                              options):
        harmony = Harmony(toy_model, small_server, 8, options)
        text = harmony.plan().describe()
        assert toy_model.name in text
        assert "PP" in text

    def test_model_by_name(self, small_server, options):
        harmony = Harmony("toy-transformer", small_server, 8, options)
        assert harmony.model.name == "toy-transformer-6"


class TestProfiledPair:
    """A decomposition + profile handed in is reused while it applies."""

    def test_shared_pair_plans_bit_identically(self, toy_model, small_server,
                                               options):
        solo = Harmony(toy_model, small_server, 8, options).plan()
        pair = (solo.decomposed, solo.profiles)
        shared = Harmony(toy_model, small_server, 8, options,
                         profiled=pair).plan()
        assert shared.decomposed is solo.decomposed
        assert shared.profiles is solo.profiles
        assert shared.config == solo.config
        assert (shared.search.best_estimate.hex()
                == solo.search.best_estimate.hex())

    def test_pair_is_dropped_once_the_seed_changes(self, toy_model,
                                                   small_server, options):
        from dataclasses import replace

        solo = Harmony(toy_model, small_server, 8, options).plan()
        harmony = Harmony(toy_model, small_server, 8, options,
                          profiled=(solo.decomposed, solo.profiles))
        harmony.options = replace(options, seed=1)
        reseeded = harmony.plan()
        assert reseeded.profiles is not solo.profiles
        assert reseeded.decomposed.units[0].seed == 1

    def test_pair_of_another_model_is_rejected(self, toy_model,
                                               small_server, options):
        other = Harmony("tiny-cnn", small_server, 8, options).plan()
        with pytest.raises(ValueError, match="another model"):
            Harmony(toy_model, small_server, 8, options,
                    profiled=(other.decomposed, other.profiles))


class TestRun:
    def test_run_produces_metrics(self, toy_model, small_server, options):
        report = Harmony(toy_model, small_server, 8, options).run()
        assert report.metrics.iteration_time > 0
        assert report.metrics.minibatch == 8
        assert len(report.metrics.gpus) == 2

    def test_pp_swap_volume_below_dp(self, toy_model, small_server, options):
        from dataclasses import replace

        pp = Harmony(toy_model, small_server, 8, options).run()
        dp = Harmony(toy_model, small_server, 8,
                     replace(options, mode="dp")).run()
        assert pp.metrics.global_swap_bytes < dp.metrics.global_swap_bytes

    def test_ablation_switch_validation(self):
        with pytest.raises(ValueError):
            HarmonyOptions().without("warp-drive")

    def test_without_flips_exactly_one_flag(self):
        options = HarmonyOptions().without("grouping")
        assert not options.grouping
        assert options.jit and options.p2p and options.prefetch

    def test_report_describe_renders(self, toy_model, small_server, options):
        report = Harmony(toy_model, small_server, 8, options).run()
        text = report.describe()
        assert "iteration" in text
        assert "gpu0" in text
