"""Cluster fault plans: stateless, seeded, reproducible decisions."""

import pytest

from repro.cluster import (
    ClusterFabric,
    ClusterFaultPlan,
    ClusterFaultSpec,
    ClusterInjector,
    PartitionWindow,
    ScriptedClusterFaultPlan,
)
from repro.faults import FaultPlan, FaultSpec
from repro.sim.engine import Simulator


class TestSpecValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            ClusterFaultSpec(server_crash_rate=1.5)
        with pytest.raises(ValueError):
            ClusterFaultSpec(partition_rate=-0.1)

    def test_factors_bounded(self):
        with pytest.raises(ValueError):
            ClusterFaultSpec(nic_degrade_factor=0.0)
        with pytest.raises(ValueError):
            ClusterFaultSpec(switch_flap_factor=1.5)

    def test_intervals_positive(self):
        with pytest.raises(ValueError):
            ClusterFaultSpec(partition_interval=0.0)

    def test_none_disables_everything(self):
        spec = ClusterFaultSpec.none()
        assert not spec.any_enabled
        assert not ClusterFaultPlan(spec).enabled
        assert "off" in spec.describe()

    def test_inner_spec_counts_as_enabled(self):
        spec = ClusterFaultSpec(inner=FaultSpec(transfer_fault_rate=0.1))
        assert spec.any_enabled

    def test_chaos_preset_scales(self):
        mild = ClusterFaultSpec.cluster_chaos(0.1)
        wild = ClusterFaultSpec.cluster_chaos(2.0)
        assert mild.server_crash_rate < wild.server_crash_rate
        assert wild.partition_rate <= 1.0
        with pytest.raises(ValueError):
            ClusterFaultSpec.cluster_chaos(-1)

    @pytest.mark.parametrize("intensity", [float("nan"), float("inf")])
    def test_chaos_non_finite_intensity_rejected(self, intensity):
        with pytest.raises(ValueError, match="finite"):
            ClusterFaultSpec.cluster_chaos(intensity)


class TestSeededDeterminism:
    def test_same_seed_same_decisions(self):
        spec = ClusterFaultSpec.cluster_chaos(1.0)
        a = ClusterFaultPlan(spec, seed=7)
        b = ClusterFaultPlan(spec, seed=7)
        for server in range(4):
            assert a.server_crash(server) == b.server_crash(server)
        for t in (0.0, 0.03, 0.11, 0.47):
            assert a.partitioned(0, 1, t) == b.partitioned(0, 1, t)
            assert a.nic_degradation(1, "up", int(t * 20)) == \
                b.nic_degradation(1, "up", int(t * 20))

    def test_seeds_decorrelate(self):
        spec = ClusterFaultSpec.cluster_chaos(2.0)
        draws = [
            tuple(ClusterFaultPlan(spec, seed=s).server_crash(i)
                  for i in range(8))
            for s in range(6)
        ]
        assert len(set(draws)) > 1

    def test_crash_iteration_leaves_a_baseline(self):
        # A seeded crash never strikes before iteration 1: the replica
        # baseline needs one healthy iteration to establish.
        spec = ClusterFaultSpec(server_crash_rate=1.0)
        for seed in range(10):
            plan = ClusterFaultPlan(spec, seed=seed)
            for server in range(4):
                assert plan.server_crash(server) >= 1

    def test_inner_plans_derived_per_server(self):
        spec = ClusterFaultSpec(inner=FaultSpec(transfer_fault_rate=0.5))
        plan = ClusterFaultPlan(spec, seed=3)
        p0, p1 = plan.server_plan(0), plan.server_plan(1)
        assert isinstance(p0, FaultPlan)
        assert p0.seed != p1.seed
        assert plan.server_plan(0).seed == p0.seed  # stable

    def test_order_independence(self):
        # Stateless draws: querying in any order gives the same answers.
        spec = ClusterFaultSpec.cluster_chaos(1.0)
        plan = ClusterFaultPlan(spec, seed=11)
        forward = [plan.server_crash(s) for s in range(5)]
        backward = [plan.server_crash(s) for s in reversed(range(5))]
        assert forward == list(reversed(backward))


class TestPartitions:
    def test_pair_with_itself_never_cut(self):
        plan = ClusterFaultPlan(ClusterFaultSpec(partition_rate=1.0))
        assert not plan.partitioned(2, 2, 0.0)

    def test_next_change_always_progresses(self):
        plan = ClusterFaultPlan(ClusterFaultSpec(partition_rate=0.5))
        t = 0.0
        for _ in range(20):
            nxt = plan.next_partition_change(t)
            assert nxt > t
            t = nxt

    def test_scripted_window_cuts_only_inside(self):
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.1, 0.2, frozenset({0}))]
        )
        assert not plan.partitioned(0, 1, 0.05)
        assert plan.partitioned(0, 1, 0.15)
        assert plan.partitioned(1, 0, 0.15)
        assert not plan.partitioned(1, 2, 0.15)  # same side
        assert not plan.partitioned(0, 1, 0.2)   # half-open window

    def test_scripted_tuple_form(self):
        plan = ScriptedClusterFaultPlan(partitions=[(0.0, 0.1, [1])])
        assert plan.partitioned(0, 1, 0.05)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            PartitionWindow(0.2, 0.2, frozenset({0}))

    def test_scripted_next_change_walks_edges_then_none(self):
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.1, 0.2, frozenset({0}))]
        )
        assert plan.next_partition_change(0.0) == pytest.approx(0.1)
        assert plan.next_partition_change(0.1) == pytest.approx(0.2)
        # No seeded partitions and no edge ahead: state never changes.
        assert plan.next_partition_change(0.3) is None

    def test_partition_blocked_any_pair(self):
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.0, 1.0, frozenset({2}))]
        )
        assert plan.partition_blocked({(0, 1), (1, 2)}, 0.5)
        assert not plan.partition_blocked({(0, 1)}, 0.5)


class TestScriptedCrashes:
    def test_scripted_crash_overrides_seed(self):
        plan = ScriptedClusterFaultPlan(crashes={1: 2})
        assert plan.server_crash(1) == 2
        assert plan.server_crash(0) is None  # no seeded rate
        assert plan.enabled


class TestInjector:
    def test_degradation_applies_and_epochs_counted(self):
        spec = ClusterFaultSpec(nic_degrade_rate=1.0, nic_degrade_factor=0.5,
                                switch_flap_rate=1.0, switch_flap_factor=0.5)
        plan = ClusterFaultPlan(spec, seed=0)
        injector = ClusterInjector(plan)
        sim = Simulator()
        from repro.cluster import homogeneous_cluster
        from repro.experiments.common import server_for

        fabric = ClusterFabric(sim, homogeneous_cluster(2, server_for(2)))
        injector.arm(fabric, offset=0.0)
        assert fabric.nic_up[0].effective_bandwidth(0.0) == pytest.approx(
            0.5 * fabric.nic_up[0].bandwidth
        )
        assert fabric.switch.effective_bandwidth(0.0) == pytest.approx(
            0.5 * fabric.switch.bandwidth
        )
        assert (0, "up", 0) in injector.nic_epochs
        assert 0 in injector.switch_epochs

    def test_offset_maps_local_to_global_epochs(self):
        spec = ClusterFaultSpec(nic_degrade_rate=1.0, nic_flap_interval=0.05)
        plan = ClusterFaultPlan(spec, seed=0)
        injector = ClusterInjector(plan)
        sim = Simulator()
        from repro.cluster import homogeneous_cluster
        from repro.experiments.common import server_for

        fabric = ClusterFabric(sim, homogeneous_cluster(2, server_for(2)))
        injector.arm(fabric, offset=0.12)
        fabric.nic_up[1].effective_bandwidth(0.0)
        assert (1, "up", 2) in injector.nic_epochs  # floor(0.12/0.05) == 2
