"""Multi-iteration fault-tolerant runs report per-iteration counters.

An enabled plan that never fires (a device loss scheduled far past the
run) drives the fault-tolerant runner through the same schedule as a
plain run, so every per-GPU counter must read the plain run's
per-iteration value: bytes exactly, busy times up to float summation
order.
"""

import pytest

from repro.faults import ScriptedFaultPlan
from repro.runtime.metrics import GpuMetrics


@pytest.mark.parametrize("iterations", [2, 3])
def test_quiet_fault_plan_matches_plain_run(toy_harmony, iterations):
    plain = toy_harmony.run(iterations=iterations).metrics
    quiet = ScriptedFaultPlan(losses={0: 99})
    assert quiet.enabled
    chaos = toy_harmony.run(iterations=iterations, fault_plan=quiet).metrics
    assert chaos.recovery.faults_injected == 0
    for gpu, (want, got) in enumerate(zip(plain.gpus, chaos.gpus)):
        assert got.swap_in_bytes == want.swap_in_bytes
        assert got.swap_out_bytes == want.swap_out_bytes
        assert got.p2p_in_bytes == want.p2p_in_bytes
        assert got.peak_resident_bytes == want.peak_resident_bytes
        for name in ("compute_busy", "cpu_busy", "swap_busy", "p2p_busy"):
            assert getattr(got, name) == pytest.approx(getattr(want, name)), name
        assert chaos.overlap_fraction(gpu) == pytest.approx(
            plain.overlap_fraction(gpu))


def test_average_over_divides_every_summed_counter():
    g = GpuMetrics(swap_in_bytes=30, swap_out_bytes=31, p2p_in_bytes=32,
                   compute_busy=3.0, cpu_busy=6.0, swap_busy=9.0,
                   p2p_busy=12.0, peak_resident_bytes=100)
    g.average_over(3)
    assert g == GpuMetrics(swap_in_bytes=10, swap_out_bytes=10,
                           p2p_in_bytes=10, compute_busy=1.0, cpu_busy=2.0,
                           swap_busy=3.0, p2p_busy=4.0,
                           peak_resident_bytes=100)
