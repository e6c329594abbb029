"""The fault-domain core: tag-driven validation of every fault spec."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from repro.cluster import ClusterFaultSpec
from repro.faults import FaultSpec
from repro.service import ServiceChaosSpec

#: every tagged field of the three fault specs, with its declared check
TAGS = {
    FaultSpec: {
        "transfer_fault_rate": "rate",
        "link_degrade_rate": "rate",
        "link_degrade_factor": "factor",
        "link_flap_interval": "interval",
        "gpu_slowdown_rate": "rate",
        "gpu_slowdown_factor": "slowdown",
        "gpu_persistent_rate": "probability",
        "task_crash_rate": "rate",
        "host_pressure_rate": "rate",
        "host_pressure_factor": "factor",
        "host_pressure_interval": "interval",
        "gpu_loss_rate": "rate",
    },
    ClusterFaultSpec: {
        "server_crash_rate": "rate",
        "partition_rate": "rate",
        "partition_interval": "interval",
        "nic_degrade_rate": "rate",
        "nic_degrade_factor": "factor",
        "nic_flap_interval": "interval",
        "switch_flap_rate": "rate",
        "switch_flap_factor": "factor",
    },
    ServiceChaosSpec: {
        "slow_rate": "rate",
        "slow_factor": "slowdown",
        "crash_rate": "rate",
        "poison_rate": "rate",
    },
}

#: a finite value just outside each check's range
OUT_OF_RANGE = {
    "rate": 1.5,
    "probability": 1.5,
    "factor": 1.5,
    "slowdown": 0.5,
    "interval": 0.0,
}


@pytest.mark.parametrize("spec_cls", TAGS, ids=lambda c: c.__name__)
def test_declared_tags(spec_cls):
    declared = {
        f.name: f.metadata["check"]
        for f in fields(spec_cls) if "check" in f.metadata
    }
    assert declared == TAGS[spec_cls]


@pytest.mark.parametrize("spec_cls, name, bad", [
    (spec_cls, name, bad)
    for spec_cls, tags in TAGS.items()
    for name, check in tags.items()
    for bad in (math.nan, math.inf, -0.5, OUT_OF_RANGE[check])
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_bad_magnitude_names_the_field(spec_cls, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        spec_cls(**{name: bad})

