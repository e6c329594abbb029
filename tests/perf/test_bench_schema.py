"""The bench report schema is a contract; these tests hold both sides.

``BENCH_SCHEMA`` (Python) and ``scripts/bench_schema.json`` (the export
external tooling consumes) must stay byte-equal; the hand-rolled
validator must catch every violation class the schema can express; and
a real ``run_bench`` report must validate and survive a JSON round trip.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    BenchCase,
    SUITES,
    calibrate,
    default_out_path,
    render_report,
    run_bench,
    write_report,
)
from repro.perf.schema import (
    BENCH_SCHEMA,
    SCHEMA_VERSION,
    check_report,
    validate,
)

_REPO = Path(__file__).resolve().parent.parent.parent
_EXPORT = _REPO / "scripts" / "bench_schema.json"


@pytest.fixture(scope="module")
def report():
    """One real (tiny) bench run shared by the module's tests."""
    case = BenchCase("toy-transformer", "pp", 2, 8)
    return run_bench("smoke", repeats=1, cases=[case])


@pytest.mark.parametrize("repeats", [0, -1])
def test_run_bench_rejects_non_positive_repeats(repeats):
    with pytest.raises(ValueError, match="repeats"):
        run_bench("smoke", repeats=repeats)


def test_checked_in_schema_export_matches_source():
    assert _EXPORT.is_file(), (
        "scripts/bench_schema.json missing; regenerate with "
        "python -c \"import json; from repro.perf.schema import "
        "BENCH_SCHEMA; json.dump(BENCH_SCHEMA, "
        "open('scripts/bench_schema.json','w'), indent=2)\""
    )
    assert json.loads(_EXPORT.read_text()) == BENCH_SCHEMA, (
        "scripts/bench_schema.json drifted from repro.perf.schema."
        "BENCH_SCHEMA; regenerate and commit it with the schema change "
        "(and bump SCHEMA_VERSION if a field changed meaning)"
    )


def test_real_report_is_schema_valid(report):
    assert validate(report) == []
    check_report(report)  # must not raise
    assert report["schema_version"] == SCHEMA_VERSION
    # JSON round trip preserves validity (what CI artifacts go through).
    assert validate(json.loads(json.dumps(report))) == []


def test_report_case_fields(report):
    (case,) = report["cases"]
    assert case["model"] == "toy-transformer"
    assert case["mode"] == "pp"
    assert case["n_feasible"] >= 1
    assert case["n_tasks"] >= 1
    assert case["best_estimate"] > 0
    assert case["iteration_time_sim"] > 0
    assert case["trace_overhead_seconds"] >= 0


def test_write_and_render(report, tmp_path):
    out = tmp_path / "BENCH_test.json"
    write_report(report, str(out))
    assert validate(json.loads(out.read_text())) == []
    text = render_report(report)
    assert "toy-transformer pp x2 mb8" in text


def test_validator_catches_violations(report):
    def broken(mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        return validate(bad)

    assert broken(lambda r: r.pop("suite"))  # missing required
    assert broken(lambda r: r.update(suite=7))  # wrong type
    assert broken(lambda r: r.update(repeats=True))  # bool is not integer
    assert broken(lambda r: r.update(repeats=0))  # below minimum
    assert broken(lambda r: r.update(schema_version=99))  # enum
    assert broken(lambda r: r.update(extra_field=1))  # additionalProperties
    assert broken(lambda r: r["host"].update(cpus="many"))  # nested type
    assert broken(lambda r: r["cases"][0].update(mode="3d"))  # items enum
    assert broken(lambda r: r["cases"][0].pop("run_seconds"))  # items req
    with pytest.raises(ValueError, match="violates the schema"):
        check_report({})


def test_suites_are_well_formed():
    assert set(SUITES) == {"smoke", "zoo"}
    for suite in SUITES.values():
        assert suite, "empty suite"
        for case in suite:
            assert case.mode in ("pp", "dp")
            assert case.gpus >= 1 and case.minibatch >= 1


def test_calibration_and_out_path():
    assert calibrate(scale=10_000, rounds=1) > 0
    assert default_out_path("2026-01-31") == "BENCH_2026-01-31.json"


def test_injected_slowdown_scales_report(monkeypatch):
    """The slowdown hook multiplies timings and is recorded in the
    report, so a doctored report can never masquerade as a real one."""
    from repro.perf import SLOWDOWN_ENV

    monkeypatch.setenv(SLOWDOWN_ENV, "3.0")
    case = BenchCase("toy-transformer", "pp", 2, 8)
    slowed = run_bench("smoke", repeats=1, cases=[case])
    assert slowed["injected_slowdown"] == 3.0
    assert validate(slowed) == []
