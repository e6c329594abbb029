"""The ``repro bind`` subcommand and chaos ``--hetero``."""

import json

import pytest

from repro.cli import main

ARGS = ["bind", "toy-transformer", "--minibatch", "16", "--gpus", "4"]


def test_identity_bind(capsys):
    assert main(ARGS) == 0
    out = capsys.readouterr().out
    assert "identity binding" in out
    assert "analyzer: clean" in out


def test_time_slice_bind_runs(tmp_path):
    report = tmp_path / "bind.json"
    assert main(ARGS + ["--physical", "2", "--run",
                        "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert payload["logical_gpus"] == 4
    assert payload["physical_gpus"] == 2
    assert payload["assignment"] == [0, 1, 0, 1]
    assert payload["iteration_time"] > 0


def test_hetero_bind_runs(tmp_path):
    report = tmp_path / "bind.json"
    assert main(ARGS + ["--hetero", "1.5,1.5,0.75,0.75", "--run",
                        "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert payload["flops_scales"] == [1.5, 1.5, 0.75, 0.75]
    assert len(payload["device_memory_bytes"]) == 4


def test_rejected_bind_exits_nonzero(tmp_path, capsys):
    report = tmp_path / "bind.json"
    code = main(ARGS + ["--memory-scales", "1.0,1.0,1.0,0.000001",
                        "--json", str(report)])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["ok"] is False
    assert "capacity" in payload["error"]


def test_malformed_scales_exit(tmp_path):
    with pytest.raises(SystemExit):
        main(ARGS + ["--hetero", "fast,slow"])
    with pytest.raises(SystemExit):
        main(ARGS + ["--hetero", "-1.0,1.0,1.0,1.0"])


def test_memory_scales_length_mismatch_is_usage_error():
    """A --memory-scales list that disagrees with the physical device
    count must exit as a usage error, not an uncaught traceback."""
    with pytest.raises(SystemExit) as exc:
        main(ARGS + ["--memory-scales", "1.0,1.0"])
    assert "bad topology" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        main(ARGS + ["--physical", "2",
                     "--memory-scales", "1.0,1.0,1.0,1.0"])
    assert "bad topology" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        main(ARGS + ["--hetero", "1.5,1.5,0.75,0.75",
                     "--memory-scales", "1.0"])
    assert "bad topology" in str(exc.value)


def test_memory_scales_must_be_positive_numbers(capsys):
    for scales, reason in [("1.0,1.0,1.0,0.0", "must be > 0"),
                           ("1.0,1.0,-0.5,1.0", "must be > 0"),
                           ("big,small,1.0,1.0", "invalid float value")]:
        with pytest.raises(SystemExit) as exc:
            main(ARGS + ["--memory-scales", scales])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --memory-scales: bad scale list" in err
        assert reason in err


def test_chaos_hetero_sweep(tmp_path):
    report = tmp_path / "chaos.json"
    code = main(["chaos", "toy-transformer", "--minibatch", "16",
                 "--gpus", "4", "--seeds", "2", "--iterations", "1",
                 "--hetero", "1.25,1.0,1.0,0.75", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["hetero"] == "1.25,1.0,1.0,0.75"
    assert payload["summary"]["hard_failures"] == 0


def test_chaos_hetero_rejects_cluster_sweeps():
    with pytest.raises(SystemExit):
        main(["chaos", "toy-transformer", "--minibatch", "8",
              "--gpus", "2", "--servers", "2", "--hetero", "1.0,1.0"])


def test_chaos_hetero_scale_count_must_match_gpus():
    with pytest.raises(SystemExit):
        main(["chaos", "toy-transformer", "--minibatch", "16",
              "--gpus", "4", "--hetero", "1.0,1.0"])
