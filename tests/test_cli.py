"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_plan_prints_config(self, capsys):
        assert main(["plan", "toy-transformer", "--minibatch", "8"]) == 0
        out = capsys.readouterr().out
        assert "U_F=" in out
        assert "P_F:" in out

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "toy-transformer", "--minibatch", "8",
                     "--mode", "dp"]) == 0
        out = capsys.readouterr().out
        assert "samples/s" in out

    def test_experiment_fast(self, capsys):
        assert main(["experiment", "fig01", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "gpt5"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_experiment_registered(self):
        # The registry covers all evaluation figures and tables.
        assert {"fig09", "fig13", "fig15", "tab01", "tab04"} <= set(EXPERIMENTS)


class TestUsageErrors:
    """Bad numeric inputs are argparse usage errors (exit 2), never a
    traceback from deep inside the planner or a silently-NaN run."""

    @pytest.mark.parametrize("argv", [
        *([cmd, "gpt2", "--minibatch", bad]
          for cmd in ("plan", "run", "check", "bind", "trace", "chaos")
          for bad in ("0", "-4")),
        ["run", "gpt2", "--minibatch", "two"],
        ["chaos", "gpt2", "--intensity", "-1"],
        *(["chaos", "toy-transformer", "--intensity", bad]
          for bad in ("nan", "inf", "-inf")),
        ["trace", "toy-transformer", "--intensity", "nan"],
        ["serve", "--intensity", "nan"],
        ["serve", "--intensity", "-0.5"],
        ["bench", "--repeats", "0"],
        ["bench", "--repeats", "-1"],
        ["serve", "--requests", "-3"],
        ["serve", "--workers", "0"],
        ["serve", "--queue-limit", "0"],
        ["serve", "--fleet-gpus", "0"],
        ["serve", "--fleet-servers", "-1"],
        ["serve", "--quota", "-1"],
        ["serve", "--tenants", "0"],
        *(["serve", flag, bad]
          for flag in ("--duration", "--deadline")
          for bad in ("0", "-1", "nan", "inf")),
        *(["serve", flag, bad]
          for flag in ("--max-shed-rate", "--execute-fraction")
          for bad in ("nan", "-0.1", "1.5", "inf")),
        ["chaos", "toy-transformer", "--iterations", "0"],
        ["trace", "toy-transformer", "--iterations", "0"],
        ["bind", "toy-transformer", "--run", "--iterations", "0"],
        *(["chaos", "toy-transformer", flag, bad]
          for flag in ("--transfer-rate", "--crash-rate")
          for bad in ("nan", "-0.1", "2")),
        *(["chaos", "toy-transformer", "--seeds", bad] for bad in ("0", "-2")),
        *(["chaos", "toy-transformer", flag, "-1"]
          for flag in ("--devices-lost", "--servers-lost", "--lose-at")),
        ["chaos", "toy-transformer", "--servers", "0"],
        *(["chaos", "toy-transformer", "--servers", "3", "--partition-at", bad]
          for bad in ("nan", "inf", "-0.5")),
        *(["chaos", "toy-transformer", "--servers", "3", "--partition-for",
           bad] for bad in ("-1", "0", "nan")),
        ["bench", "--workers", "0"],
        ["trace", "toy-transformer", "--ring", "0"],
        *(["bind", "toy-transformer", flag, bad]
          for flag in ("--hetero", "--memory-scales")
          for bad in ("inf,1,1,1", "nan,1,1,1", "1e400,1,1,1", "0,1,1,1",
                      ",")),
        *(["chaos", "toy-transformer", "--hetero", bad]
          for bad in ("nan,1", "inf,1", "1,-1")),
        ["bind", "toy-transformer", "--physical", "0"],
    ], ids="_".join)
    def test_rejected_at_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err
        assert "Traceback" not in err


class TestClusterChaosCli:
    def test_scripted_server_loss_sweep(self, capsys, tmp_path):
        out = tmp_path / "cluster-chaos.json"
        assert main([
            "chaos", "toy-transformer", "--minibatch", "8", "--gpus", "2",
            "--servers", "3", "--seeds", "2", "--servers-lost", "1",
            "--iterations", "3", "--json", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "cluster chaos summary" in printed
        assert "0 hard failure(s)" in printed

        import json

        payload = json.loads(out.read_text())
        assert payload["servers"] == 3
        assert payload["summary"]["hard_failures"] == 0
        assert payload["summary"]["state_restores"] >= 1
        for record in payload["results"]:
            assert "seed" in record
            cluster = record["cluster"]
            assert set(cluster["fault_counts"]) == {
                "server_crash", "partition", "nic_degrade", "switch_flap"
            }
            if record["outcome"] == "completed":
                assert cluster["servers_lost"] == 1
                assert cluster["cluster_replans"] >= 1

    def test_dp_partition_sweep(self, capsys):
        assert main([
            "chaos", "toy-transformer", "--minibatch", "9", "--gpus", "2",
            "--mode", "dp", "--servers", "3", "--seeds", "1",
            "--partition-at", "0.001", "--partition-for", "0.01",
            "--iterations", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "cluster-dp plan" in printed
        assert "0 hard failure(s)" in printed

    def test_single_server_path_unchanged(self, capsys):
        # --servers 1 (the default) keeps the original per-server sweep.
        assert main([
            "chaos", "toy-transformer", "--minibatch", "8", "--gpus", "2",
            "--seeds", "1",
        ]) == 0
        assert "chaos summary" in capsys.readouterr().out
