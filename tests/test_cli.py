"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.clock_mhz == 100.0
        assert args.iterations == 5


class TestValidation:
    def test_bad_clock(self, capsys):
        assert main(["fig6", "--clock-mhz", "0"]) == 2
        assert "clock-mhz" in capsys.readouterr().err

    def test_bad_iterations(self, capsys):
        assert main(["fig6", "--iterations", "0"]) == 2


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "SPI library" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "DSP48" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "n=1" in out and "n=2" in out

    def test_resync(self, capsys):
        assert main(["resync"]) == 0
        out = capsys.readouterr().out
        assert "fig. 3" in out and "fig. 5" in out

    def test_trace(self, capsys):
        assert main(["trace", "--iterations", "6"]) == 0
        out = capsys.readouterr().out
        assert "PE0" in out
        assert "MCM bound" in out

    def test_fig6_custom_clock(self, capsys):
        assert main(["fig6", "--iterations", "4", "--clock-mhz", "200"]) == 0
        out = capsys.readouterr().out
        assert "200 MHz" in out

    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "SPI system" in out
        assert "self-timed schedule" in out
        assert "SPI_dynamic" in out  # the LPC channels


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "--app", "chain", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "processing elements:" in out
        assert "MCM bound" in out

    def test_run_lpc_writes_artefacts(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run",
                    "--app", "lpc",
                    "--pes", "3",
                    "--iterations", "4",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert all(
            "ph" in e and "ts" in e and "pid" in e
            for e in trace["traceEvents"]
        )
        metrics = json.loads(metrics_path.read_text())
        from repro.observability import validate_metrics

        validate_metrics(metrics)
        for channel in metrics["channels"]:
            assert (
                channel["occupancy_high_water_messages"]
                <= channel["physical_slots"]
            )

    def test_run_pf(self, capsys):
        assert main(
            ["run", "--app", "pf", "--pes", "2", "--iterations", "4"]
        ) == 0
        assert "channels:" in capsys.readouterr().out

    def test_run_steady_state_defaults_to_auto(self, capsys, tmp_path):
        """Without --trace-out the default warps a periodic app; with it
        auto declines, so the trace covers every iteration."""
        import json

        assert build_parser().parse_args(
            ["run", "--app", "lpc"]
        ).steady_state == "auto"
        metrics_path = tmp_path / "metrics.json"
        argv = ["run", "--app", "lpc", "--pes", "2", "--iterations", "8",
                "--metrics-out", str(metrics_path)]
        assert main(argv) == 0
        assert "steady state: detected at iteration" in capsys.readouterr().out
        warped = json.loads(metrics_path.read_text())
        assert warped["simulator"]["extrapolated_iterations"] > 0

        trace_path = tmp_path / "trace.json"
        assert main(argv + ["--trace-out", str(trace_path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        traced = json.loads(metrics_path.read_text())
        assert traced["simulator"]["extrapolated_iterations"] == 0
        assert traced["run"]["cycles"] == warped["run"]["cycles"]
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_run_steady_state_on_with_trace_out_is_an_error(
        self, capsys, tmp_path
    ):
        code = main(
            ["run", "--app", "lpc", "--pes", "2", "--steady-state", "on",
             "--trace-out", str(tmp_path / "trace.json")]
        )
        assert code == 2
        assert "trace" in capsys.readouterr().err


class TestRunErrorPaths:
    def test_missing_app_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--pes", "2"])
        assert excinfo.value.code == 2
        assert "--app" in capsys.readouterr().err

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--app", "sonar"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_pes(self, capsys):
        assert main(["run", "--app", "lpc", "--pes", "0"]) == 2
        assert "--pes" in capsys.readouterr().err

    def test_negative_pes(self, capsys):
        assert main(["run", "--app", "chain", "--pes", "-3"]) == 2
        assert "--pes" in capsys.readouterr().err

    def test_bad_transport_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--app", "lpc", "--transport", "pigeon"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestConformCommand:
    def test_small_campaign_passes(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        code = main(
            [
                "conform",
                "--seeds", "3",
                "--quick",
                "--iterations", "2",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checked 3 seed(s)" in out
        assert "0 failing" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.conformance/1"
        assert report["bench"]["schema"] == "repro.bench/1"

    def test_replay_single_seed(self, capsys):
        assert main(["conform", "--replay", "5", "--quick"]) == 0
        assert "[5..5]" in capsys.readouterr().out

    def test_replay_conflicts_with_seeds(self, capsys):
        assert main(["conform", "--replay", "5", "--seeds", "10"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_shape_rejected(self, capsys):
        assert main(["conform", "--seeds", "1", "--shape", "bogus=3"]) == 2
        assert "unknown shape knob" in capsys.readouterr().err

    def test_bad_seed_count_rejected(self, capsys):
        assert main(["conform", "--seeds", "0"]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_shape_override_applies(self, capsys):
        assert main(
            [
                "conform",
                "--seeds", "2",
                "--quick",
                "--iterations", "2",
                "--shape", "max_actors=3,dynamic_prob=0.0",
            ]
        ) == 0
        assert "checked 2 seed(s)" in capsys.readouterr().out


class TestCampaignCommand:
    def test_list_ops(self, capsys):
        assert main(["campaign", "--list-ops"]) == 0
        out = capsys.readouterr().out
        for name in ("conform.seed", "simulate.app", "bench.figure",
                     "ablate.resync"):
            assert name in out
        assert "required" in out

    def test_op_is_required(self, capsys):
        assert main(["campaign"]) == 2
        assert "--op is required" in capsys.readouterr().err

    def test_unknown_op_rejected(self, capsys):
        assert main(["campaign", "--op", "no.such.op"]) == 2
        assert "unknown operation" in capsys.readouterr().err

    def test_malformed_param_rejected(self, capsys):
        code = main(
            ["campaign", "--op", "simulate.app",
             "--param", "app=lpc", "--param", "pes=lots"]
        )
        assert code == 2
        assert "expected int" in capsys.readouterr().err

    def test_zero_workers_rejected(self, capsys):
        code = main(
            ["campaign", "--op", "conform.seed", "--seeds", "1",
             "--workers", "0"]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_conform_campaign_with_repeated_graphs(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "campaign.json"
        runs_dir = tmp_path / "runs"
        code = main(
            [
                "campaign",
                "--op", "conform.seed",
                "--seeds", "6",
                "--distinct", "2",
                "--quick",
                "--no-shrink",
                "--runs-dir", str(runs_dir),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conform.seed x 6 unit(s)" in out
        assert "6 completed, 0 failed" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.campaign/1"
        # 2 distinct graphs x 3 repeats: the cache must carry the rest
        assert report["cache"]["hits"] > 0
        assert len(list(runs_dir.glob("*.json"))) == 6

    def test_generic_op_with_count(self, capsys):
        code = main(
            [
                "campaign",
                "--op", "simulate.app",
                "--param", "app=chain",
                "--param", "iterations=2",
                "--count", "2",
            ]
        )
        assert code == 0
        assert "simulate.app x 2 unit(s)" in capsys.readouterr().out


class TestConformExitCodes:
    """``repro conform`` is a CI gate: its exit code must track the
    campaign verdict exactly."""

    @staticmethod
    def _fake_report(failing_seeds):
        return {
            "schema": "repro.conformance/1",
            "checked": 1,
            "failing_seeds": failing_seeds,
            "failures": [
                {
                    "seed": seed,
                    "violations": [
                        {"oracle": "x", "run": "y", "detail": "boom"}
                    ],
                }
                for seed in failing_seeds
            ],
            "cases": [],
            "bench": {"wall_seconds": 0.1, "makespan_cycles": 7},
        }

    def test_failing_campaign_exits_nonzero(self, capsys, monkeypatch):
        import repro.conformance

        monkeypatch.setattr(
            repro.conformance,
            "run_campaign",
            lambda config, workers=1: self._fake_report([17]),
        )
        assert main(["conform", "--seeds", "1"]) == 1
        assert "1 failing" in capsys.readouterr().out

    def test_passing_campaign_exits_zero(self, capsys, monkeypatch):
        import repro.conformance

        monkeypatch.setattr(
            repro.conformance,
            "run_campaign",
            lambda config, workers=1: self._fake_report([]),
        )
        assert main(["conform", "--seeds", "1"]) == 0
        assert "0 failing" in capsys.readouterr().out
