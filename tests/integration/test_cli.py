"""Command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestWorlds:
    def test_text_output(self, capsys):
        assert main(["worlds"]) == 0
        out = capsys.readouterr().out
        for country in ("AZ", "BY", "KZ", "RU"):
            assert f"{country}:" in out

    def test_json_output(self, capsys):
        assert main(["worlds", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["country"] for row in rows} == {"AZ", "BY", "KZ", "RU"}


class TestCenTrace:
    def test_basic_run(self, capsys):
        code = main(
            [
                "centrace",
                "--country",
                "AZ",
                "--max-endpoints",
                "2",
                "--repetitions",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measurements blocked" in out
        assert "Delta Telecom" in out

    def test_json_output_parses(self, capsys):
        code = main(
            [
                "centrace",
                "--country",
                "AZ",
                "--max-endpoints",
                "1",
                "--repetitions",
                "2",
                "--json",
            ]
        )
        assert code == 0
        results = json.loads(capsys.readouterr().out)
        assert results[0]["blocked"] is True
        assert results[0]["blocking_hop"]["asn"] == 29049

    def test_dns_protocol(self, capsys):
        code = main(
            [
                "centrace",
                "--country",
                "AZ",
                "--max-endpoints",
                "1",
                "--protocol",
                "dns",
                "--repetitions",
                "2",
            ]
        )
        assert code == 0  # no DNS devices in AZ: simply unblocked


class TestCenFuzz:
    def test_strategy_filter(self, capsys):
        code = main(
            [
                "cenfuzz",
                "--country",
                "KZ",
                "--strategy",
                "Get Word Alt.",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BLOCKED" in out
        assert "Get Word Alt." in out


class TestCenProbe:
    def test_scan_all_device_ips(self, capsys):
        assert main(["cenprobe", "--country", "KZ"]) == 0
        out = capsys.readouterr().out
        assert "vendor=Cisco" in out

    def test_json(self, capsys):
        assert main(["cenprobe", "--country", "KZ", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert any(r["vendor"] == "Fortinet" for r in reports)


class TestCampaign:
    def test_campaign_with_save(self, capsys, tmp_path):
        code = main(
            [
                "campaign",
                "--country",
                "AZ",
                "--repetitions",
                "2",
                "--scale",
                "0.3",
                "--out",
                str(tmp_path / "az"),
            ]
        )
        assert code == 0
        assert (tmp_path / "az" / "traces.jsonl").exists()
        assert (tmp_path / "az" / "meta.json").exists()
        # No --metrics -> no run report persisted.
        assert not (tmp_path / "az" / "report.json").exists()

    def test_campaign_metrics_prints_and_persists_report(
        self, capsys, tmp_path
    ):
        out_dir = tmp_path / "azm"
        code = main(
            [
                "campaign",
                "--country",
                "AZ",
                "--repetitions",
                "2",
                "--scale",
                "0.3",
                "--metrics",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Run report — AZ campaign" in out
        assert "centrace.measurements" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["counters"]["centrace.measurements"] > 0

    def test_report_run_renders_saved_report(self, capsys, tmp_path):
        out_dir = tmp_path / "azr"
        assert (
            main(
                [
                    "campaign",
                    "--country",
                    "AZ",
                    "--repetitions",
                    "2",
                    "--scale",
                    "0.3",
                    "--metrics",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", "--run", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "Run report — AZ campaign" in out
        assert "Counters" in out

    def test_report_run_missing_report_errors(self, capsys, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_report_run_missing_directory_errors(self, capsys, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_run_format_version_1_dir(self, capsys, tmp_path):
        # A directory saved before FORMAT_VERSION 2 has a meta.json but
        # no report.json; the CLI must say so, not traceback.
        (tmp_path / "meta.json").write_text(
            json.dumps({"version": 1, "country": "AZ"})
        )
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "format-version 1" in err
        assert "Traceback" not in err

    def test_report_run_no_telemetry_dir(self, capsys, tmp_path):
        (tmp_path / "meta.json").write_text(
            json.dumps({"version": 2, "has_report": False})
        )
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "without telemetry" in err

    @pytest.mark.parametrize(
        "text",
        ["[1]", '{"version": "2"}', '{"version": 2'],
        ids=["not-an-object", "string-version", "unparseable"],
    )
    def test_report_run_malformed_meta(self, capsys, tmp_path, text):
        (tmp_path / "meta.json").write_text(text)
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unreadable meta.json" in err
        assert "format-version 1" not in err
        assert "Traceback" not in err

    def test_report_registry_renders_documented_surface(self, capsys):
        assert main(["report", "--registry"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry registry" in out
        assert "Counters" in out and "Spans" in out and "Events" in out
        assert "centrace.measurements" in out

    def test_report_registry_json_matches_declared_tables(self, capsys):
        from repro.telemetry_registry import COUNTERS, EVENTS, SPANS

        assert main(["report", "--registry", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "counters",
            "dynamic_counters",
            "spans",
            "dynamic_spans",
            "events",
        }
        assert payload["counters"] == COUNTERS
        assert payload["spans"] == SPANS
        assert payload["events"] == EVENTS

    def test_drift_error_routes_to_exit_two(self, capsys, tmp_path):
        # A malformed --drift-plan spec is user input: clear message,
        # exit 2, no traceback (the RP902 contract, exercised live).
        code = main([
            "epochs", "--country", "KZ", "--epochs", "1",
            "--out", str(tmp_path / "obs"),
            "--drift-plan", "@" + str(tmp_path / "nope.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read drift plan file" in err
        assert "Traceback" not in err

    def test_report_run_partially_written_report(self, capsys, tmp_path):
        # Simulate a crash mid-write: truncated JSON must degrade to a
        # clear message + exit 2, never a traceback.
        (tmp_path / "report.json").write_text('{"counters": {"a"')
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "partially written" in err
        assert "Traceback" not in err
        # Valid JSON with wrong-typed sections is equally truncated.
        (tmp_path / "report.json").write_text('{"counters": 5}')
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert "partially written" in capsys.readouterr().err


class TestServe:
    def test_serve_swarm_and_report_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "svc"
        code = main(
            [
                "serve",
                "--country",
                "AZ",
                "--seed",
                "7",
                "--scale",
                "0.35",
                "--requests",
                "60",
                "--tenants",
                "4",
                "--interleave-seed",
                "1",
                "--verify",
                "--min-hit-rate",
                "0.3",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "VERIFIED vs direct run" in out
        # The saved run round-trips through `repro report --run`.
        assert main(["report", "--run", str(out_dir)]) == 0
        rendered = capsys.readouterr().out
        assert "service.units_executed" in rendered
        results = (out_dir / "results.jsonl").read_text().splitlines()
        assert results
        for line in results:
            json.loads(line)

    def test_serve_json_output(self, capsys):
        code = main(
            [
                "serve",
                "--country",
                "AZ",
                "--seed",
                "7",
                "--scale",
                "0.35",
                "--requests",
                "40",
                "--tenants",
                "4",
                "--interleave-seed",
                "2",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["units_requested"] > 0
        assert data["stats"]["unit_failures"] == 0
        assert data["stats"]["coalescing_hit_rate"] > 0

    def test_serve_min_hit_rate_failure(self, capsys):
        code = main(
            [
                "serve",
                "--country",
                "AZ",
                "--seed",
                "7",
                "--scale",
                "0.35",
                "--requests",
                "20",
                "--tenants",
                "2",
                "--min-hit-rate",
                "1.1",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rate", "0"),
            ("--rate", "-1"),
            ("--burst", "0"),
            ("--max-pending", "0"),
        ],
    )
    def test_serve_rejects_flow_control_that_would_hang(self, flag, value):
        # A separate process with a timeout: an accepted bad value hangs
        # the swarm instead of failing.
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--country", "AZ", "--scale", "0.35", "--requests", "20",
                flag, value,
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 2
        errors = [
            line for line in proc.stderr.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert "Traceback" not in proc.stderr


class TestExperiment:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "total permutations: 479" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_scale_reaches_an_experiment_that_takes_it(self, monkeypatch, capsys):
        from repro.experiments import fig9
        from repro.experiments.base import ExperimentResult

        calls = []

        def run(*, scale: float = 1.0, seed=None):
            calls.append({"scale": scale, "seed": seed})
            return ExperimentResult("fig9", "stub")

        monkeypatch.setattr(fig9, "run", run)
        assert main(["experiment", "fig9", "--scale", "0.3"]) == 0
        assert calls == [{"scale": 0.3, "seed": None}]

    def test_scale_on_an_experiment_without_one_exits_two(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.5"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: experiment 'table2' takes no --scale"
        ]
        assert "Traceback" not in err


class TestScaleOption:
    """Every --scale shares one type: a finite number > 0."""

    COMMANDS = {
        "worlds": ["worlds"],
        "world-args": ["campaign", "--country", "AZ"],
        "experiment": ["experiment", "table1"],
        "report": ["report"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rejects_non_finite_or_non_positive(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.COMMANDS[command] + ["--scale", value])
        assert exc.value.code == 2
        assert "scale must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_report_module_rejects(self, value, monkeypatch, capsys):
        from repro.experiments import report

        monkeypatch.setattr(
            report, "generate", lambda **_: pytest.fail("bad --scale accepted")
        )
        with pytest.raises(SystemExit) as exc:
            report.main(["--scale", value, "--out", os.devnull])
        assert exc.value.code == 2

    def test_worlds_nan_is_one_usage_error_not_a_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "worlds", "--scale", "nan"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "argument --scale: scale must be a finite number > 0" in proc.stderr


class TestResidual:
    def test_kz_residual_measured(self, capsys):
        assert main(["residual", "--country", "KZ"]) == 0
        out = capsys.readouterr().out
        assert "stateful (3-tuple)" in out

    def test_json(self, capsys):
        assert main(["residual", "--country", "KZ", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stateful"] is True
        low, high = data["duration_bounds"]
        assert low < 60 <= high


class TestEpochs:
    def _run(self, tmp_path, extra=()):
        return main([
            "epochs", "--country", "KZ", "--seed", "11", "--scale", "0.35",
            "--epochs", "2", "--repetitions", "2", "--max-endpoints", "2",
            "--fuzz-max-endpoints", "1", "--out", str(tmp_path / "obs"),
            *extra,
        ])

    def test_observatory_run_and_continuation(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "epoch 0:" in out and "epoch 1:" in out
        # Continuation: same out dir, no new drift -> everything reuses,
        # so --min-reuse passes; the store grows epochs 2-3.
        assert self._run(tmp_path, ("--min-reuse", "0.5")) == 0
        out = capsys.readouterr().out
        assert "epoch 2:" in out and "(100%)" in out

    def test_min_reuse_gate_fails_a_cold_run(self, tmp_path, capsys):
        # Even in-run reuse (epoch 1 hitting epoch 0's units) tops out
        # at 1/2 here; a cold observatory cannot reach 0.9.
        code = self._run(tmp_path, ("--min-reuse", "0.9"))
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_json_summary_with_auto_plan(self, tmp_path, capsys):
        code = self._run(
            tmp_path, ("--drift-plan", "auto", "--drift-seed", "3", "--json")
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs"] == 2
        assert [e["epoch"] for e in summary["per_epoch"]] == [0, 1]
        assert summary["per_epoch"][1]["drift_ops_applied"] == 1


class TestLocalize:
    SUBSET = "i0>a1,b1>n"

    def test_text_run_with_gate_and_save(self, tmp_path, capsys):
        code = main([
            "localize", "--placements", self.SUBSET,
            "--min-accuracy", "0.8", "--metrics",
            "--out", str(tmp_path / "loc"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tomography" in out and "accuracy=" in out
        assert "localize.probes" in out
        assert (tmp_path / "loc" / "verdicts.jsonl").exists()
        from repro.persist import load_localization

        run = load_localization(tmp_path / "loc")
        assert run.xval is not None
        assert "tomography" in run.by_method()

    def test_json_output_parses(self, capsys):
        code = main([
            "localize", "--placements", self.SUBSET, "--no-ttl", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["methods"]["tomography"]["accuracy"] == 1.0
        assert "ttl" not in report["methods"]

    def test_impossible_accuracy_gate_fails(self, capsys):
        # No method can reach 101%: the gate is refused as a usage error
        # before anything runs, never clamped to a reachable value.
        with pytest.raises(SystemExit) as exc:
            main([
                "localize", "--placements", self.SUBSET, "--no-ttl",
                "--min-accuracy", "1.01",
            ])
        assert exc.value.code == 2
        assert len(_error_lines(capsys.readouterr().err)) == 1

    def test_unmet_accuracy_gate_fails(self, capsys):
        # With zero tolerance only exact placements count: tomography
        # places one of the two subset devices exactly (accuracy 0.5).
        code = main([
            "localize", "--placements", self.SUBSET, "--no-ttl",
            "--tolerance", "0", "--min-accuracy", "1",
        ])
        assert code == 1
        assert "FAIL: tomography accuracy 50.0%" in capsys.readouterr().err

    def test_unknown_placement_rejected(self, capsys):
        code = main(["localize", "--placements", "nope"])
        assert code == 2
        assert "unknown placement" in capsys.readouterr().err


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


class TestCountOptions:
    """Counts share one positive-int type; --min-accuracy is a fraction."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["centrace", "--country", "KZ"],
            ["campaign", "--country", "KZ"],
            ["serve", "--country", "AZ"],
            ["epochs", "--country", "KZ", "--out", os.devnull],
        ],
        ids=lambda command: command[0],
    )
    def test_repetitions_below_one_rejected(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--repetitions", value])
        assert exc.value.code == 2
        assert _error_lines(capsys.readouterr().err) == [
            f"repro {command[0]}: error: argument --repetitions: "
            f"must be an integer >= 1, got '{value}'"
        ]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rounds_below_one_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["localize", "--rounds", value])
        assert exc.value.code == 2
        assert len(_error_lines(capsys.readouterr().err)) == 1

    def test_probes_per_round_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["localize", "--probes-per-round", "0"])
        assert exc.value.code == 2
        assert len(_error_lines(capsys.readouterr().err)) == 1

    @pytest.mark.parametrize("value", ["2", "-0.1", "nan"])
    def test_min_accuracy_outside_unit_interval_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["localize", "--min-accuracy", value])
        assert exc.value.code == 2
        assert _error_lines(capsys.readouterr().err) == [
            "repro localize: error: argument --min-accuracy: "
            f"must be a fraction in [0, 1], got '{value}'"
        ]

    def test_bounds_themselves_accepted(self):
        args = build_parser().parse_args(
            ["localize", "--rounds", "1", "--probes-per-round", "1",
             "--min-accuracy", "1"]
        )
        assert (args.rounds, args.probes_per_round, args.min_accuracy) == (
            1, 1, 1.0
        )


class TestUnknownEndpoint:
    """An --endpoint the vantage point has no route to is a usage error."""

    @pytest.mark.parametrize(
        "command, address",
        [("centrace", "1.2.3.4"), ("cenfuzz", "9.9.9.9"), ("residual", "nope")],
    )
    def test_exits_two_naming_the_address(self, command, address, capsys):
        code = main(
            [command, "--country", "KZ", "--scale", "0.2", "--endpoint", address]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = _error_lines(captured.err)
        assert len(errors) == 1 and address in errors[0]
