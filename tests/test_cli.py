"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.network == "tree"
        assert args.load == 0.5

    def test_fig_pattern_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--pattern", "tornado"])

    def test_sweep_accepts_extension_patterns(self):
        args = build_parser().parse_args(["sweep", "--pattern", "tornado"])
        assert args.pattern == "tornado"


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "6.340" in out

    def test_info_tree(self, capsys):
        assert main(["info", "--network", "tree"]) == 0
        out = capsys.readouterr().out
        assert "KAryNTree" in out
        assert "1.0 flits/cycle" in out

    def test_info_cube(self, capsys):
        assert main(["info", "--network", "cube", "--k", "4", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "16 nodes" in out

    def test_run_small(self, tmp_path, capsys):
        # plain, then every tier stacked on one resumable run
        for extra in ([], ["--forensics", "--flight", "--statehash",
                           "--checkpoint", str(tmp_path / "ckpt")]):
            code = main(
                [
                    "run",
                    "--network", "cube",
                    "--k", "4",
                    "--n", "2",
                    "--algorithm", "dor",
                    "--load", "0.2",
                    "--profile", "fast",
                ]
                + extra
            )
            assert code == 0
            assert "accepted=" in capsys.readouterr().out

    def test_sweep_small(self, capsys):
        for extra in ([], ["--forensics", "--flight"]):
            code = main(
                [
                    "sweep",
                    "--network", "tree",
                    "--k", "2",
                    "--n", "2",
                    "--vcs", "2",
                    "--profile", "fast",
                ]
                + extra
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "saturation:" in out

    def test_drain(self, capsys):
        code = main(
            [
                "drain",
                "--network", "tree",
                "--k", "2",
                "--n", "2",
                "--vcs", "2",
                "--pattern", "complement",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "packets drained: 4" in out

    def test_drain_rejects_uniform(self, capsys):
        code = main(
            ["drain", "--network", "tree", "--k", "2", "--n", "2", "--vcs", "2"]
        )
        assert code == 2  # uniform is not a permutation

    def test_find_sat(self, capsys):
        code = main(
            [
                "find-sat",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--algorithm", "dor",
                "--profile", "fast",
                "--resolution", "0.2",
            ]
        )
        assert code == 0
        assert "saturation:" in capsys.readouterr().out

    def test_fig_plot_flag(self, capsys):
        # plotting is only wired for fig5/fig6
        args = build_parser().parse_args(["fig5", "--plot"])
        assert args.plot
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--plot"])

    def test_error_exit_code(self, capsys):
        # duato needs >= 3 VCs: ConfigurationError -> exit 2, message on stderr
        code = main(
            [
                "run",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--algorithm", "duato",
                "--vcs", "2",
                "--profile", "fast",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestObservability:
    RUN_ARGS = [
        "run", "--network", "cube", "--k", "4", "--n", "2",
        "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
    ]

    def test_run_json_document(self, capsys):
        assert main(self.RUN_ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"format", "config", "result", "telemetry"}
        assert doc["config"]["load"] == 0.2
        assert doc["result"]["delivered_packets"] > 0
        assert doc["telemetry"]["cycles_per_sec"] > 0

    def test_run_json_round_trips_through_io(self, capsys):
        from repro.metrics.io import run_result_from_dict

        assert main(self.RUN_ARGS + ["--json"]) == 0
        result = run_result_from_dict(json.loads(capsys.readouterr().out))
        assert result.telemetry is not None

    def test_run_prints_telemetry_line(self, capsys):
        assert main(self.RUN_ARGS) == 0
        assert "cyc/s" in capsys.readouterr().out

    def test_sweep_json_includes_telemetry(self, capsys):
        from repro.experiments.sweep import clear_cache

        clear_cache()  # cached points are not re-simulated, so no rate
        code = main(
            [
                "sweep", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--profile", "fast", "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert set(doc) == {"format", "series", "telemetry"}
        assert doc["telemetry"]["points_simulated"] >= 1
        assert doc["telemetry"]["mean_cycles_per_sec"] > 0
        # live progress went to stderr, one line per point
        assert "[1/" in captured.err

    def test_trace_writes_chrome_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--pattern", "transpose", "--load", "0.3",
                "--profile", "fast", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases >= {"X", "M"}
        assert "trace:" in capsys.readouterr().out

    def test_trace_both_formats_and_counters(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        counters = tmp_path / "counters.json"
        code = main(
            [
                "trace", "--network", "cube", "--k", "4", "--n", "2",
                "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
                "--out", str(out), "--format", "both",
                "--counters", str(counters), "--window", "100",
            ]
        )
        assert code == 0
        assert out.exists()
        jsonl = out.with_suffix(".jsonl")
        assert jsonl.exists()
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())
        cdoc = json.loads(counters.read_text())
        assert cdoc["window_cycles"] == 100
        assert cdoc["windows"]

    def test_run_prints_phase_split(self, capsys):
        assert main(self.RUN_ARGS) == 0
        assert "phases: link" in capsys.readouterr().out

    def test_trace_json_parity_with_run(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--out", str(out), "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # same versioned run document as run --json ...
        assert set(doc) >= {"format", "config", "result", "telemetry"}
        assert doc["telemetry"]["phase_seconds"]["link"] > 0
        # ... plus the trace-specific section
        assert doc["trace"]["events"] > 0
        assert doc["trace"]["written"] == [str(out)]
        assert doc["trace"]["deadlock"] is None

    def test_cprofile_smoke(self, capsys):
        assert main(self.RUN_ARGS + ["--cprofile"]) == 0
        captured = capsys.readouterr()
        assert "accepted=" in captured.out
        assert "cumulative" in captured.err  # pstats table on stderr

    def test_cprofile_stats_file(self, tmp_path, capsys):
        import pstats

        stats = tmp_path / "run.pstats"
        assert main(self.RUN_ARGS + ["--cprofile", str(stats)]) == 0
        assert stats.exists()
        pstats.Stats(str(stats))  # parseable profile dump


class TestLedgerAndReport:
    SWEEP_ARGS = [
        "sweep", "--network", "tree", "--k", "2", "--n", "2",
        "--vcs", "2", "--profile", "fast",
    ]

    def test_run_appends_to_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = tmp_path / "runs.jsonl"
        args = TestObservability.RUN_ARGS + ["--ledger", str(ledger)]
        assert main(args) == 0
        assert main(args) == 0  # same recipe again: deduplicated
        records = Ledger(ledger).query(kind="run")
        assert len(records) == 1
        assert records[0]["network"] == "cube"

    def test_sweep_ledger_holds_every_point(self, tmp_path, capsys):
        from repro.experiments.sweep import clear_cache
        from repro.obs.ledger import Ledger

        clear_cache()
        ledger = tmp_path / "runs.jsonl"
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        points = Ledger(ledger).query(kind="sweep")
        assert len(points) >= 2
        assert len({rec["load"] for rec in points}) == len(points)
        # replaying the sweep (now cache-warm) adds nothing
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        assert len(Ledger(ledger)) == len(points)

    def test_report_from_ledger(self, tmp_path, capsys):
        from repro.experiments.sweep import clear_cache

        clear_cache()
        ledger = tmp_path / "runs.jsonl"
        out = tmp_path / "scorecard.html"
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        code = main(
            ["report", "--ledger", str(ledger), "--out", str(out),
             "--title", "small card"]
        )
        assert code == 0
        assert "scorecard:" in capsys.readouterr().out
        text = out.read_text()
        assert text.count("<svg") == 1
        assert "small card" in text

    def test_report_empty_ledger_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            ["report", "--ledger", str(empty), "--out", str(tmp_path / "s.html")]
        )
        assert code == 2
        assert "no scorable runs" in capsys.readouterr().err

    def test_faults_ledger_keeps_every_fraction(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = tmp_path / "runs.jsonl"
        code = main(
            [
                "faults", "--network", "cube", "--k", "4", "--n", "2",
                "--profile", "fast", "--fractions", "0,0.1",
                "--ledger", str(ledger),
            ]
        )
        assert code == 0
        # same config+seed at both fractions: dedup must be off for faults
        assert len(Ledger(ledger).query(kind="faults")) == 2


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.load == 1.0
        assert args.fractions == "0,0.05,0.1,0.2"
        assert not args.transient

    def test_degradation_table_cube(self, capsys):
        code = main(
            [
                "faults",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--profile", "fast",
                "--fractions", "0,0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cube fault degradation" in out
        assert "escape frac" in out

    def test_degradation_table_tree(self, capsys):
        code = main(
            [
                "faults",
                "--network", "tree",
                "--k", "2",
                "--n", "3",
                "--vcs", "2",
                "--profile", "fast",
                "--fractions", "0,0.2",
            ]
        )
        assert code == 0
        assert "tree fault degradation" in capsys.readouterr().out

    def test_transient_timeline(self, capsys):
        code = main(
            [
                "faults",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--profile", "fast",
                "--transient",
                "--fraction", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed mid-run" in out
        assert "delivered flits per interval" in out

    def test_bad_fractions_exit_code(self, capsys):
        code = main(["faults", "--network", "tree", "--fractions", "0,x", "--profile", "fast"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
