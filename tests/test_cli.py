"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestScanAndResolve:
    def test_scan_writes_datasets(self, tmp_path):
        exit_code = main(
            ["scan", "--scale", "0.1", "--seed", "3", "--output", str(tmp_path), "--sources", "active", "censys"]
        )
        assert exit_code == 0
        assert (tmp_path / "active.jsonl").exists()
        assert (tmp_path / "censys.jsonl").exists()
        header_line, first_line = (tmp_path / "active.jsonl").read_text().splitlines()[:2]
        assert json.loads(header_line)["name"] == "active"
        record = json.loads(first_line)
        assert {"address", "protocol", "fields"} <= set(record)

    def test_scan_then_resolve_roundtrip(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        out_dir = tmp_path / "resolved"
        assert main(["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]) == 0
        assert (
            main(
                [
                    "resolve",
                    str(scan_dir / "active.jsonl"),
                    str(scan_dir / "censys.jsonl"),
                    "--output",
                    str(out_dir),
                    "--name",
                    "cli-test",
                ]
            )
            == 0
        )
        assert (out_dir / "ipv4_alias_sets.json").exists()
        assert (out_dir / "ipv6_alias_sets.json").exists()
        report = (out_dir / "report.md").read_text()
        assert report.startswith("# Alias resolution report")
        captured = capsys.readouterr().out
        assert "dual-stack sets:" in captured

    def test_scan_active_only(self, tmp_path):
        assert main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "active"]) == 0
        assert (tmp_path / "active.jsonl").exists()
        assert not (tmp_path / "censys.jsonl").exists()

    def test_scan_registry_source(self, tmp_path):
        # Any registered source name works, not just the two historical ones.
        assert main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "union-ipv4"]) == 0
        assert (tmp_path / "union-ipv4.jsonl").exists()

    def test_resolve_with_stats_matches_plain(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        assert main(["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]) == 0
        plain_dir, stats_dir = tmp_path / "plain", tmp_path / "stats"
        for out_dir, extra in ((plain_dir, []), (stats_dir, ["--stats"])):
            assert (
                main(
                    [
                        "resolve",
                        str(scan_dir / "active.jsonl"),
                        "--output",
                        str(out_dir),
                        *extra,
                    ]
                )
                == 0
            )
        for artifact in ("ipv4_alias_sets.json", "ipv6_alias_sets.json", "report.md"):
            assert (plain_dir / artifact).read_bytes() == (
                stats_dir / artifact
            ).read_bytes(), artifact

    def test_resolve_stats_reports_build(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        assert main(["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]) == 0
        assert (
            main(
                [
                    "resolve",
                    str(scan_dir / "active.jsonl"),
                    "--output",
                    str(tmp_path / "out"),
                    "--stats",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "index build statistics:" in output
        assert "interned addresses:" in output
        assert "interned identifiers:" in output
        assert "bucket ssh:" in output


class TestCliErrorPaths:
    def test_scan_unknown_source(self, tmp_path, capsys):
        exit_code = main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "nonsense"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "unknown source 'nonsense'" in captured.err
        assert not (tmp_path / "nonsense.jsonl").exists()

    def test_scan_empty_sources(self, tmp_path, capsys):
        exit_code = main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources"])
        assert exit_code == 2
        assert "no sources requested" in capsys.readouterr().err

    def test_scan_without_output(self, capsys):
        exit_code = main(["scan", "--scale", "0.1"])
        assert exit_code == 2
        assert "--output" in capsys.readouterr().err

    def test_experiments_unknown_name_message(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--only", "table99"])
        assert exit_code == 2
        assert "unknown experiment 'table99'" in capsys.readouterr().err

    def test_resolve_missing_dataset_exits_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["resolve", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_longitudinal_rejects_zero_snapshots(self, capsys):
        exit_code = main(["longitudinal", "--scale", "0.05", "--snapshots", "0"])
        assert exit_code == 2
        assert "at least one snapshot" in capsys.readouterr().err


class TestRegistryListings:
    def test_scan_list_sources(self, capsys):
        exit_code = main(["scan", "--list-sources"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("active", "censys", "union"):
            assert name in output
        assert "IPv6 hitlist" in output  # descriptions, not just names

    def test_experiments_list(self, capsys):
        exit_code = main(["experiments", "--list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("table1", "table6", "figure3", "figure6"):
            assert name in output
        assert "ECDF" in output  # descriptions, not just names


class TestPlan:
    def test_plan_prints_coverage(self, capsys, tmp_path):
        exit_code = main(
            ["plan", "--scale", "0.05", "--seed", "3", "--vantages", "2", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "vantage-1" in output
        assert "vantage-2" in output
        assert "merged" in output
        assert (tmp_path / "coverage.md").read_text().startswith("# Scan plan coverage")

    def test_plan_rejects_zero_vantages(self, capsys):
        assert main(["plan", "--scale", "0.05", "--vantages", "0"]) == 2
        assert "at least one vantage" in capsys.readouterr().err


class TestExperimentsAndClaims:
    def test_experiments_subset(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--seed", "5", "--only", "table4", "figure5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "=== table4" in output
        assert "=== figure5" in output
        assert "=== table1" not in output

    def test_experiments_unknown_name(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--only", "table99"])
        assert exit_code == 2

    def test_claims_runs_and_reports(self, capsys):
        exit_code = main(["claims", "--scale", "0.1", "--seed", "5"])
        output = capsys.readouterr().out
        assert "C1:" in output and "C9:" in output
        assert exit_code in (0, 1)


class TestLongitudinal:
    def test_longitudinal_prints_stability_tables(self, capsys, tmp_path):
        exit_code = main(
            [
                "longitudinal",
                "--scale", "0.05",
                "--seed", "3",
                "--snapshots", "2",
                "--churn", "0.05",
                "--output", str(tmp_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Longitudinal stability (IPv4 union" in output
        assert "Longitudinal stability (IPv6 union" in output
        assert "incrementally re-resolved 1 deltas" in output
        markdown = (tmp_path / "stability.md").read_text()
        assert markdown.startswith("# Longitudinal stability report")

    def test_longitudinal_ipv4_only(self, capsys):
        exit_code = main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "IPv6 union" not in output

    def test_longitudinal_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        base = ["longitudinal", "--scale", "0.05", "--seed", "3", "--churn", "0.05"]
        assert main(base + ["--snapshots", "2", "--checkpoint", str(checkpoint)]) == 0
        assert (checkpoint / "checkpoint.json").exists()
        capsys.readouterr()

        # Resume to 3 snapshots; the combined table covers all of them.
        exit_code = main(
            ["longitudinal", "--resume", str(checkpoint), "--snapshots", "3",
             "--output", str(tmp_path / "out")]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resuming after snapshot 1 (2/3 snapshots completed)" in output
        assert "resumed 1 snapshots" in output
        assert "Longitudinal stability (IPv4 union, 3 snapshots" in output
        markdown = (tmp_path / "out" / "stability.md").read_text()
        assert markdown.startswith("# Longitudinal stability report")
        # The checkpoint advanced in place.
        assert json.loads((checkpoint / "checkpoint.json").read_text())["completed"] == 3

    def test_longitudinal_keep_retains_newest_checkpoints(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        exit_code = main(
            ["longitudinal", "--scale", "0.05", "--seed", "3", "--snapshots", "3",
             "--ipv4-only", "--checkpoint", str(checkpoint), "--keep", "2"]
        )
        assert exit_code == 0
        assert sorted(p.name for p in checkpoint.glob("index-*.json")) == [
            "index-0002.json",
            "index-0003.json",
        ]
        # A pruned directory still resumes from the newest checkpoint.
        capsys.readouterr()
        assert main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "4"]) == 0
        assert "resuming after snapshot 2" in capsys.readouterr().out

    def test_longitudinal_rejects_zero_keep(self, capsys):
        exit_code = main(["longitudinal", "--scale", "0.05", "--keep", "0"])
        assert exit_code == 2
        assert "--keep" in capsys.readouterr().err

    def test_longitudinal_resume_missing_checkpoint(self, capsys, tmp_path):
        exit_code = main(["longitudinal", "--resume", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a campaign checkpoint" in capsys.readouterr().err

    def test_longitudinal_resume_corrupt_snapshot_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        assert main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        snapshot = checkpoint / manifest["last_snapshot_file"]
        snapshot.write_text(snapshot.read_text()[:-40])  # bit-rot / torn copy
        exit_code = main(["longitudinal", "--resume", str(checkpoint)])
        assert exit_code == 2
        assert capsys.readouterr().err.strip()

    def test_longitudinal_resume_cannot_shrink(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        assert main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["longitudinal", "--resume", str(checkpoint), "--snapshots", "1"]
        )
        assert exit_code == 2
        assert "already completed" in capsys.readouterr().err


class TestValidate:
    def test_list_validators(self, capsys):
        exit_code = main(["validate", "--list-validators"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("midar", "ally", "speedtrap", "iffinder", "ptr"):
            assert name in output
        assert "Table 2" in output  # descriptions, not just names

    def test_unknown_validator_exits_2(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--validators", "nonsense"])
        assert exit_code == 2
        assert "unknown validator 'nonsense'" in capsys.readouterr().err

    def test_empty_validators_exits_2(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--validators"])
        assert exit_code == 2
        assert "no validators requested" in capsys.readouterr().err

    def test_validate_prints_summary_and_writes_markdown(self, capsys, tmp_path):
        exit_code = main(
            ["validate", "--scale", "0.05", "--seed", "3",
             "--validators", "midar", "ally", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Validation summary" in output
        assert "midar" in output and "ally" in output
        assert "shared sample bank" in output
        markdown = (tmp_path / "validation.md").read_text()
        assert markdown.startswith("# Validation report")

    def test_validate_snapshots_mode(self, capsys, tmp_path):
        exit_code = main(
            ["validate", "--scale", "0.05", "--seed", "3", "--snapshots", "2",
             "--ipv4-only", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Per-snapshot validation (midar" in output
        markdown = (tmp_path / "validation.md").read_text()
        assert "Per-snapshot validation: midar" in markdown

    def test_validate_snapshots_rejects_zero(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--snapshots", "0"])
        assert exit_code == 2
        assert "at least one snapshot" in capsys.readouterr().err


class TestSession:
    def test_session_save_then_load(self, capsys, tmp_path):
        directory = tmp_path / "session"
        exit_code = main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resolved active" in output
        assert "saved session" in output
        assert (directory / "session.json").exists()

        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "loaded session" in output
        assert "report active" in output

    def test_session_load_renders_experiments(self, capsys, tmp_path):
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active", "censys", "union"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["session", "load", str(directory), "--experiments", "table3"]
        )
        assert exit_code == 0
        assert "=== table3" in capsys.readouterr().out

    def test_session_save_unknown_report(self, capsys, tmp_path):
        exit_code = main(
            ["session", "save", str(tmp_path / "s"), "--scale", "0.05",
             "--reports", "nonsense"]
        )
        assert exit_code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_session_load_missing_directory(self, capsys, tmp_path):
        exit_code = main(["session", "load", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a saved session" in capsys.readouterr().err

    def test_session_load_unknown_experiment(self, capsys, tmp_path):
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--reports"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["session", "load", str(directory), "--experiments", "nonsense"]
        )
        assert exit_code == 2
        assert "nonsense" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_scan_defaults_to_full_scale(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["scan", "--output", "out"])
        assert args.scale == 1.0


class TestCampaignFlagValidation:
    """The shared --interval-days/--churn bounds reject as usage errors."""

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_non_positive_interval_days_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--interval-days", "0"])
        assert exit_code == 2
        assert "--interval-days must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_negative_interval_days_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--interval-days", "-3"])
        assert exit_code == 2
        assert "--interval-days must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_out_of_range_churn_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--churn", "1.5"])
        assert exit_code == 2
        assert "--churn must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_negative_churn_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--churn", "-0.1"])
        assert exit_code == 2
        assert "--churn must be in [0, 1)" in capsys.readouterr().err

    def test_shared_flag_defined_once(self):
        # The duplicated definitions collapsed into one helper: every
        # campaign-shaped parser carries the same default.
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("longitudinal", "validate", "serve"):
            args = parser.parse_args([command])
            assert args.interval_days == 7.0


class TestServe:
    def test_serve_smoke(self, capsys):
        exit_code = main(
            ["serve", "--scale", "0.05", "--seed", "3", "--max-batches", "2",
             "--ipv4-only"]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "emit 0 (snapshot-0):" in captured
        assert "emit 1 (snapshot-1):" in captured
        assert "served 2 polls, 2 reports" in captured
        assert "estimated churn rate:" in captured

    def test_serve_rejects_zero_max_batches(self, capsys):
        exit_code = main(["serve", "--scale", "0.05", "--max-batches", "0"])
        assert exit_code == 2
        assert "--max-batches" in capsys.readouterr().err

    def test_serve_rejects_negative_poll_interval(self, capsys):
        exit_code = main(["serve", "--scale", "0.05", "--poll-interval", "-1"])
        assert exit_code == 2
        assert "--poll-interval" in capsys.readouterr().err

    def test_serve_rejects_zero_emit_every_changes(self, capsys):
        exit_code = main(["serve", "--scale", "0.05", "--emit-every-changes", "0"])
        assert exit_code == 2
        assert "--emit-every-changes" in capsys.readouterr().err

    def test_serve_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream"
        base = ["serve", "--scale", "0.05", "--seed", "3", "--churn", "0.05",
                "--ipv4-only"]
        assert main(base + ["--max-batches", "2", "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--resume", str(checkpoint), "--max-batches", "2"]
        ) == 0
        captured = capsys.readouterr().out
        assert "resuming after poll 1" in captured
        assert "emit 2 (snapshot-2):" in captured
        assert "checkpointed 4 polls" in captured

    def test_serve_resume_missing_checkpoint(self, capsys, tmp_path):
        exit_code = main(["serve", "--resume", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a stream checkpoint" in capsys.readouterr().err

    def test_serve_metrics_capture_stream_series(self, capsys, tmp_path):
        metrics = tmp_path / "serve.json"
        assert main(
            ["serve", "--scale", "0.05", "--max-batches", "2", "--ipv4-only",
             "--metrics", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert "stream.events" in payload.get("series", {})
        counters = payload.get("counters", {})
        assert any(name.startswith("stream.events") for name in counters)
