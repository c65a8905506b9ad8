"""Tests for the ``--metrics FILE`` flag and registry-backed CLI surfaces."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.registry import MetricsRegistry


@pytest.fixture()
def datasets(tmp_path, capsys):
    directory = tmp_path / "data"
    assert main(
        ["scan", "--scale", "0.05", "--seed", "3",
         "--output", str(directory), "--sources", "active", "censys"]
    ) == 0
    capsys.readouterr()
    return [str(directory / "active.jsonl"), str(directory / "censys.jsonl")]


class TestResolveMetrics:
    def test_resolve_emits_metrics_document(self, datasets, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        exit_code = main(
            ["resolve", *datasets, "--output", str(tmp_path / "out"),
             "--metrics", str(metrics_file)]
        )
        assert exit_code == 0
        assert f"wrote {metrics_file}" in capsys.readouterr().out
        document = json.loads(metrics_file.read_text())
        assert document["counters"]["index.observations.indexed"][0]["value"] > 0
        assert document["counters"]["index.observations.observed"][0]["value"] > 0
        [root] = document["spans"]
        assert root["name"] == "cli.resolve"
        assert root["seconds"] > 0
        child_names = [child["name"] for child in root["children"]]
        assert "engine.index" in child_names
        assert "engine.report" in child_names
        assert root["counters"]["index.observations.indexed"] > 0

    def test_prometheus_rendering_round_trips_through_json(self, datasets, tmp_path):
        # One run, captured in an outer observed() scope: the registry the
        # command filled must render identical Prometheus text before and
        # after a JSON export/import cycle (timings included, since both
        # renderings come from the same samples).
        with obs.observed() as registry:
            assert main(
                ["resolve", *datasets, "--output", str(tmp_path / "out")]
            ) == 0
        prometheus = registry.prometheus_text()
        assert "# TYPE index_observations_indexed counter" in prometheus
        rebuilt = MetricsRegistry.from_json(json.loads(json.dumps(registry.to_json())))
        assert rebuilt.prometheus_text() == prometheus

    def test_prom_suffix_writes_prometheus_text(self, datasets, tmp_path):
        prom_file = tmp_path / "metrics.prom"
        assert main(
            ["resolve", *datasets, "--output", str(tmp_path / "out"),
             "--metrics", str(prom_file)]
        ) == 0
        text = prom_file.read_text()
        assert "# TYPE index_observations_indexed counter" in text
        assert "index_observations_indexed " in text

    def test_metrics_off_leaves_obs_disabled(self, datasets, tmp_path):
        assert main(
            ["resolve", *datasets, "--output", str(tmp_path / "out")]
        ) == 0
        assert not obs.is_enabled()

    def test_outputs_identical_with_and_without_metrics(self, datasets, tmp_path):
        assert main(
            ["resolve", *datasets, "--output", str(tmp_path / "plain")]
        ) == 0
        assert main(
            ["resolve", *datasets, "--output", str(tmp_path / "instr"),
             "--metrics", str(tmp_path / "m.json")]
        ) == 0
        for artifact in ("ipv4_alias_sets.json", "ipv6_alias_sets.json", "report.md"):
            assert (tmp_path / "instr" / artifact).read_bytes() == (
                tmp_path / "plain" / artifact
            ).read_bytes(), artifact

    def test_stats_reports_build_path_from_registry(self, datasets, tmp_path, capsys):
        exit_code = main(
            ["resolve", *datasets, "--output", str(tmp_path / "out"), "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "index build statistics:" in output
        assert "interned addresses:" in output
        assert "interned identifiers:" in output


class TestValidateMetrics:
    def test_validate_surfaces_probe_counters_and_summary(self, tmp_path, capsys):
        metrics_file = tmp_path / "validate.json"
        exit_code = main(
            ["validate", "--scale", "0.05", "--seed", "3",
             "--validators", "midar", "ally", "--metrics", str(metrics_file)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shared sample bank" in output
        assert "% of sample demand saved" in output
        document = json.loads(metrics_file.read_text())
        probes = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in document["counters"]["validation.probes"]
        }
        assert probes["issued"] > 0
        assert probes["reused"] > 0
        cache = {
            (entry["labels"]["kind"], entry["labels"]["outcome"]): entry["value"]
            for entry in document["counters"]["session.cache"]
        }
        assert cache[("validation", "miss")] == 2


class TestLongitudinalMetrics:
    def test_campaign_series_lands_in_registry_and_checkpoint(self, tmp_path, capsys):
        metrics_file = tmp_path / "campaign.json"
        checkpoint = tmp_path / "ckpt"
        exit_code = main(
            ["longitudinal", "--scale", "0.05", "--seed", "3",
             "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint), "--metrics", str(metrics_file)]
        )
        assert exit_code == 0
        capsys.readouterr()
        document = json.loads(metrics_file.read_text())
        series = document["series"]["campaign.snapshots"]
        assert [row["snapshot"] for row in series] == [0, 1]
        assert all(row["observations"] > 0 for row in series)
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        assert manifest["metric_series"] == series
