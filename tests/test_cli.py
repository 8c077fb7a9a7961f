"""Tests for the experiment CLI (`python -m repro.experiments`)."""

import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table7", "checkpoint", "cost", "explicit"):
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_one_tiny(self, capsys):
        assert main(["checkpoint", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Checkpointing" in out
        assert "paper vs measured" in out

    def test_table1_runs_without_scale(self, capsys):
        assert main(["table1", "--scale", "tiny", "--no-cache"]) == 0
        assert "Intel X25-E" in capsys.readouterr().out

    def test_registry_matches_drivers(self):
        # Every registered experiment is callable and described.
        for name, (driver, description) in EXPERIMENTS.items():
            assert callable(driver)
            assert description

    def test_registry_matches_pinned_digests(self):
        # Adding or removing an experiment must repin the digest file.
        pinned = Path(__file__).resolve().parent.parent / (
            "benchmarks/EXPERIMENT_digests_tiny.json"
        )
        digests = json.loads(pinned.read_text())["digests"]
        assert set(EXPERIMENTS) == set(digests)

    def test_per_experiment_wall_and_summary(self, capsys):
        assert main(["table1", "checkpoint", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[table1:" in out and "s wall" in out
        assert "[checkpoint:" in out
        assert "2 experiments in" in out
        assert "PASS: all experiments verified" in out

    def test_jobs_flag_parallel_run(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--jobs", "2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "(--jobs 2)" in out
        assert "PASS: all experiments verified" in out

    def test_cache_hit_on_rerun(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["checkpoint", "--scale", "tiny", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "--scale", "tiny", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "1 cached" in out
        assert "Checkpointing" in out  # hit still renders the full report

    def test_json_telemetry_output(self, tmp_path):
        out_path = tmp_path / "telemetry.json"
        assert main(
            ["checkpoint", "--scale", "tiny", "--no-cache", "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["scale"] == "tiny"
        assert payload["failed"] == []
        (entry,) = payload["results"]
        assert entry["name"] == "checkpoint"
        assert entry["digest"] and entry["verified"]
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_bytes"] > 0
        assert entry["cache_hit"] is False

    def test_verify_identity_passes(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--verify-identity"]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
