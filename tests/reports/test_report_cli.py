"""Tests for the ``report`` CLI group (and its main-CLI wiring)."""

import json

import pytest

from repro.cli import main as repro_main
from repro.reports.cli import report_main


class TestList:
    def test_lists_bundled_reports(self, capsys):
        assert report_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7_speed", "fig8_decay", "campaign_rate_response",
                     "cross_scenario_waves", "hybrid_desync_profile"):
            assert name in out
        assert "registered metric kernels" in out

    def test_json_lists_kernels(self, capsys):
        assert report_main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in doc["reports"]} >= {"fig7_speed"}
        kernels = {k["name"]: k for k in doc["kernels"]}
        assert "beta" in kernels["decay_rate"]["fields"]


class TestValidate:
    def test_all_bundled_reports_valid(self, capsys):
        assert report_main(["validate"]) == 0
        assert "report(s) valid" in capsys.readouterr().out

    def test_invalid_file_fails_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('scenario = "fig4_single_delay"\n'
                       '[[metrics]]\nname = "nope"\n')
        assert report_main(["validate", str(bad)]) == 1
        assert "metrics[0].name" in capsys.readouterr().out

    def test_bool_kernel_param_fails(self, tmp_path, capsys):
        bad = tmp_path / "bool.toml"
        bad.write_text('scenario = "fig4_single_delay"\n'
                       '[[metrics]]\nname = "wave_speed"\n'
                       'params = { direction = true, min_hops = true }\n')
        assert report_main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL  {bad}: ")
        assert "metrics[0].params': direction must be +1 or -1, got True" in out


class TestRun:
    def test_run_prints_table(self, capsys):
        assert report_main(["run", "cross_scenario_waves"]) == 0
        out = capsys.readouterr().out
        assert "=== report cross_scenario_waves" in out
        assert "fig4_single_delay" in out

    def test_run_with_store_and_artifacts(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out_dir = tmp_path / "out"
        argv = ["run", "campaign_rate_response", "--cache-dir", cache,
                "--out", str(out_dir)]
        assert report_main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 from store" in cold
        assert (out_dir / "campaign_rate_response.csv").exists()
        assert (out_dir / "viz" / "campaign_rate_response.txt").exists()

        assert report_main(argv[:-2]) == 0  # warm, no artifacts
        warm = capsys.readouterr().out
        assert "12 from store, 0 executed" in warm

    def test_unknown_report_exits_2(self, capsys):
        assert report_main(["run", "nope"]) == 2
        assert "report error" in capsys.readouterr().err


class TestResume:
    def test_resume_links_the_new_run_to_the_old_one(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        cache = str(tmp_path / "cache")
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", cache]) == 0
        (first,) = RunLedger(cache).records()
        capsys.readouterr()

        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", cache,
                            "--resume", first["id"]]) == 0
        assert "12 from store, 0 executed" in capsys.readouterr().out
        records = list(RunLedger(cache).records())
        assert len(records) == 2
        assert records[-1]["resumed_from"] == first["id"]

    def test_resume_requires_cache_dir(self, capsys):
        assert report_main(["run", "campaign_rate_response",
                            "--resume", "run-deadbeef"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_resume_of_a_different_run_is_refused(self, tmp_path, capsys):
        """Resume links only a run of the same kind and name: neither a
        scenario sweep nor another report is accepted, and a refusal
        writes no ledger record."""
        from repro.obs.ledger import RunLedger

        cache = str(tmp_path / "cache")
        assert repro_main(["scenario", "sweep", "campaign_rate_sweep",
                           "--cache-dir", cache]) == 0
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", cache]) == 0
        sweep, report = RunLedger(cache).records()
        capsys.readouterr()

        assert report_main(["run", "fig7_speed", "--cache-dir", cache,
                            "--resume", sweep["id"]]) == 2
        assert "not a report.run of 'fig7_speed'" in capsys.readouterr().err
        assert report_main(["run", "fig7_speed", "--cache-dir", cache,
                            "--resume", report["id"]]) == 2
        assert "not a report.run of 'fig7_speed'" in capsys.readouterr().err
        assert len(list(RunLedger(cache).records())) == 2

    def test_resume_of_unknown_run_exits_2(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", cache,
                            "--resume", "nosuchrun"]) == 2
        assert "no run 'nosuchrun'" in capsys.readouterr().err


class TestMainWiring:
    def test_main_dispatches_report(self, capsys):
        assert repro_main(["report", "list"]) == 0
        assert "fig7_speed" in capsys.readouterr().out

    def test_report_must_come_first(self, capsys):
        assert repro_main(["--seed", "3", "report"]) == 2
        assert "must come first" in capsys.readouterr().err
