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


BAD_REPORTS = {
    "negative_seed": ("seeds = [-1, 2]\n", "",
                      "field 'seeds[0]': must be >= 0, got -1"),
    "negative_base_seed": ("base_seed = -3\n", "",
                           "field 'base_seed': must be >= 0, got -3"),
    "absolute_artifact": ("", "{tmp}/abs/x.csv",
                          "field 'artifacts[0].path': must be a relative"),
    "escaping_artifact": ("", "../escaped.json",
                          "field 'artifacts[0].path': must be a relative"),
}


#: Two artifacts whose files collide below --out: (artifacts, message).
COLLIDING_ARTIFACTS = {
    "same_path": (
        [("csv", "x.out"), ("json", "x.out")],
        "field 'artifacts[1].path': writes x.out, the same file as "
        "artifacts[0] (x.out)"),
    "below_a_file": (
        [("csv", "x.out"), ("json", "x.out/y.json")],
        "field 'artifacts[1].path': writes x.out/y.json, a file below the "
        "file of artifacts[0] (x.out)"),
    "default_names": (
        [("csv", None), ("csv", None)],
        "field 'artifacts[1]': writes mine.csv, the same file as "
        "artifacts[0] (mine.csv)"),
}


def write_colliding_report(tmp_path, case):
    path = write_report(tmp_path)
    for kind, artifact_path in COLLIDING_ARTIFACTS[case][0]:
        text = f'[[artifacts]]\nkind = "{kind}"\n'
        if artifact_path is not None:
            text += f'path = "{artifact_path}"\n'
        path.write_text(path.read_text() + text)
    return path


def write_report(tmp_path, top="", artifact_path=None):
    text = f'scenario = "fig4_single_delay"\n{top}[[metrics]]\nname = "runtime"\n'
    if artifact_path is not None:
        text += f'[[artifacts]]\nkind = "csv"\npath = "{artifact_path}"\n'
    path = tmp_path / "mine.toml"
    path.write_text(text)
    return path


def write_bad_report(tmp_path, case):
    top, artifact_path, _ = BAD_REPORTS[case]
    return write_report(tmp_path, top, artifact_path.format(tmp=tmp_path)
                        if artifact_path else None)


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

    @pytest.mark.parametrize("case", sorted(BAD_REPORTS))
    def test_bad_seed_or_artifact_path_fails(self, tmp_path, capsys, case):
        path = write_bad_report(tmp_path, case)
        assert report_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL  {path}: ")
        assert BAD_REPORTS[case][2] in out

    @pytest.mark.parametrize("case", sorted(COLLIDING_ARTIFACTS))
    def test_colliding_artifacts_fail(self, tmp_path, capsys, case):
        path = write_colliding_report(tmp_path, case)
        assert report_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL  {path}: ")
        assert COLLIDING_ARTIFACTS[case][1] in out


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

    @pytest.mark.parametrize("case", sorted(BAD_REPORTS))
    def test_bad_seed_or_artifact_path_exits_2(self, tmp_path, capsys, case):
        out_dir = tmp_path / "out"
        assert report_main(["run", str(write_bad_report(tmp_path, case)),
                            "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report error: ") and BAD_REPORTS[case][2] in err
        assert "Traceback" not in err
        assert not (tmp_path / "abs").exists()
        assert not (tmp_path / "escaped.json").exists()

    @pytest.mark.parametrize("case", sorted(COLLIDING_ARTIFACTS))
    def test_colliding_artifacts_exit_2_before_the_run(self, tmp_path, capsys,
                                                       case):
        cache, out_dir = tmp_path / "cache", tmp_path / "out"
        assert report_main(["run", str(write_colliding_report(tmp_path, case)),
                            "--cache-dir", str(cache),
                            "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("report error: ")
        assert COLLIDING_ARTIFACTS[case][1] in captured.err
        assert "Traceback" not in captured.err
        # Nothing ran: no table, no store, no artifacts.
        assert "=== report" not in captured.out
        assert not cache.exists() and not out_dir.exists()

    def test_nested_artifact_path_is_written_below_out(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = write_report(tmp_path, artifact_path="nested/dir/x.csv")
        assert report_main(["run", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "nested" / "dir" / "x.csv").exists()
        assert f"[wrote {out_dir / 'nested' / 'dir' / 'x.csv'}]" in \
            capsys.readouterr().out

    def test_out_that_cannot_be_created_fails_before_the_run(self, tmp_path,
                                                             capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = tmp_path / "cache"
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", str(cache),
                            "--out", str(blocker / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"report error: cannot write artifacts to {blocker / 'out'}: ")
        assert "Traceback" not in captured.err
        # Nothing ran: no table, no store, no ledger record.
        assert "=== report" not in captured.out
        assert not cache.exists()

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
