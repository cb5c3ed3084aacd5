"""`repro-experiment runs` end to end: real sweeps writing real ledgers.

The headline acceptance (ISSUE 7): after a swept run, ``runs show``
reconstructs the spec key, seed root, cache-hit rate, and artifact
paths from the ledger alone — and the exit summary the sweep printed
came from the very record ``runs show`` reads back.
"""

import json
import re

import pytest

from repro.cli import main
from repro.obs.cli import runs_main
from repro.obs.ledger import RunLedger
from repro.scenarios.cli import scenario_main

SWEEP = """\
description = "ledger acceptance sweep"
n_ranks = 8
n_steps = 10
outputs = ["runtime"]

[machine]
preset = "simulated"

[workload]
kind = "synthetic"
t_exec = 3e-3

[comm]
direction = "bidirectional"
distance = 1
periodic = true
msg_size = 8192
protocol = "eager"

[noise]
model = "none"

[campaign]
rate = 0.01
phases_low = 2.0
phases_high = 8.0

[sweep]
replicates = 2

[[sweep.axes]]
path = "campaign.rate"
values = [0.01, 0.05]
"""


@pytest.fixture
def swept(tmp_path, capsys):
    """One cold + one warm sweep against the same cache dir."""
    toml = tmp_path / "sweep.toml"
    toml.write_text(SWEEP)
    store = tmp_path / "store"
    for _ in range(2):
        assert scenario_main([
            "sweep", str(toml), "--engine", "dag",
            "--cache-dir", str(store), "--no-progress",
        ]) == 0
    out = capsys.readouterr().out
    return store, out


class TestSweepWritesLedger:
    def test_two_runs_two_records(self, swept):
        store, _ = swept
        records = list(RunLedger(store).records())
        assert len(records) == 2
        cold, warm = records
        assert cold["n_executed"] == 4 and cold["n_cached"] == 0
        assert warm["n_cached"] == 4 and warm["cache_hit_rate"] == 1.0
        assert cold["spec_key"] == warm["spec_key"]
        assert cold["engine"] == "dag"
        assert cold["seed_root"] is not None
        assert cold["status"] == "ok"

    def test_exit_summary_printed_even_without_progress(self, swept):
        _, out = swept
        summaries = re.findall(r"\[run sweep-\S+: 4 task\(s\), 0 failed, "
                               r"\d+ cache hit\(s\), [\d.]+s\]", out)
        assert len(summaries) == 2
        assert "0 cache hit(s)" in summaries[0]
        assert "4 cache hit(s)" in summaries[1]
        assert out.count("[run recorded in ") == 2

    def test_summary_matches_the_persisted_record(self, swept):
        store, out = swept
        from repro.obs.ledger import render_run_summary

        for record in RunLedger(store).records():
            assert render_run_summary(record) in out


class TestRunsCli:
    def test_ls_renders_and_counts(self, swept, capsys):
        store, _ = swept
        assert runs_main(["ls", "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert out.count("sweep-") >= 2
        assert "[2 run(s) in" in out

    def test_ls_json_parses(self, swept, capsys):
        store, _ = swept
        assert runs_main(["ls", "--cache-dir", str(store), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)

    def test_ls_filters_by_name_and_status(self, swept, capsys):
        store, _ = swept
        assert runs_main(["ls", "--cache-dir", str(store),
                          "--status", "failed"]) == 0
        assert "[no runs recorded" in capsys.readouterr().out
        assert runs_main(["ls", "--cache-dir", str(store),
                          "--name", "no_such_scenario"]) == 0
        assert "[no runs recorded" in capsys.readouterr().out

    def test_show_reconstructs_provenance(self, swept, capsys):
        store, _ = swept
        warm = list(RunLedger(store).records())[-1]
        assert runs_main(["show", warm["id"],
                          "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"=== run {warm['id']} ===" in out
        assert f"spec key         {warm['spec_key']}" in out
        assert f"seed root        {warm['seed_root']}" in out
        assert "cache hit rate   100%" in out
        assert "engine           dag" in out

    def test_show_json_is_the_raw_record(self, swept, capsys):
        store, _ = swept
        cold = next(iter(RunLedger(store).records()))
        assert runs_main(["show", cold["id"], "--cache-dir", str(store),
                          "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == cold

    def test_show_unknown_id_fails_cleanly(self, swept, capsys):
        store, _ = swept
        assert runs_main(["show", "nope", "--cache-dir", str(store)]) == 1
        assert "runs error" in capsys.readouterr().err

    def test_tail_limits_to_n(self, swept, capsys):
        """``ls -n N`` keeps the ledger's tail: the N most recent runs."""
        store, _ = swept
        assert runs_main(["ls", "--cache-dir", str(store), "-n", "1",
                          "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["n_cached"] == 4  # the warm (latest) run

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_tail_count_must_be_positive(self, tmp_path, n, capsys):
        with pytest.raises(SystemExit) as exc:
            runs_main(["ls", "--cache-dir", str(tmp_path), "-n", n])
        assert exc.value.code == 2
        assert "-n must be >= 1" in capsys.readouterr().err

    def test_tail_subcommand_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            runs_main(["tail", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_show_prints_the_phases(self, swept, capsys):
        store, _ = swept
        cold = next(iter(RunLedger(store).records()))
        assert runs_main(["show", cold["id"],
                          "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"phases           {len(cold['phases'])}" in out
        assert re.search(r"^    campaign\.run +\d+\.\d{4}s +\d+\.\d%$", out,
                         re.M)

    def test_empty_ledger_dir(self, tmp_path, capsys):
        assert runs_main(["ls", "--cache-dir", str(tmp_path)]) == 0
        assert "[no runs recorded" in capsys.readouterr().out

    def test_routed_through_main_cli(self, swept, capsys):
        store, _ = swept
        assert main(["runs", "ls", "--cache-dir", str(store)]) == 0
        assert "sweep-" in capsys.readouterr().out


class TestRunsDiff:
    def test_cold_to_warm_shows_the_cache_warming(self, swept, capsys):
        store, _ = swept
        cold, warm = RunLedger(store).records()
        assert runs_main(["diff", cold["id"], warm["id"][:-2],
                          "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"{cold['id']} -> {warm['id']}"
        assert re.search(r"^cache_hit_rate +0 +1 ", out, re.M)
        assert re.search(r"^store\.get\.hits +-- +4 +\(n/a\)$", out, re.M)
        assert re.search(r"^phase\.campaign\.run_s ", out, re.M)

    def test_record_files_of_two_cache_dirs_compare(
            self, swept, tmp_path, capsys):
        store, _ = swept
        ledger = RunLedger(store)
        cold, warm = (ledger.path_for(r["id"]) for r in ledger.records())
        other = tmp_path / "elsewhere" / "runs"
        other.mkdir(parents=True)
        moved = other / warm.name
        moved.write_text(warm.read_text())
        assert runs_main(["diff", str(cold), str(moved)]) == 0
        assert "cache_hit_rate" in capsys.readouterr().out

    def test_unknown_id_fails_cleanly(self, swept, capsys):
        store, _ = swept
        cold = next(iter(RunLedger(store).records()))
        assert runs_main(["diff", cold["id"], "nope",
                          "--cache-dir", str(store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runs error: no run 'nope'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [None, "{torn", "[1, 2]"],
                             ids=["missing", "torn", "not-a-record"])
    def test_unreadable_record_file_fails_cleanly(
            self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        assert runs_main(["diff", str(bad), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runs error: ") and str(bad) in err
        assert err.count("\n") == 1

    @pytest.fixture
    def zero_and_one_sided(self, tmp_path):
        """Two records: ``old`` has a zero wall time, and each has a
        counter the other lacks."""
        base = {"kind": "scenario.sweep", "name": "s", "n_tasks": 4}
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({**base, "id": "old", "wall_s": 0.0,
                                   "counters": {"store.puts": 4}}))
        new.write_text(json.dumps({**base, "id": "new", "wall_s": 2.0,
                                   "counters": {"store.get.hits": 4}}))
        return old, new

    def test_zero_and_one_sided_metrics_show_na_and_dashes(
            self, zero_and_one_sided, capsys):
        old, new = zero_and_one_sided
        assert runs_main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^wall_s +0 +2 +\(n/a\)$", out, re.M)
        assert re.search(r"^store\.puts +4 +-- +\(n/a\)$", out, re.M)
        assert re.search(r"^store\.get\.hits +-- +4 +\(n/a\)$", out, re.M)

    def test_zero_or_missing_side_prints_na_not_inf(
            self, zero_and_one_sided, capsys):
        old, new = zero_and_one_sided
        for pair in ([old, new], [new, old], [old, old]):
            assert runs_main(["diff", *map(str, pair)]) == 0
            out = capsys.readouterr().out
            assert re.search(r"^wall_s .*\(n/a\)$", out, re.M)
            assert re.search(r"^n_tasks .*\(1\.00x\)$", out, re.M)
            assert "inf" not in out
        assert re.search(r"^store\.puts +4 +4 +\(1\.00x\)$", out, re.M)


class TestTelemetryLinks:
    def test_same_second_profiled_runs_keep_their_own_files(
            self, tmp_path, capsys):
        """Telemetry files are named by run id: two profiled runs in one
        second neither share nor overwrite a file."""
        toml = tmp_path / "sweep.toml"
        toml.write_text(SWEEP)
        store = tmp_path / "store"
        for _ in range(2):
            assert scenario_main([
                "sweep", str(toml), "--engine", "dag",
                "--cache-dir", str(store), "--profile", "--no-progress",
            ]) == 0
        capsys.readouterr()
        records = list(RunLedger(store).records())
        paths = {r["telemetry"] for r in records}
        assert len(paths) == 2
        for r in records:
            assert r["telemetry"] == str(
                store / "telemetry" / f"{r['id']}.jsonl")
        assert sorted((store / "telemetry").glob("*.jsonl")) == \
            sorted(map(type(store), paths))

    def test_relative_cache_dir_shows_telemetry_from_elsewhere(
            self, tmp_path, capsys, monkeypatch):
        """A relative --cache-dir is stored absolute: `runs show
        --telemetry` finds the file from any working directory."""
        toml = tmp_path / "sweep.toml"
        toml.write_text(SWEEP)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert scenario_main([
            "sweep", str(toml), "--engine", "dag", "--cache-dir", "t2",
            "--profile", "--no-progress",
        ]) == 0
        monkeypatch.chdir(tmp_path)
        (record,) = RunLedger(work / "t2").records()
        assert record["telemetry"] == str(
            work / "t2" / "telemetry" / f"{record['id']}.jsonl")
        capsys.readouterr()
        assert runs_main(["show", record["id"], "--cache-dir", "work/t2",
                          "--telemetry"]) == 0
        assert "telemetry summary" in capsys.readouterr().out


class TestReportLedger:
    def test_report_run_records_artifacts(self, tmp_path, capsys):
        store = tmp_path / "store"
        out_dir = tmp_path / "out"
        from repro.reports.cli import report_main

        assert report_main([
            "run", "fig7_speed", "--cache-dir", str(store),
            "--out", str(out_dir), "--no-progress",
        ]) == 0
        capsys.readouterr()
        (record,) = RunLedger(store).records()
        assert record["kind"] == "report.run"
        assert record["status"] == "ok"
        assert record["artifacts"]
        for path in record["artifacts"]:
            assert path.startswith(str(out_dir))


#: A version-5 ledger record with every field ``runs show`` prints.
V5_RECORD = {
    "version": 5, "event_version": 3, "id": "sweep-20260808T120000-3fa9c1",
    "kind": "scenario.sweep", "name": "campaign_rate_sweep", "status": "ok",
    "spec_key": "8f324fc99d69bec2bf7808d3b71f1057", "seed_root": 12345,
    "engine": "dag", "jobs": 2, "n_tasks": 12, "n_cached": 4,
    "n_executed": 8, "n_failed": 0, "cache_hit_rate": 1 / 3,
    "wall_s": 0.5, "started_unix": 1786190882.25,
    "finished_unix": 1786190882.75, "failures": ["ValueError: boom\nline 2"],
    "failed_tasks": [], "n_stalls": 1, "n_retried": 2, "n_quarantined": 0,
    "n_pool_respawns": 1, "resumed_from": None, "n_heartbeats": 6,
    "worker_rss_peak_bytes": 73400320, "telemetry": None,
    "artifacts": ["/out/a.csv", "/out/b.json"], "n_events": 40,
    "phases": {"sweep.expand": 0.0125, "campaign.run": 0.4,
               "sweep.aggregate": 0.05},
    "counters": {"store.puts": 8},
}


class TestPinnedOutput:
    """What the ``runs`` commands print, byte for byte."""

    @pytest.fixture
    def ledger(self, tmp_path):
        """The v5 record and three report runs after it."""
        ledger = RunLedger(tmp_path)
        ledger.append(V5_RECORD)
        for i in range(3):
            ledger.append({
                "id": f"report-{i}", "kind": "report.run",
                "name": "fig7_speed", "status": "ok", "n_tasks": 4,
                "cache_hit_rate": 0.5 * i if i else None,
                "wall_s": 1.5 + i, "started_unix": 1786190900.0 + i})
        return ledger

    def test_ls_n_prints_the_most_recent_runs(self, ledger, capsys):
        assert runs_main(["ls", "-n", "2",
                          "--cache-dir", str(ledger.root.parent)]) == 0
        assert capsys.readouterr().out == (
            "report-1                           ok     report.run     "
            "fig7_speed                       4 task(s) cache  50%     "
            "2.50s  2026-08-08 12:08:21Z\n"
            "report-2                           ok     report.run     "
            "fig7_speed                       4 task(s) cache 100%     "
            "3.50s  2026-08-08 12:08:22Z\n"
            f"[2 run(s) in {ledger.root}]\n")

    def test_ls_n_json_is_the_last_records(self, ledger, capsys):
        assert runs_main(["ls", "-n", "2", "--json",
                          "--cache-dir", str(ledger.root.parent)]) == 0
        assert capsys.readouterr().out == json.dumps(
            list(ledger.records())[-2:], indent=2, sort_keys=True) + "\n"

    def test_ls_n_counts_after_the_filters(self, ledger, capsys):
        assert runs_main(["ls", "-n", "1", "--name", "campaign_rate_sweep",
                          "--cache-dir", str(ledger.root.parent)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep-20260808T120000-3fa9c1 ")
        assert "[1 run(s) in" in out

    def test_show_prints_one_row_set_for_any_record(self, tmp_path,
                                                    capsys):
        """Fields an older record lacks print as ``-``, not as gaps."""
        RunLedger(tmp_path).append({"version": 1, "id": "sweep-old",
                                    "status": "ok"})
        assert runs_main(["show", "sweep-old",
                          "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "\n  worker rss peak  -\n" in out
        assert "\n  resumed from     -\n" in out
        assert out.endswith("\n  phases           0\n")

    def test_show_of_a_v5_record(self, tmp_path, capsys):
        RunLedger(tmp_path).append(V5_RECORD)
        assert runs_main(["show", "sweep-2026",
                          "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == """\
=== run sweep-20260808T120000-3fa9c1 ===
  status           ok
  kind             scenario.sweep
  name             campaign_rate_sweep
  engine           dag
  jobs             2
  spec key         8f324fc99d69bec2bf7808d3b71f1057
  seed root        12345
  tasks            12
  cached           4
  executed         8
  failed           0
  cache hit rate   33%
  wall time        0.500s
  started          2026-08-08 12:08:02Z
  finished         2026-08-08 12:08:02Z
  events           40
  telemetry        -
  heartbeats       6
  worker rss peak  70.0 MiB
  resumed from     -
  artifacts        2
    /out/a.csv
    /out/b.json
  failure: ValueError: boom
  phases           3
    campaign.run                      0.4000s   80.0%
    sweep.aggregate                   0.0500s   10.0%
    sweep.expand                      0.0125s    2.5%
"""
