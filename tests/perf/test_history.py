"""Performance history: records, adapters, trend analysis, and the
``repro-experiment perf`` CLI.

A synthetic 2x wall-time regression makes ``perf check`` exit nonzero
and name the metric; the committed seed history under
``benchmarks/baselines/`` passes clean.  Run series come straight from
the run ledger: cold and fully cached runs of one workload trend apart,
ordered by when they started.
"""

import json
from pathlib import Path

import pytest

from repro.obs.ledger import RunLedger
from repro.perf import (
    PERF_RECORD_VERSION,
    PerfHistory,
    analyze_history,
    ledger_history,
    metric_direction,
    metrics_from_bench,
    metrics_from_run_record,
    new_record,
)
from repro.perf.cli import perf_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def wall_record(wall_s, label="campaign/sweep"):
    return new_record(label, "manual", {"wall_s": wall_s}, ts=1.0)


class TestRecords:
    def test_new_record_shape(self):
        r = new_record("a/b", "manual", {"wall_s": 1.5, "n_tasks": 4},
                       context={"jobs": 2, "drop": None}, ts=123.0)
        assert r["version"] == PERF_RECORD_VERSION
        assert r["ts"] == 123.0
        assert r["metrics"] == {"wall_s": 1.5, "n_tasks": 4.0}
        assert r["context"] == {"jobs": 2}  # None values dropped

    def test_new_record_rejects_junk(self):
        with pytest.raises(ValueError, match="label"):
            new_record("", "manual", {"x": 1})
        with pytest.raises(ValueError, match="source"):
            new_record("a", "nonsense", {"x": 1})
        with pytest.raises(ValueError, match="no numeric"):
            new_record("a", "manual", {"note": "text", "flag": True,
                                       "nan": float("nan")})

    def test_history_round_trip(self, tmp_path):
        history = PerfHistory(tmp_path / "history.jsonl")
        history.append(wall_record(1.0))
        history.append(wall_record(1.1))
        history.append(wall_record(0.9, label="other/run"))
        assert [r["label"] for r in history.records()] == [
            "campaign/sweep", "campaign/sweep", "other/run"]
        assert [r["metrics"]["wall_s"] for r in history.records()
                if r["label"] == "campaign/sweep"] == [1.0, 1.1]

    def test_history_accepts_explicit_jsonl_path(self, tmp_path):
        path = tmp_path / "seed.jsonl"
        history = PerfHistory(path)
        history.append(wall_record(1.0))
        assert history.path == path
        assert len(PerfHistory(path).records()) == 1

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps(wall_record(1.0)) + "\n"
            + '{"torn": \n'
            + json.dumps({"no_metrics": True}) + "\n"
            + json.dumps(wall_record(2.0)) + "\n")
        assert [r["metrics"]["wall_s"]
                for r in PerfHistory(path).records()] == [1.0, 2.0]


class TestAdapters:
    def test_run_record_adapter(self):
        label, metrics, context = metrics_from_run_record({
            "id": "run-1", "kind": "scenario.sweep", "name": "rate",
            "status": "ok", "jobs": 2, "wall_s": 2.0, "n_tasks": 16,
            "n_cached": 4, "n_executed": 12, "n_failed": 0,
            "cache_hit_rate": 0.25,
            "worker_rss_peak_bytes": 1 << 20,
        })
        assert label == "scenario.sweep/rate/j2"
        assert metrics["tasks_per_s"] == pytest.approx(8.0)
        assert metrics["n_failed"] == 0.0
        assert context["run_id"] == "run-1"

    def test_run_record_adapter_emits_phase_metrics(self):
        _, metrics, _ = metrics_from_run_record({
            "kind": "report.run", "name": "fig7_speed", "wall_s": 1.0,
            "phases": {"report.compile": 0.25, "campaign.run": 0.5}})
        assert metrics["phase.report.compile_s"] == 0.25
        assert metrics["phase.campaign.run_s"] == 0.5

    def test_bench_adapter(self):
        entries = metrics_from_bench({
            "benchmark": "bench_x", "schema": 1,
            "tests": {"test_a": {"speedup": 1.2, "note": "text"},
                      "test_empty": {"only": "strings"}},
        })
        assert len(entries) == 1
        label, metrics, context = entries[0]
        assert label == "bench/bench_x/test_a"
        assert metrics == {"speedup": 1.2}
        assert context["schema"] == 1


class TestTrend:
    def test_metric_directions(self):
        assert metric_direction("wall_s") == "lower"
        assert metric_direction("phase.campaign.run_s") == "lower"
        assert metric_direction("worker_rss_peak_bytes") == "lower"
        assert metric_direction("n_failed") == "lower"
        assert metric_direction("speedup") == "higher"
        assert metric_direction("tasks_per_s") == "higher"
        assert metric_direction("cache_hit_rate") is None  # informational

    def test_synthetic_2x_regression_is_flagged(self):
        by_label = {"campaign/sweep": [wall_record(1.0), wall_record(1.05),
                                       wall_record(2.1)]}
        findings = analyze_history(by_label)
        (finding,) = [f for f in findings if f["metric"] == "wall_s"]
        assert finding["status"] == "regression"
        assert finding["ratio"] > 1.9

    def test_improvement_and_ok_statuses(self):
        findings = analyze_history(
            {"a": [wall_record(1.0), wall_record(0.5)],
             "b": [wall_record(1.0), wall_record(1.02)]})
        by_label = {f["label"]: f["status"] for f in findings}
        assert by_label == {"a": "improvement", "b": "ok"}

    def test_single_record_labels_yield_nothing(self):
        assert analyze_history({"a": [wall_record(1.0)]}) == []

    def test_submillisecond_series_are_ignored(self):
        by_label = {"a": [wall_record(1e-5), wall_record(9e-5)]}
        assert analyze_history(by_label) == []

    def test_zero_baseline_flags_any_positive_latest(self):
        records = [new_record("a", "manual", {"n_failed": 0, "wall_s": 1.0},
                              ts=1.0),
                   new_record("a", "manual", {"n_failed": 2, "wall_s": 1.0},
                              ts=2.0)]
        findings = {f["metric"]: f for f in analyze_history({"a": records})}
        assert findings["n_failed"]["status"] == "regression"
        assert findings["n_failed"]["ratio"] == float("inf")


class TestPerfCli:
    def seed(self, tmp_path, walls) -> str:
        """A history file of ``campaign/sweep`` records; returns its path."""
        history = PerfHistory(tmp_path / "history.jsonl")
        for i, wall in enumerate(walls):
            history.append(new_record("campaign/sweep", "manual",
                                      {"wall_s": wall}, ts=float(i)))
        return str(history.path)

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        history = self.seed(tmp_path, [1.0, 1.05, 2.1])
        assert perf_main(["check", "--history", history]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "wall_s" in captured.out
        assert "drifted" in captured.err

    def test_check_passes_clean_history(self, tmp_path, capsys):
        history = self.seed(tmp_path, [1.0, 1.05, 0.98])
        assert perf_main(["check", "--history", history]) == 0
        assert "within" in capsys.readouterr().out

    def test_check_empty_history_is_not_a_failure(self, tmp_path, capsys):
        assert perf_main(["check", "--cache-dir", str(tmp_path)]) == 0
        assert "no comparable" in capsys.readouterr().out

    def test_committed_seed_history_passes(self, capsys):
        """The CI gate input: the checked-in baseline must stay green."""
        seed = REPO_ROOT / "benchmarks" / "baselines" / "perf_history.jsonl"
        assert seed.exists()
        assert perf_main(["check", "--history", str(seed)]) == 0

    def test_history_lists_records(self, tmp_path, capsys):
        history = self.seed(tmp_path, [1.0, 1.1])
        assert perf_main(["history", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "campaign/sweep" in out
        assert "wall_s=1.1" in out
        assert "2 record(s), 1 label(s)" in out

    def test_record_ingests_bench_json(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({
            "benchmark": "bench_x", "schema": 1,
            "tests": {"test_a": {"speedup": 1.2}}}))
        history = tmp_path / "history.jsonl"
        assert perf_main(["record", "--history", str(history),
                          "--bench", str(bench)]) == 0
        assert "1 perf record(s)" in capsys.readouterr().out
        records = PerfHistory(history).records()
        assert records[0]["label"] == "bench/bench_x/test_a"
        assert records[0]["source"] == "bench"

    def test_record_with_nothing_to_ingest_fails(self, tmp_path, capsys):
        assert perf_main(["record", "--history",
                          str(tmp_path / "history.jsonl")]) == 1
        assert "perf error" in capsys.readouterr().err

    def test_needs_a_history_location(self, capsys):
        with pytest.raises(SystemExit) as exc:
            perf_main(["history"])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["record", "--bench", "BENCH_x.json"],
        ["record", "--cache-dir", "DIR", "--bench", "BENCH_x.json"],
        ["check", "--cache-dir", "DIR", "--history", "h.jsonl"],
    ])
    def test_one_history_location_per_command(self, argv, capsys):
        """``record`` writes only ``--history FILE``; ``history`` and
        ``check`` read one place, never both."""
        with pytest.raises(SystemExit) as exc:
            perf_main(argv)
        assert exc.value.code == 2
        assert "--history" in capsys.readouterr().err

    def test_cache_dir_reads_only_the_ledger(self, tmp_path, capsys):
        """A ``DIR/perf/history.jsonl`` beside the ledger is never read."""
        self.seed(tmp_path / "perf", [1.0, 1.05, 2.1])
        RunLedger(tmp_path).append(run_record("report-a", 100.0, 1.0))
        assert perf_main(["history", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign/sweep" not in out
        assert f"[1 record(s), 1 label(s) in {tmp_path}]" in out
        assert perf_main(["check", "--cache-dir", str(tmp_path)]) == 0
        assert "no comparable" in capsys.readouterr().out

    def test_check_without_the_history_file_fails(self, tmp_path, capsys):
        missing = tmp_path / "typo.jsonl"
        assert perf_main(["check", "--history", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "perf error" in err and str(missing) in err

    def test_check_of_an_unknown_label_fails(self, tmp_path, capsys):
        history = self.seed(tmp_path, [1.0, 1.05])
        assert perf_main(["check", "--history", history,
                          "--label", "campaign/swep"]) == 1
        err = capsys.readouterr().err
        assert "'campaign/swep'" in err and "campaign/sweep" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_history_count_must_be_positive(self, tmp_path, n):
        with pytest.raises(SystemExit) as exc:
            perf_main(["history", "--cache-dir", str(tmp_path), "-n", n])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["diff"],
        ["record", "--run", "latest"],
        ["record", "--telemetry", "run.jsonl"],
        ["record", "--label", "x", "--bench", "BENCH_x.json"],
    ])
    def test_removed_commands_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            perf_main([*argv, "--history", str(tmp_path / "h.jsonl")])
        assert exc.value.code == 2

    def test_cold_and_warm_sweeps_trend_apart_through_main_cli(
            self, tmp_path, capsys):
        """End to end: observed sweeps -> ledger -> perf history/check."""
        from repro.cli import main

        toml = tmp_path / "s.toml"
        toml.write_text(SWEEP_MINI)
        store = str(tmp_path / "store")
        for _ in range(2):
            assert main(["scenario", "sweep", str(toml), "--engine", "dag",
                         "--cache-dir", store, "--no-progress"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "run-ledger  scenario.sweep/s/dag/j1 " in out
        assert "run-ledger  scenario.sweep/s/dag/j1/cached " in out
        assert "[2 record(s), 2 label(s)" in out
        # One record per series: the warm run is never compared with
        # the cold one.
        assert main(["perf", "check", "--cache-dir", store]) == 0
        assert "no comparable" in capsys.readouterr().out

    def test_sweeps_on_two_engines_trend_apart(self, tmp_path, capsys):
        """A DAG sweep takes several times as long as a lockstep sweep
        of the same grid; comparing the two flagged false regressions."""
        from repro.cli import main

        store = str(tmp_path / "store")
        for engine in ("lockstep", "dag"):
            assert main(["scenario", "sweep", "campaign_rate_sweep",
                         "--engine", engine, "--jobs", "1",
                         "--cache-dir", store, "--no-progress"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "scenario.sweep/campaign_rate_sweep/lockstep/j1 " in out
        assert "scenario.sweep/campaign_rate_sweep/dag/j1 " in out
        assert main(["perf", "check", "--cache-dir", store]) == 0
        assert "no comparable perf series" in capsys.readouterr().out


def run_record(run_id, started, wall_s, n_cached=0, n_tasks=4,
               name="fig7_speed", status="ok", phases=None):
    """A ledger record of a ``report.run`` as ``observe_run`` writes it."""
    return {"id": run_id, "kind": "report.run", "name": name,
            "status": status, "started_unix": started, "wall_s": wall_s,
            "n_tasks": n_tasks, "n_cached": n_cached,
            "n_executed": n_tasks - n_cached, "n_failed": 0,
            "cache_hit_rate": n_cached / n_tasks, "phases": phases or {}}


class TestLedgerHistory:
    def test_cold_and_warm_runs_form_two_series(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        ledger.append(run_record("report-a", 100.0, 1.318))
        ledger.append(run_record("report-b", 200.0, 0.250, n_cached=4))
        ledger.append(run_record("report-c", 300.0, 1.300))
        assert perf_main(["history", "--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [line.split()[4] for line in lines[:-1]]
        assert labels == ["report.run/fig7_speed",
                          "report.run/fig7_speed/cached",
                          "report.run/fig7_speed"]
        assert "[3 record(s), 2 label(s)" in lines[-1]
        assert perf_main(["check", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out
        assert "report.run/fig7_speed::wall_s" in out

    def test_partial_and_failed_runs_join_no_series(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(run_record("report-a", 100.0, 1.0, n_cached=2))
        ledger.append(run_record("report-b", 200.0, 1.0, status="failed"))
        ledger.append(run_record("report-c", 300.0, 1.0,
                                 status="interrupted"))
        assert ledger_history(tmp_path) == []

    def test_series_is_ordered_by_start_not_by_write(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for run_id, started in (("report-1", 300.0), ("report-2", 100.0),
                                ("report-3", 200.0)):
            ledger.append(run_record(run_id, started, started / 100))
        records = ledger_history(tmp_path)
        assert [r["ts"] for r in records] == [100.0, 200.0, 300.0]
        assert [r["context"]["run_id"] for r in records] == [
            "report-2", "report-3", "report-1"]

    def test_two_reports_never_share_a_phase_series(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i, name in enumerate(("fig7_speed", "fig8_decay")):
            ledger.append(run_record(f"report-{i}", float(i), 1.0,
                                     name=name,
                                     phases={"report.compile": 0.1 * (i + 1)}))
        phases = {r["label"]: r["metrics"]["phase.report.compile_s"]
                  for r in ledger_history(tmp_path)}
        assert phases == {"report.run/fig7_speed": 0.1,
                          "report.run/fig8_decay": 0.2}


SWEEP_MINI = """\
description = "perf-history mini sweep"
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
replicates = 8
"""
