"""Run tracker + ledger: record fields, atomic append, lookup, session."""

import io
import json

import pytest

from repro import telemetry
from repro.obs.ledger import (
    RUN_RECORD_VERSION,
    RunLedger,
    RunTracker,
    new_run_id,
    render_run_summary,
)
from repro.obs.session import observe_run


def recorded(*stream):
    """The snapshot of a recorder that saw ``stream``."""
    rec = telemetry.Recorder()
    for name, data in stream:
        rec.emit(name, **data)
    return rec.snapshot()


def record_of(snapshot, tracker=None, **fields):
    """``tracker``'s record of ``snapshot``, with placeholder provenance."""
    fields = {"run_id": "x", "status": "ok", "kind": "k", "name": "n",
              "wall_s": 0, "started_unix": 0, "finished_unix": 0, **fields}
    return (tracker or RunTracker()).record(snapshot, **fields)


SWEEP_STREAM = [
    ("run.start", {"kind": "scenario.sweep", "name": "rate_sweep",
                   "n_tasks": 4, "spec_key": "abc123", "seed_root": 7,
                   "engine": "dag", "jobs": 2}),
    ("task.submit", {"index": 0}),
    ("task.cache_hit", {"index": 0}),
    ("task.done", {"index": 1}),
    ("task.done", {"index": 2}),
    ("task.failed", {"index": 3}),
    ("run.finish", {"status": "failed"}),
]


class TestRunTracker:
    def test_accumulates_totals_from_the_stream(self):
        r = record_of(recorded(*SWEEP_STREAM))
        assert (r["kind"], r["name"], r["n_tasks"]) == (
            "scenario.sweep", "rate_sweep", 4)
        assert (r["spec_key"], r["seed_root"], r["engine"], r["jobs"]) == (
            "abc123", 7, "dag", 2)
        n_done = r["n_executed"] + r["n_cached"] + r["n_failed"]
        assert (n_done, r["n_cached"], r["n_failed"]) == (4, 1, 1)
        assert r["failed_tasks"] == [3]
        assert r["n_events"] == len(SWEEP_STREAM)

    def test_first_run_start_wins(self):
        r = record_of(recorded(
            ("run.start", {"kind": "scenario.sweep", "n_tasks": 12}),
            ("run.start", {"kind": "scenario.run", "n_tasks": 1}),
        ))
        assert r["kind"] == "scenario.sweep"
        assert r["n_tasks"] == 12

    def test_record_economics(self):
        r = record_of(recorded(*SWEEP_STREAM), run_id="sweep-x",
                      status="failed", wall_s=1.5, started_unix=100.0,
                      finished_unix=101.5)
        assert r["version"] == RUN_RECORD_VERSION
        assert r["id"] == "sweep-x"
        assert r["n_tasks"] == 4
        assert r["n_cached"] == 1
        assert r["n_executed"] == 2  # done - cached - failed
        assert r["n_failed"] == 1
        assert r["cache_hit_rate"] == pytest.approx(0.25)
        assert r["failed_tasks"] == [3]
        json.dumps(r)  # must be JSON-serializable as-is

    def test_record_falls_back_to_cli_kind_and_name(self):
        r = record_of(recorded(("task.done", {"index": 0})),
                      kind="report.run", name="fig7")
        assert r["kind"] == "report.run"
        assert r["name"] == "fig7"
        assert r["n_tasks"] == 1  # falls back to observed completions

    def test_failure_summaries_are_bounded(self):
        t = RunTracker()
        for i in range(50):
            t.note_failure(f"boom {i}")
        assert len(record_of(recorded(), t)["failures"]) == 8

    def test_out_of_band_provenance(self):
        t = RunTracker()
        t.add_artifact("/out/table.csv")
        t.set_telemetry("/cache/telemetry/run.jsonl")
        r = record_of(recorded(), t)
        assert r["artifacts"] == ["/out/table.csv"]
        assert r["telemetry"] == "/cache/telemetry/run.jsonl"

    def test_relative_provenance_paths_are_stored_absolute(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        t = RunTracker()
        t.add_artifact("out/table.csv")
        t.set_telemetry("cache/telemetry/run.jsonl")
        r = record_of(recorded(), t)
        assert r["artifacts"] == [str(tmp_path / "out" / "table.csv")]
        assert r["telemetry"] == str(tmp_path / "cache" / "telemetry"
                                     / "run.jsonl")

    def test_worker_health_comes_from_the_rss_histogram(self):
        rec = telemetry.Recorder()
        for rss, cpu in ((1e8, 0.25), (3e8, 0.75), (2e8, 0.5)):
            rec.observe("worker.rss_bytes", rss)
            rec.observe("worker.cpu_s", cpu)
        r = record_of(rec.snapshot())
        assert (r["n_heartbeats"], r["worker_rss_peak_bytes"]) == \
            (3, 300_000_000)
        serial = record_of(recorded())
        assert (serial["n_heartbeats"],
                serial["worker_rss_peak_bytes"]) == (0, 0)


class TestRunId:
    def test_shape_and_uniqueness(self):
        a = new_run_id("scenario.sweep", 1754650000.0)
        b = new_run_id("scenario.sweep", 1754650000.0)
        assert a.startswith("sweep-20250808T")
        assert a != b  # uuid suffix

    def test_unqualified_kind(self):
        assert new_run_id("adhoc", 0.0).startswith("adhoc-1970")


class TestRenderRunSummary:
    def test_ok_line(self):
        line = render_run_summary({
            "id": "sweep-x", "status": "ok", "n_tasks": 12,
            "n_failed": 0, "n_cached": 4, "wall_s": 1.234})
        assert line == ("[run sweep-x: 12 task(s), 0 failed, "
                        "4 cache hit(s), 1.23s]")

    def test_failed_status_is_shouted(self):
        line = render_run_summary({
            "id": "run-y", "status": "failed", "n_tasks": 1,
            "n_failed": 1, "n_cached": 0, "wall_s": 0.0})
        assert "run-y FAILED" in line


class TestRunLedger:
    def rec(self, run_id, started=100.0, **kw):
        base = {"id": run_id, "status": "ok", "started_unix": started}
        base.update(kw)
        return base

    def test_append_writes_one_sorted_json_line(self, tmp_path):
        ledger = RunLedger(tmp_path)
        path = ledger.append(self.rec("sweep-a"))
        assert path == tmp_path / "runs" / "sweep-a.json"
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["id"] == "sweep-a"
        # no abandoned temp files
        assert sorted(p.name for p in path.parent.iterdir()) == [
            "sweep-a.json"]

    def test_records_sorted_by_start_then_id(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self.rec("b-late", started=200.0))
        ledger.append(self.rec("a-early", started=100.0))
        assert [r["id"] for r in ledger.records()] == ["a-early", "b-late"]

    def test_torn_records_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self.rec("sweep-a"))
        (tmp_path / "runs" / "torn.json").write_text('{"id": "tor')
        assert [r["id"] for r in ledger.records()] == ["sweep-a"]

    def test_find_exact_prefix_and_errors(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self.rec("sweep-20260808-aaa"))
        ledger.append(self.rec("sweep-20260808-bbb"))
        assert ledger.find("sweep-20260808-aaa")["id"] == "sweep-20260808-aaa"
        assert ledger.find("sweep-20260808-b")["id"] == "sweep-20260808-bbb"
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.find("sweep-")
        with pytest.raises(KeyError, match="no run"):
            ledger.find("nope")

    def test_missing_dir_yields_nothing(self, tmp_path):
        assert list(RunLedger(tmp_path / "nowhere").records()) == []


class TestObserveRun:
    def test_ok_run_writes_record_and_echoes_summary(self, tmp_path):
        lines = []
        with observe_run("scenario.sweep", "rate_sweep", cache_dir=tmp_path,
                         progress=False, echo=lines.append):
            telemetry.emit("run.start", kind="scenario.sweep",
                           name="rate_sweep", n_tasks=2, spec_key="k1")
            telemetry.emit("task.done", index=0)
            telemetry.emit("task.done", index=1)
            telemetry.emit("run.finish", status="ok")
        assert not telemetry.enabled()  # recorder torn down
        records = list(RunLedger(tmp_path).records())
        assert len(records) == 1
        r = records[0]
        assert r["status"] == "ok"
        assert r["spec_key"] == "k1"
        assert r["n_tasks"] == 2 and r["n_executed"] == 2
        assert lines[0] == render_run_summary(r)
        assert "[run recorded in " in lines[1]

    def test_crashed_run_is_recorded_as_failed(self, tmp_path):
        lines = []
        with pytest.raises(RuntimeError, match="mid-run crash"):
            with observe_run("scenario.run", "fig4", cache_dir=tmp_path,
                             progress=False, echo=lines.append):
                telemetry.emit("run.start", kind="scenario.run", n_tasks=1)
                raise RuntimeError("mid-run crash")
        (r,) = RunLedger(tmp_path).records()
        assert r["status"] == "failed"
        assert r["failures"] == ["RuntimeError: mid-run crash"]
        assert "FAILED" in lines[0]

    def test_no_cache_dir_still_prints_summary(self):
        lines = []
        with observe_run("scenario.run", "fig4", cache_dir=None,
                         progress=False, echo=lines.append):
            telemetry.emit("run.start", kind="scenario.run", n_tasks=1)
            telemetry.emit("task.done", index=0)
            telemetry.emit("run.finish", status="ok")
        assert len(lines) == 1 and lines[0].startswith("[run run-")

    def test_progress_renderer_writes_to_given_stream(self, tmp_path):
        out = io.StringIO()
        with observe_run("scenario.sweep", "s", cache_dir=None,
                         progress=True, stream=out, echo=None):
            telemetry.emit("run.start", kind="scenario.sweep", n_tasks=2)
            telemetry.emit("task.done", index=0)
        assert "\r" in out.getvalue()
        # finish() painted the final state and terminated the line
        assert out.getvalue().endswith("\n")

    def test_progress_auto_off_for_non_tty_stream(self):
        out = io.StringIO()  # io.StringIO.isatty() is False
        with observe_run("scenario.sweep", "s", cache_dir=None,
                         stream=out, echo=None):
            telemetry.emit("run.start", kind="scenario.sweep", n_tasks=1)
            telemetry.emit("task.done", index=0)
        assert out.getvalue() == ""
