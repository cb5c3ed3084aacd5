"""observe_run: ledger persistence across ok / failed / interrupted exits."""

import json

import pytest

from repro.obs import observe_run
from repro.obs.ledger import RUN_RECORD_VERSION


def _records(cache):
    return [json.loads(p.read_text())
            for p in sorted((cache / "runs").glob("*.json"))]


class TestExitStatus:
    def test_clean_run_records_ok(self, tmp_path):
        with observe_run("scenario.sweep", "demo", cache_dir=tmp_path,
                         progress=False, echo=None):
            pass
        (record,) = _records(tmp_path)
        assert record["status"] == "ok"
        assert record["version"] == RUN_RECORD_VERSION

    def test_keyboard_interrupt_records_interrupted_and_reraises(
            self, tmp_path):
        """^C persists a ledger record marked interrupted — the hook
        ``--resume`` later keys off — and still propagates the ^C."""
        with pytest.raises(KeyboardInterrupt):
            with observe_run("scenario.sweep", "demo", cache_dir=tmp_path,
                             progress=False, echo=None):
                raise KeyboardInterrupt
        (record,) = _records(tmp_path)
        assert record["status"] == "interrupted"
        # An interruption is not a crash: no failure summary is invented.
        assert record["failures"] == []

    def test_crash_records_failed_with_summary(self, tmp_path):
        with pytest.raises(RuntimeError):
            with observe_run("scenario.sweep", "demo", cache_dir=tmp_path,
                             progress=False, echo=None):
                raise RuntimeError("boom")
        (record,) = _records(tmp_path)
        assert record["status"] == "failed"
        assert any("boom" in f for f in record["failures"])


class TestTelemetryOutput:
    def test_unprofiled_run_writes_no_telemetry(self, tmp_path):
        with observe_run("scenario.sweep", "demo", cache_dir=tmp_path,
                         progress=False, echo=None):
            pass
        (record,) = _records(tmp_path)
        assert record["telemetry"] is None
        assert not (tmp_path / "telemetry").exists()

    def test_profiled_run_prints_summary_and_links_its_file(self, tmp_path):
        lines = []
        out = tmp_path / "out.jsonl"
        with observe_run("scenario.sweep", "demo", cache_dir=tmp_path,
                         progress=False, echo=lines.append,
                         telemetry_out=out):
            pass
        (record,) = _records(tmp_path)
        linked = tmp_path / "telemetry" / f"{record['id']}.jsonl"
        assert record["telemetry"] == str(linked)
        assert out.exists() and linked.exists()
        assert lines[0].startswith("telemetry summary — scenario.sweep")
        assert lines[1:3] == [f"[telemetry written to {out}]",
                              f"[telemetry written to {linked}]"]
