"""Worker health: resource samples, the stall watchdog, and the pool
wiring that surfaces both.

The acceptance: an injected stalled task produces a ``task.stall``
event naming it, the run ledger counts the stall, and the progress line
warns — while serial runs stay free of the pool-only health samples and
events (``--jobs 1`` identity contract).
"""

import io
import time

import pytest

from repro import telemetry
from repro.obs.health import StallWatchdog, sample_resources
from repro.obs.ledger import RunTracker
from repro.obs.progress import ProgressRenderer
from repro.runtime import run_campaign
from repro.runtime.spec import RunSpec


def sleep_specs(durations):
    return [
        RunSpec(fn="executor_tasks:sleeping_task", index=i,
                params={"duration_s": d}, seed=i)
        for i, d in enumerate(durations)
    ]


class TestSampleResources:
    def test_sample_shape(self):
        import os

        sample = sample_resources()
        assert set(sample) == {"pid", "rss_bytes", "cpu_s"}
        assert sample["pid"] == os.getpid()
        assert sample["rss_bytes"] > 0  # this test process has pages
        assert sample["cpu_s"] >= 0.0

    def test_sample_is_picklable_plain_data(self):
        import pickle

        sample = sample_resources()
        assert pickle.loads(pickle.dumps(sample)) == sample


class TestStallWatchdog:
    def test_rejects_nonpositive_thresholds(self):
        for kw in ({"multiple": 0}, {"min_stall_s": -1}, {"poll_s": 0}):
            with pytest.raises(ValueError):
                StallWatchdog(**kw)

    def test_threshold_floor_before_any_completion(self):
        wd = StallWatchdog(multiple=4.0, min_stall_s=5.0)
        assert wd.threshold_s() == 5.0

    def test_threshold_scales_with_ewma_and_unit_size(self):
        wd = StallWatchdog(multiple=4.0, min_stall_s=0.1)
        wd.note_duration(2.0)
        assert wd.threshold_s(1) == pytest.approx(8.0)
        assert wd.threshold_s(3) == pytest.approx(24.0)

    def test_ewma_smooths_toward_recent_durations(self):
        wd = StallWatchdog()
        wd.note_duration(1.0)
        wd.note_duration(2.0)
        assert wd.ewma_s == pytest.approx(0.3 * 2.0 + 0.7 * 1.0)
        wd.note_duration(-1.0)  # ignored, not a duration
        assert wd.ewma_s == pytest.approx(1.3)

    def test_scan_flags_each_unit_once(self):
        wd = StallWatchdog(multiple=2.0, min_stall_s=0.5)
        rec = telemetry.enable()
        try:
            now = time.perf_counter()
            token = object()
            unit = tuple(enumerate(sleep_specs([0.0, 0.0])))
            in_flight = {token: (unit, now - 10.0)}
            first = wd.scan(in_flight, now=now)
            assert sorted(first) == [0, 1]
            assert wd.n_stalled == 2
            assert wd.scan(in_flight, now=now) == []  # already flagged
            assert wd.n_stalled == 2
            assert rec.counts()["task.stall"] == 2
        finally:
            telemetry.disable()

    def test_scan_leaves_young_units_alone(self):
        wd = StallWatchdog(multiple=2.0, min_stall_s=5.0)
        now = time.perf_counter()
        unit = tuple(enumerate(sleep_specs([0.0])))
        assert wd.scan({object(): (unit, now - 1.0)}, now=now) == []
        assert wd.n_stalled == 0

    def test_forget_clears_the_flag(self):
        wd = StallWatchdog(multiple=2.0, min_stall_s=0.5)
        now = time.perf_counter()
        token = object()
        unit = tuple(enumerate(sleep_specs([0.0])))
        wd.scan({token: (unit, now - 10.0)}, now=now)
        assert wd._flagged
        wd.forget(token)
        assert not wd._flagged


class TestPoolIntegration:
    def test_injected_stall_is_flagged_counted_and_rendered(self):
        """The acceptance path: sleeper -> task.stall -> ledger/progress."""
        specs = sleep_specs([0.5] + [0.01] * 5)
        rec = telemetry.enable()
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, interval=0)
        rec.subscribe(renderer.handle)
        rec.emit("run.start", kind="campaign", name="stall-test",
                 n_tasks=len(specs))
        watchdog = StallWatchdog(multiple=2.0, min_stall_s=0.05,
                                 poll_s=0.02)
        try:
            campaign = run_campaign(specs, jobs=2, watchdog=watchdog)
            rec.emit("run.finish", status="ok")
        finally:
            telemetry.disable()

        assert not campaign.failures
        stalled = [e[4]["index"] for e in rec.events if e[1] == "task.stall"]
        assert 0 in stalled  # the 0.5s sleeper was flagged
        assert watchdog.n_stalled == len(stalled) > 0

        # Health samples ride the unit snapshots; the ledger counts both.
        n_samples, _, _, rss_peak = rec.hists["worker.rss_bytes"]
        assert n_samples == len(specs)  # one per returned unit
        record = RunTracker().record(
            rec.snapshot(), run_id="stall-test", status="ok",
            kind="campaign", name="stall-test", wall_s=1.0,
            started_unix=0.0, finished_unix=1.0)
        assert record["version"] >= 2
        assert record["n_stalls"] == len(stalled)
        assert record["n_heartbeats"] == n_samples
        assert record["worker_rss_peak_bytes"] == rss_peak > 0

        assert "stalled!" in stream.getvalue()

    def test_heartbeats_feed_telemetry_histograms(self):
        specs = sleep_specs([0.0] * 4)
        recorder = telemetry.enable()
        try:
            run_campaign(specs, jobs=2)
            snap = recorder.snapshot()
        finally:
            telemetry.disable()
        assert snap["hists"]["worker.rss_bytes"][0] == 4
        assert snap["hists"]["worker.cpu_s"][0] == 4
        assert all(v > 0 for v in snap["hists"]["worker.rss_bytes"])

    def test_serial_runs_emit_no_health_events(self):
        """Pool-only health stays out of the --jobs 1 identity stream."""
        specs = sleep_specs([0.0] * 4)
        rec = telemetry.enable()
        try:
            run_campaign(specs, jobs=1)
        finally:
            telemetry.disable()
        assert "task.stall" not in rec.counts()
        assert not any(name.startswith("worker.") for name in rec.hists)

    def test_unobserved_pool_run_stays_clean(self):
        """No recorder, no watchdog: plain pool runs are unchanged."""
        specs = sleep_specs([0.0] * 4)
        campaign = run_campaign(specs, jobs=2)
        assert not campaign.failures
        assert len(campaign.values()) == 4
