"""Lifecycle events on the recorder: ordering, identity, merge, fast path."""

from repro import telemetry
from repro.obs.events import EVENT_VERSION, KNOWN_EVENTS
from repro.telemetry import Recorder


class TestEventBus:
    """The event stream of one :class:`Recorder`."""

    def test_events_are_sequenced_in_emission_order(self):
        rec = Recorder()
        rec.emit("task.submit", index=0)
        rec.emit("task.start", index=0)
        rec.emit("task.done", index=0)
        assert [e[0] for e in rec.events] == [0, 1, 2]
        assert [e[1] for e in rec.events] == [
            "task.submit", "task.start", "task.done"]

    def test_identity_excludes_timestamps(self):
        rec = Recorder()
        rec.emit("task.done", index=3)
        rec.emit("run.finish")
        assert rec.identity() == [
            (0, "task.done", {"index": 3}),
            (1, "run.finish", None),
        ]

    def test_subscribers_see_every_event_synchronously(self):
        rec = Recorder()
        seen = []
        rec.subscribe(seen.append)
        rec.emit("task.submit", index=1)
        assert seen == rec.events  # delivered before emit returned
        rec.emit("task.done", index=1)
        assert seen == rec.events

    def test_counts(self):
        rec = Recorder()
        for i in range(3):
            rec.emit("task.done", index=i)
        rec.emit("run.finish")
        assert rec.counts() == {"task.done": 3, "run.finish": 1}

    def test_drain_detaches_transport_tuples_without_seq(self):
        """Snapshots carry events as ``(name, t, data)`` in span time."""
        rec = Recorder()
        with rec.span("campaign.run") as sp:
            rec.emit("task.done", index=0)
        (event,) = rec.snapshot()["events"]
        name, t, data = event
        assert name == "task.done"
        assert data == {"index": 0}
        assert sp.start <= t <= sp.start + sp.duration

    def test_absorb_resequences_and_drops_worker_run_events(self):
        parent = Recorder()
        parent.emit("run.start", kind="scenario.sweep")
        seen = []
        parent.subscribe(seen.append)
        worker = Recorder()
        worker.emit("run.start", kind="scenario.run")  # worker-local: drop
        worker.emit("task.start", index=5)
        worker.emit("task.done", index=5)
        worker.emit("run.finish", status="ok")  # worker-local: drop
        parent.merge(worker.snapshot())
        assert parent.identity() == [
            (0, "run.start", {"kind": "scenario.sweep"}),
            (1, "task.start", {"index": 5}),
            (2, "task.done", {"index": 5}),
        ]
        assert [e[1] for e in seen] == ["task.start", "task.done"]
        # Merged events keep the time they were emitted at.
        assert [e[2] for e in parent.events[1:]] == \
            [e[2] for e in worker.events[1:3]]
        assert parent._run_depth == 1

    def test_run_depth_tracks_lifecycle_and_marks(self):
        rec = Recorder()
        assert rec._run_depth == 0
        rec.emit("run.start")
        assert rec._run_depth == 1
        rec.emit("run.finish")
        assert rec._run_depth == 0
        rec.mark_in_run()
        assert rec._run_depth == 1
        rec.unmark_in_run()
        rec.unmark_in_run()  # clamped
        assert rec._run_depth == 0

    def test_payloadless_event_carries_none_not_empty_dict(self):
        rec = Recorder()
        rec.emit("run.finish")
        assert rec.events[0][4] is None


class TestModuleFastPath:
    def test_disabled_emit_is_a_noop(self):
        assert not telemetry.enabled()
        assert telemetry.emit("task.done", index=0) is None
        assert telemetry.current_recorder() is None
        assert not telemetry.in_run()

    def test_enable_emit_disable_roundtrip(self):
        rec = telemetry.enable()
        assert telemetry.enabled()
        telemetry.emit("task.done", index=1)
        assert rec.counts() == {"task.done": 1}
        assert telemetry.disable() is rec
        assert not telemetry.enabled()

    def test_enable_fresh_replaces_live_bus(self):
        stale = telemetry.enable()
        stale.emit("task.done", index=0)
        fresh = telemetry.enable(fresh=True)
        assert fresh is not stale
        assert fresh.events == []

    def test_enable_in_run_marks_worker_bus(self):
        telemetry.enable().mark_in_run()
        assert telemetry.in_run()

    def test_in_run_follows_emitted_lifecycle(self):
        telemetry.enable()
        assert not telemetry.in_run()
        telemetry.emit("run.start")
        assert telemetry.in_run()
        telemetry.emit("run.finish")
        assert not telemetry.in_run()

    def test_module_absorb_noop_when_disabled(self):
        worker = Recorder()
        worker.emit("task.done", index=0)
        telemetry.merge_snapshot(worker.snapshot())  # no raise
        assert not telemetry.enabled()

    def test_emit_name_is_positional_only(self):
        """Payloads may legitimately carry a ``name`` key (run names)."""
        rec = telemetry.enable()
        rec.emit("run.start", name="campaign_rate_sweep")
        telemetry.emit("report.phase", name="fetch")
        assert rec.identity() == [
            (0, "run.start", {"name": "campaign_rate_sweep"}),
            (1, "report.phase", {"name": "fetch"})]


class TestVocabulary:
    def test_known_events_cover_the_lifecycle(self):
        assert {"run.start", "run.finish", "task.submit", "task.start",
                "task.done", "task.failed", "task.cache_hit",
                "task.retry", "task.quarantined",
                "block.dispatch", "block.fallback",
                "report.phase",
                # pool-only health events (outside the --jobs 1
                # identity contract, see repro.obs.health)
                "task.stall", "pool.respawn"} == KNOWN_EVENTS

    def test_event_version_is_an_int(self):
        assert EVENT_VERSION == 3
