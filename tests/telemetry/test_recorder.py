"""The telemetry recorder: spans, instruments, snapshots, merging.

The recorder's contracts: zero-cost no-ops while disabled, plain-tuple
span storage with correct parenting while enabled, picklable snapshots,
and a merge that folds worker snapshots under the caller's open span.
"""

import pickle

import pytest

from repro import telemetry
from repro.telemetry.recorder import _NULL_SPAN, Recorder


class TestDisabled:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.current_recorder() is None

    def test_span_is_the_shared_null_singleton(self):
        sp = telemetry.span("engine.dag.propagate", batch=4)
        assert sp is _NULL_SPAN
        assert telemetry.span("anything.else") is sp

    def test_null_span_context_and_set_are_noops(self):
        with telemetry.span("x") as sp:
            assert sp.set(n_nodes=3) is sp
        assert sp.duration == 0.0

    def test_instruments_are_noops(self):
        telemetry.count("dag.cache.hits")
        telemetry.gauge("executor.jobs", 4)
        telemetry.observe("executor.block_size", 8)
        telemetry.merge_snapshot({"counters": {"x": 1}})
        assert telemetry.current_recorder() is None

    def test_timed_span_still_measures_duration(self):
        """The executor derives result timings from timed_span even when
        telemetry is off — duration must be a real measurement."""
        with telemetry.timed_span("executor.task") as sp:
            sum(range(1000))
        assert sp.duration > 0.0
        assert sp.start > 0.0


class TestEnableDisable:
    def test_enable_returns_live_recorder(self):
        rec = telemetry.enable()
        assert telemetry.enabled()
        assert telemetry.current_recorder() is rec

    def test_disable_returns_final_recorder(self):
        rec = telemetry.enable()
        rec.count("x")
        final = telemetry.disable()
        assert final is rec
        assert not telemetry.enabled()
        assert telemetry.disable() is None

    def test_enable_fresh_discards_previous_state(self):
        telemetry.enable().count("stale")
        rec = telemetry.enable()
        assert rec.counters == {}


class TestSpans:
    def test_nesting_records_parent_ids(self):
        rec = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        spans = {s[0]: s for s in rec.iter_spans()}
        assert len(spans) == 3
        by_name = {}
        for s in rec.iter_spans():
            by_name.setdefault(s[2], []).append(s)
        (outer,) = by_name["outer"]
        assert outer[1] == -1  # root
        for inner in by_name["inner"]:
            assert inner[1] == outer[0]

    def test_spans_append_on_exit_innermost_first(self):
        rec = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert [s[2] for s in rec.iter_spans()] == ["inner", "outer"]

    def test_attrs_at_creation_and_via_set(self):
        rec = telemetry.enable()
        with telemetry.span("engine.build_dag", cached=False) as sp:
            sp.set(n_nodes=7)
        (span,) = rec.iter_spans()
        assert span[5] == {"cached": False, "n_nodes": 7}

    def test_duration_is_positive_and_ordered(self):
        rec = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                sum(range(1000))
        inner, outer = rec.iter_spans()
        assert 0.0 < inner[4] <= outer[4]
        assert outer[3] <= inner[3]  # outer starts first

    def test_exception_unwinds_stack_correctly(self):
        rec = telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    raise RuntimeError("boom")
        assert rec._stack == []
        names = {s[2]: s for s in rec.iter_spans()}
        assert names["inner"][1] == names["outer"][0]
        # A new span after the unwind is a root again, not a stray child.
        with telemetry.span("next"):
            pass
        assert {s[2]: s[1] for s in rec.iter_spans()}["next"] == -1


class TestInstruments:
    def test_counters_sum(self):
        rec = telemetry.enable()
        telemetry.count("dag.cache.hits")
        telemetry.count("dag.cache.hits", 4)
        assert rec.counters["dag.cache.hits"] == 5

    def test_gauge_last_writer_wins(self):
        rec = telemetry.enable()
        telemetry.gauge("executor.jobs", 2)
        telemetry.gauge("executor.jobs", 8)
        assert rec.gauges["executor.jobs"] == 8

    def test_histogram_tracks_count_sum_min_max(self):
        rec = telemetry.enable()
        for v in (3.0, 1.0, 2.0):
            telemetry.observe("executor.block_size", v)
        assert rec.hists["executor.block_size"] == [3, 6.0, 1.0, 3.0]


class TestSnapshotAndMerge:
    def _worker_snapshot(self):
        worker = Recorder()
        with worker.span("executor.block", n_tasks=4):
            with worker.span("executor.task"):
                pass
        worker.count("dag.cache.hits", 3)
        worker.gauge("executor.jobs", 2)
        worker.observe("executor.queue_wait_s", 0.5)
        return worker.snapshot()

    def test_snapshot_is_plain_data_and_picklable(self):
        snap = self._worker_snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert isinstance(snap["spans"], list)
        assert all(isinstance(s, tuple) for s in snap["spans"])

    def test_merge_remaps_ids_and_reroots_under_open_span(self):
        """A worker snapshot's roots land under the caller's innermost
        open span — the shape run_campaign produces with --jobs N."""
        rec = telemetry.enable()
        with telemetry.span("campaign.run") as campaign:
            telemetry.merge_snapshot(self._worker_snapshot())
        spans = {s[2]: s for s in rec.iter_spans()}
        campaign_id = spans["campaign.run"][0]
        assert spans["executor.block"][1] == campaign_id
        assert spans["executor.task"][1] == spans["executor.block"][0]
        # remapped ids never collide with the parent's
        ids = [s[0] for s in rec.iter_spans()]
        assert len(ids) == len(set(ids))

    def test_merge_without_open_span_keeps_roots(self):
        rec = telemetry.enable()
        rec.merge(self._worker_snapshot())
        spans = {s[2]: s for s in rec.iter_spans()}
        assert spans["executor.block"][1] == -1

    def test_merge_sums_counters_and_hists_gauges_overwrite(self):
        rec = telemetry.enable()
        rec.count("dag.cache.hits", 1)
        rec.observe("executor.queue_wait_s", 2.0)
        rec.gauge("executor.jobs", 99)
        rec.merge(self._worker_snapshot())
        assert rec.counters["dag.cache.hits"] == 4
        assert rec.hists["executor.queue_wait_s"] == [2, 2.5, 0.5, 2.0]
        assert rec.gauges["executor.jobs"] == 2

    def test_two_merges_do_not_collide(self):
        rec = telemetry.enable()
        rec.merge(self._worker_snapshot())
        rec.merge(self._worker_snapshot())
        ids = [s[0] for s in rec.iter_spans()]
        assert len(ids) == len(set(ids)) == 4
