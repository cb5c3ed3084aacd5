"""Event semantics under the campaign runtime: ordering, pool merge,
fallback/died-block accounting, and content determinism.

The core invariants: every task reaches exactly one terminal event
(``done``/``failed``/``cache_hit``) regardless of backend; worker events
merge back inside the unit's telemetry snapshot, at the time the worker
emitted them; a failed block's per-task fallback never double-counts;
and for a fixed seed with ``--jobs 1`` the identity stream is
reproducible.
"""

import pytest

from repro import telemetry
from repro.runtime import ResultStore, run_campaign
from repro.scenarios import (
    ScenarioTaskBatcher,
    load_bundled_scenario,
    run_scenario_sweep,
    scenario_sweep_spec,
)


def sweep_tasks(**kw):
    return scenario_sweep_spec(
        load_bundled_scenario("campaign_rate_sweep"), **kw).tasks()


class ExplodingBatcher(ScenarioTaskBatcher):
    def execute(self, specs):
        raise RuntimeError("batch infrastructure down")


class UnreturnableResultBatcher(ScenarioTaskBatcher):
    """Correct values poisoned with an unpicklable payload — the block's
    future dies on the way back from the worker."""

    def execute(self, specs):
        values = [dict(v) for v in super().execute(specs)]
        for v in values:
            v["poison"] = lambda: None  # not picklable
        return values


def observed_campaign(tasks, **kw):
    rec = telemetry.enable()
    try:
        campaign = run_campaign(tasks, **kw)
    finally:
        telemetry.disable()
    return campaign, rec


def terminal_indexes(rec, name="task.done"):
    return [e[4]["index"] for e in rec.events if e[1] == name]


class TestSerialEventStream:
    def test_batched_serial_counts(self):
        tasks = sweep_tasks()  # 12 tasks in 3 replicate blocks
        campaign, rec = observed_campaign(
            tasks, jobs=1, batcher=ScenarioTaskBatcher())
        assert not campaign.failures
        assert rec.counts() == {
            "block.dispatch": 3, "task.submit": 12, "task.done": 12}
        assert sorted(terminal_indexes(rec)) == list(range(12))

    def test_unbatched_serial_emits_task_start_per_task(self):
        tasks = sweep_tasks()
        campaign, rec = observed_campaign(tasks, jobs=1)
        assert rec.counts() == {
            "task.submit": 12, "task.start": 12, "task.done": 12}

    def test_submit_precedes_terminal_for_every_task(self):
        tasks = sweep_tasks()
        _, rec = observed_campaign(
            tasks, jobs=1, batcher=ScenarioTaskBatcher())
        submitted = set()
        for _, name, _, _, data in rec.events:
            if name == "task.submit":
                submitted.add(data["index"])
            elif name == "task.done":
                assert data["index"] in submitted

    def test_cache_hits_emit_their_own_terminal_event(self, tmp_path):
        tasks = sweep_tasks()
        store = ResultStore(tmp_path / "store")
        run_campaign(tasks, jobs=1, store=store)  # cold, unobserved
        campaign, rec = observed_campaign(tasks, jobs=1, store=store)
        assert campaign.n_cached == 12
        counts = rec.counts()
        assert counts["task.cache_hit"] == 12
        assert "task.done" not in counts


class TestPoolEventMerge:
    def test_pool_terminal_events_match_serial(self):
        tasks = sweep_tasks()
        serial, serial_rec = observed_campaign(
            tasks, jobs=1, batcher=ScenarioTaskBatcher())
        pool, pool_rec = observed_campaign(
            tasks, jobs=2, batcher=ScenarioTaskBatcher())
        assert pool.values() == serial.values()
        # task.stall is pool-only by design; the lifecycle stream
        # itself must match serial exactly.
        pool_counts = {name: n for name, n in pool_rec.counts().items()
                       if name != "task.stall"}
        assert pool_counts == serial_rec.counts()
        assert sorted(terminal_indexes(pool_rec)) == list(range(12))

    def test_unbatched_pool_merges_worker_task_starts(self):
        tasks = sweep_tasks()
        _, rec = observed_campaign(tasks, jobs=2)
        counts = rec.counts()
        assert counts["task.start"] == 12  # shipped back from workers
        assert counts["task.done"] == 12

    def test_pool_merges_telemetry_and_events_together(self):
        """Spans, events and health ride the one unit snapshot."""
        tasks = sweep_tasks()
        _, rec = observed_campaign(
            tasks, jobs=2, batcher=ScenarioTaskBatcher())
        span_names = {s[2] for s in rec.spans}
        assert "executor.block" in span_names  # worker span merged
        assert rec.counts()["task.done"] == 12
        # one health sample per returned unit (3 replicate blocks)
        assert rec.hists["worker.rss_bytes"][0] == 3

    def test_worker_events_keep_their_emission_time(self):
        """A merged task.start keeps the worker's clock: it precedes its
        task by at least the task's own duration, so the trace draws it
        where the task began, not where the parent merged the result."""
        tasks = sweep_tasks()
        campaign, rec = observed_campaign(tasks, jobs=2)
        times = {}
        for _, name, t, _, data in rec.events:
            if name in ("task.start", "task.done"):
                times.setdefault(data["index"], {})[name] = t
        assert len(times) == len(tasks)
        for result in campaign:
            t = times[result.index]
            assert t["task.done"] - t["task.start"] >= result.duration


class TestFallbackAccounting:
    def test_broken_batch_fallback_counts_each_task_once(self):
        tasks = sweep_tasks()
        rec = telemetry.enable()
        try:
            with pytest.warns(RuntimeWarning,
                              match="batch infrastructure down"):
                campaign = run_campaign(tasks, jobs=1,
                                        batcher=ExplodingBatcher())
        finally:
            telemetry.disable()
        assert not campaign.failures
        counts = rec.counts()
        assert counts["block.fallback"] == 3
        assert counts["task.done"] == 12
        assert counts["task.start"] == 12  # fallback runs per task
        assert sorted(terminal_indexes(rec)) == list(range(12))

    def test_died_block_retry_terminals_stay_unique(self):
        """A block whose future dies re-enqueues singletons: extra
        submits are expected, but each task's terminal event is unique."""
        tasks = sweep_tasks()
        rec = telemetry.enable()
        try:
            with pytest.warns(RuntimeWarning, match="retrying per task"):
                campaign = run_campaign(tasks, jobs=2,
                                        batcher=UnreturnableResultBatcher())
        finally:
            telemetry.disable()
        assert not campaign.failures
        counts = rec.counts()
        assert counts["task.done"] == 12
        assert "task.failed" not in counts
        assert counts["task.submit"] > 12  # retries re-submit
        assert sorted(terminal_indexes(rec)) == list(range(12))

    def test_failing_task_emits_task_failed(self):
        from repro.runtime import RunSpec

        bad = (RunSpec(fn="repro.runtime.tasks:no_such_task",
                       params=(), seed=0, index=0),)
        rec = telemetry.enable()
        try:
            campaign = run_campaign(bad, jobs=1)
        finally:
            telemetry.disable()
        assert campaign.failures
        assert rec.counts()["task.failed"] == 1


class TestDeterminism:
    def test_serial_identity_streams_are_reproducible(self):
        spec = load_bundled_scenario("campaign_rate_sweep")

        def identity():
            rec = telemetry.enable()
            try:
                run_scenario_sweep(spec, engine="dag", jobs=1)
            finally:
                telemetry.disable()
            return rec.identity()

        first = identity()
        second = identity()
        assert first == second
        names = [name for _, name, _ in first]
        assert names[0] == "run.start"
        assert names[-1] == "run.finish"

    def test_run_start_payload_carries_provenance(self):
        spec = load_bundled_scenario("campaign_rate_sweep")
        rec = telemetry.enable()
        try:
            run_scenario_sweep(spec, engine="dag", jobs=1)
        finally:
            telemetry.disable()
        (start,) = [e for e in rec.events if e[1] == "run.start"]
        data = start[4]
        assert data["kind"] == "scenario.sweep"
        assert data["name"] == spec.name
        assert data["n_tasks"] == 12
        assert data["engine"] == "dag"
        assert len(data["spec_key"]) == 32

    def test_nested_scenario_runs_stay_silent_inside_a_sweep(self):
        """scenario_task -> run_scenario inside a sweep must not emit a
        nested run lifecycle (serial or pooled)."""
        spec = load_bundled_scenario("campaign_rate_sweep")
        for jobs in (1, 2):
            rec = telemetry.enable()
            try:
                run_scenario_sweep(spec, jobs=jobs)
            finally:
                telemetry.disable()
            assert rec.counts()["run.start"] == 1
            assert rec.counts()["run.finish"] == 1
