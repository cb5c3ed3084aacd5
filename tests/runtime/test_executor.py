"""Executor tests: backend equivalence, caching, failure isolation."""

import json
import os
import shutil

import pytest

import executor_tasks as tasks_mod
from repro import telemetry
from repro.runtime import (
    ResultStore,
    RunSpec,
    SweepSpec,
    TaskError,
    resolve_jobs,
    run_campaign,
)
from repro.runtime.shards import SHARD_DIR, PackedShards

PROBE = "executor_tasks:rng_probe_task"
FAIL = "executor_tasks:failing_task"


def probe_sweep(n_tasks=6, base_seed=3):
    return SweepSpec(
        fn=PROBE,
        base={"n": 4},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


class TestBackendEquivalence:
    def test_serial_and_pool_bit_identical(self):
        tasks = probe_sweep().tasks()
        serial = run_campaign(tasks, jobs=1)
        pool = run_campaign(tasks, jobs=2)
        assert not serial.failures and not pool.failures
        assert serial.values() == pool.values()

    def test_lockstep_campaign_identical_across_backends(self):
        # The real simulation workload, not just the RNG probe.
        sweep = SweepSpec(
            fn="repro.runtime.tasks:lockstep_delay_task",
            base={"n_ranks": 16, "n_steps": 12, "t_exec": 3e-3,
                  "msg_size": 8192, "rate": 0.02,
                  "duration_low": 6e-3, "duration_high": 24e-3},
            axes=(("replicate", (0, 1, 2, 3)),),
            base_seed=1,
        )
        serial = run_campaign(sweep.tasks(), jobs=1)
        pool = run_campaign(sweep.tasks(), jobs=2)
        assert not serial.failures and not pool.failures
        assert serial.values() == pool.values()

    def test_results_keep_task_order(self):
        campaign = run_campaign(probe_sweep().tasks(), jobs=2)
        assert [r.index for r in campaign.results] == list(range(6))

    def test_distinct_seed_streams_per_task(self):
        campaign = run_campaign(probe_sweep(n_tasks=8).tasks(), jobs=1)
        draws = [tuple(v["draws"]) for v in campaign.values()]
        assert len(set(draws)) == 8
        seeds = [v["seed"] for v in campaign.values()]
        assert len(set(seeds)) == 8

    def test_rerun_reproduces_exactly(self):
        a = run_campaign(probe_sweep().tasks(), jobs=2)
        b = run_campaign(probe_sweep().tasks(), jobs=1)
        assert a.values() == b.values()


class TestCache:
    def test_second_invocation_runs_zero_tasks(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        tasks = probe_sweep().tasks()

        calls = {"n": 0}
        real = tasks_mod.rng_probe_task

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tasks_mod, "rng_probe_task", counting)

        cold = run_campaign(tasks, jobs=1, store=store)
        assert calls["n"] == len(tasks)
        assert cold.n_executed == len(tasks) and cold.n_cached == 0

        warm = run_campaign(tasks, jobs=1, store=store)
        assert calls["n"] == len(tasks)  # zero new executions
        assert warm.n_cached == len(tasks) and warm.n_executed == 0
        assert warm.values() == cold.values()

    def test_cache_shared_between_backends(self, tmp_path):
        store = ResultStore(tmp_path)
        tasks = probe_sweep().tasks()
        cold = run_campaign(tasks, jobs=2, store=store)
        warm = run_campaign(tasks, jobs=1, store=store)
        assert warm.n_cached == len(tasks)
        assert warm.values() == cold.values()

    def test_unreadable_worker_record_is_recomputed_alone(self, tmp_path):
        """A pooled result reads its value from the store; a record gone
        since the worker wrote it is recomputed (and written) alone."""
        store = ResultStore(tmp_path)
        tasks = probe_sweep().tasks()
        pooled = run_campaign(tasks, jobs=2, store=store)
        serial = run_campaign(tasks, jobs=1)
        shutil.rmtree(tmp_path / SHARD_DIR)
        assert pooled.results[2].value == serial.results[2].value
        assert list(store.keys()) == [tasks[2].key]

    def test_different_base_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(probe_sweep(base_seed=1).tasks(), jobs=1, store=store)
        other = run_campaign(probe_sweep(base_seed=2).tasks(), jobs=1,
                             store=store)
        assert other.n_cached == 0

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec(fn=FAIL, params={"message": "no-cache"}, seed=1)
        run_campaign([spec], jobs=1, store=store)
        assert list(store.keys()) == []


class TestFailureIsolation:
    def mixed_specs(self):
        return [
            RunSpec(fn=PROBE, params={"n": 2}, seed=1, index=0),
            RunSpec(fn=FAIL, params={"message": "boom"}, seed=2, index=1),
            RunSpec(fn=PROBE, params={"n": 3}, seed=3, index=2),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_bad_task_does_not_poison_the_shard(self, jobs):
        campaign = run_campaign(self.mixed_specs(), jobs=jobs)
        assert len(campaign.failures) == 1
        failure = campaign.failures[0]
        assert failure.index == 1
        assert "boom" in failure.error and "RuntimeError" in failure.error
        ok = [r for r in campaign.results if r.ok]
        assert [r.index for r in ok] == [0, 2]
        assert len(campaign.values()) == 2

    def test_raise_failures(self):
        campaign = run_campaign(self.mixed_specs(), jobs=1)
        with pytest.raises(TaskError, match="1/3 campaign tasks failed"):
            campaign.raise_failures()
        clean = run_campaign(probe_sweep(n_tasks=2).tasks(), jobs=1)
        assert clean.raise_failures() is clean

    def test_worker_death_does_not_kill_the_campaign(self):
        """A worker hard-exiting (OOM-kill analogue) breaks the pool, but
        run_campaign must still return a complete CampaignResult."""
        specs = [
            RunSpec(fn="executor_tasks:hard_exit_task",
                    params={"code": 1}, seed=1, index=0),
            *[RunSpec(fn=PROBE, params={"n": 2}, seed=10 + i, index=i)
              for i in range(1, 6)],
        ]
        campaign = run_campaign(specs, jobs=2)
        assert len(campaign.results) == len(specs)
        assert all(r is not None for r in campaign.results)
        assert not campaign.results[0].ok  # the killer task failed
        assert campaign.failures  # and nothing raised out of run_campaign

    def test_keyboard_interrupt_aborts_serial_campaign(self, monkeypatch):
        """Ctrl-C must abort, not be recorded as a task failure."""
        import executor_tasks as tasks_mod

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(tasks_mod, "rng_probe_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(probe_sweep(n_tasks=3).tasks(), jobs=1)

    def test_unknown_function_is_isolated_too(self):
        specs = [
            RunSpec(fn="repro.runtime.tasks:does_not_exist", seed=1, index=0),
            RunSpec(fn=PROBE, params={"n": 2}, seed=2, index=1),
        ]
        campaign = run_campaign(specs, jobs=1)
        assert not campaign.results[0].ok
        assert campaign.results[1].ok

    def test_non_mapping_result_is_a_task_error(self):
        spec = RunSpec(fn=PROBE, params={"n": 2}, seed=1)
        campaign = run_campaign([spec], jobs=1)
        assert campaign.results[0].ok  # the probe does return a mapping


class TestStreamingAndJobs:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1

    def test_elapsed_and_durations_recorded(self):
        campaign = run_campaign(probe_sweep(n_tasks=2).tasks(), jobs=1)
        assert campaign.elapsed > 0
        assert all(r.duration >= 0 for r in campaign.results)


class TestWorkerWrites:
    def test_the_process_that_computes_a_record_writes_it(
            self, tmp_path, monkeypatch, store_record_bytes):
        """A --jobs 2 campaign's records are appended by the pool workers,
        one shard each, with complete sidecar indexes, and hold the bytes
        (and ledger counters) of a --jobs 1 run."""
        log = tmp_path / "appends.log"
        real = PackedShards.append

        def logged(self, key, *args, **kwargs):
            entry = real(self, key, *args, **kwargs)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {key}\n")
            return entry

        # Patched before the pool forks, so the workers log too.
        monkeypatch.setattr(PackedShards, "append", logged)
        tasks = probe_sweep(n_tasks=12).tasks()
        appends, counters = {}, {}
        for jobs in (2, 1):
            rec = telemetry.enable()
            try:
                campaign = run_campaign(
                    tasks, jobs=jobs, store=ResultStore(tmp_path / f"j{jobs}"))
            finally:
                telemetry.disable()
            assert not campaign.failures
            counters[jobs] = {name: rec.counters[name]
                              for name in ("store.puts", "store.write_bytes")}
            appends[jobs] = [line.split()
                             for line in log.read_text().splitlines()]
            log.unlink()

        workers = {int(pid) for pid, _ in appends[2]}
        assert os.getpid() not in workers  # the parent appended nothing
        assert sorted(key for _, key in appends[2]) \
            == sorted(t.key for t in tasks)
        assert {int(pid) for pid, _ in appends[1]} == {os.getpid()}

        shards = PackedShards(tmp_path / "j2" / SHARD_DIR)
        paths = shards.shard_paths()
        owner = {p.name: int(p.name[1:].split("-")[0], 16) for p in paths}
        assert sorted(owner.values()) == sorted(workers)  # one shard each
        assert {owner[e.shard] for e in shards.entries()} == workers
        for path in paths:
            lines = path.with_name(path.name + ".idx").read_text()
            assert [json.loads(line)["key"] for line in lines.splitlines()] \
                == [e.key for e in shards.scan_shard(path)]
        rec = telemetry.enable()
        try:
            assert len(list(ResultStore(tmp_path / "j2").keys())) == len(tasks)
        finally:
            telemetry.disable()
        assert "store.shard.recovered" not in rec.counters  # nothing rebuilt

        assert counters[2] == counters[1]
        assert counters[1]["store.puts"] == len(tasks)
        assert store_record_bytes(tmp_path / "j2") \
            == store_record_bytes(tmp_path / "j1")
