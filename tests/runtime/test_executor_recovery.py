"""Fault-tolerant execution: a dead worker ends the campaign and the
store recovers it; ^C."""

import json
import os

import pytest

from repro import telemetry
from repro.runtime import ResultStore, RunSpec, SweepSpec, run_campaign
from repro.runtime import executor
from repro.runtime.cli import store_main
from repro.runtime.shards import SHARD_DIR, PackedShards

PROBE = "executor_tasks:rng_probe_task"
HARD_EXIT = "executor_tasks:hard_exit_task"
TERMINAL = ("task.done", "task.failed", "task.cache_hit")


def probe_sweep(n_tasks=6, base_seed=3):
    return SweepSpec(
        fn=PROBE,
        base={"n": 4},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


class TestPoolRecovery:
    def test_dead_worker_ends_campaign_rerun_heals(self, tmp_path,
                                                   store_record_bytes):
        """A task that kills its worker breaks the pool.  The campaign
        returns, every task it left unfinished fails with the advice to
        rerun, and each task ends once.  A rerun on the same store
        computes only the tasks the store lacks and leaves the records
        a fault-free serial run writes."""
        probes = list(probe_sweep(n_tasks=11).tasks())
        poison = RunSpec(fn=HARD_EXIT, params=(("code", 11),), seed=1,
                         index=len(probes))
        root = tmp_path / "cache"
        rec = telemetry.enable()
        try:
            campaign = run_campaign([poison, *probes], jobs=2,
                                    store=ResultStore(root))
        finally:
            telemetry.disable()

        assert len(campaign.results) == len(probes) + 1
        assert not campaign.results[0].ok  # the poison itself
        for result in campaign.failures:
            assert "a pool worker died" in result.error
            assert "rerun on the same --cache-dir" in result.error
        terminal = [data["index"] for _, name, data in rec.identity()
                    if name in TERMINAL]
        assert sorted(terminal) == list(range(len(probes) + 1))

        stored = set(ResultStore(root).keys())
        assert {r.spec.key for r in campaign.results if r.ok} <= stored
        rerun = run_campaign(probes, jobs=2, store=ResultStore(root))
        assert not rerun.failures
        assert {r.spec.key for r in rerun.results if not r.cached} \
            == {spec.key for spec in probes} - stored

        run_campaign(probes, jobs=1, store=ResultStore(tmp_path / "serial"))
        assert store_record_bytes(root) \
            == store_record_bytes(tmp_path / "serial")


class TestInterrupt:
    def test_keyboard_interrupt_shuts_the_pool_down(self, tmp_path,
                                                    monkeypatch):
        """^C mid-campaign cancels cleanly and leaves no torn records."""
        store = ResultStore(tmp_path / "cache")
        calls = {"n": 0}
        real = executor._as_task_result

        def boom(*args, **kwargs):
            # The parent turns each finished unit's outcome into a
            # TaskResult; the second one meets a ^C.
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "_as_task_result", boom)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=2,
                         store=store)
        monkeypatch.undo()
        # Whatever was persisted before the interrupt is fully readable:
        # no torn shard entries, and a fresh campaign completes from it.
        reread = ResultStore(tmp_path / "cache")
        for key in reread.keys():
            assert reread.get(key) is not None
        campaign = run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=1,
                                store=reread)
        assert not campaign.failures
        assert campaign.n_cached >= 1


class TestDuplicateRecords:
    def test_appended_record_is_cached_on_rerun(
            self, tmp_path, monkeypatch, capsys, store_record_bytes):
        """A worker that dies right after appending a record leaves it
        behind.  A rerun on that store serves it from cache, so the
        store holds one copy of every key, with the bytes a --jobs 1
        run writes."""
        tasks = probe_sweep(n_tasks=8).tasks()
        victim = tasks[3].key
        parent, real = os.getpid(), PackedShards.append

        def append_then_die(self, key, *args, **kwargs):
            entry = real(self, key, *args, **kwargs)
            if key == victim and os.getpid() != parent:
                os._exit(1)
            return entry

        monkeypatch.setattr(PackedShards, "append", append_then_die)
        root = tmp_path / "cache"
        campaign = run_campaign(tasks, jobs=2, store=ResultStore(root))
        monkeypatch.undo()
        assert not campaign.results[3].ok
        assert victim in ResultStore(root)

        rerun = run_campaign(tasks, jobs=2, store=ResultStore(root))
        assert not rerun.failures and rerun.results[3].cached

        serial = run_campaign(tasks, jobs=1,
                              store=ResultStore(tmp_path / "serial"))
        want = store_record_bytes(tmp_path / "serial")
        shards = PackedShards(root / SHARD_DIR)
        copies: "dict[str, list[bytes]]" = {}
        for path in shards.shard_paths():
            data = path.read_bytes()
            for entry in shards.scan_shard(path):
                copies.setdefault(entry.key, []).append(
                    data[entry.offset:entry.end])
        assert copies == {key: [payload] for key, payload in want.items()}
        assert store_record_bytes(root) == want
        assert rerun.values() == serial.values()

        assert len(list(ResultStore(root).keys())) == len(tasks)
        assert store_main(["ls", "--cache-dir", str(root), "--json"]) == 0
        listed = [e["key"] for e in json.loads(capsys.readouterr().out)]
        assert sorted(listed) == sorted(want)
        assert store_main(["gc", "--cache-dir", str(root), "--dry-run",
                           "--min-age", "0"]) == 0
        assert "would remove 0 item(s)" in capsys.readouterr().out
