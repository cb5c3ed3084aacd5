"""Fault-tolerant execution: pool recovery, quarantine, ^C."""

import warnings

import pytest

from repro import telemetry
from repro.runtime import (
    ChaosSpec,
    ResultStore,
    RunSpec,
    SweepSpec,
    run_campaign,
)
from repro.runtime import chaos

PROBE = "repro.runtime.tasks:rng_probe_task"
HARD_EXIT = "repro.runtime.tasks:hard_exit_task"


def probe_sweep(n_tasks=6, base_seed=3):
    return SweepSpec(
        fn=PROBE,
        base={"n": 4},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestPoolRecovery:
    def test_transient_worker_death_recovers(self):
        """A worker killed on a task's first dispatch must not cost the
        task: the pool respawns, and the re-dispatch runs as attempt 1,
        which the one-fault bound leaves clean."""
        tasks = probe_sweep(n_tasks=6).tasks()
        clean = run_campaign(tasks, jobs=1)
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0,
                                max_faults_per_task=1))
        rec = telemetry.enable(fresh=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                campaign = run_campaign(tasks, jobs=2)
            retries = [e[2] for e in rec.identity() if e[1] == "task.retry"]
        finally:
            telemetry.disable()
        assert not campaign.failures
        assert campaign.n_pool_respawns >= 1
        # One task.retry per re-dispatch, each carrying the task's
        # worker-death count as its attempt.
        assert campaign.n_retried == len(retries) >= 1
        assert all(data["attempt"] == 1 for data in retries)
        assert campaign.values() == clean.values()

    def test_poison_task_is_quarantined_not_retried_forever(self):
        specs = list(probe_sweep(n_tasks=5).tasks())
        specs.append(RunSpec(fn=HARD_EXIT, params=(("code", 11),),
                             seed=1, index=len(specs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_campaign(specs, jobs=2, quarantine_after=2)
        assert campaign.n_quarantined == 1
        assert campaign.n_pool_respawns == 2
        bad = campaign.results[-1]
        assert bad.quarantined
        assert "quarantined" in bad.error
        # The innocent majority all completed.
        assert sum(1 for r in campaign.results if r.error is None) == 5

    def test_quarantine_events_and_result_flags_agree(self):
        # The poison needs company: a one-unit campaign runs serially,
        # where hard_exit_task would kill the test process itself.
        specs = list(probe_sweep(n_tasks=3).tasks())
        specs.append(RunSpec(fn=HARD_EXIT, params=(("code", 9),),
                             seed=0, index=len(specs)))
        rec = telemetry.enable(fresh=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                campaign = run_campaign(specs, jobs=2, quarantine_after=2)
            names = [e[1] for e in rec.identity()]
        finally:
            telemetry.disable()
        assert campaign.n_quarantined == 1
        assert "task.quarantined" in names
        assert "pool.respawn" in names
        # The quarantined task still terminates its lifecycle.
        assert names.count("task.failed") == 1

    def test_quarantine_after_validated(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            run_campaign(probe_sweep(n_tasks=1).tasks(), jobs=2,
                         quarantine_after=0)


class TestInterrupt:
    def test_keyboard_interrupt_shuts_the_pool_down(self, tmp_path):
        """^C mid-campaign cancels cleanly and leaves no torn records."""
        store = ResultStore(tmp_path / "cache")
        calls = {"n": 0}

        def boom(result):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=2,
                         store=store, on_result=boom)
        # Whatever was persisted before the interrupt is fully readable:
        # no torn shard entries, and a fresh campaign completes from it.
        reread = ResultStore(tmp_path / "cache")
        for key in reread.keys():
            assert reread.get(key) is not None
        campaign = run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=1,
                                store=reread)
        assert not campaign.failures
        assert campaign.n_cached >= 1
