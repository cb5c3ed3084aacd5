"""Cache-key stability across the batched task shape and engine dispatch.

The content-addressed store serves a result whenever a task's key
matches, so the key must change exactly when the task's *semantics*
change:

- batching is execution-only: a batched replicate block stores its
  results under the very keys the unbatched tasks would use (bit-identical
  values — asserted in ``tests/scenarios/test_batch.py``);
- engine dispatch is semantics: scenario sweeps resolve ``engine="auto"``
  to the concrete engine *before* the key is formed, so results computed
  under an older dispatch rule (e.g. ``auto`` meaning "DAG for ppn
  scenarios") can never be served to the new one.
"""

import pytest

from repro.runtime import ResultStore, RunSpec, run_campaign, spec_key
from repro.scenarios import load_bundled_scenario, scenario_sweep_spec
from repro.scenarios.batch import SCENARIO_TASK_FN


def expanded_tasks(name="emmy_mapped_dag", **kw):
    return scenario_sweep_spec(load_bundled_scenario(name), **kw).tasks()


class TestKeySemantics:
    def test_key_ignores_campaign_position(self):
        a = RunSpec(fn="m:f", params=(("x", 1),), seed=5, index=0)
        b = RunSpec(fn="m:f", params=(("x", 1),), seed=5, index=9)
        assert spec_key(a) == spec_key(b)

    def test_key_tracks_seed_and_params(self):
        base = RunSpec(fn="m:f", params=(("x", 1),), seed=5)
        assert spec_key(base) != spec_key(
            RunSpec(fn="m:f", params=(("x", 1),), seed=6))
        assert spec_key(base) != spec_key(
            RunSpec(fn="m:f", params=(("x", 2),), seed=5))

    def test_engine_value_changes_the_key(self):
        doc = load_bundled_scenario("fig4_single_delay").to_dict()
        auto = RunSpec(fn=SCENARIO_TASK_FN,
                       params=(("engine", "auto"), ("scenario", doc)), seed=1)
        lockstep = RunSpec(fn=SCENARIO_TASK_FN,
                           params=(("engine", "lockstep"), ("scenario", doc)),
                           seed=1)
        assert spec_key(auto) != spec_key(lockstep)


class TestSweepKeysNameTheResolvedEngine:
    def test_auto_resolves_to_concrete_engine_in_task_params(self):
        for task in expanded_tasks():
            assert task.kwargs["engine"] == "lockstep"

    def test_forced_engine_is_preserved(self):
        for task in expanded_tasks(engine="dag"):
            assert task.kwargs["engine"] == "dag"

    def test_forced_dag_and_auto_address_different_records(self):
        auto_keys = {t.key for t in expanded_tasks()}
        dag_keys = {t.key for t in expanded_tasks(engine="dag")}
        assert auto_keys.isdisjoint(dag_keys)

    def test_stale_auto_keyed_record_is_not_reused(self, tmp_path):
        """A record stored under the old ``engine="auto"`` parameters (the
        pre-resolution key shape, under which 'auto' dispatched ppn
        scenarios to the DAG engine) never satisfies the new tasks."""
        store = ResultStore(tmp_path / "store")
        task = expanded_tasks()[0]
        old_style = RunSpec(
            fn=task.fn,
            params=tuple((k, "auto" if k == "engine" else v)
                         for k, v in task.params),
            seed=task.seed,
        )
        store.put(old_style.key, {"outputs": {}, "engine": "dag",
                                  "n_campaign_delays": 0, "replicate": 0},
                  spec=old_style.describe())
        campaign = run_campaign([task], jobs=1, store=store)
        assert campaign.n_cached == 0
        assert campaign.n_executed == 1
        assert campaign.values()[0]["engine"] == "lockstep"
        # the stale record is left untouched at its own address
        assert store.get(old_style.key)["engine"] == "dag"

    def test_batched_and_serial_runs_share_addresses(self, tmp_path):
        from repro.scenarios.batch import ScenarioTaskBatcher

        tasks = expanded_tasks("campaign_rate_sweep")
        serial_store = ResultStore(tmp_path / "serial")
        batched_store = ResultStore(tmp_path / "batched")
        run_campaign(tasks, jobs=1, store=serial_store)
        run_campaign(tasks, jobs=1, store=batched_store,
                     batcher=ScenarioTaskBatcher())
        assert set(serial_store.keys()) == set(batched_store.keys())

    def test_record_spec_provenance_names_the_engine(self, tmp_path,
                                                     shard_record):
        store = ResultStore(tmp_path / "store")
        task = expanded_tasks()[0]
        run_campaign([task], jobs=1, store=store)
        record = shard_record(store.root, task.key)
        assert record["spec"]["params"]["engine"] == "lockstep"


class TestMixedEngineSweepSafety:
    def test_forced_engine_is_never_rewritten(self):
        sweep = scenario_sweep_spec(
            load_bundled_scenario("fig4_single_delay"), engine="lockstep")
        assert dict(sweep.base)["engine"] == "lockstep"

    def test_unknown_engine_still_rejected(self):
        from repro.scenarios import ScenarioError

        with pytest.raises(ScenarioError, match="unknown engine"):
            scenario_sweep_spec(load_bundled_scenario("fig4_single_delay"),
                                engine="warp")
