"""Cross-engine and cross-backend equivalence of the scenario pipeline.

Two contracts:

- every lockstep-eligible bundled scenario produces the same timestamps
  on the DAG and lockstep engines (to the 1e-12 tolerance of the
  engine-equivalence property contract — the engines sum floats in
  different orders, so exact bitwise equality holds only by accident);
- a scenario sweep is **bit-identical** between serial execution and
  ``--jobs 2`` sharding, and a second invocation against the same store
  is served entirely from cache.
"""

import numpy as np
import pytest

from repro.runtime import ResultStore
from repro.scenarios import (
    bundled_scenario_names,
    compile_scenario,
    load_bundled_scenario,
    run_scenario,
    run_scenario_sweep,
)

ELIGIBLE = [name for name in bundled_scenario_names()
            if compile_scenario(load_bundled_scenario(name)).engine
            == "lockstep"]


@pytest.mark.parametrize("name", ELIGIBLE)
def test_bundled_scenario_dag_lockstep_equivalence(name):
    spec = load_bundled_scenario(name).without_sweep()
    fast = run_scenario(spec, engine="lockstep")
    slow = run_scenario(spec, engine="dag")
    assert fast.compiled.engine == "lockstep"
    assert slow.compiled.engine == "dag"
    np.testing.assert_allclose(
        fast.timing.completion, slow.timing.completion, rtol=1e-12, atol=1e-12,
        err_msg=f"engines disagree on scenario {name}",
    )
    np.testing.assert_allclose(
        fast.timing.exec_end, slow.timing.exec_end, rtol=1e-12, atol=1e-12,
    )


class TestSweepBackendEquivalence:
    def test_serial_equals_jobs2_bitwise(self):
        spec = load_bundled_scenario("campaign_rate_sweep")
        serial = run_scenario_sweep(spec, jobs=1)
        sharded = run_scenario_sweep(spec, jobs=2)
        assert serial.campaign.values() == sharded.campaign.values()
        assert serial.points == sharded.points

    def test_second_invocation_hits_cache(self, tmp_path):
        spec = load_bundled_scenario("campaign_rate_sweep")
        store = ResultStore(tmp_path / "store")
        cold = run_scenario_sweep(spec, jobs=1, store=store)
        assert cold.campaign.n_executed == len(cold.campaign)
        warm = run_scenario_sweep(spec, jobs=2, store=store)
        assert warm.campaign.n_cached == len(warm.campaign)
        assert warm.campaign.n_executed == 0
        assert warm.campaign.values() == cold.campaign.values()

    def test_seed_changes_results(self):
        spec = load_bundled_scenario("campaign_rate_sweep")
        a = run_scenario_sweep(spec, base_seed=1)
        b = run_scenario_sweep(spec, base_seed=2)
        assert a.campaign.values() != b.campaign.values()
