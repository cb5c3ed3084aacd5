"""Property-based contract: faults never change campaign bytes.

The fault-tolerance layer promises that worker deaths and resume are
*invisible in the data*: a chaotic parallel campaign, rerun on its own
store once the chaos is gone, must persist byte-identical store records
to a fault-free serial run of the same sweep, and a resumed campaign
must replay cached values bit-exactly.  Any divergence would mean
injected faults leak into results — the one failure mode a
reproducibility harness can never have.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import (
    ChaosSpec,
    ResultStore,
    SweepSpec,
    chaos,
    run_campaign,
)

PROBE = "executor_tasks:rng_probe_task"


def _sweep(n_tasks, base_seed):
    return SweepSpec(
        fn=PROBE,
        base={"n": 3},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
       base_seed=st.integers(min_value=0, max_value=2**16),
       n_tasks=st.integers(min_value=4, max_value=10))
def test_chaotic_parallel_run_is_byte_identical_to_clean_serial(
        tmp_path_factory, store_record_bytes, chaos_seed, base_seed, n_tasks):
    tmp_path = tmp_path_factory.mktemp("chaos-parity")
    tasks = _sweep(n_tasks, base_seed).tasks()

    clean_store = ResultStore(tmp_path / "clean")
    clean = run_campaign(tasks, jobs=1, store=clean_store)
    assert not clean.failures

    spec = ChaosSpec(seed=chaos_seed, abort_rate=0.4)
    chaos.install(spec)
    try:
        chaotic = run_campaign(tasks, jobs=2,
                               store=ResultStore(tmp_path / "chaotic"))
    finally:
        chaos.uninstall()
    # A worker died, ending the campaign, iff some task rolls an abort.
    assert bool(chaotic.failures) == any(spec.aborts(task.key)
                                         for task in tasks)

    # The chaos-free rerun on the same store heals it.
    healed = run_campaign(tasks, jobs=2,
                          store=ResultStore(tmp_path / "chaotic"))
    assert not healed.failures
    assert healed.values() == clean.values()
    assert store_record_bytes(tmp_path / "chaotic") \
        == store_record_bytes(tmp_path / "clean")


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base_seed=st.integers(min_value=0, max_value=2**16),
       n_tasks=st.integers(min_value=4, max_value=10),
       n_keep=st.integers(min_value=1, max_value=3))
def test_resumed_campaign_replays_cached_values_bit_exactly(
        tmp_path_factory, store_record_bytes, interrupt_store,
        base_seed, n_tasks, n_keep):
    """Golden replay: cut a finished campaign's store back to its first
    ``n_keep`` records (what a kill mid-campaign leaves), rerun, and the
    completed campaign must be value-identical to the original — with
    the kept records served from cache, untouched on disk."""
    tmp_path = tmp_path_factory.mktemp("resume-replay")
    tasks = _sweep(n_tasks, base_seed).tasks()

    store = ResultStore(tmp_path / "cache")
    first = run_campaign(tasks, jobs=1, store=store)
    assert not first.failures

    interrupt_store(tmp_path / "cache", n_keep)
    kept = store_record_bytes(tmp_path / "cache")
    assert len(kept) == n_keep

    resumed = run_campaign(tasks, jobs=1, store=ResultStore(tmp_path / "cache"))
    assert not resumed.failures
    assert resumed.n_cached == n_keep
    assert resumed.values() == first.values()
    after = store_record_bytes(tmp_path / "cache")
    for key, payload in kept.items():
        assert after[key] == payload
