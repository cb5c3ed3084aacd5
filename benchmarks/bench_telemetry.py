"""Benchmark: telemetry overhead on the hot engine path.

The telemetry layer's contract is that it is cheap enough to leave on:
a profiled run (``--profile``) must cost **< 2%** over an unprofiled one
on the heaviest engine path we have — a 64-draw batched forced-DAG
campaign propagation, which exercises the ``engine.dag.propagate`` span,
the ``dag.cache.*`` counters, and the span machinery around the batched
sweep.  The disabled path must be indistinguishable from no
instrumentation at all (a module-global ``None`` check).

Both sides are timed as a min over repetitions: the minimum is the
noise-robust estimator for a deterministic workload (anything above the
minimum is scheduler/allocator interference, not the code under test).
"""

import time

import numpy as np

from repro import telemetry
from repro.scenarios import compile_scenario, load_bundled_scenario
from repro.scenarios.runner import prepare_scenario_run
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.sim import simulate_dag_batch

N_DRAWS = 64
MAX_OVERHEAD = 0.02


def _forced_dag_campaign():
    doc = load_bundled_scenario(
        "meggie_bimodal_rendezvous_campaign").without_sweep().to_dict()
    doc = apply_overrides(doc, {"n_ranks": 32, "n_steps": 25})
    return compile_scenario(ScenarioSpec.from_dict(doc), engine="dag")


def _min_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_telemetry_overhead_enabled(once, bench_record):
    """Enabled telemetry costs < 2% on a 64-draw batched DAG campaign."""
    compiled = _forced_dag_campaign()
    config = compiled.sim_config()
    prepared = [prepare_scenario_run(compiled, seed) for seed in range(N_DRAWS)]
    stacked = np.stack([p.exec_times for p in prepared])

    def workload():
        return simulate_dag_batch(compiled.cfg, stacked, config)

    # Warm every cache (DAG structure, numpy buffers) before timing.
    reference = workload()
    assert not telemetry.enabled()

    reps = 7
    t_off = _min_of(workload, reps)
    telemetry.enable()
    try:
        t_on = _min_of(workload, reps)
        profiled = workload()
        rec = telemetry.current_recorder()
        # The profiled run must actually have recorded the hot path...
        assert any(s[2] == "engine.dag.propagate" for s in rec.iter_spans())
        assert rec.counters.get("dag.cache.hits", 0) > 0
    finally:
        telemetry.disable()
    # ...without perturbing results.
    for b in range(N_DRAWS):
        assert np.array_equal(profiled[b].completion, reference[b].completion)

    once(workload)

    overhead = t_on / t_off - 1.0
    # Recorded as a guarded ratio so `repro perf check` gates it with the
    # same floor machinery as the engine speedups: the "speedup" is the
    # off/on ratio, >= ~0.98 when the overhead contract holds.
    bench_record(n_draws=N_DRAWS, t_disabled_s=t_off, t_enabled_s=t_on,
                 overhead_fraction=overhead, speedup=t_off / t_on)
    print(f"\ntelemetry overhead: disabled {t_off * 1e3:.2f} ms, enabled "
          f"{t_on * 1e3:.2f} ms ({overhead * 100:+.2f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%}"
    )


def test_bench_telemetry_disabled_span_cost(bench_record):
    """A disabled span site is a dict-free no-op: < 1 µs per crossing."""
    assert not telemetry.enabled()
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with telemetry.span("bench.noop"):
            pass
        telemetry.count("bench.noop")
    per_site = (time.perf_counter() - t0) / n
    bench_record(n_crossings=n, t_per_crossing_s=per_site)
    print(f"\ndisabled span+counter crossing: {per_site * 1e9:.0f} ns")
    assert per_site < 1e-6, f"disabled telemetry costs {per_site * 1e9:.0f} ns"
