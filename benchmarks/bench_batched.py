"""Benchmark: batched lockstep execution of delay-campaign draws.

The tentpole claims of the batched engine path, measured:

- **engine-level speedup** — a 64-draw Poisson campaign
  (``campaign_rate_sweep``'s base point) simulated as one
  ``[64, P, S]`` batched recurrence versus 64 per-draw engine
  invocations.  Asserted >= 3x; the batch amortizes the Python-level
  per-step loop across all draws, so it is typically far higher.
- **sweep-level speedup and bit-identity** — the full scenario sweep
  through the campaign runtime with and without the batcher.  The batched
  campaign must return byte-identical per-task values (the property that
  keeps the content-addressed cache coherent) while running faster.
- **hierarchy dispatch win** — the previously DAG-bound ``machine.ppn``
  scenario on its new lockstep path versus the forced DAG reference.
"""

import time

import numpy as np

from repro.runtime import run_campaign
from repro.scenarios import (
    ScenarioTaskBatcher,
    compile_scenario,
    load_bundled_scenario,
    run_scenario,
    run_scenario_batch,
    scenario_sweep_spec,
)
from repro.scenarios.runner import prepare_scenario_run
from repro.sim import simulate_lockstep, simulate_lockstep_batch

N_DRAWS = 64


def test_bench_batched_engine_speedup_64_draw_campaign(once, bench_record):
    """One batched call vs 64 per-draw engine invocations, >= 3x."""
    spec = load_bundled_scenario("campaign_rate_sweep").without_sweep()
    compiled = compile_scenario(spec)
    assert compiled.engine == "lockstep"
    prepared = [prepare_scenario_run(compiled, seed) for seed in range(N_DRAWS)]
    stacked = np.stack([p.exec_times for p in prepared])

    def per_draw():
        return [
            simulate_lockstep(
                p.cfg, exec_times=p.exec_times, network=compiled.network,
                domain=compiled.domain, protocol=compiled.protocol,
                eager_limit=compiled.eager_limit, mapping=compiled.mapping,
            )
            for p in prepared
        ]

    def batched():
        return simulate_lockstep_batch(
            compiled.cfg, stacked, network=compiled.network,
            domain=compiled.domain, protocol=compiled.protocol,
            eager_limit=compiled.eager_limit, mapping=compiled.mapping,
        )

    # Warm both paths, then time each over a few repetitions.
    serial_results = per_draw()
    batch_result = batched()

    reps = 5
    t0 = time.perf_counter()
    for _ in range(reps):
        per_draw()
    t_serial = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        batched()
    t_batched = (time.perf_counter() - t0) / reps

    once(batched)  # record the batched path in the benchmark table

    speedup = t_serial / t_batched
    print(f"\n{N_DRAWS}-draw campaign: per-draw {t_serial * 1e3:.1f} ms, "
          f"batched {t_batched * 1e3:.1f} ms ({speedup:.1f}x)")
    bench_record(n_draws=N_DRAWS, t_per_draw_s=t_serial,
                 t_batched_s=t_batched, speedup=speedup)

    # Correctness alongside speed: slices are bit-identical to the draws.
    for b, serial in enumerate(serial_results):
        assert np.array_equal(batch_result[b].completion, serial.completion)
    assert speedup >= 3.0, f"batched speedup {speedup:.2f}x < 3x"


def test_bench_batched_sweep_bit_identity_and_speedup(once, bench_record):
    """The sweep's campaign with the batcher: same bytes, less wall clock."""
    tasks = scenario_sweep_spec(
        load_bundled_scenario("campaign_rate_sweep")).tasks()

    def run(batch: bool):
        return run_campaign(tasks, jobs=1,
                            batcher=ScenarioTaskBatcher() if batch else None)

    unbatched = run(batch=False)
    batched = run(batch=True)
    assert batched.values() == unbatched.values()

    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        run(batch=False)
    t_serial = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        run(batch=True)
    t_batched = (time.perf_counter() - t0) / reps

    once(run, True)
    print(f"\nsweep ({len(batched)} tasks): unbatched "
          f"{t_serial * 1e3:.1f} ms, batched {t_batched * 1e3:.1f} ms "
          f"({t_serial / t_batched:.1f}x)")
    bench_record(n_tasks=len(batched), t_unbatched_s=t_serial,
                 t_batched_s=t_batched, speedup=t_serial / t_batched)
    assert t_batched < t_serial


def test_bench_hierarchical_lockstep_vs_dag(once, bench_record):
    """The two-tier scenario's lockstep dispatch vs the DAG reference."""
    spec = load_bundled_scenario("emmy_mapped_dag")

    def both():
        t0 = time.perf_counter()
        fast = run_scenario(spec)  # auto -> hierarchy-aware lockstep
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow = run_scenario(spec, engine="dag")
        t_slow = time.perf_counter() - t0
        return fast, slow, t_fast, t_slow

    fast, slow, t_fast, t_slow = once(both)
    assert fast.compiled.engine == "lockstep"
    assert slow.compiled.engine == "dag"
    np.testing.assert_allclose(
        fast.timing.completion, slow.timing.completion, rtol=1e-9, atol=0,
    )
    print(f"\nhierarchical: lockstep {t_fast * 1e3:.1f} ms vs DAG "
          f"{t_slow * 1e3:.1f} ms ({t_slow / max(t_fast, 1e-9):.1f}x)")
    bench_record(t_lockstep_s=t_fast, t_dag_s=t_slow,
                 speedup=t_slow / max(t_fast, 1e-9))


def test_bench_batched_hierarchical_campaign(once):
    """Batching composes with hierarchy: B draws of the ppn scenario."""
    spec = load_bundled_scenario("emmy_mapped_dag")
    compiled = compile_scenario(spec)
    seeds = list(range(16))

    def batched():
        return run_scenario_batch(compiled, seeds)

    runs = once(batched)
    assert len(runs) == len(seeds)
    reference = run_scenario(compiled, seed=seeds[3])
    assert np.array_equal(runs[3].timing.completion,
                          reference.timing.completion)
