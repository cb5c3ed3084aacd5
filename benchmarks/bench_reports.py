"""Benchmark: the report subsystem's vectorized metric kernels.

The tentpole claims of the report pipeline, measured:

- **kernel-level speedup** — the full metric set of a 64-draw batched
  campaign (decay rate, wave fit, desync indices, runtime/idle summaries)
  extracted by the vectorized ``(B, P, S)`` kernels versus an equivalent
  per-draw loop over the single-run :mod:`repro.core` /
  :mod:`repro.analysis` functions, which are one-draw calls of the same
  batched code.  Asserted >= 5x, with every extracted value agreeing to
  1e-9 relative.
- **store-backed report latency** — a bundled report executed cold
  (engine dispatch) and then warm against the same result store.  The
  warm run must perform zero engine executions and beat the cold run's
  wall clock.
"""

import time

import numpy as np

from repro.analysis.desync import desync_onset, overlap_efficiency, skew_spread
from repro.core.decay import measure_decay
from repro.core.speed import measure_speed
from repro.reports import (
    MetricContext,
    compile_report,
    get_kernel,
    load_bundled_report,
    run_report,
)
from repro.runtime import ResultStore
from repro.scenarios import compile_scenario, load_bundled_scenario
from repro.scenarios.runner import prepare_scenario_run
from repro.sim import simulate_lockstep_batch

N_DRAWS = 64


def _build_batch():
    """64 draws of the Fig. 8 decay scenario as one batched timing stack."""
    spec = load_bundled_scenario("fig8_decay_rate").without_sweep()
    compiled = compile_scenario(spec)
    assert compiled.engine == "lockstep"
    prepared = [prepare_scenario_run(compiled, seed) for seed in range(N_DRAWS)]
    return compiled, simulate_lockstep_batch(
        compiled.cfg, np.stack([p.exec_times for p in prepared]),
        network=compiled.network, domain=compiled.domain,
        protocol=compiled.protocol, eager_limit=compiled.eager_limit,
        mapping=compiled.mapping,
    )


def _kernel_metrics(batch, ctx):
    # Clear the per-batch memo (threshold, wave front) so every timed
    # repetition pays the full extraction cost — sharing *within* one
    # report pass is legitimate, carrying it across passes would let the
    # benchmark time a cache hit instead of the kernels.
    batch._cache.clear()
    out = {}
    for name in ("runtime", "decay_rate", "desync", "idle_histogram",
                 "wave_speed"):
        out.update(get_kernel(name).compute(batch, ctx))
    return out


def _per_draw_metrics(batch, ctx):
    """The same quantities via the single-run functions, one draw at a time."""
    out = {key: np.empty(batch.n_batch) for key in (
        "total_runtime", "total_idle", "beta", "final_skew", "max_skew",
        "overlap_efficiency", "mean_idle", "measured_speed")}
    source = ctx.source
    for b in range(batch.n_batch):
        timing = batch[b]
        out["total_runtime"][b] = timing.total_runtime()
        out["total_idle"][b] = timing.total_idle()
        out["beta"][b] = measure_decay(
            timing, source, direction=+1, periodic=ctx.periodic).beta
        spread = skew_spread(timing)
        out["final_skew"][b] = spread[-1]
        out["max_skew"][b] = spread.max()
        desync_onset(timing)
        out["overlap_efficiency"][b] = overlap_efficiency(timing)
        positive = timing.idle[timing.idle > 0]
        out["mean_idle"][b] = positive.mean() if positive.size else 0.0
        try:
            out["measured_speed"][b] = measure_speed(
                timing, source, direction=+1, periodic=ctx.periodic).speed
        except ValueError:
            out["measured_speed"][b] = np.nan
    return out


def test_bench_report_kernels_vs_per_draw_loop(once, bench_record):
    """Vectorized kernels on a 64-draw campaign: >= 5x over the scalar loop."""
    compiled, batch = _build_batch()
    ctx = MetricContext(compiled=compiled)

    # Warm both paths, then time each over a few repetitions.
    vectorized = _kernel_metrics(batch, ctx)
    scalar = _per_draw_metrics(batch, ctx)

    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        _per_draw_metrics(batch, ctx)
    t_loop = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        _kernel_metrics(batch, ctx)
    t_kernel = (time.perf_counter() - t0) / reps

    once(_kernel_metrics, batch, ctx)  # record the kernels in the bench table

    speedup = t_loop / t_kernel
    print(f"\n{N_DRAWS}-draw metric extraction: per-draw {t_loop * 1e3:.1f} ms, "
          f"vectorized {t_kernel * 1e3:.1f} ms ({speedup:.1f}x)")
    bench_record(n_draws=N_DRAWS, t_per_draw_s=t_loop,
                 t_vectorized_s=t_kernel, speedup=speedup)

    # Correctness alongside speed: every field agrees with the scalar path.
    for kernel_field, scalar_field in (
            ("total_runtime", "total_runtime"), ("total_idle", "total_idle"),
            ("beta", "beta"), ("final_skew", "final_skew"),
            ("max_skew", "max_skew"),
            ("overlap_efficiency", "overlap_efficiency"),
            ("mean_idle", "mean_idle"), ("measured_speed", "measured_speed")):
        np.testing.assert_allclose(
            vectorized[kernel_field], scalar[scalar_field],
            rtol=1e-9, atol=0, equal_nan=True, err_msg=kernel_field,
        )
    assert speedup >= 5.0, f"kernel speedup {speedup:.2f}x < 5x"


def test_bench_report_store_backed_rerun(once, tmp_path, bench_record):
    """A warm report rerun loads everything by spec key: zero executions."""
    store = ResultStore(tmp_path / "store")
    report = compile_report(load_bundled_report("campaign_rate_response"))

    t0 = time.perf_counter()
    cold = run_report(report, store=store)
    t_cold = time.perf_counter() - t0
    assert cold.n_executed == cold.n_tasks and cold.n_loaded == 0

    warm = once(run_report, report, store=store)
    t0 = time.perf_counter()
    warm2 = run_report(report, store=store)
    warm_elapsed = time.perf_counter() - t0

    for result in (warm, warm2):
        assert result.n_executed == 0
        assert result.n_loaded == result.n_tasks
        assert [r.values for r in result.rows] == [r.values for r in cold.rows]

    print(f"\nreport {report.spec.name}: cold {t_cold * 1e3:.1f} ms "
          f"({cold.n_executed} executed) vs warm {warm_elapsed * 1e3:.1f} ms "
          f"(0 executed)")
    bench_record(n_tasks=cold.n_tasks, t_cold_s=t_cold, t_warm_s=warm_elapsed,
                 speedup=t_cold / max(warm_elapsed, 1e-9))
    assert warm_elapsed < t_cold
