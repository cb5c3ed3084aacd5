"""Benchmark: live-observability overhead on the campaign runtime.

The obs layer's contract mirrors telemetry's: watching a run must be
cheap enough to leave on.  Measured on the heaviest batched path we
have — a 64-draw batched forced-DAG campaign through ``run_campaign``
— a fully observed run (recorder + run tracker + progress renderer at
its production 10 Hz throttle, exactly what ``--progress`` attaches)
must cost **< 2%** over an unobserved one.  The disabled ``emit()``
site must be a sub-microsecond module-global ``None`` check.

Both sides are timed as a min over repetitions (the noise-robust
estimator for a deterministic workload), and the observed run's values
are asserted equal to the plain run's — observation is pure.
"""

import io
import time

from repro import telemetry
from repro.obs.ledger import RunTracker
from repro.obs.progress import ProgressRenderer
from repro.runtime import run_campaign
from repro.scenarios import (
    ScenarioTaskBatcher,
    load_bundled_scenario,
    scenario_sweep_spec,
)
from repro.scenarios.spec import ScenarioSpec, apply_overrides

N_DRAWS = 64
MAX_OVERHEAD = 0.02


def _forced_dag_tasks():
    doc = load_bundled_scenario(
        "meggie_bimodal_rendezvous_campaign").without_sweep().to_dict()
    doc = apply_overrides(doc, {"n_ranks": 32, "n_steps": 25})
    doc["sweep"] = {"replicates": N_DRAWS}
    return scenario_sweep_spec(
        ScenarioSpec.from_dict(doc), engine="dag").tasks()


def _min_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_obs_overhead_live_progress(once, bench_record):
    """A watched 64-draw batched DAG campaign costs < 2%."""
    tasks = _forced_dag_tasks()

    def plain():
        return run_campaign(tasks, jobs=1, batcher=ScenarioTaskBatcher())

    def observed():
        rec = telemetry.enable()
        tracker = RunTracker()
        rec.subscribe(tracker.handle)
        renderer = ProgressRenderer(stream=io.StringIO())
        rec.subscribe(renderer.handle)
        rec.emit("run.start", kind="scenario.sweep", name="bench_obs",
                 n_tasks=len(tasks))
        try:
            return run_campaign(tasks, jobs=1,
                                batcher=ScenarioTaskBatcher())
        finally:
            rec.emit("run.finish", status="ok")
            telemetry.disable()

    # Warm every cache (DAG structure, numpy buffers) before timing.
    reference = plain()
    assert not telemetry.enabled()

    reps = 7
    t_off = _min_of(plain, reps)
    t_on = _min_of(observed, reps)

    watched = observed()
    assert watched.values() == reference.values()  # observation is pure
    assert not telemetry.enabled()

    once(plain)

    overhead = t_on / t_off - 1.0
    # Recorded as a guarded ratio so `repro perf check` gates it with the
    # same floor machinery as the engine speedups: the "speedup" is the
    # off/on ratio, >= ~0.98 when the overhead contract holds.
    bench_record(n_draws=N_DRAWS, t_unobserved_s=t_off, t_observed_s=t_on,
                 overhead_fraction=overhead, speedup=t_off / t_on)
    print(f"\nobs overhead: unobserved {t_off * 1e3:.2f} ms, observed "
          f"{t_on * 1e3:.2f} ms ({overhead * 100:+.2f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"live-progress overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%}"
    )


def test_bench_obs_disabled_emit_cost(bench_record):
    """A disabled emit site is one global None check: < 1 µs."""
    assert not telemetry.enabled()
    n = 100_000
    t0 = time.perf_counter()
    for i in range(n):
        telemetry.emit("bench.noop", index=i)
    per_site = (time.perf_counter() - t0) / n
    bench_record(n_emits=n, t_per_emit_s=per_site)
    print(f"\ndisabled emit crossing: {per_site * 1e9:.0f} ns")
    assert per_site < 1e-6, f"disabled emit costs {per_site * 1e9:.0f} ns"
