"""Benchmark: worker-health plumbing overhead on the pool backend.

The health layer (per-unit ``/proc`` resource samples recorded into
each worker's telemetry snapshot) runs on every observed pool campaign,
so it inherits the obs-layer contract: cheap enough to leave on.
Measured on a 128-draw batched DAG campaign over two pool workers, a
fully watched run (recorder + renderer + health samples + the ledger
record) must cost **< 2%** over an unwatched one — both sides timed as
a min over *interleaved* repetitions, pool startup excluded from
neither (the comparison is like-for-like).  Pool scheduling carries an irreducible
few-millisecond jitter even under min-of-reps, so the in-test assert
allows a small absolute noise floor on top of the 2% — the committed
``speedup`` ratio in ``baselines/BENCH_health.json`` is the durable
cross-run gate.

The component cost is gated separately so a regression names its
culprit: one :func:`sample_resources` call must stay under 200 µs.
"""

import io
import time

from repro import telemetry
from repro.obs.health import sample_resources
from repro.obs.ledger import RunTracker
from repro.obs.progress import ProgressRenderer
from repro.runtime import run_campaign
from repro.scenarios import (
    ScenarioTaskBatcher,
    load_bundled_scenario,
    scenario_sweep_spec,
)
from repro.scenarios.spec import ScenarioSpec, apply_overrides

N_DRAWS = 128
JOBS = 2
MAX_OVERHEAD = 0.02

#: Absolute pool-scheduling jitter tolerated on top of the 2% bound:
#: two process pools never time identically to the millisecond, and a
#: ratio-only assert on a sub-second workload flakes on that noise.
NOISE_FLOOR_S = 0.010


def _forced_dag_tasks():
    doc = load_bundled_scenario(
        "meggie_bimodal_rendezvous_campaign").without_sweep().to_dict()
    doc = apply_overrides(doc, {"n_ranks": 32, "n_steps": 25})
    doc["sweep"] = {"replicates": N_DRAWS}
    return scenario_sweep_spec(
        ScenarioSpec.from_dict(doc), engine="dag").tasks()


def _interleaved_mins(fn_a, fn_b, reps: int) -> "tuple[float, float]":
    """Min wall time of each callable over alternating repetitions.

    Alternating A/B (instead of timing all of A, then all of B) makes a
    transient system-wide slowdown hit both sides instead of biasing
    whichever happened to run during it — the overhead ratio is what is
    asserted, so the comparison must be like-for-like in time as well
    as in work.
    """
    best_a = best_b = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_bench_health_watched_pool_overhead(once, bench_record):
    """A watched 128-draw pool campaign (health samples) costs < 2%."""
    tasks = _forced_dag_tasks()

    def plain():
        return run_campaign(tasks, jobs=JOBS, batcher=ScenarioTaskBatcher())

    def watched():
        rec = telemetry.enable()
        renderer = ProgressRenderer(stream=io.StringIO())
        rec.subscribe(renderer.handle)
        rec.emit("run.start", kind="scenario.sweep", name="bench_health",
                 n_tasks=len(tasks))
        try:
            return run_campaign(tasks, jobs=JOBS,
                                batcher=ScenarioTaskBatcher())
        finally:
            rec.emit("run.finish", status="ok")
            telemetry.disable()
            RunTracker().record(
                rec.snapshot(), run_id="bench_health", status="ok",
                kind="scenario.sweep", name="bench_health", wall_s=0.0,
                started_unix=0.0, finished_unix=0.0)

    # Warm every cache (DAG structure, numpy buffers, fork machinery).
    reference = plain()
    assert not telemetry.enabled()

    reps = 9
    t_off, t_on = _interleaved_mins(plain, watched, reps)

    observed = watched()
    assert observed.values() == reference.values()  # observation is pure
    assert not telemetry.enabled()

    once(plain)

    overhead = t_on / t_off - 1.0
    # Guarded as an off/on ratio so `repro perf check` gates it alongside
    # the engine speedups: >= ~0.98 while the contract holds.
    bench_record(n_draws=N_DRAWS, jobs=JOBS, t_unwatched_s=t_off,
                 t_watched_s=t_on, overhead_fraction=overhead,
                 speedup=t_off / t_on)
    print(f"\nhealth overhead: unwatched {t_off * 1e3:.2f} ms, watched "
          f"{t_on * 1e3:.2f} ms ({overhead * 100:+.2f}%)")
    assert overhead < MAX_OVERHEAD or (t_on - t_off) < NOISE_FLOOR_S, (
        f"watched-pool overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%} "
        f"(and {t_on - t_off:.3f}s > the {NOISE_FLOOR_S:.3f}s noise floor)"
    )


def test_bench_health_sample_cost(bench_record):
    """One resource sample (two /proc reads) stays under 200 µs."""
    sample_resources()  # warm the code path
    n = 500
    t0 = time.perf_counter()
    for _ in range(n):
        sample = sample_resources()
    per_sample = (time.perf_counter() - t0) / n
    assert sample["rss_bytes"] > 0
    bench_record(n_samples=n, t_per_sample_s=per_sample)
    print(f"\nresource sample: {per_sample * 1e6:.1f} us")
    assert per_sample < 200e-6, (
        f"sample_resources costs {per_sample * 1e6:.0f} us"
    )
