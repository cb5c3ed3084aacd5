"""Benchmark: the parallel campaign runtime itself.

Measures the two properties the subsystem exists for, on a 32-run
lockstep delay campaign (``repro.runtime.tasks.lockstep_delay_task``):

- **parallel speedup** — the same campaign sharded over 4 worker
  processes vs. executed serially.  The wall-clock ratio is printed
  always and asserted (>= 2x) only when the machine actually has >= 4
  CPUs; either way both backends must produce bit-identical values.
- **cache-hit latency** — a warm-cache rerun must complete without a
  single engine invocation (asserted via an in-process call counter)
  and in a small fraction of the cold time.
"""

import os
import time

import pytest

import repro.runtime.tasks as tasks_mod
from repro.runtime import ResultStore, SweepSpec, run_campaign

N_RUNS = 32

SWEEP = SweepSpec(
    fn="repro.runtime.tasks:lockstep_delay_task",
    base={
        "n_ranks": 60, "n_steps": 60, "t_exec": 3e-3, "msg_size": 8192,
        "rate": 0.01, "duration_low": 6e-3, "duration_high": 24e-3,
        "reps": 10,
    },
    axes=(("replicate", tuple(range(N_RUNS))),),
    base_seed=0,
)


def test_bench_runtime_parallel_speedup(once, bench_record):
    tasks = SWEEP.tasks()

    def compare():
        t0 = time.perf_counter()
        serial = run_campaign(tasks, jobs=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        sharded = run_campaign(tasks, jobs=4)
        t_sharded = time.perf_counter() - t0
        return serial, sharded, t_serial, t_sharded

    serial, sharded, t_serial, t_sharded = once(compare)
    print(f"\nserial {t_serial:.2f}s vs 4 jobs {t_sharded:.2f}s "
          f"(speedup {t_serial / t_sharded:.2f}x on {os.cpu_count()} CPUs)")
    bench_record(n_runs=N_RUNS, jobs=4, cpus=os.cpu_count(),
                 t_serial_s=t_serial, t_sharded_s=t_sharded,
                 speedup=t_serial / t_sharded)

    assert not serial.failures and not sharded.failures
    # Sharding must never change values: bit-identical campaign results.
    assert serial.values() == sharded.values()
    if (os.cpu_count() or 1) >= 4:
        assert t_serial / t_sharded >= 2.0
    else:
        pytest.skip(f"speedup assertion needs >= 4 CPUs, have {os.cpu_count()}")


def test_bench_runtime_cache_hit(once, tmp_path, monkeypatch, bench_record):
    store = ResultStore(tmp_path / "store")
    tasks = SWEEP.tasks()

    calls = {"n": 0}
    real_simulate = tasks_mod.simulate_lockstep

    def counting_simulate(*args, **kwargs):
        calls["n"] += 1
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(tasks_mod, "simulate_lockstep", counting_simulate)

    t0 = time.perf_counter()
    cold = run_campaign(tasks, jobs=1, store=store)
    t_cold = time.perf_counter() - t0
    assert not cold.failures
    calls_cold = calls["n"]
    assert calls_cold > 0

    warm = once(run_campaign, tasks, jobs=1, store=store)
    t_warm = warm.elapsed
    print(f"\ncold {t_cold:.2f}s ({calls_cold} engine calls) vs "
          f"warm {t_warm * 1e3:.1f}ms ({calls['n'] - calls_cold} engine calls)")
    bench_record(n_runs=N_RUNS, t_cold_s=t_cold, t_warm_s=t_warm,
                 speedup=t_cold / max(t_warm, 1e-9),
                 engine_calls_cold=calls_cold,
                 engine_calls_warm=calls["n"] - calls_cold)

    # Zero engine invocations on the warm rerun, and identical values.
    assert calls["n"] == calls_cold
    assert warm.n_cached == len(tasks) and warm.n_executed == 0
    assert warm.values() == cold.values()
    assert t_warm < t_cold / 2
