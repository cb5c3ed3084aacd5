#!/usr/bin/env python
"""Quickstart: inject a delay, watch the idle wave, check Eq. 2.

This is the paper's Fig. 4 scenario in ~30 lines of public API:
a bulk-synchronous MPI program (3 ms compute phases, 8 KiB eager
messages, unidirectional ring of 18 ranks), a one-off delay of 4.5
execution phases injected at rank 5, and the resulting idle wave
rippling up the chain at the analytic speed sigma*d/(T_exec+T_comm).

Run:  python examples/quickstart.py
"""

import repro

T_EXEC = 3e-3  # 3 ms execution phases (the paper's standard)

cfg = repro.LockstepConfig(
    n_ranks=18,
    n_steps=20,
    t_exec=T_EXEC,
    msg_size=8192,
    pattern=repro.CommPattern(
        direction=repro.Direction.UNIDIRECTIONAL, distance=1, periodic=False
    ),
    delays=(repro.DelaySpec(rank=5, step=0, duration=4.5 * T_EXEC),),
)

# Simulate with the exact DAG engine (simulate_lockstep is the fast path)
# and read the trace's per-(rank, step) timing matrices.
trace = repro.simulate(repro.build_lockstep_program(cfg), repro.SimConfig())
run = repro.RunTiming.from_trace(trace)

# --- visualize ---------------------------------------------------------
from repro.viz import render_timeline

print("Rank/time diagram ('.'=exec, 'D'=injected delay, '#'=idle):\n")
print(render_timeline(run, width=90))

# --- measure the wave --------------------------------------------------
measurement = repro.measure_speed(run, source=5)
t_comm = repro.UniformNetwork().total_pingpong_time(cfg.msg_size, repro.CommDomain.INTER_NODE)
v_model = repro.silent_speed(T_EXEC, t_comm, d=1)

print(f"\nmeasured wave speed : {measurement.speed:8.1f} ranks/s")
print(f"Eq. 2 prediction    : {v_model:8.1f} ranks/s")
print(f"relative error      : {abs(measurement.speed - v_model) / v_model:8.2%}")

front = repro.wave_front(run, source=5)
print(f"\nwave reached {front.reach} ranks; "
      f"amplitude stayed at {front.amplitudes.mean() * 1e3:.1f} ms "
      "(no decay on a noise-free system)")
