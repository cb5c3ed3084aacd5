#!/usr/bin/env python
"""Collectives change everything: exponential delay spreading.

The paper's outlook (Sec. VII) asks how idle waves behave under collective
communication.  This example contrasts a point-to-point ring against a
dissemination barrier: the same 12 ms delay ripples rank-by-rank through
the ring, but couples the *entire* communicator within a single step of
the barrier program.

Run:  python examples/collective_waves.py
"""

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    SimConfig,
    UniformNetwork,
    simulate_dag,
    build_lockstep_program,
)
from repro.sim.collectives import Collective, CollectiveConfig, build_collective_program
from repro.viz import render_idle_heatmap

T_EXEC = 3e-3
N_RANKS, N_STEPS = 16, 8
DELAY = DelaySpec(rank=5, step=1, duration=4 * T_EXEC)
NET = UniformNetwork()

# --- point-to-point ring ------------------------------------------------
ring_cfg = LockstepConfig(
    n_ranks=N_RANKS, n_steps=N_STEPS, t_exec=T_EXEC, msg_size=8192,
    pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True),
    delays=(DELAY,),
)
ring = simulate_dag(build_lockstep_program(ring_cfg), SimConfig(network=NET))

print("Point-to-point ring: the idle wave ripples outward (1 rank/phase/side)\n")
print(render_idle_heatmap(ring))

# --- dissemination barrier ----------------------------------------------
barrier_cfg = CollectiveConfig(
    n_ranks=N_RANKS, n_steps=N_STEPS, collective=Collective.BARRIER,
    t_exec=T_EXEC, msg_size=8192, delays=(DELAY,),
)
barrier = simulate_dag(build_collective_program(barrier_cfg), SimConfig(network=NET))

print("\nDissemination barrier: everyone is idled within the injection step\n")
print(render_idle_heatmap(barrier))

idle_ring = ring.idle
idle_barrier = barrier.idle
print(f"\nranks idled > half the delay at the injection step:")
print(f"  ring    : {(idle_ring[:, 1] > 0.5 * DELAY.duration).sum()} of {N_RANKS}")
print(f"  barrier : {(idle_barrier[:, 1] > 0.5 * DELAY.duration).sum()} of {N_RANKS}")
print("\nLogarithmic collective schedules spread a delay exponentially —")
print("Eq. 2's linear front does not apply (paper Sec. VII outlook).")
