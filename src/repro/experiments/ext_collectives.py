"""Extension experiment: idle waves under collective communication.

The paper's outlook (Sec. VII) proposes extending the idle-wave speed model
to collectives.  This experiment quantifies the qualitative break: with a
logarithmic collective schedule (dissemination barrier, recursive-doubling
allreduce) a one-off delay couples the *entire* communicator within one
bulk-synchronous step — the disturbance spreads exponentially through the
rounds instead of rippling linearly at σ·d/(T_exec+T_comm).

Measured quantities per algorithm:

- the number of ranks idled in the injection step (reach after one step),
- the per-step cost of the collective (for the runtime impact),
- the total excess runtime vs. an undelayed run (the delay's footprint is
  ~the full delay for every synchronizing collective — noise cannot hide
  it behind other ranks' schedules the way it can for point-to-point
  chains).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.sim import DelaySpec, SimConfig, UniformNetwork, simulate_dag
from repro.sim.collectives import Collective, CollectiveConfig, build_collective_program
from repro.viz.tables import format_table

__all__ = ["run", "run_collective"]

T_EXEC = 3e-3
N_RANKS = 16
N_STEPS = 8
SOURCE = 5
DELAY = 4 * T_EXEC


def run_collective(collective: Collective, delays=(), seed: int = 0,
                   n_ranks: int = N_RANKS, n_steps: int = N_STEPS):
    """Simulate one collective configuration; returns its timing
    (collectives are not lockstep-shaped, and no per-op record is built)."""
    cfg = CollectiveConfig(
        n_ranks=n_ranks, n_steps=n_steps, collective=collective,
        t_exec=T_EXEC, msg_size=8192, delays=tuple(delays), seed=seed,
    )
    return simulate_dag(build_collective_program(cfg),
                        SimConfig(network=UniformNetwork()))


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Compare delay spreading across collective algorithms."""
    delay = (DelaySpec(rank=SOURCE, step=1, duration=DELAY),)
    rows = []
    data = {}
    for coll in Collective:
        base = run_collective(coll, seed=seed)
        delayed = run_collective(coll, delays=delay, seed=seed)

        idle_delta = delayed.idle - base.idle
        # Ranks whose injection-step idle grew by a significant fraction of
        # the delay: the one-step reach of the disturbance.
        reach = int((idle_delta[:, 1] > 0.5 * DELAY).sum())
        step_cost = float(base.completion[:, 1].max() - base.completion[:, 0].max())
        excess = delayed.total_runtime() - base.total_runtime()
        rows.append(
            (coll.value, reach, N_RANKS - 1, step_cost * 1e3, excess * 1e3)
        )
        data[coll.value] = {
            "reach_one_step": reach,
            "step_cost": step_cost,
            "excess": excess,
        }

    table = format_table(
        ["collective", "ranks idled in injection step", "max possible",
         "step cost [ms]", "excess runtime [ms]"],
        rows,
    )
    notes = [
        "Logarithmic schedules (barrier, recursive doubling) couple all "
        "other ranks within the injection step: exponential spreading, not "
        "the linear sigma*d/(T_exec+T_comm) front of point-to-point chains.",
        "Every synchronizing collective passes the delay's full length into "
        "the runtime (excess ~= injected delay) — there is no propagation "
        "distance over which noise could absorb the wave.",
        f"Injected delay: {DELAY * 1e3:.0f} ms at rank {SOURCE}, step 1.",
    ]
    return ExperimentResult(
        name="ext_collectives",
        title="Extension: delay spreading under collective communication",
        tables={"spreading": table},
        data=data,
        notes=notes,
    )
