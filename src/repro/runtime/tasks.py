"""Reference campaign task functions.

Campaign tasks must be *importable top-level functions* (referenced by
``"module:function"`` path in a :class:`~repro.runtime.spec.RunSpec`) so
that worker processes can resolve them under any multiprocessing start
method.  This module holds the stock simulation tasks the experiment
drivers and the runtime benchmarks share; they double as templates for
new campaign workloads.

Contract for any campaign task:

- accept only plain-data keyword arguments (scalars / lists / dicts);
- accept a ``seed`` keyword when randomness is involved and derive
  *all* randomness from it (``numpy.random.default_rng(seed)``);
- return a mapping of named result fields (JSON-able scalars/lists or
  numpy arrays) — that mapping is what the result store persists.
"""

from __future__ import annotations

import numpy as np

from repro.sim import CommPattern, Direction, LockstepConfig, simulate_lockstep
from repro.sim.campaign import DelayCampaign

__all__ = ["lockstep_delay_task", "ring_runtime"]


def ring_runtime(n_ranks, n_steps, t_exec, msg_size, delays, sim_seed) -> float:
    """Total runtime of one lockstep run on the canonical campaign ring.

    The shared geometry of the delay-campaign studies — a periodic
    bidirectional distance-1 ring — lives here so that the experiment
    drivers (``repro.experiments.ext_campaign``) and the runtime
    benchmarks exercise one and the same configuration.
    """
    cfg = LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=t_exec, msg_size=msg_size,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                            periodic=True),
        delays=tuple(delays),
        seed=sim_seed,
    )
    return simulate_lockstep(cfg).total_runtime()


def lockstep_delay_task(
    n_ranks: int,
    n_steps: int,
    t_exec: float,
    msg_size: int,
    rate: float,
    duration_low: float,
    duration_high: float,
    replicate: int = 0,
    reps: int = 1,
    seed: int = 0,
) -> dict:
    """Simulate ``reps`` lockstep runs under a random delay campaign.

    The canonical compute-bound campaign unit: draw a Poisson delay
    schedule (:class:`~repro.sim.campaign.DelayCampaign`), run the
    vectorized lockstep engine on a periodic bidirectional ring, and
    report runtime plus injected-delay accounting.  ``replicate`` only
    distinguishes otherwise-identical grid points (the seed varies with
    it through the sweep's task index); ``reps`` repeats the
    draw+simulate cycle in-process to fatten the task for benchmarking.
    """
    rng = np.random.default_rng(seed)
    campaign = DelayCampaign(rate=rate, duration_low=duration_low,
                             duration_high=duration_high)
    runtimes, injected_totals, n_delays = [], [], 0
    for _ in range(max(int(reps), 1)):
        delays = campaign.draw(n_ranks, n_steps, rng)
        runtimes.append(ring_runtime(n_ranks, n_steps, t_exec, msg_size,
                                     delays, seed))
        injected_totals.append(float(sum(d.duration for d in delays)))
        n_delays += len(delays)
    return {
        "runtime": float(np.mean(runtimes)),
        "runtimes": [float(r) for r in runtimes],
        "injected": float(np.mean(injected_totals)),
        "n_delays": n_delays,
        "replicate": int(replicate),
    }
