"""Hybrid MPI/OpenMP proxy (paper outlook, Sec. VII).

The paper's conclusion proposes comparing "pure MPI and hybrid MPI/OpenMP
code since the latter tends to enforce frequent thread synchronization,
lessening the potential for inter-process skew".  This module models that
contrast on the lockstep simulator:

- **pure MPI**: every core is a rank; each rank draws its own noise.
- **hybrid**: cores are grouped into multi-threaded processes.  One MPI
  rank per group communicates; the group's execution phase ends only when
  *all* its threads have finished (an implicit OpenMP barrier at the end
  of every parallel region), so the group's effective per-phase noise is
  the **maximum** over its threads — larger per phase, but there are fewer
  independently-skewing endpoints.

:func:`hybrid_exec_times` produces the per-rank execution matrix for the
hybrid case; the communication side is just a lockstep program over the
(fewer) process ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.delay import DelaySpec
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.program import CommPattern, LockstepConfig

__all__ = ["HybridConfig", "hybrid_exec_times", "hybrid_lockstep_config"]


@dataclass(frozen=True)
class HybridConfig:
    """A hybrid MPI/OpenMP run: ``n_processes`` ranks × ``threads`` each.

    Parameters
    ----------
    n_processes:
        MPI ranks (one per thread group).
    threads:
        OpenMP threads per rank; 1 reduces to pure MPI.
    n_steps / t_exec / msg_size / pattern / noise / delays / seed:
        As in :class:`~repro.sim.program.LockstepConfig`; noise is drawn
        *per thread* and reduced with a max over each group (the implicit
        barrier at the end of a parallel region).
    """

    n_processes: int
    threads: int
    n_steps: int
    t_exec: float = 3e-3
    msg_size: int = 8192
    pattern: CommPattern = field(default_factory=CommPattern)
    noise: NoiseModel = field(default_factory=NoNoise)
    delays: tuple[DelaySpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_processes < 2:
            raise ValueError(f"n_processes must be >= 2, got {self.n_processes}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.t_exec <= 0:
            raise ValueError(f"t_exec must be > 0, got {self.t_exec}")
        for spec in self.delays:
            if spec.rank >= self.n_processes or spec.step >= self.n_steps:
                raise ValueError(f"delay {spec} outside the configured run")


def hybrid_exec_times(cfg: HybridConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-process execution times with the thread-barrier max reduction.

    Each of the ``threads`` threads of a process draws its own per-phase
    noise; the process's phase ends at the *slowest* thread (implicit
    barrier).  Injected delays hit one thread of the target process, which
    under the max reduction extends the whole process's phase — exactly how
    a serial disturbance inside a parallel region behaves.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    per_thread = cfg.noise.sample(rng, (cfg.n_processes, cfg.threads, cfg.n_steps))
    group_noise = per_thread.max(axis=1)
    times = np.full((cfg.n_processes, cfg.n_steps), cfg.t_exec) + group_noise
    for spec in cfg.delays:
        times[spec.rank, spec.step] += spec.duration
    return times


def hybrid_lockstep_config(cfg: HybridConfig) -> LockstepConfig:
    """The communication-side lockstep config over the process ranks."""
    return LockstepConfig(
        n_ranks=cfg.n_processes,
        n_steps=cfg.n_steps,
        t_exec=cfg.t_exec,
        msg_size=cfg.msg_size,
        pattern=cfg.pattern,
        delays=cfg.delays,
        seed=cfg.seed,
    )
