"""Collective communication patterns (paper outlook, Sec. VII).

The paper's conclusion names its Eq. 2 speed model "a starting point for
the investigation of collective communication primitives".  This module
takes that step on the simulator: bulk-synchronous programs whose
communication phase is a *collective* implemented from the classic
point-to-point round schedules:

- **dissemination barrier** (Hensgen/Finkel/Manber): round ``k`` sends to
  ``(i + 2^k) mod P`` — ceil(log2 P) rounds, works for any P;
- **recursive-doubling allreduce**: round ``k`` exchanges with partner
  ``i XOR 2^k`` — log2 P rounds, P must be a power of two;
- **ring allreduce**: 2(P-1) rounds of neighbor exchange (reduce-scatter +
  allgather), the bandwidth-optimal large-message algorithm;
- **binomial-tree broadcast**: round ``k`` has ranks below ``2^k`` send to
  ``i + 2^k``.

A one-off delay interacts with a collective very differently from the
paper's point-to-point chains: logarithmic schedules couple the whole
communicator within log2 P rounds, so the "idle wave" reaches *all* ranks
after a single step — exponential spreading instead of the linear
``σ·d/(T_exec + T_comm)`` front (measured by ``experiments/ext_collectives``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.sim.delay import DelaySpec
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.program import Op, OpKind, Program

__all__ = [
    "Collective",
    "CollectiveConfig",
    "barrier_rounds",
    "recursive_doubling_rounds",
    "ring_allreduce_rounds",
    "tree_bcast_rounds",
    "build_collective_program",
]


class Collective(Enum):
    """Supported collective algorithms."""

    BARRIER = "barrier"  # dissemination
    ALLREDUCE_RECDOUB = "allreduce_recdoub"
    ALLREDUCE_RING = "allreduce_ring"
    BCAST_TREE = "bcast_tree"


def barrier_rounds(n_ranks: int) -> list[list[tuple[int, int]]]:
    """Dissemination-barrier schedule: list of rounds of (src, dst) pairs.

    Every rank participates in every round; ceil(log2 P) rounds total.
    """
    if n_ranks < 2:
        raise ValueError(f"n_ranks must be >= 2, got {n_ranks}")
    rounds = []
    k = 1
    while k < n_ranks:
        rounds.append([(i, (i + k) % n_ranks) for i in range(n_ranks)])
        k *= 2
    return rounds


def recursive_doubling_rounds(n_ranks: int) -> list[list[tuple[int, int]]]:
    """Recursive-doubling exchange schedule; requires a power-of-two P."""
    if n_ranks < 2 or n_ranks & (n_ranks - 1):
        raise ValueError(f"recursive doubling needs a power-of-two rank count, got {n_ranks}")
    rounds = []
    k = 1
    while k < n_ranks:
        # Full exchange: both directions of each partner pair.
        rounds.append([(i, i ^ k) for i in range(n_ranks)])
        k *= 2
    return rounds


def ring_allreduce_rounds(n_ranks: int) -> list[list[tuple[int, int]]]:
    """Ring allreduce: 2(P-1) rounds of send-to-next/receive-from-previous."""
    if n_ranks < 2:
        raise ValueError(f"n_ranks must be >= 2, got {n_ranks}")
    one_round = [(i, (i + 1) % n_ranks) for i in range(n_ranks)]
    return [list(one_round) for _ in range(2 * (n_ranks - 1))]


def tree_bcast_rounds(n_ranks: int) -> list[list[tuple[int, int]]]:
    """Binomial-tree broadcast from rank 0: round k doubles the holders."""
    if n_ranks < 2:
        raise ValueError(f"n_ranks must be >= 2, got {n_ranks}")
    rounds = []
    k = 1
    while k < n_ranks:
        rounds.append([(i, i + k) for i in range(k) if i + k < n_ranks])
        k *= 2
    return rounds


_SCHEDULES = {
    Collective.BARRIER: barrier_rounds,
    Collective.ALLREDUCE_RECDOUB: recursive_doubling_rounds,
    Collective.ALLREDUCE_RING: ring_allreduce_rounds,
    Collective.BCAST_TREE: tree_bcast_rounds,
}


@dataclass(frozen=True)
class CollectiveConfig:
    """Bulk-synchronous program whose comm phase is a collective."""

    n_ranks: int
    n_steps: int
    collective: Collective = Collective.BARRIER
    t_exec: float = 3e-3
    msg_size: int = 8192
    noise: NoiseModel = field(default_factory=NoNoise)
    delays: tuple[DelaySpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ValueError(f"n_ranks must be >= 2, got {self.n_ranks}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.t_exec <= 0:
            raise ValueError(f"t_exec must be > 0, got {self.t_exec}")
        for spec in self.delays:
            if spec.rank >= self.n_ranks or spec.step >= self.n_steps:
                raise ValueError(f"delay {spec} outside the configured run")

    def rounds(self) -> list[list[tuple[int, int]]]:
        """The collective's point-to-point round schedule."""
        return _SCHEDULES[self.collective](self.n_ranks)


def build_collective_program(
    cfg: CollectiveConfig, rng: np.random.Generator | None = None
) -> Program:
    """Build per-rank op lists: COMP, then one Isend/Irecv/Waitall per round.

    Rounds are separated by Waitalls (each round's receive must complete
    before the next round's data is sent — the semantics of staged
    collective algorithms).  Tags encode (step, round) so matching is
    unambiguous.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    times = np.full((cfg.n_ranks, cfg.n_steps), cfg.t_exec)
    times += cfg.noise.sample(rng, (cfg.n_ranks, cfg.n_steps))
    for spec in cfg.delays:
        times[spec.rank, spec.step] += spec.duration

    rounds = cfg.rounds()
    n_rounds = len(rounds)
    ops: list[list[Op]] = [[] for _ in range(cfg.n_ranks)]
    for step in range(cfg.n_steps):
        for rank in range(cfg.n_ranks):
            ops[rank].append(
                Op(kind=OpKind.COMP, duration=float(times[rank, step]), step=step)
            )
        for r_idx, pairs in enumerate(rounds):
            tag = step * n_rounds + r_idx
            participating: set[int] = set()
            for src, dst in pairs:
                ops[dst].append(
                    Op(kind=OpKind.IRECV, peer=src, size=cfg.msg_size, tag=tag, step=step)
                )
                ops[src].append(
                    Op(kind=OpKind.ISEND, peer=dst, size=cfg.msg_size, tag=tag, step=step)
                )
                participating.add(src)
                participating.add(dst)
            for rank in participating:
                ops[rank].append(Op(kind=OpKind.WAITALL, step=step))
    return Program(
        ops=ops,
        n_steps=cfg.n_steps,
        meta={
            "t_exec": cfg.t_exec,
            "msg_size": cfg.msg_size,
            "collective": cfg.collective.value,
            "n_rounds": n_rounds,
            "noise_mean": cfg.noise.mean(),
            "delays": cfg.delays,
            "seed": cfg.seed,
        },
    )
