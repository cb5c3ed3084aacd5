"""Construction of bulk-synchronous message-passing programs.

The paper's experiments all run the same program skeleton (Sec. IV): each
rank alternates a purely compute-bound *execution phase* with a
communication phase implemented as ``MPI_Isend``/``MPI_Irecv`` to all
neighbors followed by ``MPI_Waitall``.  This module builds per-rank
operation sequences for every combination the paper scans:

- **direction** — unidirectional (each rank sends "up" and receives from
  "down") or bidirectional (full exchange with every neighbor),
- **distance** ``d`` — the largest distance to any communication partner
  (Sec. IV-C; Fig. 7 uses d = 2),
- **boundaries** — open (disturbances run out at the chain ends) or
  periodic (a closed ring; waves wrap around).

Execution-phase durations are provided as a dense ``[n_ranks, n_steps]``
array assembled by :func:`build_exec_times` from the base workload time,
a noise model, and the injected one-off delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from repro.sim.delay import DelaySpec
from repro.sim.noise import NoiseModel, NoNoise

__all__ = [
    "OpKind",
    "Op",
    "Direction",
    "CommPattern",
    "Program",
    "LockstepConfig",
    "build_exec_times",
    "build_lockstep_program",
    "check_cells",
]


class OpKind(IntEnum):
    """Kinds of per-rank operations the engine understands."""

    COMP = 0
    ISEND = 1
    IRECV = 2
    WAITALL = 3


@dataclass(slots=True, frozen=True)
class Op:
    """One operation in a rank's program.

    Fields are kind-dependent: ``duration`` for ``COMP``; ``peer``/``size``/
    ``tag`` for ``ISEND``/``IRECV``.  ``step`` records the bulk-synchronous
    time step the operation belongs to (provenance for analysis).
    """

    kind: OpKind
    duration: float = 0.0
    peer: int = -1
    size: int = 0
    tag: int = 0
    step: int = -1

    def __post_init__(self) -> None:
        if self.kind == OpKind.COMP and self.duration < 0:
            raise ValueError(f"COMP duration must be >= 0, got {self.duration}")
        if self.kind in (OpKind.ISEND, OpKind.IRECV):
            if self.peer < 0:
                raise ValueError(f"{self.kind.name} needs a peer rank, got {self.peer}")
            if self.size < 0:
                raise ValueError(f"message size must be >= 0, got {self.size}")


class Direction(Enum):
    """Communication direction along the rank chain."""

    UNIDIRECTIONAL = "uni"
    BIDIRECTIONAL = "bi"


@dataclass(frozen=True)
class CommPattern:
    """Point-to-point neighbor-communication pattern along a rank chain.

    Parameters
    ----------
    direction:
        ``UNIDIRECTIONAL``: rank ``i`` sends to ``i+1..i+d`` and receives
        from ``i-1..i-d``.  ``BIDIRECTIONAL``: sends to and receives from
        all of ``i±1..i±d``.
    distance:
        Neighbor distance ``d`` >= 1 (the ``d`` of Eq. 2).
    periodic:
        Closed ring (True) or open chain (False).
    """

    direction: Direction = Direction.UNIDIRECTIONAL
    distance: int = 1
    periodic: bool = False

    def __post_init__(self) -> None:
        if self.distance < 1:
            raise ValueError(f"distance must be >= 1, got {self.distance}")

    # ------------------------------------------------------------------
    def send_targets(self, rank: int, n_ranks: int) -> list[int]:
        """Ranks that ``rank`` sends to in one communication phase."""
        return self._partners(rank, n_ranks, sending=True)

    def recv_sources(self, rank: int, n_ranks: int) -> list[int]:
        """Ranks that ``rank`` receives from in one communication phase."""
        return self._partners(rank, n_ranks, sending=False)

    def _partners(self, rank: int, n_ranks: int, sending: bool) -> list[int]:
        if not 0 <= rank < n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {n_ranks})")
        offsets: list[int] = []
        for k in range(1, self.distance + 1):
            if self.direction == Direction.BIDIRECTIONAL:
                offsets.extend((+k, -k))
            else:
                offsets.append(+k if sending else -k)
        # On small periodic rings different offsets can alias to the same
        # partner (or to the rank itself); those are dropped, so each pair
        # exchanges at most one message per direction per phase.
        partners: list[int] = []
        seen: set[int] = set()
        for off in offsets:
            p = rank + off
            if self.periodic:
                p %= n_ranks
            elif not 0 <= p < n_ranks:
                continue
            if p == rank or p in seen:
                continue
            seen.add(p)
            partners.append(p)
        return partners


@dataclass
class Program:
    """A complete per-rank operation schedule plus its metadata."""

    ops: list[list[Op]]
    n_steps: int
    meta: dict = field(default_factory=dict)

    @property
    def n_ranks(self) -> int:
        return len(self.ops)

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("program needs at least one rank")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")


@dataclass(frozen=True)
class LockstepConfig:
    """Parameters of the standard bulk-synchronous experiment.

    Defaults follow the paper's standard setting (Sec. IV): 3 ms
    compute-bound execution phases and 8192-byte messages.
    """

    n_ranks: int
    n_steps: int
    t_exec: float = 3e-3
    msg_size: int = 8192
    pattern: CommPattern = field(default_factory=CommPattern)
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
        if self.msg_size < 0:
            raise ValueError(f"msg_size must be >= 0, got {self.msg_size}")
        for spec in self.delays:
            if spec.rank >= self.n_ranks:
                raise ValueError(f"delay rank {spec.rank} >= n_ranks {self.n_ranks}")
            if spec.step >= self.n_steps:
                raise ValueError(f"delay step {spec.step} >= n_steps {self.n_steps}")


def check_cells(name: str, values: np.ndarray, non_negative: bool = True) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite cell of
    ``values``, then (with ``non_negative``) the first negative one."""
    bad, rule = ~np.isfinite(values), "finite"
    if non_negative and not bad.any():
        bad, rule = values < 0, "non-negative"
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{name} must be {rule}, got {values[cell]} at "
                         f"[{', '.join(map(str, cell))}]")


def build_exec_times(cfg: LockstepConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-rank, per-step execution-phase durations including noise + delays.

    Returns a ``[n_ranks, n_steps]`` array of seconds:
    ``t_exec + noise_sample + injected_delay``.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    times = np.full((cfg.n_ranks, cfg.n_steps), cfg.t_exec, dtype=float)
    times += cfg.noise.sample(rng, (cfg.n_ranks, cfg.n_steps))
    for spec in cfg.delays:
        times[spec.rank, spec.step] += spec.duration
    return times


def build_lockstep_program(
    cfg: LockstepConfig,
    exec_times: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Program:
    """Build the bulk-synchronous program for a :class:`LockstepConfig`.

    Each step of each rank is ``COMP; IRECV*; ISEND*; WAITALL``.  Receives
    are posted before sends, matching the common real-world idiom (and the
    paper's ``Isend/Irecv/Waitall`` pattern — the relative order of the
    nonblocking calls does not change the semantics, only the Waitall
    matters).

    Parameters
    ----------
    cfg:
        Experiment parameters.
    exec_times:
        Optional pre-built ``[n_ranks, n_steps]`` duration array (e.g. from
        :func:`build_exec_times` or a workload model).  Built from ``cfg``
        if omitted.
    rng:
        Random generator for the noise draw when ``exec_times`` is omitted.
    """
    if exec_times is None:
        exec_times = build_exec_times(cfg, rng)
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.shape != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != "
            f"({cfg.n_ranks}, {cfg.n_steps})"
        )
    check_cells("exec_times", exec_times)

    ops: list[list[Op]] = []
    for rank in range(cfg.n_ranks):
        sends = cfg.pattern.send_targets(rank, cfg.n_ranks)
        recvs = cfg.pattern.recv_sources(rank, cfg.n_ranks)
        rank_ops: list[Op] = []
        for step in range(cfg.n_steps):
            rank_ops.append(
                Op(kind=OpKind.COMP, duration=float(exec_times[rank, step]), step=step)
            )
            for src in recvs:
                rank_ops.append(
                    Op(kind=OpKind.IRECV, peer=src, size=cfg.msg_size, tag=step, step=step)
                )
            for dst in sends:
                rank_ops.append(
                    Op(kind=OpKind.ISEND, peer=dst, size=cfg.msg_size, tag=step, step=step)
                )
            rank_ops.append(Op(kind=OpKind.WAITALL, step=step))
        ops.append(rank_ops)

    return Program(
        ops=ops,
        n_steps=cfg.n_steps,
        meta={
            "t_exec": cfg.t_exec,
            "msg_size": cfg.msg_size,
            "pattern": cfg.pattern,
            "noise_mean": cfg.noise.mean(),
            "delays": cfg.delays,
            "seed": cfg.seed,
        },
    )
