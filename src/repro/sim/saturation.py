"""Processor-sharing simulation of memory-bandwidth saturation.

The motivating experiments of the paper (Figs. 1 and 2) use *data-bound*
workloads (STREAM triad, LBM).  On such codes the per-rank execution time is
not fixed: ranks on one socket share the memory interface, so when ``n``
ranks stream concurrently each gets roughly ``B_socket / n`` (capped by the
single-core bandwidth ``b_core``).  Desynchronization then *helps*: a rank
that computes while its socket neighbors wait in MPI gets more bandwidth,
which is exactly the "automatic overlap" mechanism that makes the measured
execution performance in Fig. 1(a) beat the naive model.

This module implements that mechanism as an event-driven processor-sharing
simulation:

- each execution phase streams ``work_bytes`` through the socket's memory
  interface at the instantaneous fair-share rate, followed by a
  contention-independent *serial tail* (per-phase noise and injected
  delays — a cron job does not consume memory bandwidth);
- communication follows the lockstep semantics of the fast engine: eager
  (receive waits for the sender's phase end + flight time) or rendezvous
  (both sides synchronize before the transfer).

The result reuses :class:`repro.sim.lockstep.LockstepResult`, so the whole
analysis layer applies unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.sim.delay import DelaySpec
from repro.sim.lockstep import LockstepResult
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.program import CommPattern, Direction
from repro.sim.topology import ProcessMapping

__all__ = ["SaturationConfig", "simulate_saturation"]


@dataclass(frozen=True)
class SaturationConfig:
    """Parameters of a data-bound lockstep run under bandwidth contention.

    Parameters
    ----------
    mapping:
        Rank placement; sockets are the contention domains.
    n_steps:
        Number of bulk-synchronous time steps.
    work_bytes:
        Memory traffic per rank per execution phase.  Scalar, per-rank
        vector, or full ``[n_ranks, n_steps]`` matrix.
    b_core:
        Single-core sustainable memory bandwidth (bytes/s).
    b_socket:
        Socket-level saturated bandwidth (bytes/s); e.g. 40 GB/s on the
        paper's Ivy Bridge sockets.
    t_serial:
        Contention-independent seconds per phase (e.g. in-core compute).
    noise / delays:
        Extra serial time per phase: fine-grained noise and one-off delays.
    pattern / msg_size:
        Communication pattern along the rank chain.
    t_flight:
        One-way message flight time in seconds.
    o_post:
        CPU overhead to post the sends of one phase (lumped).
    rendezvous:
        If True, a rank's Waitall also waits for its *receivers* to arrive
        (handshake) before the transfer, like the large-message protocol.
    seed:
        Seed for the noise draw.
    """

    mapping: ProcessMapping
    n_steps: int
    work_bytes: float | np.ndarray
    b_core: float
    b_socket: float
    t_serial: float = 0.0
    noise: NoiseModel = field(default_factory=NoNoise)
    delays: tuple[DelaySpec, ...] = ()
    pattern: CommPattern = field(default_factory=lambda: CommPattern())
    msg_size: int = 8192
    t_flight: float = 2e-6
    o_post: float = 1e-6
    rendezvous: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        for name in ("b_core", "b_socket", "t_serial", "t_flight", "o_post"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.b_core <= 0 or self.b_socket <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.t_serial < 0 or self.t_flight < 0 or self.o_post < 0:
            raise ValueError("times must be >= 0")

    @property
    def n_ranks(self) -> int:
        return self.mapping.n_ranks

    def work_matrix(self) -> np.ndarray:
        """Normalize ``work_bytes`` to a ``[n_ranks, n_steps]`` matrix."""
        w = np.asarray(self.work_bytes, dtype=float)
        if w.ndim == 0:
            w = np.full((self.n_ranks, self.n_steps), float(w))
        elif w.ndim == 1:
            if w.shape[0] != self.n_ranks:
                raise ValueError(f"work vector length {w.shape[0]} != n_ranks {self.n_ranks}")
            w = np.repeat(w[:, None], self.n_steps, axis=1)
        elif w.shape != (self.n_ranks, self.n_steps):
            raise ValueError(
                f"work matrix shape {w.shape} != ({self.n_ranks}, {self.n_steps})"
            )
        if not np.isfinite(w).all():
            raise ValueError("work_bytes must be finite")
        if np.any(w < 0):
            raise ValueError("work_bytes must be >= 0")
        return w


_START, _TAIL, _STREAM = range(3)  # event kinds


def simulate_saturation(cfg: SaturationConfig, rng: np.random.Generator | None = None) -> LockstepResult:
    """Run the processor-sharing simulation; returns dense timing matrices.

    Every rank streaming on a socket has been drained up to the socket's
    last change at the socket's current rate, so a change drains them all
    by one amount and schedules only the socket's earliest stream end; a
    tie goes to the first such rank in the socket's set iteration order
    (the golden fixtures pin this order).  A later change bumps the
    socket's epoch, which marks the scheduled event stale.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    n = cfg.n_ranks
    steps = cfg.n_steps
    work = cfg.work_matrix()
    serial = np.full((n, steps), cfg.t_serial, dtype=float)
    serial += cfg.noise.sample(rng, (n, steps))
    for spec in cfg.delays:
        if spec.rank >= n or spec.step >= steps:
            raise ValueError(f"delay {spec} outside the configured run")
        serial[spec.rank, spec.step] += spec.duration

    # Communication dependencies per rank (who must finish phase k before my
    # Waitall of step k can complete).  Under bidirectional rendezvous the
    # progress-coupling rule (σ = 2, see repro.sim.engine) widens the
    # dependency window to the partners' partners.
    dep_sources: list[list[int]] = []
    for rank in range(n):
        deps = set(cfg.pattern.recv_sources(rank, n))
        if cfg.rendezvous:
            deps.update(cfg.pattern.send_targets(rank, n))
            if cfg.pattern.direction == Direction.BIDIRECTIONAL:
                for p in list(deps):
                    deps.update(cfg.pattern.recv_sources(p, n))
                    deps.update(cfg.pattern.send_targets(p, n))
                deps.discard(rank)
        dep_sources.append(sorted(deps))
    # Reverse index: when rank j finishes phase k, whom to notify.
    notifies: list[list[int]] = [[] for _ in range(n)]
    for rank in range(n):
        for src in dep_sources[rank]:
            notifies[src].append(rank)

    exec_start = np.zeros((n, steps))
    exec_end = np.zeros((n, steps))
    post_end = np.zeros((n, steps))
    completion = np.zeros((n, steps))

    socket_of = [cfg.mapping.socket_of(r) for r in range(n)]
    n_sockets = max(socket_of) + 1
    # share[k]: each rank's rate while k ranks stream on one socket.
    share = [0.0] + [min(cfg.b_core, cfg.b_socket / k) for k in range(1, n + 1)]
    # Per socket: the ranks streaming, when they were last drained, their
    # common rate since then, and a count of changes.
    active: list[set[int]] = [set() for _ in range(n_sockets)]
    last = [0.0] * n_sockets
    rate = [0.0] * n_sockets
    epoch = [0] * n_sockets

    remaining = [0.0] * n  # bytes left to stream in the current phase
    step_of = [0] * n
    waiting = [False] * n  # in the Waitall of step step_of[r]
    # pending[r][k]: dependencies of rank r whose phase-k end is unknown.
    pending = [[len(deps)] * steps for deps in dep_sources]
    done = [False] * n
    rendezvous, t_flight, o_post = cfg.rendezvous, cfg.t_flight, cfg.o_post

    # Events (time, seq, kind, rank, socket epoch), started at t=0 in rank order.
    heap = [(0.0, r, _START, r, 0) for r in range(n)]
    seq = itertools.count(n)

    def rebalance(s: int, now: float, started: int = -1) -> None:
        """Drain socket ``s`` up to ``now`` and schedule its next stream end."""
        drain = rate[s] * (now - last[s])
        last[s] = now
        epoch[s] += 1
        rate[s] = new_rate = share[len(active[s])]
        if not new_rate:
            return
        first = -1
        for r in active[s]:
            rem = remaining[r]
            if r != started:
                rem -= drain
                remaining[r] = rem = rem if rem > 0.0 else 0.0
            t = now + rem / new_rate
            if first < 0 or t < t_first:
                first, t_first = r, t
        heappush(heap, (t_first, next(seq), _STREAM, first, epoch[s]))

    def complete_wait(r: int, k: int) -> None:
        """All of rank r's step-k dependencies are known: compute Waitall end."""
        t = post_end.item(r, k)
        own_end = exec_end.item(r, k)
        for src in dep_sources[r]:
            end = exec_end.item(src, k)
            t = max(t, (max(end, own_end) if rendezvous else end) + t_flight)
        completion[r, k] = t
        waiting[r] = False
        if k + 1 < steps:
            step_of[r] = k + 1
            heappush(heap, (t, next(seq), _START, r, 0))
        else:
            done[r] = True

    while heap:
        now, _, kind, r, ep = heappop(heap)
        k = step_of[r]
        if kind == _STREAM:
            s = socket_of[r]
            if ep != epoch[s]:
                continue  # the socket changed since this estimate
            active[s].discard(r)
            rebalance(s, now)
            heappush(heap, (now + serial.item(r, k), next(seq), _TAIL, r, 0))
        elif kind == _TAIL:
            exec_end[r, k] = now
            post_end[r, k] = now + o_post
            waiting[r] = True
            # Notify dependents that our phase-k end time is now known.
            for dep in notifies[r]:
                left = pending[dep]
                left[k] -= 1
                if not left[k] and step_of[dep] == k and waiting[dep]:
                    complete_wait(dep, k)
            if not pending[r][k]:
                complete_wait(r, k)
        else:
            exec_start[r, k] = now
            remaining[r] = work.item(r, k)
            s = socket_of[r]
            active[s].add(r)
            rebalance(s, now, r)

    if not all(done):
        raise RuntimeError("saturation simulation did not complete all ranks")

    return LockstepResult(
        exec_start=exec_start,
        exec_end=exec_end,
        post_end=post_end,
        completion=completion,
        meta={
            "engine": "saturation",
            "b_core": cfg.b_core,
            "b_socket": cfg.b_socket,
            "t_serial": cfg.t_serial,
            "t_flight": cfg.t_flight,
            "pattern": cfg.pattern,
            "rendezvous": cfg.rendezvous,
            "noise_mean": cfg.noise.mean(),
            "delays": cfg.delays,
            "seed": cfg.seed,
        },
    )
