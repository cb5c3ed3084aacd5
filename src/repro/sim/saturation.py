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

A run comes back as a :class:`~repro.core.timing.RunTiming`, like the
lockstep engine's, so the whole analysis layer applies unchanged.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from operator import itemgetter

import numpy as np

from repro.core.timing import RunTiming
from repro.sim.delay import DelaySpec
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.program import CommPattern, Direction, check_cells
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
    pattern:
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
        check_cells("work_bytes", w, non_negative=False)
        if np.any(w < 0):
            raise ValueError("work_bytes must be >= 0")
        return w


_START, _TAIL, _STREAM = range(3)  # event kinds
_OVERFLOW = "saturation timings overflow float64"


def simulate_saturation(cfg: SaturationConfig, rng: np.random.Generator | None = None) -> RunTiming:
    """Run the processor-sharing simulation; returns dense timing matrices.

    Every rank streaming on a socket has been drained up to the socket's
    last change at the socket's current rate, so a change drains them all
    by one amount and schedules only the socket's earliest stream end; a
    tie goes to the first such rank in the socket's set iteration order
    (the golden fixtures pin this order).  A scheduled stream end is stale
    once its sequence number is no longer the socket's latest.  A run
    whose earliest stream end overflows float64 raises ``ValueError``.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    n, steps = cfg.n_ranks, cfg.n_steps
    work = cfg.work_matrix()
    serial = np.full((n, steps), cfg.t_serial, dtype=float)
    serial += cfg.noise.sample(rng, (n, steps))
    for spec in cfg.delays:
        if spec.rank >= n or spec.step >= steps:
            raise ValueError(f"delay {spec} outside the configured run")
        serial[spec.rank, spec.step] += spec.duration
    check_cells("serial time (t_serial + noise + delays)", serial,
                non_negative=False)

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
    # Reverse index: when rank j finishes phase k, whom to notify; each rank
    # notifies itself last, so its pending count includes itself.
    notifies: list[list[int]] = [[] for _ in range(n)]
    for rank in range(n):
        for src in dep_sources[rank]:
            notifies[src].append(rank)
    for rank, targets in enumerate(notifies):
        targets.append(rank)
    # The ranks whose phase ends a Waitall waits for, its own too under
    # rendezvous.  IEEE rounding is monotone, so adding t_flight to their
    # max is bitwise equal to the max of each end plus t_flight.
    end_ranks = [deps + [rank] if deps and cfg.rendezvous else deps
                 for rank, deps in enumerate(dep_sources)]
    # Each Waitall gathers those ends from a step's exec-end view.  An
    # itemgetter of one index returns the item, not a 1-tuple, so a lone
    # rank is gathered twice.
    gather = [itemgetter(*ranks) if len(ranks) > 1
              else itemgetter(ranks[0], ranks[0]) if ranks else None
              for ranks in end_ranks]

    # Rank-major 8-byte cells: phase (r, k) is cell r * steps + k, and
    # ends_at[k] views step k's exec ends by rank.
    exec_start, exec_end, post_end, completion = (
        array("d", [0.0]) * (n * steps) for _ in range(4))
    ends_at = [memoryview(exec_end)[k::steps] for k in range(steps)]
    work, serial = memoryview(work.ravel()), memoryview(serial.ravel())

    socket_of = [cfg.mapping.socket_of(r) for r in range(n)]
    n_sockets = max(socket_of) + 1
    # share[k]: each rank's rate while k ranks stream on one socket.
    share = [0.0] + [min(cfg.b_core, cfg.b_socket / k) for k in range(1, n + 1)]
    # Per socket: the ranks streaming, when they were last drained, their
    # common rate since then, and the sequence number of its last change.
    active: list[set[int]] = [set() for _ in range(n_sockets)]
    last, rate, latest = [0.0] * n_sockets, [0.0] * n_sockets, [-1] * n_sockets

    remaining = [0.0] * n  # bytes left to stream in the current phase
    step_of = [0] * n  # each rank's current step; steps once it has finished
    cell = list(range(0, n * steps, steps))  # cell of each rank's current phase
    # pending[r][k]: phase-k ends rank r has yet to learn, its own included.
    pending = [[len(deps) + 1] * steps for deps in dep_sources]
    t_flight, o_post = cfg.t_flight, cfg.o_post

    # Events (time, seq, kind, rank), started at t=0 in rank order.
    heap = [(0.0, r, _START, r) for r in range(n)]
    seq = itertools.count(n)

    # Three handlers: stream end, serial tail and phase start.  Each ends
    # with heappushpop of its last new event instead of a push and the
    # next pop; every event takes a fresh seq, so (time, seq) keys are
    # unique and events come out in the same order.  The loop state is
    # bound as default arguments: the loop reads it a few dozen times per
    # event, and a fast local is cheaper to read than a closure cell.
    def run(heap=heap, seq=seq, cell=cell, step_of=step_of, pending=pending,
            notifies=notifies, gather=gather, ends_at=ends_at,
            exec_start=exec_start, exec_end=exec_end, post_end=post_end,
            completion=completion, work=work, serial=serial,
            remaining=remaining, socket_of=socket_of, active=active,
            last=last, rate=rate, latest=latest, share=share,
            steps=steps, t_flight=t_flight, o_post=o_post, inf=math.inf,
            heappop=heappop, heappush=heappush, heappushpop=heappushpop):
        # Its own code object puts the loop at offset 0; tracemalloc, which the
        # memory guard test runs, scans a code object from 0 to find a line.
        now, sq, kind, r = heappop(heap)
        while True:
            if kind == _STREAM:
                s = socket_of[r]
                if sq != latest[s]:  # the socket changed since this estimate
                    if not heap:
                        return
                    now, sq, kind, r = heappop(heap)
                    continue
                streaming = active[s]
                streaming.discard(r)
                # Drain socket s up to now and schedule its next stream end.
                drain = rate[s] * (now - last[s])
                last[s] = now
                latest[s] = sq = next(seq)
                rate[s] = new_rate = share[len(streaming)]
                if new_rate:
                    t_first = inf
                    for q in streaming:
                        rem = remaining[q] - drain
                        remaining[q] = rem = rem if rem > 0.0 else 0.0
                        t = now + rem / new_rate
                        if t < t_first:
                            first, t_first = q, t
                    if t_first == inf:
                        raise ValueError(_OVERFLOW)
                    heappush(heap, (t_first, sq, _STREAM, first))
                now, sq, kind, r = heappushpop(
                    heap, (now + serial[cell[r]], next(seq), _TAIL, r))
            elif kind == _TAIL:
                i, k = cell[r], step_of[r]
                exec_end[i] = now
                post_end[i] = now + o_post
                held = None  # the latest phase start, pushed by the fused pop
                for q in notifies[r]:
                    left = pending[q]
                    left[k] -= 1
                    if left[k]:
                        continue
                    # All of q's step-k phase ends are known: its Waitall ends.
                    j = cell[q]
                    t = post_end[j]
                    ends = gather[q]
                    if ends is not None:
                        t = max(t, max(ends(ends_at[k])) + t_flight)
                    completion[j] = t
                    cell[q], step_of[q] = j + 1, k + 1
                    if k + 1 < steps:
                        if held is not None:
                            heappush(heap, held)
                        held = (t, next(seq), _START, q)
                if held is not None:
                    now, sq, kind, r = heappushpop(heap, held)
                elif heap:
                    now, sq, kind, r = heappop(heap)
                else:
                    return
            else:  # _START
                s = socket_of[r]
                i = cell[r]
                exec_start[i] = now
                remaining[r] = work[i]
                streaming = active[s]
                streaming.add(r)
                # Drain the others up to now and schedule the next stream end.
                drain = rate[s] * (now - last[s])
                last[s] = now
                latest[s] = sq = next(seq)
                rate[s] = new_rate = share[len(streaming)]
                t_first = inf
                for q in streaming:
                    rem = remaining[q]
                    if q != r:
                        rem -= drain
                        remaining[q] = rem = rem if rem > 0.0 else 0.0
                    t = now + rem / new_rate
                    if t < t_first:
                        first, t_first = q, t
                if t_first == inf:
                    raise ValueError(_OVERFLOW)
                now, sq, kind, r = heappushpop(heap, (t_first, sq, _STREAM, first))

    run()
    if min(step_of) < steps:
        raise RuntimeError("saturation simulation did not complete all ranks")

    exec_start, exec_end, post_end, completion = (
        np.frombuffer(buf).reshape(n, steps)
        for buf in (exec_start, exec_end, post_end, completion))
    return RunTiming(
        exec_end=exec_end,
        completion=completion,
        idle=completion - post_end,
        exec_start=exec_start,
        post_end=post_end,
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
