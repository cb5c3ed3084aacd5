"""One-off injected delays.

A *delay* in the paper's terminology is a long, isolated disturbance hitting
one rank at one point in time — the seed of an idle wave.  A
:class:`DelaySpec` pins down (rank, step, duration); helpers construct the
multi-wave injection patterns of Fig. 6 (same delay on every socket, half
duration on odd sockets, random durations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.topology import ProcessMapping

__all__ = ["DelaySpec", "delays_at_local_rank"]


@dataclass(frozen=True)
class DelaySpec:
    """A single injected delay.

    Parameters
    ----------
    rank:
        MPI rank receiving the delay.
    step:
        Time-step index (0-based) of the execution phase the delay extends.
    duration:
        Extra execution time in seconds.  The paper expresses delays in
        units of execution phases (e.g. "4.5 execution phases"); use
        ``duration = 4.5 * t_exec`` for that.
    """

    rank: int
    step: int
    duration: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")


def delays_at_local_rank(
    mapping: ProcessMapping,
    local_rank: int,
    durations: "list[float] | np.ndarray",
    step: int = 0,
) -> list[DelaySpec]:
    """One delay per socket, at socket-local rank ``local_rank``.

    Reproduces the Fig. 6 injection pattern: "delays were injected on local
    rank 5 of every socket".  ``durations[s]`` is the delay on socket ``s``;
    sockets whose duration is 0 are skipped.

    Parameters
    ----------
    mapping:
        The process placement; determines which global rank is local rank
        ``local_rank`` of each socket.
    local_rank:
        Socket-local rank index receiving the delay.
    durations:
        Per-socket delay durations in seconds; length must equal the number
        of sockets in use.
    step:
        Time step of the injection (same for all sockets).
    """
    n_sockets = mapping.n_sockets_used()
    durations = list(durations)
    if len(durations) != n_sockets:
        raise ValueError(
            f"need {n_sockets} durations (one per socket in use), got {len(durations)}"
        )
    per_socket = mapping.ranks_per_socket()
    if not 0 <= local_rank < per_socket:
        raise ValueError(
            f"local_rank {local_rank} out of range [0, {per_socket}) for this mapping"
        )
    specs: list[DelaySpec] = []
    for socket, duration in enumerate(durations):
        if duration == 0.0:
            continue
        ranks = mapping.ranks_on_socket(socket)
        if local_rank >= len(ranks):
            raise ValueError(
                f"socket {socket} hosts only {len(ranks)} ranks; "
                f"local rank {local_rank} does not exist there"
            )
        specs.append(DelaySpec(rank=ranks[local_rank], step=step, duration=float(duration)))
    return specs
