"""Timeline extraction: the data behind the paper's rank/time diagrams.

Figures 4–7 and 9 are rank-vs-time diagrams where execution phases are
white, injected delays blue, and idle/communication periods red.  This
module extracts exactly those intervals from a run so the viz layer (or an
external plotting tool) can render them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.timing import RunTiming

__all__ = ["IntervalKind", "TimelineInterval", "rank_timeline", "full_timeline"]


class IntervalKind(Enum):
    """Classification of a timeline interval (the figures' colors)."""

    EXEC = "exec"  # white
    DELAY = "delay"  # blue
    IDLE = "idle"  # red


@dataclass(frozen=True)
class TimelineInterval:
    """One colored bar in a rank's timeline."""

    rank: int
    step: int
    kind: IntervalKind
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def rank_timeline(timing: RunTiming, rank: int,
                  base_exec: float | None = None) -> list[TimelineInterval]:
    """Intervals of one rank, in time order.

    The execution phase of a step is split into EXEC (the nominal duration)
    and DELAY (any excess over ``base_exec`` — injected delay or noise), so
    an injected delay shows up as the figures' blue bar.  The Waitall span
    becomes IDLE.

    Parameters
    ----------
    base_exec:
        Nominal phase duration; defaults to the run's recorded ``t_exec``,
        else the minimum observed phase duration.
    """
    if not 0 <= rank < timing.n_ranks:
        raise IndexError(f"rank {rank} out of range [0, {timing.n_ranks})")
    wait_start = timing.wait_start()
    exec_start = np.empty(timing.n_steps)
    exec_start[0] = 0.0
    exec_start[1:] = timing.completion[rank, :-1]
    durations = timing.exec_end[rank] - exec_start
    if base_exec is None:
        base_exec = timing.t_exec or float(durations.min())

    out: list[TimelineInterval] = []
    for k in range(timing.n_steps):
        e0, e1 = float(exec_start[k]), float(timing.exec_end[rank, k])
        if e1 - e0 > base_exec * (1 + 1e-9):
            split = e0 + base_exec
            out.append(TimelineInterval(rank, k, IntervalKind.EXEC, e0, split))
            out.append(TimelineInterval(rank, k, IntervalKind.DELAY, split, e1))
        else:
            out.append(TimelineInterval(rank, k, IntervalKind.EXEC, e0, e1))
        w0, w1 = float(wait_start[rank, k]), float(timing.completion[rank, k])
        if w1 > w0:
            out.append(TimelineInterval(rank, k, IntervalKind.IDLE, w0, w1))
    return out


def full_timeline(timing: RunTiming,
                  base_exec: float | None = None) -> list[list[TimelineInterval]]:
    """Timelines of all ranks (outer index = rank)."""
    return [rank_timeline(timing, r, base_exec=base_exec) for r in range(timing.n_ranks)]

