"""Interaction and cancellation of idle waves (Sec. IV-B, Fig. 6).

Idle waves are *not* linear: when two waves meet they (partially) cancel
instead of passing through each other.  This module provides the analyses
behind that claim:

- :func:`find_waves` — connected-component extraction of idle activity in
  the (rank, step) plane, so interacting waves can be counted and located,
- :func:`resync_step` / :func:`meeting_ranks` — when and where the system
  returns to lockstep after waves annihilate,
- :func:`superposition_defect` — a direct quantitative test of
  nonlinearity: the idle time of a combined-injection run minus the sum of
  the single-injection runs.  Zero would mean linear superposition; the
  strongly negative values observed prove cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.idle_wave import default_threshold
from repro.core.timing import RunTiming

__all__ = [
    "Wave",
    "find_waves",
    "resync_step",
    "meeting_ranks",
    "superposition_defect",
]


@dataclass(frozen=True)
class Wave:
    """A connected region of above-threshold idleness in the (rank, step) plane."""

    cells: tuple[tuple[int, int], ...]  # (rank, step) pairs
    total_idle: float
    first_step: int
    last_step: int


def find_waves(timing: RunTiming, threshold: float | None = None,
               periodic: bool | None = None) -> list[Wave]:
    """Extract idle waves as connected components of above-threshold cells.

    Two cells are connected when they are within one rank *and* one step of
    each other (8-neighborhood, with rank wraparound on periodic chains) —
    a travelling wave moves at most a few ranks per step, so its footprint
    is connected under this notion.  Returns waves sorted by first step.
    """
    if threshold is None:
        threshold = default_threshold(timing)
    if periodic is None:
        pattern = timing.meta.get("pattern")
        periodic = bool(getattr(pattern, "periodic", False))

    mask = timing.idle > threshold
    n_ranks, n_steps = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    waves: list[Wave] = []

    for r0 in range(n_ranks):
        for k0 in range(n_steps):
            if not mask[r0, k0] or seen[r0, k0]:
                continue
            # BFS flood fill.
            stack = [(r0, k0)]
            seen[r0, k0] = True
            cells: list[tuple[int, int]] = []
            while stack:
                r, k = stack.pop()
                cells.append((r, k))
                for dr in (-1, 0, 1):
                    for dk in (-1, 0, 1):
                        if dr == 0 and dk == 0:
                            continue
                        rr, kk = r + dr, k + dk
                        if periodic:
                            rr %= n_ranks
                        elif not 0 <= rr < n_ranks:
                            continue
                        if not 0 <= kk < n_steps:
                            continue
                        if mask[rr, kk] and not seen[rr, kk]:
                            seen[rr, kk] = True
                            stack.append((rr, kk))
            steps = [k for _, k in cells]
            waves.append(
                Wave(
                    cells=tuple(sorted(cells)),
                    total_idle=float(sum(timing.idle[r, k] for r, k in cells)),
                    first_step=min(steps),
                    last_step=max(steps),
                )
            )
    waves.sort(key=lambda w: (w.first_step, w.cells))
    return waves


def resync_step(timing: RunTiming, threshold: float | None = None) -> int | None:
    """First step index after which no rank idles above threshold.

    After interacting waves have annihilated ("everything is in sync
    again"), the idle matrix goes quiet; this returns that step, or ``None``
    if idleness persists to the end of the run.
    """
    if threshold is None:
        threshold = default_threshold(timing)
    active_steps = np.nonzero((timing.idle > threshold).any(axis=0))[0]
    if active_steps.size == 0:
        return 0
    last = int(active_steps[-1])
    return last + 1 if last + 1 < timing.n_steps else None


def meeting_ranks(timing: RunTiming, threshold: float | None = None) -> list[int]:
    """Ranks where idle activity is seen at the latest active step.

    For two symmetric counter-propagating waves on a periodic ring these
    are the ranks where they met and cancelled (rank 14 in Fig. 5(d)).
    """
    if threshold is None:
        threshold = default_threshold(timing)
    mask = timing.idle > threshold
    active_steps = np.nonzero(mask.any(axis=0))[0]
    if active_steps.size == 0:
        return []
    last = int(active_steps[-1])
    return [int(r) for r in np.nonzero(mask[:, last])[0]]


def superposition_defect(combined: RunTiming, singles: "list[RunTiming]",
                         baseline: "RunTiming | None" = None) -> float:
    """Quantify nonlinearity of wave interaction.

    Parameters
    ----------
    combined:
        Run with all delays injected together.
    singles:
        Runs with each delay injected alone (same seeds/noise).
    baseline:
        Optional run with *no* delays.  When given, the quiet run's idle
        time (regular communication waits) is subtracted from every term,
        so the comparison involves only delay-induced idleness.  Without
        it, the defect carries an offset of roughly ``(len(singles) - 1) ×
        total_idle(baseline)`` — negligible for long waves, visible for
        short ones.

    Returns
    -------
    float
        ``excess_idle(combined) - sum(excess_idle(single_i))`` in
        rank-seconds.  Linear (non-interacting) waves give ~0; cancellation
        gives a negative defect whose magnitude measures how much idleness
        the collisions destroyed.
    """
    base = baseline.total_idle() if baseline is not None else 0.0
    total_c = combined.total_idle() - base
    total_s = sum(s.total_idle() - base for s in singles)
    return float(total_c - total_s)
