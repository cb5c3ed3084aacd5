"""Idle-wave propagation speed: analytic model (Eq. 2) and measurement.

The paper's central quantitative result for the noise-free system is

.. math::

    v_{silent} = \\frac{\\sigma \\cdot d}{T_{exec} + T_{comm}}
    \\qquad \\left[\\frac{ranks}{s}\\right],

with :math:`\\sigma = 2` for *bidirectional rendezvous* communication and
:math:`\\sigma = 1` for every other mode, and ``d`` the largest distance to
any communication partner.  :func:`silent_speed` implements the model;
:func:`measure_speed` extracts the empirical speed from a run by fitting the
wave front's arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.idle_wave import WaveFront, default_threshold, wave_front
from repro.core.timing import RunTiming
from repro.sim.mpi import Protocol
from repro.sim.program import CommPattern, Direction

__all__ = ["SpeedMeasurement", "silent_speed", "silent_speed_for", "measure_speed", "sigma_factor"]


def sigma_factor(bidirectional: bool, rendezvous: bool) -> int:
    """The paper's σ: 2 for bidirectional rendezvous, 1 otherwise.

    Two neighbors of the delayed process are blocked in either direction
    only when the protocol synchronizes both ways (Fig. 5(g,h)).
    """
    return 2 if (bidirectional and rendezvous) else 1


def silent_speed(
    t_exec: float,
    t_comm: float,
    d: int = 1,
    bidirectional: bool = False,
    rendezvous: bool = False,
) -> float:
    """Eq. 2: idle-wave speed in ranks/second on a noise-free system.

    Parameters
    ----------
    t_exec:
        Execution-phase duration in seconds.
    t_comm:
        Communication time per phase in seconds.  Per the paper, its
        composition (latency, overhead, transfer) is irrelevant — it enters
        on an equal footing with ``t_exec``.
    d:
        Neighbor-communication distance (largest partner offset).
    bidirectional / rendezvous:
        Communication mode; together they determine σ.
    """
    if t_exec <= 0:
        raise ValueError(f"t_exec must be > 0, got {t_exec}")
    if t_comm < 0:
        raise ValueError(f"t_comm must be >= 0, got {t_comm}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return sigma_factor(bidirectional, rendezvous) * d / (t_exec + t_comm)


def silent_speed_for(
    pattern: CommPattern,
    protocol: Protocol,
    t_exec: float,
    t_comm: float,
) -> float:
    """Eq. 2 evaluated for a concrete pattern/protocol combination."""
    if protocol == Protocol.AUTO:
        raise ValueError("resolve the protocol (eager/rendezvous) before computing the speed")
    return silent_speed(
        t_exec,
        t_comm,
        d=pattern.distance,
        bidirectional=pattern.direction == Direction.BIDIRECTIONAL,
        rendezvous=protocol == Protocol.RENDEZVOUS,
    )


@dataclass(frozen=True)
class SpeedMeasurement:
    """Empirical propagation speed of one idle wave.

    Attributes
    ----------
    speed:
        Fitted speed in ranks/second (always positive; direction is
        recorded separately).
    direction:
        +1 (towards higher ranks) or -1.
    front:
        The underlying :class:`~repro.core.idle_wave.WaveFront`.
    residual:
        RMS deviation of arrival times from the linear fit, in seconds —
        small residuals mean cleanly constant speed.
    """

    speed: float
    direction: int
    front: WaveFront
    residual: float

    @property
    def hops(self) -> int:
        return self.front.reach


def measure_speed(
    run,
    source: int,
    direction: int = +1,
    threshold: float | None = None,
    periodic: bool | None = None,
    min_hops: int = 2,
    max_hops: int | None = None,
) -> SpeedMeasurement:
    """Fit the leading-edge speed of the idle wave emanating from ``source``.

    A straight line is fitted to (arrival time, hop distance); the slope is
    the speed in ranks/second.  The leading slope is the quantity the paper
    finds insensitive to noise (Sec. IV-C).

    Raises
    ------
    ValueError
        If the wave is detected on fewer than ``min_hops`` ranks (no
        propagation to measure).
    """
    timing = RunTiming.of(run)
    if threshold is None:
        threshold = default_threshold(timing)
    front = wave_front(
        timing, source, direction=direction, threshold=threshold, periodic=periodic,
        max_hops=max_hops,
    )
    if len(front) < min_hops:
        raise ValueError(
            f"idle wave from rank {source} (direction {direction:+d}) reached only "
            f"{len(front)} ranks above threshold {threshold:.3g}s; need {min_hops}"
        )
    t = front.arrival_times
    h = front.hops.astype(float)
    # With d > 1 (or σ = 2) the front advances in groups of ranks released
    # by the same bulk-synchronous step; group members arrive essentially
    # simultaneously, and a group truncated by the chain boundary would
    # bias a naive per-rank regression.  We collapse each arrival *step* to
    # its leading hop before fitting — leaders always exist, so truncation
    # is harmless.  (With d = 1 there is one hop per step and this reduces
    # to the plain per-hop fit.)
    steps = front.arrival_steps
    group_t: list[float] = []
    group_h: list[float] = []
    last_step = None
    for ti, hi, ki in zip(t, h, steps):
        if last_step is not None and ki == last_step:
            continue  # keep the group's first (smallest) hop
        group_t.append(float(ti))
        group_h.append(float(hi))
        last_step = int(ki)
    if len(group_t) >= min_hops:
        t = np.asarray(group_t)
        h = np.asarray(group_h)
    # Fit hops(t): slope = ranks per second.
    slope, intercept = np.polyfit(t, h, 1)
    fitted = slope * t + intercept
    residual = float(np.sqrt(np.mean((fitted - h) ** 2))) / abs(slope) if slope != 0 else np.inf
    if slope <= 0:
        raise ValueError(
            f"non-positive fitted speed {slope:.3g} ranks/s — arrivals are not "
            "monotonically ordered; check threshold and source"
        )
    return SpeedMeasurement(
        speed=float(slope),
        direction=direction,
        front=front,
        residual=residual,
    )
