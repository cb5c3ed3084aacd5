"""Idle-wave propagation speed: analytic model (Eq. 2) and measurement.

The paper's central quantitative result for the noise-free system is

.. math::

    v_{silent} = \\frac{\\sigma \\cdot d}{T_{exec} + T_{comm}}
    \\qquad \\left[\\frac{ranks}{s}\\right],

with :math:`\\sigma = 2` for *bidirectional rendezvous* communication and
:math:`\\sigma = 1` for every other mode, and ``d`` the largest distance to
any communication partner.  :func:`silent_speed` implements the model;
:func:`fit_front_speed` extracts the empirical speed from a batch of runs
by fitting each wave front's arrival times; :func:`measure_speed` is its
one-run form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.idle_wave import (
    BatchedWaveFront,
    WaveFront,
    batched_wave_front,
    default_threshold,
    masked_linear_fit,
)
from repro.core.timing import RunTiming
from repro.sim.mpi import Protocol
from repro.sim.program import CommPattern, Direction

__all__ = ["SpeedMeasurement", "fit_front_speed", "measure_speed", "sigma_factor",
           "silent_speed", "silent_speed_for"]


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


def fit_front_speed(front: BatchedWaveFront,
                    min_hops: int = 2) -> "tuple[np.ndarray, np.ndarray]":
    """Per-draw ``(speed, residual)`` of a batched front's linear fit, ``[B]``.

    A straight line is fitted to (arrival time, hop distance); the slope
    is the speed in ranks/second, and the residual is the RMS deviation
    of arrival times from the line, in seconds (``inf`` for a zero
    slope).  Draws with fewer than two usable arrivals yield ``NaN``;
    callers reject fronts shorter than ``min_hops`` and non-positive
    slopes.
    """
    steps = front.arrival_steps
    valid = front.valid()
    hops = np.broadcast_to(
        np.arange(1, front.limit + 1, dtype=float), steps.shape)
    # With d > 1 (or σ = 2) the front advances in groups of ranks released
    # by the same bulk-synchronous step; group members arrive essentially
    # simultaneously, and a group truncated by the chain boundary would
    # bias a naive per-rank regression.  Each arrival *step* is collapsed
    # to its leading hop before fitting — leaders always exist, so
    # truncation is harmless.  (With d = 1 there is one hop per step and
    # this reduces to the plain per-hop fit.)
    keep = valid.copy()
    if front.limit > 1:
        keep[:, 1:] &= steps[:, 1:] != steps[:, :-1]
    use_grouped = keep.sum(axis=1) >= min_hops
    mask = np.where(use_grouped[:, None], keep, valid)

    times = np.where(mask, front.arrival_times, 0.0)
    slope, intercept = masked_linear_fit(times, hops, mask)
    with np.errstate(invalid="ignore", divide="ignore"):
        misfit = np.where(mask, slope[:, None] * times + intercept[:, None]
                          - hops, 0.0)
        rms = np.sqrt((misfit * misfit).sum(axis=1) / mask.sum(axis=1))
        residual = np.where(slope != 0, rms / np.abs(slope), np.inf)
    return slope, residual


def measure_speed(
    run: RunTiming,
    source: int,
    direction: int = +1,
    threshold: float | None = None,
    periodic: bool | None = None,
) -> SpeedMeasurement:
    """Fit the leading-edge speed of the idle wave emanating from ``source``.

    One run's :func:`fit_front_speed`.  The leading slope is the quantity
    the paper finds insensitive to noise (Sec. IV-C).

    Raises
    ------
    ValueError
        If the wave is detected on fewer than two ranks (no propagation
        to measure), or the fitted speed is not positive.
    """
    if threshold is None:
        threshold = default_threshold(run)
    front = batched_wave_front(run.batch(), source, direction, threshold,
                               periodic)
    reached = int(front.n_hops[0])
    if reached < 2:  # a line needs two points
        raise ValueError(
            f"idle wave from rank {source} (direction {direction:+d}) reached only "
            f"{reached} ranks above threshold {threshold:.3g}s; need 2"
        )
    speed, residual = fit_front_speed(front)
    if not speed[0] > 0:
        raise ValueError(
            f"non-positive fitted speed {speed[0]:.3g} ranks/s — arrivals are not "
            "monotonically ordered; check threshold and source"
        )
    return SpeedMeasurement(
        speed=float(speed[0]),
        direction=direction,
        front=front[0],
        residual=float(residual[0]),
    )
