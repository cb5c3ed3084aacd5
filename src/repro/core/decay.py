"""Idle-wave decay under noise (Sec. V-A, Fig. 8).

Fine-grained noise erodes the *trailing* edge of an idle wave: on each hop,
part of the idle period is "swallowed" by the accumulated noise delays of
the ranks it passes.  The paper quantifies this with the **average decay
rate** β̄ in µs/rank — how much idle duration the wave loses per rank
travelled — and finds a clear positive correlation between β̄ and the noise
level ``E`` (mean relative delay per execution period).

This module measures β̄ along the wave fronts of a batch of runs
(:func:`front_decay`), or of one run (:func:`measure_decay`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.idle_wave import (
    BatchedWaveFront,
    batched_wave_front,
    default_threshold,
    masked_linear_fit,
)
from repro.core.timing import RunTiming

__all__ = ["DecayMeasurement", "front_decay", "measure_decay"]


@dataclass(frozen=True)
class DecayMeasurement:
    """Decay of one idle wave along its propagation path.

    Attributes
    ----------
    beta:
        Average decay rate in **seconds/rank**: amplitude lost per hop,
        averaged over the wave's survival distance.  (Multiply by 1e6 for
        the paper's µs/rank.)
    slope_beta:
        Decay rate from a least-squares fit of amplitude vs. hop — more
        robust to non-monotonic noise wiggles than the endpoint estimate.
    initial_amplitude:
        Idle duration at the first hop (seconds).
    survival_hops:
        Number of ranks the wave reached before dropping below threshold.
    amplitudes:
        Idle duration at each hop (seconds).
    """

    beta: float
    slope_beta: float
    initial_amplitude: float
    survival_hops: int
    amplitudes: np.ndarray


def front_decay(front: BatchedWaveFront) -> "dict[str, np.ndarray]":
    """Per-draw decay measurements from a batched front, each ``[B]``.

    The wave's amplitude at each hop is its idle duration on that rank
    (leading-edge arrival period).  ``beta`` is the endpoint estimator

    ``beta = (A_first - A_last) / (hops - 1)``,

    which matches the paper's "average decay rate" (a single-hop wave
    lost its whole amplitude in one further hop); ``slope_beta`` is the
    negated least-squares slope of amplitude over hop.  On a noise-free
    system both are ~0 (the wave propagates without decay until it runs
    out or cancels).  Draws with no detected wave yield ``NaN``.
    """
    n = front.n_hops
    if front.limit == 0:
        nan = np.full(front.n_batch, np.nan)
        return {"beta": nan, "slope_beta": nan.copy(),
                "initial_amplitude": nan.copy(), "survival_hops": nan.copy()}
    detected = n >= 1
    rows = np.arange(front.n_batch)
    amps0 = np.where(detected, front.amplitudes[:, 0], np.nan)
    amps_last = np.where(
        detected, front.amplitudes[rows, np.maximum(n - 1, 0)], np.nan)
    with np.errstate(invalid="ignore"):
        beta = np.where(n == 1, amps0,
                        (amps0 - amps_last) / np.maximum(n - 1, 1))
    hops = np.broadcast_to(
        np.arange(1, front.limit + 1, dtype=float), front.amplitudes.shape)
    slope, _ = masked_linear_fit(
        hops, np.where(front.valid(), front.amplitudes, 0.0), front.valid())
    return {
        "beta": beta,
        "slope_beta": np.where(n == 1, amps0, -slope),
        "initial_amplitude": amps0,
        "survival_hops": np.where(detected, n, np.nan).astype(float),
    }


def measure_decay(
    run: RunTiming,
    source: int,
    direction: int = +1,
    periodic: bool | None = None,
) -> DecayMeasurement:
    """Measure the decay rate of the idle wave emanating from ``source``.

    One run's :func:`front_decay`, cut at :func:`default_threshold`.

    Raises
    ------
    ValueError
        If the wave is not detected on at least one rank.
    """
    threshold = default_threshold(run)
    front = batched_wave_front(run.batch(), source, direction, threshold,
                               periodic)
    reached = int(front.n_hops[0])
    if reached == 0:
        raise ValueError(
            f"no idle wave detected from rank {source} above threshold {threshold:.3g}s"
        )
    decay = front_decay(front)
    return DecayMeasurement(
        beta=float(decay["beta"][0]),
        slope_beta=float(decay["slope_beta"][0]),
        initial_amplitude=float(decay["initial_amplitude"][0]),
        survival_hops=reached,
        amplitudes=front.amplitudes[0, :reached],
    )
