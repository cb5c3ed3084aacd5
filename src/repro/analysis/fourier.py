"""Fourier analysis of desynchronization patterns.

The prior work the paper builds on (Markidis et al. 2015, Peng et al. 2016)
used Fourier analysis to identify idle waves as nondispersive modes; and
the paper's own Fig. 2 observes that the emergent LBM desynchronization
pattern has "a fundamental wavelength equal to the size of the system".
This module extracts that structure from the per-rank skew profiles of a
batch of runs (:func:`batched_skew_profile`, :func:`batched_skew_power`);
:func:`skew_profile` and :func:`skew_spectrum` are their one-run forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timing import BatchedTiming, RunTiming

__all__ = ["SkewSpectrum", "batched_skew_power", "batched_skew_profile",
           "dominant_wavelength", "skew_profile", "skew_spectrum"]


def batched_skew_profile(batch: BatchedTiming, step: int) -> np.ndarray:
    """Per-draw, per-rank skew at one time step, ``[B, P]``: completion
    minus the draw's rank mean.

    This is the quantity plotted (as marker positions) in Fig. 2: how far
    ahead/behind each rank is at a given bulk-synchronous step.
    """
    if not 0 <= step < batch.n_steps:
        raise IndexError(f"step {step} out of range [0, {batch.n_steps})")
    col = batch.completion[:, :, step]
    return col - col.mean(axis=1, keepdims=True)


def batched_skew_power(batch: BatchedTiming, step: int) -> np.ndarray:
    """Spatial power spectrum of each draw's skew profile, ``[B, P//2 + 1]``.

    Entry ``k`` is the power of wavenumber ``k`` (cycles per chain
    length).
    """
    return np.abs(np.fft.rfft(batched_skew_profile(batch, step), axis=1)) ** 2


def skew_profile(run: RunTiming, step: int) -> np.ndarray:
    """One run's :func:`batched_skew_profile`, ``[P]``."""
    return batched_skew_profile(run.batch(), step)[0]


@dataclass(frozen=True)
class SkewSpectrum:
    """Spatial Fourier spectrum of a per-rank skew profile."""

    wavenumbers: np.ndarray  # cycles per chain length, k = 0 .. N/2
    power: np.ndarray
    n_ranks: int

    def dominant_mode(self) -> int:
        """Wavenumber (k >= 1) with the largest power."""
        if len(self.power) < 2:
            raise ValueError("spectrum has no nonzero wavenumber")
        return int(1 + np.argmax(self.power[1:]))

    def dominant_wavelength(self) -> float:
        """Wavelength of the dominant mode, in ranks."""
        return self.n_ranks / self.dominant_mode()

    def mode_fraction(self, k: int) -> float:
        """Fraction of total (k >= 1) power carried by mode ``k``."""
        if not 1 <= k < len(self.power):
            raise IndexError(f"mode {k} out of range [1, {len(self.power)})")
        total = self.power[1:].sum()
        if total == 0:
            return 0.0
        return float(self.power[k] / total)


def skew_spectrum(run: RunTiming, step: int) -> SkewSpectrum:
    """Spatial FFT of one run's skew profile at one step."""
    power = batched_skew_power(run.batch(), step)[0]
    return SkewSpectrum(
        wavenumbers=np.arange(power.size),
        power=power,
        n_ranks=run.n_ranks,
    )


def dominant_wavelength(run: RunTiming, step: int) -> float:
    """Wavelength (in ranks) of the strongest spatial mode at ``step``.

    For the Fig. 2 LBM pattern this approaches the system size (one full
    wavelength across the 100 ranks).
    """
    return skew_spectrum(run, step).dominant_wavelength()
