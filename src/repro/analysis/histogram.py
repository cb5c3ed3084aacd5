"""Noise histograms (Fig. 3).

The paper characterizes each system's natural noise by histogramming the
deviation of a known-duration compute phase from its ideal length over
3.3·10⁵ samples.  This module bins such samples (drawn from the
calibrated noise models of :mod:`repro.sim.noise`) and extracts the
summary statistics the paper quotes: mean, maximum, and the location of
secondary modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.noise import NoiseModel

__all__ = ["NoiseHistogram", "collect_noise_samples"]


@dataclass(frozen=True)
class NoiseHistogram:
    """A binned noise distribution with the paper's summary statistics."""

    counts: np.ndarray
    bin_edges: np.ndarray
    mean: float
    maximum: float
    n_samples: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, bin_width: float) -> "NoiseHistogram":
        """Bin ``samples`` (seconds) with fixed-width bins from zero.

        The paper uses 640 ns bins for the SMT-on histograms and 7.2 µs
        for SMT-off.
        """
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if np.any(samples < 0):
            raise ValueError("noise samples must be >= 0")
        if bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        hi = max(float(samples.max()), bin_width)
        n_bins = int(np.ceil(hi / bin_width)) + 1
        edges = np.arange(n_bins + 1) * bin_width
        counts, _ = np.histogram(samples, bins=edges)
        return cls(
            counts=counts,
            bin_edges=edges,
            mean=float(samples.mean()),
            maximum=float(samples.max()),
            n_samples=samples.size,
        )

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def modes(self, min_separation: float = 0.0) -> list[float]:
        """Locations (seconds) of local maxima of the histogram.

        A bin is a mode when it is a strict local maximum, carries at least
        10⁻⁴ of all samples, and is at least ``min_separation``
        away from a previously found (larger) mode.  Detects the bimodality
        of the Omni-Path SMT-off configuration (second peak ≈ 660 µs).
        """
        c = self.counts.astype(float)
        centers = self.bin_centers
        candidates = []
        for i in range(len(c)):
            left = c[i - 1] if i > 0 else -1.0
            right = c[i + 1] if i + 1 < len(c) else -1.0
            if c[i] > left and c[i] >= right and c[i] >= 1e-4 * self.n_samples:
                candidates.append((c[i], centers[i]))
        candidates.sort(reverse=True)
        modes: list[float] = []
        for _, center in candidates:
            if all(abs(center - m) >= min_separation for m in modes):
                modes.append(float(center))
        return modes

    def is_bimodal(self, min_separation: float) -> bool:
        """True when at least two well-separated modes exist."""
        return len(self.modes(min_separation=min_separation)) >= 2


def collect_noise_samples(
    noise: NoiseModel,
    n_samples: int,
    seed: int = 0,
) -> np.ndarray:
    """Draw ``n_samples`` per-phase delays from a noise model (seconds).

    The paper collects 3.3·10⁵ points per configuration; the fig. 3
    experiment driver calls this with that count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    return noise.sample(rng, (n_samples,))
