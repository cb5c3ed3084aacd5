"""Fine-grained noise generators.

The paper distinguishes *noise* (fine-grained, microsecond-scale, random)
from *delays* (long, one-off) — Sec. I-A.  This module models the former.
The central generator is :class:`ExponentialNoise`, matching Eq. 3:

.. math::

    f\\left(\\frac{T^{delay}_{exec}}{T_{exec}}; \\lambda\\right)
        = \\lambda \\exp\\left(-\\lambda \\frac{T^{delay}_{exec}}{T_{exec}}\\right)

parameterized by ``E = 1/lambda``, the *mean relative delay per execution
period*.  :class:`BimodalNoise` reproduces the Omni-Path SMT-off histogram
of Fig. 3(b) with its second peak near 660 µs.

All generators are deterministic given a :class:`numpy.random.Generator` and
produce *extra* execution time in **seconds**, to be added to the pure phase
duration.  Extrinsic (system) and intrinsic (application) noise are
observationally equivalent (Sec. III-B), so a single abstraction serves
both roles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseModel",
    "NoNoise",
    "ExponentialNoise",
    "BimodalNoise",
    "UniformNoise",
    "GammaNoise",
    "TraceNoise",
    "exponential_for_level",
]


class NoiseModel(ABC):
    """Interface: per-execution-phase extra delay, in seconds."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        """Draw an array of per-phase delays (seconds, all >= 0)."""

    @abstractmethod
    def mean(self) -> float:
        """Expected delay per phase in seconds."""

    def relative_level(self, t_exec: float) -> float:
        """Noise level ``E`` as used in the paper: mean delay / T_exec."""
        if t_exec <= 0:
            raise ValueError(f"t_exec must be > 0, got {t_exec}")
        return self.mean() / t_exec


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    """The silent system: zero noise. Baseline for Eq. 2 validation."""

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape)

    def mean(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ExponentialNoise(NoiseModel):
    """Exponentially distributed noise (Eq. 3 of the paper).

    Parameters
    ----------
    mean_delay:
        Mean extra delay per execution phase, in seconds.  For a phase of
        length ``T_exec`` and target relative level ``E``, use
        ``mean_delay = E * T_exec`` (or :func:`exponential_for_level`).
    """

    mean_delay: float

    def __post_init__(self) -> None:
        if self.mean_delay < 0:
            raise ValueError(f"mean_delay must be >= 0, got {self.mean_delay}")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.mean_delay == 0.0:
            return np.zeros(shape)
        return rng.exponential(self.mean_delay, size=shape)

    def mean(self) -> float:
        return self.mean_delay


def exponential_for_level(E: float, t_exec: float) -> ExponentialNoise:
    """Exponential noise with relative level ``E`` for phases of ``t_exec`` s.

    ``E`` is the paper's noise parameter: ``E = lambda^-1`` = mean relative
    delay per execution period (e.g. ``E=0.25`` for the 25 % case of
    Fig. 9(c)).
    """
    if E < 0:
        raise ValueError(f"E must be >= 0, got {E}")
    if t_exec <= 0:
        raise ValueError(f"t_exec must be > 0, got {t_exec}")
    return ExponentialNoise(mean_delay=E * t_exec)


@dataclass(frozen=True)
class BimodalNoise(NoiseModel):
    """Two-component noise mixture.

    Models the Omni-Path SMT-off histogram of Fig. 3(b): a dominant
    fine-grained component plus a rare, much longer second mode (driver
    activity, ~660 µs on Meggie).

    Parameters
    ----------
    base:
        Noise model for the common component.
    spike_delay:
        Mean duration of the rare long component, in seconds.
    spike_probability:
        Probability that any given phase is hit by the long component.
    spike_jitter:
        Relative standard deviation of the long component (a truncated
        normal around ``spike_delay``).
    """

    base: NoiseModel = field(default_factory=lambda: ExponentialNoise(2.8e-6))
    spike_delay: float = 660e-6
    spike_probability: float = 0.01
    spike_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.spike_delay < 0:
            raise ValueError(f"spike_delay must be >= 0, got {self.spike_delay}")
        if not 0 <= self.spike_probability <= 1:
            raise ValueError(
                f"spike_probability must be in [0, 1], got {self.spike_probability}"
            )
        if self.spike_jitter < 0:
            raise ValueError(f"spike_jitter must be >= 0, got {self.spike_jitter}")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        out = self.base.sample(rng, shape)
        if self.spike_probability > 0 and self.spike_delay > 0:
            hits = rng.random(shape) < self.spike_probability
            spikes = rng.normal(self.spike_delay, self.spike_jitter * self.spike_delay, shape)
            np.clip(spikes, 0.0, None, out=spikes)
            out = out + np.where(hits, spikes, 0.0)
        return out

    def mean(self) -> float:
        return self.base.mean() + self.spike_probability * self.spike_delay


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    """Uniformly distributed noise on ``[low, high]`` seconds."""

    low: float = 0.0
    high: float = 5e-6

    def __post_init__(self) -> None:
        if self.low < 0:
            raise ValueError(f"low must be >= 0, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"high must be >= low, got high={self.high} < low={self.low}")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=shape)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class GammaNoise(NoiseModel):
    """Gamma-distributed noise — heavier/lighter tails than exponential.

    With ``shape_k=1`` this degenerates to :class:`ExponentialNoise`; the
    ablation benches use it to probe whether the paper's decay-vs-E
    correlation is specific to the exponential distribution.
    """

    mean_delay: float = 2.4e-6
    shape_k: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_delay < 0:
            raise ValueError(f"mean_delay must be >= 0, got {self.mean_delay}")
        if self.shape_k <= 0:
            raise ValueError(f"shape_k must be > 0, got {self.shape_k}")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.mean_delay == 0.0:
            return np.zeros(shape)
        scale = self.mean_delay / self.shape_k
        return rng.gamma(self.shape_k, scale, size=shape)

    def mean(self) -> float:
        return self.mean_delay


@dataclass(frozen=True)
class TraceNoise(NoiseModel):
    """Noise replayed (with replacement) from measured samples.

    This is how a histogram recorded on a real machine (Fig. 3) can be fed
    back into the simulator.  Samples are drawn i.i.d. from the empirical
    distribution.
    """

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.samples) == 0:
            raise ValueError("TraceNoise needs at least one sample")
        if any(s < 0 for s in self.samples):
            raise ValueError("TraceNoise samples must be >= 0")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        arr = np.asarray(self.samples)
        idx = rng.integers(0, arr.size, size=shape)
        return arr[idx]

    def mean(self) -> float:
        return float(np.mean(self.samples))
