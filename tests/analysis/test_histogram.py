"""Unit tests for the noise-histogram analysis (Fig. 3 machinery)."""

import numpy as np
import pytest

from repro.analysis.histogram import NoiseHistogram, collect_noise_samples
from repro.sim.noise import BimodalNoise, ExponentialNoise


class TestFromSamples:
    def test_counts_cover_all_samples(self):
        samples = np.array([0.5e-6, 1.5e-6, 2.5e-6, 2.6e-6])
        h = NoiseHistogram.from_samples(samples, bin_width=1e-6)
        assert h.counts.sum() == 4
        assert h.n_samples == 4

    def test_summary_statistics(self):
        samples = np.array([1e-6, 3e-6])
        h = NoiseHistogram.from_samples(samples, bin_width=1e-6)
        assert h.mean == pytest.approx(2e-6)
        assert h.maximum == pytest.approx(3e-6)

    def test_bin_centers_between_edges(self):
        h = NoiseHistogram.from_samples(np.array([1e-6]), bin_width=1e-6)
        assert ((h.bin_centers > h.bin_edges[:-1]) & (h.bin_centers < h.bin_edges[1:])).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseHistogram.from_samples(np.array([]), 1e-6)
        with pytest.raises(ValueError):
            NoiseHistogram.from_samples(np.array([-1e-6]), 1e-6)
        with pytest.raises(ValueError):
            NoiseHistogram.from_samples(np.array([1e-6]), 0.0)


class TestModes:
    def test_unimodal_exponential(self):
        rng = np.random.default_rng(0)
        samples = ExponentialNoise(2.4e-6).sample(rng, (100_000,))
        h = NoiseHistogram.from_samples(samples, 640e-9)
        assert not h.is_bimodal(min_separation=100e-6)

    def test_bimodal_driver_noise(self):
        rng = np.random.default_rng(0)
        noise = BimodalNoise(base=ExponentialNoise(2.8e-6), spike_delay=660e-6,
                             spike_probability=0.01)
        samples = noise.sample(rng, (200_000,))
        h = NoiseHistogram.from_samples(samples, 7.2e-6)
        modes = h.modes(min_separation=100e-6)
        assert len(modes) >= 2
        assert any(abs(m - 660e-6) < 50e-6 for m in modes)


class TestCollectNoiseSamples:
    def test_deterministic(self):
        noise = ExponentialNoise(1e-6)
        a = collect_noise_samples(noise, 100, seed=5)
        b = collect_noise_samples(noise, 100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_count_respected(self):
        assert collect_noise_samples(ExponentialNoise(1e-6), 123).shape == (123,)

    def test_validation(self):
        with pytest.raises(ValueError):
            collect_noise_samples(ExponentialNoise(1e-6), 0)
