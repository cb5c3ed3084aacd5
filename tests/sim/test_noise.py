"""Unit tests for the noise generators."""

import numpy as np
import pytest

from repro.sim.noise import (
    BimodalNoise,
    ExponentialNoise,
    GammaNoise,
    NoNoise,
    TraceNoise,
    UniformNoise,
    exponential_for_level,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


ALL_MODELS = [
    NoNoise(),
    ExponentialNoise(2.4e-6),
    BimodalNoise(),
    UniformNoise(0.0, 5e-6),
    GammaNoise(2.4e-6, shape_k=2.0),
    TraceNoise(samples=(1e-6, 2e-6, 3e-6)),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestNoiseContract:
    def test_samples_nonnegative(self, model, rng):
        s = model.sample(rng, (1000,))
        assert (s >= 0).all()

    def test_shape_respected(self, model, rng):
        assert model.sample(rng, (4, 7)).shape == (4, 7)

    def test_mean_matches_samples(self, model, rng):
        s = model.sample(rng, (200_000,))
        if model.mean() == 0:
            assert s.sum() == 0
        else:
            assert s.mean() == pytest.approx(model.mean(), rel=0.1)

    def test_deterministic_given_seed(self, model):
        a = model.sample(np.random.default_rng(3), (100,))
        b = model.sample(np.random.default_rng(3), (100,))
        np.testing.assert_array_equal(a, b)


class TestExponentialNoise:
    def test_relative_level(self):
        noise = ExponentialNoise(mean_delay=0.3e-3)
        assert noise.relative_level(3e-3) == pytest.approx(0.1)

    def test_exponential_for_level_inverts_relative_level(self):
        noise = exponential_for_level(0.25, 3e-3)
        assert noise.relative_level(3e-3) == pytest.approx(0.25)

    def test_zero_mean_is_silent(self, rng):
        assert ExponentialNoise(0.0).sample(rng, (10,)).sum() == 0

    def test_distribution_is_exponential(self, rng):
        # Exponential: std == mean.
        s = ExponentialNoise(5e-6).sample(rng, (500_000,))
        assert s.std() == pytest.approx(s.mean(), rel=0.02)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialNoise(-1e-6)


class TestBimodalNoise:
    def test_mean_includes_spike_contribution(self):
        noise = BimodalNoise(
            base=ExponentialNoise(2e-6), spike_delay=600e-6, spike_probability=0.01
        )
        assert noise.mean() == pytest.approx(2e-6 + 6e-6)

    def test_spikes_present_at_expected_rate(self, rng):
        noise = BimodalNoise(
            base=ExponentialNoise(2e-6), spike_delay=600e-6, spike_probability=0.02
        )
        s = noise.sample(rng, (200_000,))
        frac = (s > 300e-6).mean()
        assert frac == pytest.approx(0.02, rel=0.15)

    def test_no_spikes_when_probability_zero(self, rng):
        noise = BimodalNoise(base=ExponentialNoise(2e-6), spike_probability=0.0)
        s = noise.sample(rng, (100_000,))
        assert s.max() < 100e-6

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            BimodalNoise(spike_probability=1.5)


class TestUniformNoise:
    def test_bounds_respected(self, rng):
        s = UniformNoise(1e-6, 2e-6).sample(rng, (10_000,))
        assert s.min() >= 1e-6
        assert s.max() <= 2e-6

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformNoise(2e-6, 1e-6)


class TestGammaNoise:
    def test_shape_one_matches_exponential_statistics(self, rng):
        g = GammaNoise(5e-6, shape_k=1.0).sample(rng, (300_000,))
        assert g.std() == pytest.approx(g.mean(), rel=0.02)

    def test_higher_shape_reduces_variance(self, rng):
        lo = GammaNoise(5e-6, shape_k=4.0).sample(rng, (100_000,)).std()
        hi = GammaNoise(5e-6, shape_k=1.0).sample(rng, (100_000,)).std()
        assert lo < hi


class TestTraceNoise:
    def test_draws_only_recorded_values(self, rng):
        noise = TraceNoise(samples=(1e-6, 5e-6))
        s = noise.sample(rng, (1000,))
        assert set(np.unique(s)) <= {1e-6, 5e-6}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceNoise(samples=())

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            TraceNoise(samples=(-1e-6,))
