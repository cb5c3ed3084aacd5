"""Unit tests for the decay-rate measurement (Fig. 8 machinery)."""

import numpy as np
import pytest

from repro.core.decay import measure_decay
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    ExponentialNoise,
    LockstepConfig,
    simulate_lockstep,
)

T = 3e-3


def run_with_noise(E, seed=0, delay_phases=20, n_ranks=40, n_steps=50):
    cfg = LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=T, msg_size=8192,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                            periodic=True),
        delays=(DelaySpec(rank=0, step=0, duration=delay_phases * T),),
        noise=ExponentialNoise(E * T),
        seed=seed,
    )
    return simulate_lockstep(cfg)


class TestMeasureDecay:
    def test_noise_free_wave_does_not_decay(self):
        run = run_with_noise(0.0)
        meas = measure_decay(run, source=0, periodic=True)
        assert abs(meas.beta) < 1e-5  # seconds/rank
        assert meas.survival_hops >= 19  # half the ring

    def test_noise_produces_positive_decay(self):
        betas = [measure_decay(run_with_noise(0.10, seed=s), source=0,
                               periodic=True).beta for s in range(5)]
        assert np.median(betas) > 0

    def test_decay_grows_with_noise(self):
        def median_beta(E):
            return np.median([
                measure_decay(run_with_noise(E, seed=s), source=0, periodic=True).beta
                for s in range(6)
            ])

        lo, hi = median_beta(0.02), median_beta(0.15)
        assert hi > 2 * lo > 0

    def test_initial_amplitude_close_to_delay(self):
        meas = measure_decay(run_with_noise(0.05), source=0, periodic=True)
        assert meas.initial_amplitude == pytest.approx(20 * T, rel=0.15)

    def test_amplitudes_length_matches_survival(self):
        meas = measure_decay(run_with_noise(0.05), source=0, periodic=True)
        assert len(meas.amplitudes) == meas.survival_hops

    def test_raises_without_wave(self):
        cfg = LockstepConfig(n_ranks=8, n_steps=8, t_exec=T)
        run = simulate_lockstep(cfg)
        with pytest.raises(ValueError, match="no idle wave"):
            measure_decay(run, source=4)

    def test_strong_noise_kills_wave_before_full_traversal(self):
        """With strong noise a short wave dies before circling the ring,
        and the measured decay accounts for (most of) its amplitude."""
        betas, hops = [], []
        for seed in range(6):
            run = run_with_noise(0.40, delay_phases=5, seed=seed)
            meas = measure_decay(run, source=0, periodic=True)
            betas.append(meas.beta)
            hops.append(meas.survival_hops)
        assert np.median(betas) > 0
        assert min(hops) < 39  # died before one full traversal
