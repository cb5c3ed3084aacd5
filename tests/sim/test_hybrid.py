"""Unit tests for the hybrid MPI/OpenMP proxy."""

import numpy as np
import pytest

from repro.sim import ExponentialNoise, simulate_lockstep
from repro.sim.delay import DelaySpec
from repro.sim.hybrid import HybridConfig, hybrid_exec_times, hybrid_lockstep_config
from repro.sim.noise import NoNoise

T = 3e-3


def cfg(threads=4, n_processes=8, noise=None, **kw):
    return HybridConfig(
        n_processes=n_processes,
        threads=threads,
        n_steps=10,
        t_exec=T,
        noise=noise or ExponentialNoise(1e-4),
        **kw,
    )


class TestHybridExecTimes:
    def test_shape_is_per_process(self):
        times = hybrid_exec_times(cfg())
        assert times.shape == (8, 10)

    def test_single_thread_equals_plain_noise_draw(self):
        c = cfg(threads=1)
        times = hybrid_exec_times(c)
        rng = np.random.default_rng(c.seed)
        expected = T + c.noise.sample(rng, (8, 1, 10)).max(axis=1)
        np.testing.assert_allclose(times, expected)

    def test_group_max_raises_effective_noise(self):
        mean_noise = {
            t: hybrid_exec_times(cfg(threads=t, seed=1)).mean() - T
            for t in (1, 4, 16)
        }
        assert mean_noise[1] < mean_noise[4] < mean_noise[16]

    def test_noise_free_groups_have_exact_phases(self):
        times = hybrid_exec_times(cfg(noise=NoNoise()))
        np.testing.assert_allclose(times, T)

    def test_delay_lands_on_process(self):
        c = cfg(delays=(DelaySpec(rank=2, step=3, duration=9e-3),), noise=NoNoise())
        times = hybrid_exec_times(c)
        assert times[2, 3] == pytest.approx(T + 9e-3)

    def test_deterministic(self):
        np.testing.assert_array_equal(hybrid_exec_times(cfg()), hybrid_exec_times(cfg()))

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(n_processes=1, threads=2, n_steps=5)
        with pytest.raises(ValueError):
            HybridConfig(n_processes=4, threads=0, n_steps=5)
        with pytest.raises(ValueError):
            HybridConfig(
                n_processes=4, threads=2, n_steps=5,
                delays=(DelaySpec(rank=4, step=0, duration=1e-3),),
            )


class TestHybridLockstepBridge:
    def test_config_projects_processes(self):
        c = cfg()
        lc = hybrid_lockstep_config(c)
        assert lc.n_ranks == c.n_processes
        assert lc.t_exec == c.t_exec

    def test_end_to_end_run(self):
        c = cfg()
        res = simulate_lockstep(hybrid_lockstep_config(c), exec_times=hybrid_exec_times(c))
        assert res.total_runtime() > 10 * T
