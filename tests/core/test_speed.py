"""Unit tests for the Eq. 2 speed model and its empirical measurement."""

import pytest

from repro.core.speed import measure_speed, sigma_factor, silent_speed, silent_speed_for
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    UniformNetwork,
    simulate_lockstep,
)
from repro.sim.topology import CommDomain

T = 3e-3


class TestSigmaFactor:
    def test_two_only_for_bidirectional_rendezvous(self):
        assert sigma_factor(bidirectional=True, rendezvous=True) == 2
        assert sigma_factor(bidirectional=True, rendezvous=False) == 1
        assert sigma_factor(bidirectional=False, rendezvous=True) == 1
        assert sigma_factor(bidirectional=False, rendezvous=False) == 1


class TestSilentSpeed:
    def test_basic_formula(self):
        assert silent_speed(3e-3, 1e-3) == pytest.approx(250.0)

    def test_d_scales_linearly(self):
        v1 = silent_speed(3e-3, 0.0, d=1)
        v3 = silent_speed(3e-3, 0.0, d=3)
        assert v3 == pytest.approx(3 * v1)

    def test_sigma_doubles(self):
        v = silent_speed(3e-3, 1e-3)
        v2 = silent_speed(3e-3, 1e-3, bidirectional=True, rendezvous=True)
        assert v2 == pytest.approx(2 * v)

    def test_comm_time_slows_wave(self):
        assert silent_speed(3e-3, 2e-3) < silent_speed(3e-3, 0.0)

    @pytest.mark.parametrize("kw", [
        dict(t_exec=0.0, t_comm=1e-3),
        dict(t_exec=1e-3, t_comm=-1.0),
        dict(t_exec=1e-3, t_comm=0.0, d=0),
    ])
    def test_invalid_parameters(self, kw):
        with pytest.raises(ValueError):
            silent_speed(**kw)

    def test_silent_speed_for_pattern(self):
        p = CommPattern(direction=Direction.BIDIRECTIONAL, distance=2)
        v = silent_speed_for(p, Protocol.RENDEZVOUS, 3e-3, 1e-3)
        assert v == pytest.approx(silent_speed(3e-3, 1e-3, d=2, bidirectional=True,
                                               rendezvous=True))

    def test_silent_speed_for_rejects_auto(self):
        with pytest.raises(ValueError, match="resolve"):
            silent_speed_for(CommPattern(), Protocol.AUTO, 3e-3, 1e-3)


class TestMeasureSpeed:
    def run(self, direction=Direction.UNIDIRECTIONAL, msg=8192, d=1, n_ranks=16,
            protocol=Protocol.AUTO, **kw):
        cfg = LockstepConfig(
            n_ranks=n_ranks, n_steps=18, t_exec=T, msg_size=msg,
            pattern=CommPattern(direction=direction, distance=d),
            delays=(DelaySpec(rank=n_ranks // 2, step=0, duration=5 * T),),
            **kw,
        )
        return simulate_lockstep(cfg, protocol=protocol)

    def model(self, msg, d=1, bidirectional=False, rendezvous=False):
        t_comm = UniformNetwork().total_pingpong_time(msg, CommDomain.INTER_NODE)
        return silent_speed(T, t_comm, d=d, bidirectional=bidirectional,
                            rendezvous=rendezvous)

    def test_matches_model_noise_free(self):
        run = self.run()
        m = measure_speed(run, source=8)
        assert m.speed == pytest.approx(self.model(8192), rel=0.01)

    def test_residual_small_noise_free(self):
        m = measure_speed(self.run(), source=8)
        assert m.residual < 1e-4

    def test_direction_recorded(self):
        run = self.run(direction=Direction.BIDIRECTIONAL)
        down = measure_speed(run, source=8, direction=-1)
        assert down.direction == -1
        assert down.speed == pytest.approx(self.model(8192), rel=0.02)

    def test_sigma_two_measured(self):
        run = self.run(direction=Direction.BIDIRECTIONAL, protocol=Protocol.RENDEZVOUS)
        m = measure_speed(run, source=8)
        assert m.speed == pytest.approx(
            self.model(8192, bidirectional=True, rendezvous=True), rel=0.02
        )

    def test_d2_grouping_unbiased(self):
        run = self.run(d=2, n_ranks=20)
        m = measure_speed(run, source=10)
        assert m.speed == pytest.approx(self.model(8192, d=2), rel=0.01)

    def test_raises_when_no_wave(self):
        cfg = LockstepConfig(n_ranks=8, n_steps=8, t_exec=T)
        run = simulate_lockstep(cfg)
        with pytest.raises(ValueError, match="reached only"):
            measure_speed(run, source=4)

    def test_min_hops_enforced(self):
        # Three ranks: the wave from rank 1 reaches one rank, and a line
        # needs two points.
        with pytest.raises(ValueError, match="reached only 1 ranks"):
            measure_speed(self.run(n_ranks=3), source=1)
