"""Unit tests for the desynchronization metrics."""

import numpy as np
import pytest

from repro.analysis.desync import desync_onset, overlap_efficiency, skew_spread
from repro.core.timing import RunTiming
from repro.sim import DelaySpec, ExponentialNoise, LockstepConfig, simulate_lockstep

T = 3e-3


def quiet_run(n_ranks=8, n_steps=10):
    return simulate_lockstep(LockstepConfig(n_ranks=n_ranks, n_steps=n_steps, t_exec=T))


def delayed_run():
    return simulate_lockstep(
        LockstepConfig(
            n_ranks=8, n_steps=10, t_exec=T,
            delays=(DelaySpec(rank=3, step=2, duration=5 * T),),
        )
    )


class TestSkewSpread:
    def test_quiet_run_microsecond_spread(self):
        spread = skew_spread(quiet_run())
        assert spread.max() < 0.05 * T

    def test_delay_creates_spread(self):
        spread = skew_spread(delayed_run())
        assert spread[2] > 4 * T  # injection step: delayed rank far behind

    def test_shape(self):
        assert skew_spread(quiet_run()).shape == (10,)


class TestDesyncOnset:
    def test_quiet_run_never_desyncs(self):
        assert desync_onset(quiet_run()) is None

    def test_onset_at_injection_step(self):
        assert desync_onset(delayed_run()) == 2

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            desync_onset(quiet_run(), fraction=0.0)

    def test_fallback_without_t_exec(self):
        timing = quiet_run()
        timing.meta.pop("t_exec")
        assert desync_onset(timing) is None


class TestOverlapEfficiency:
    def test_lockstep_run_near_zero(self):
        """A synchronized run uses its full serial budget."""
        eff = overlap_efficiency(quiet_run())
        assert eff == pytest.approx(0.0, abs=0.02)

    def test_noisy_run_bounded(self):
        run = simulate_lockstep(
            LockstepConfig(n_ranks=8, n_steps=10, t_exec=T,
                           noise=ExponentialNoise(0.2 * T), seed=3)
        )
        eff = overlap_efficiency(run)
        assert -0.5 < eff < 1.0

    def test_saturation_overlap_positive(self):
        """Desynchronized data-bound runs genuinely overlap: runtime beats
        the serialized per-step maxima."""
        from repro.sim.program import CommPattern, Direction
        from repro.sim.saturation import SaturationConfig, simulate_saturation
        from repro.sim.topology import single_switch_mapping

        cfg = SaturationConfig(
            mapping=single_switch_mapping(10, ppn=20),
            n_steps=60,
            work_bytes=40e6,
            b_core=6.5e9,
            b_socket=40e9,
            pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                                periodic=True),
            t_flight=2e-3,
            rendezvous=True,
            delays=(DelaySpec(rank=0, step=0, duration=30e-3),),
        )
        eff = overlap_efficiency(simulate_saturation(cfg))
        assert eff > 0.02


class TestEdgeCases:
    """Degenerate inputs the report kernels must be able to rely on."""

    def empty_timing(self, n_ranks=4):
        z = np.zeros((n_ranks, 0))
        return RunTiming(exec_end=z, completion=z.copy(), idle=z.copy())

    def test_empty_trace_skew_spread(self):
        assert skew_spread(self.empty_timing()).shape == (0,)

    def test_empty_trace_onset_without_t_exec(self):
        with pytest.raises(ValueError, match="phase length"):
            desync_onset(self.empty_timing())

    def test_empty_trace_onset_with_t_exec(self):
        t = self.empty_timing()
        t.meta["t_exec"] = T
        assert desync_onset(t) is None

    def test_empty_trace_overlap_rejected(self):
        with pytest.raises(ValueError, match="no time budget"):
            overlap_efficiency(self.empty_timing())

    def test_single_rank_run(self):
        # One rank, no waits: completion marches by exactly T per step.
        completion = np.arange(1.0, 6.0)[None, :] * T
        single = RunTiming(exec_end=completion.copy(),
                           completion=completion,
                           idle=np.zeros_like(completion),
                           meta={"t_exec": T})
        np.testing.assert_allclose(skew_spread(single), 0.0, atol=0)
        assert desync_onset(single) is None
        # The run *is* its own serial budget: nothing to overlap.
        assert overlap_efficiency(single) == pytest.approx(0.0, abs=1e-12)

    def test_constant_signal_never_desyncs(self):
        completion = np.tile(np.arange(1.0, 6.0) * T, (4, 1))
        t = RunTiming(exec_end=completion - T / 2, completion=completion,
                      idle=np.zeros_like(completion), meta={"t_exec": T})
        np.testing.assert_allclose(skew_spread(t), 0.0, atol=0)
        assert desync_onset(t) is None

    def test_onset_fraction_must_be_positive(self):
        with pytest.raises(ValueError, match="fraction"):
            desync_onset(quiet_run(), fraction=0.0)
