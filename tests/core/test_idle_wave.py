"""Unit tests for the idle threshold and wave-front extraction."""

import numpy as np
import pytest

from repro.core.idle_wave import (
    batched_wave_front,
    default_threshold,
    wave_front,
)
from repro.core.timing import RunTiming
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    simulate_lockstep,
)

T = 3e-3


def delayed_run(direction=Direction.UNIDIRECTIONAL, periodic=False, source=4,
                n_ranks=12, phases=4.0, **kw):
    cfg = LockstepConfig(
        n_ranks=n_ranks, n_steps=14, t_exec=T, msg_size=8192,
        pattern=CommPattern(direction=direction, distance=1, periodic=periodic),
        delays=(DelaySpec(rank=source, step=0, duration=phases * T),),
        **kw,
    )
    return simulate_lockstep(cfg)


class TestDefaultThreshold:
    def test_uses_t_exec_fraction_when_known(self):
        run = delayed_run()
        assert default_threshold(run) == pytest.approx(0.5 * T)

    def test_fallback_without_t_exec(self):
        timing = RunTiming(
            exec_end=np.ones((2, 2)),
            completion=np.ones((2, 2)) * 1.1,
            idle=np.full((2, 2), 0.1),
        )
        assert default_threshold(timing) == pytest.approx(1.0)  # 10x median

    def test_zero_for_silent_run(self):
        timing = RunTiming(
            exec_end=np.ones((2, 2)),
            completion=np.ones((2, 2)),
            idle=np.zeros((2, 2)),
        )
        assert default_threshold(timing) == 0.0


class TestWaveFront:
    def test_forward_front_one_hop_per_step(self):
        front = wave_front(delayed_run(), source=4, direction=+1)
        assert front.reach == 7
        np.testing.assert_array_equal(front.arrival_steps, np.arange(7))
        np.testing.assert_array_equal(front.ranks, np.arange(5, 12))

    def test_arrival_times_evenly_spaced(self):
        front = wave_front(delayed_run(), source=4, direction=+1)
        gaps = np.diff(front.arrival_times)
        assert gaps == pytest.approx(T, rel=0.01)

    def test_no_backward_front_under_eager_uni(self):
        front = wave_front(delayed_run(), source=4, direction=-1)
        assert front.reach == 0

    def test_periodic_wraparound(self):
        run = delayed_run(direction=Direction.UNIDIRECTIONAL, periodic=True, source=4)
        front = wave_front(run, source=4, direction=+1, periodic=True)
        # The wave wraps: ranks 5..11, 0..3 (it dies at the source).
        assert front.reach == 11
        assert front.ranks[-1] == 3

    def test_periodic_flag_read_from_meta(self):
        run = delayed_run(direction=Direction.UNIDIRECTIONAL, periodic=True, source=4)
        front = wave_front(run, source=4, direction=+1)  # periodic not given
        assert front.reach == 11

    def test_max_hops_limits_walk(self):
        front = batched_wave_front(delayed_run().batch(), source=4,
                                   max_hops=3)[0]
        assert front.reach == 3

    def test_amplitudes_match_idle(self):
        run = delayed_run(phases=4.0)
        front = wave_front(run, source=4)
        assert front.amplitudes == pytest.approx(4.0 * T, rel=0.01)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            wave_front(delayed_run(), source=4, direction=0)

    def test_invalid_source_rejected(self):
        with pytest.raises(IndexError):
            wave_front(delayed_run(), source=99)
