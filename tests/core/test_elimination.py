"""Unit tests for the elimination analysis (Fig. 9 machinery)."""

import pytest

from repro.core.elimination import (
    EliminationPoint,
    elimination_scan,
    excess_runtime,
    runtime_spread,
)
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    simulate_lockstep,
)

T = 1.5e-3
DELAY = 4 * T


def base_cfg(**kw):
    base = dict(
        n_ranks=24, n_steps=25, t_exec=T, msg_size=8192,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                            periodic=True),
        delays=(DelaySpec(rank=1, step=0, duration=DELAY),),
    )
    base.update(kw)
    return LockstepConfig(**base)


class TestEliminationPoint:
    def test_excess_and_fraction(self):
        pt = EliminationPoint(E=0.1, runtime_with_delay=0.052,
                              runtime_without_delay=0.046)
        assert pt.excess == pytest.approx(6e-3)
        assert pt.excess_fraction(6e-3) == pytest.approx(1.0)

    def test_fraction_requires_positive_delay(self):
        pt = EliminationPoint(E=0.0, runtime_with_delay=1.0, runtime_without_delay=1.0)
        with pytest.raises(ValueError):
            pt.excess_fraction(0.0)


class TestExcessRuntime:
    def test_matches_direct_difference(self):
        with_d = simulate_lockstep(base_cfg())
        without = simulate_lockstep(base_cfg(delays=()))
        assert excess_runtime(with_d, without) == pytest.approx(DELAY, rel=0.01)


class TestEliminationScan:
    def test_zero_noise_excess_equals_delay(self):
        points = elimination_scan(base_cfg(), [0.0])
        assert points[0].excess == pytest.approx(DELAY, rel=0.01)

    def test_excess_decreases_with_noise(self):
        points = elimination_scan(base_cfg(), [0.0, 0.25])
        assert points[1].excess < points[0].excess

    def test_runtime_grows_with_noise(self):
        points = elimination_scan(base_cfg(), [0.0, 0.25])
        assert points[1].runtime_without_delay > points[0].runtime_without_delay

    def test_requires_a_delay(self):
        with pytest.raises(ValueError, match="delay"):
            elimination_scan(base_cfg(delays=()), [0.0])


class TestRuntimeSpread:
    def test_positive_under_noise(self):
        spread = runtime_spread(base_cfg(), E=0.2, n_runs=4)
        assert spread > 0

    def test_needs_at_least_two_runs(self):
        with pytest.raises(ValueError):
            runtime_spread(base_cfg(), E=0.2, n_runs=1)
