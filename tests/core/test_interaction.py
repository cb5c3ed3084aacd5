"""Unit tests for wave interaction, cancellation and nonlinearity metrics."""

import pytest

from repro.core.interaction import (
    find_waves,
    meeting_ranks,
    resync_step,
    superposition_defect,
)
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    simulate_lockstep,
)

T = 3e-3


def ring_run(delays, n_ranks=24, n_steps=20, **kw):
    cfg = LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=T, msg_size=8192,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                            periodic=True),
        delays=tuple(delays),
        **kw,
    )
    return simulate_lockstep(cfg)


class TestFindWaves:
    def test_single_injection_single_wave(self):
        run = ring_run([DelaySpec(rank=6, step=0, duration=4 * T)])
        waves = find_waves(run)
        assert len(waves) == 1
        # The source computes, its neighbors idle.
        assert 6 not in {rank for rank, _ in waves[0].cells}

    def test_two_far_injections_four_branches_initially(self):
        run = ring_run(
            [DelaySpec(rank=0, step=0, duration=4 * T),
             DelaySpec(rank=12, step=0, duration=4 * T)],
            n_steps=4,  # stop before the waves meet
        )
        # Each injection spawns two counter-propagating branches that are
        # separated by the (busy) source rank, hence 4 components.
        assert len(find_waves(run)) == 4

    def test_waves_merge_on_collision(self):
        run = ring_run(
            [DelaySpec(rank=0, step=0, duration=4 * T),
             DelaySpec(rank=12, step=0, duration=4 * T)],
            n_steps=20,  # long enough to collide
        )
        waves = find_waves(run)
        # After collision the components join: fewer than 2*2 fronts remain.
        assert 1 <= len(waves) <= 2

    def test_wave_extent_and_idle(self):
        run = ring_run([DelaySpec(rank=6, step=0, duration=4 * T)])
        wave = find_waves(run)[0]
        assert len({rank for rank, _ in wave.cells}) >= 10
        assert wave.total_idle > 10 * 4 * T * 0.8

    def test_quiet_run_has_no_waves(self):
        run = ring_run([])
        assert find_waves(run) == []


class TestResyncStep:
    def test_symmetric_cancellation_resyncs(self):
        run = ring_run([DelaySpec(rank=0, step=0, duration=4 * T)], n_steps=20)
        step = resync_step(run)
        # The two branches meet at the antipode after ~12 hops.
        assert step is not None
        assert 10 <= step <= 16

    def test_quiet_run_resyncs_at_zero(self):
        assert resync_step(ring_run([])) == 0

    def test_never_resyncs_within_horizon(self):
        run = ring_run([DelaySpec(rank=0, step=0, duration=20 * T)], n_steps=6)
        assert resync_step(run) is None


class TestMeetingRanks:
    def test_waves_meet_at_antipode(self):
        run = ring_run([DelaySpec(rank=0, step=0, duration=4 * T)], n_steps=20)
        meet = meeting_ranks(run)
        assert meet, "expected a meeting point"
        # Antipode of rank 0 on a 24-ring is rank 12 (+/- 1 for asymmetry).
        assert all(10 <= r <= 14 for r in meet)

    def test_quiet_run_has_no_meeting(self):
        assert meeting_ranks(ring_run([])) == []


class TestSuperpositionDefect:
    def test_noninteracting_waves_superpose_linearly(self):
        a = DelaySpec(rank=0, step=0, duration=3 * T)
        b = DelaySpec(rank=12, step=0, duration=3 * T)
        short = 4  # not enough steps to collide
        combined = ring_run([a, b], n_steps=short)
        singles = [ring_run([a], n_steps=short), ring_run([b], n_steps=short)]
        baseline = ring_run([], n_steps=short)
        defect = superposition_defect(combined, singles, baseline=baseline)
        assert defect == pytest.approx(0.0, abs=1e-6)

    def test_baseline_removes_background_offset(self):
        a = DelaySpec(rank=0, step=0, duration=3 * T)
        b = DelaySpec(rank=12, step=0, duration=3 * T)
        combined = ring_run([a, b], n_steps=4)
        singles = [ring_run([a], n_steps=4), ring_run([b], n_steps=4)]
        baseline = ring_run([], n_steps=4)
        raw = superposition_defect(combined, singles)
        corrected = superposition_defect(combined, singles, baseline=baseline)
        # Without the baseline, the regular comm idle is double-counted in
        # the linear sum, biasing the defect negative.
        assert raw < corrected

    def test_colliding_waves_destroy_idle(self):
        a = DelaySpec(rank=0, step=0, duration=3 * T)
        b = DelaySpec(rank=12, step=0, duration=3 * T)
        combined = ring_run([a, b], n_steps=20)
        singles = [ring_run([a], n_steps=20), ring_run([b], n_steps=20)]
        defect = superposition_defect(combined, singles)
        assert defect < -10 * T  # large destruction of idle time
