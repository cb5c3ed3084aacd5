"""Unit tests for timeline extraction."""

import pytest

from repro.analysis.timeline import (
    IntervalKind,
    full_timeline,
    rank_timeline,
)
from repro.sim import DelaySpec, LockstepConfig, simulate_lockstep

T = 3e-3


def delayed_run():
    cfg = LockstepConfig(
        n_ranks=6, n_steps=8, t_exec=T,
        delays=(DelaySpec(rank=2, step=1, duration=3 * T),),
    )
    return simulate_lockstep(cfg)


class TestRankTimeline:
    def test_intervals_ordered_and_disjoint(self):
        tl = rank_timeline(delayed_run(), 3)
        for a, b in zip(tl, tl[1:]):
            assert b.start >= a.end - 1e-12

    def test_delay_interval_emitted(self):
        tl = rank_timeline(delayed_run(), 2)
        delays = [iv for iv in tl if iv.kind == IntervalKind.DELAY]
        assert len(delays) == 1
        assert delays[0].step == 1
        assert delays[0].duration == pytest.approx(3 * T, rel=1e-6)

    def test_no_delay_interval_on_clean_rank(self):
        tl = rank_timeline(delayed_run(), 0)
        assert all(iv.kind != IntervalKind.DELAY for iv in tl)

    def test_idle_appears_downstream(self):
        tl = rank_timeline(delayed_run(), 3)
        idles = [iv for iv in tl if iv.kind == IntervalKind.IDLE]
        assert max(iv.duration for iv in idles) == pytest.approx(3 * T, rel=0.01)

    def test_exec_intervals_every_step(self):
        tl = rank_timeline(delayed_run(), 4)
        execs = [iv for iv in tl if iv.kind == IntervalKind.EXEC]
        assert len(execs) == 8

    def test_rank_bounds(self):
        with pytest.raises(IndexError):
            rank_timeline(delayed_run(), 6)


class TestFullTimeline:
    def test_one_list_per_rank(self):
        tls = full_timeline(delayed_run())
        assert len(tls) == 6
        assert all(tl for tl in tls)
