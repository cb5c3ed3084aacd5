"""Unit tests for collective round schedules and program construction."""

import numpy as np
import pytest

from repro.core.timing import RunTiming
from repro.sim import DelaySpec, SimConfig, UniformNetwork, simulate
from repro.sim.collectives import (
    Collective,
    CollectiveConfig,
    barrier_rounds,
    build_collective_program,
    recursive_doubling_rounds,
    ring_allreduce_rounds,
    tree_bcast_rounds,
)

T = 3e-3


class TestBarrierRounds:
    def test_round_count_is_ceil_log2(self):
        assert len(barrier_rounds(2)) == 1
        assert len(barrier_rounds(8)) == 3
        assert len(barrier_rounds(9)) == 4
        assert len(barrier_rounds(16)) == 4

    def test_every_rank_sends_every_round(self):
        for pairs in barrier_rounds(6):
            assert sorted(src for src, _ in pairs) == list(range(6))

    def test_offsets_double(self):
        rounds = barrier_rounds(8)
        for k, pairs in enumerate(rounds):
            for src, dst in pairs:
                assert dst == (src + 2**k) % 8

    def test_too_small(self):
        with pytest.raises(ValueError):
            barrier_rounds(1)


class TestRecursiveDoubling:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            recursive_doubling_rounds(6)

    def test_partners_are_involutions(self):
        for pairs in recursive_doubling_rounds(8):
            mapping = dict(pairs)
            for a, b in pairs:
                assert mapping[b] == a  # partner's partner is self

    def test_round_count(self):
        assert len(recursive_doubling_rounds(16)) == 4


class TestRingAllreduce:
    def test_round_count_is_2p_minus_2(self):
        assert len(ring_allreduce_rounds(5)) == 8

    def test_each_round_is_the_ring(self):
        for pairs in ring_allreduce_rounds(4):
            assert set(pairs) == {(0, 1), (1, 2), (2, 3), (3, 0)}


class TestTreeBcast:
    def test_holders_double_each_round(self):
        rounds = tree_bcast_rounds(8, root=0)
        assert [len(p) for p in rounds] == [1, 2, 4]

    def test_every_rank_reached_exactly_once(self):
        received = set()
        for pairs in tree_bcast_rounds(11, root=3):
            for _, dst in pairs:
                assert dst not in received
                received.add(dst)
        assert received == set(range(11)) - {3}

    def test_senders_already_hold_the_data(self):
        holders = {0}
        for pairs in tree_bcast_rounds(8, root=0):
            for src, dst in pairs:
                assert src in holders
            holders.update(dst for _, dst in pairs)

    def test_root_bounds(self):
        with pytest.raises(IndexError):
            tree_bcast_rounds(8, root=8)


class TestBuildCollectiveProgram:
    def run(self, collective, n_ranks=8, delays=(), n_steps=4):
        cfg = CollectiveConfig(
            n_ranks=n_ranks, n_steps=n_steps, collective=collective,
            t_exec=T, delays=tuple(delays),
        )
        prog = build_collective_program(cfg)
        return simulate(prog, SimConfig(network=UniformNetwork()))

    @pytest.mark.parametrize("collective", list(Collective))
    def test_runs_and_validates(self, collective):
        trace = self.run(collective)
        trace.validate()
        # Noise-free: runtime ~= steps * (T + rounds * t_round).
        assert trace.total_runtime() > 4 * T

    @pytest.mark.parametrize("collective", list(Collective))
    def test_deterministic(self, collective):
        a = self.run(collective).completion_matrix()
        b = self.run(collective).completion_matrix()
        np.testing.assert_array_equal(a, b)

    def test_barrier_synchronizes_all_ranks(self):
        """A delayed rank holds up everyone's next step under a barrier."""
        trace = self.run(
            Collective.BARRIER,
            delays=[DelaySpec(rank=3, step=1, duration=5 * T)],
        )
        timing = RunTiming.from_trace(trace)
        # Step 1 completion of every rank is pushed past the delay.
        base = self.run(Collective.BARRIER)
        delta = timing.completion[:, 1] - RunTiming.from_trace(base).completion[:, 1]
        assert (delta > 4 * T).all()

    def test_tree_bcast_leaf_delay_hits_fewer_ranks(self):
        trace = self.run(
            Collective.BCAST_TREE,
            delays=[DelaySpec(rank=5, step=1, duration=5 * T)],
        )
        base = self.run(Collective.BCAST_TREE)
        delta = (
            RunTiming.from_trace(trace).completion[:, 1]
            - RunTiming.from_trace(base).completion[:, 1]
        )
        # A leaf's delay does not synchronize the whole communicator within
        # the same step (no reduction direction in a bcast).
        assert (delta > 4 * T).sum() < 8

    def test_delay_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CollectiveConfig(
                n_ranks=4, n_steps=2,
                delays=(DelaySpec(rank=9, step=0, duration=1e-3),),
            )

    def test_multiple_waitalls_accumulate_idle(self):
        trace = self.run(Collective.ALLREDUCE_RING, n_ranks=4)
        idle = trace.idle_matrix()
        assert idle.shape == (4, 4)
        assert (idle >= 0).all()
