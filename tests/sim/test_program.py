"""Unit tests for communication patterns and program construction."""

import numpy as np
import pytest

from repro.sim.delay import DelaySpec
from repro.sim.noise import ExponentialNoise
from repro.sim.program import (
    CommPattern,
    Direction,
    LockstepConfig,
    Op,
    OpKind,
    build_exec_times,
    build_lockstep_program,
)


class TestCommPattern:
    def test_uni_sends_up_receives_down(self):
        p = CommPattern(direction=Direction.UNIDIRECTIONAL, distance=1)
        assert p.send_targets(3, 10) == [4]
        assert p.recv_sources(3, 10) == [2]

    def test_bi_exchanges_both_ways(self):
        p = CommPattern(direction=Direction.BIDIRECTIONAL, distance=1)
        assert sorted(p.send_targets(3, 10)) == [2, 4]
        assert sorted(p.recv_sources(3, 10)) == [2, 4]

    def test_distance_two_partners(self):
        p = CommPattern(direction=Direction.UNIDIRECTIONAL, distance=2)
        assert p.send_targets(3, 10) == [4, 5]
        assert p.recv_sources(3, 10) == [2, 1]

    def test_open_boundary_truncates(self):
        p = CommPattern(direction=Direction.UNIDIRECTIONAL, distance=2)
        assert p.send_targets(9, 10) == []
        assert p.send_targets(8, 10) == [9]
        assert p.recv_sources(0, 10) == []

    def test_periodic_wraps(self):
        p = CommPattern(direction=Direction.UNIDIRECTIONAL, distance=1, periodic=True)
        assert p.send_targets(9, 10) == [0]
        assert p.recv_sources(0, 10) == [9]

    def test_send_recv_consistency(self):
        """j receives from i iff i sends to j — for every flavor."""
        for direction in Direction:
            for periodic in (False, True):
                for d in (1, 2, 3):
                    p = CommPattern(direction=direction, distance=d, periodic=periodic)
                    n = 9
                    sends = {(i, j) for i in range(n) for j in p.send_targets(i, n)}
                    recvs = {(j, i) for i in range(n) for j in p.recv_sources(i, n)}
                    assert sends == recvs, (direction, periodic, d)

    def test_small_ring_aliases_deduplicated(self):
        p = CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True)
        assert p.send_targets(0, 2) == [1]
        assert p.recv_sources(1, 2) == [0]

    def test_no_self_messages_ever(self):
        for direction in Direction:
            for n in (2, 3, 4, 5):
                p = CommPattern(direction=direction, distance=2, periodic=True)
                for i in range(n):
                    assert i not in p.send_targets(i, n)
                    assert i not in p.recv_sources(i, n)

    def test_distance_zero_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(distance=0)

    def test_rank_out_of_range(self):
        with pytest.raises(IndexError):
            CommPattern().send_targets(10, 10)


class TestOp:
    def test_comp_requires_nonnegative_duration(self):
        with pytest.raises(ValueError):
            Op(kind=OpKind.COMP, duration=-1.0)

    def test_isend_requires_peer(self):
        with pytest.raises(ValueError):
            Op(kind=OpKind.ISEND, peer=-1, size=8)


class TestBuildExecTimes:
    def cfg(self, **kw):
        base = dict(n_ranks=6, n_steps=8, t_exec=3e-3)
        base.update(kw)
        return LockstepConfig(**base)

    def test_baseline_is_constant(self):
        times = build_exec_times(self.cfg())
        np.testing.assert_allclose(times, 3e-3)

    def test_noise_adds_on_top(self):
        cfg = self.cfg(noise=ExponentialNoise(1e-4))
        times = build_exec_times(cfg)
        assert (times >= 3e-3).all()
        assert times.max() > 3e-3

    def test_delay_lands_on_target_cell(self):
        cfg = self.cfg(delays=(DelaySpec(rank=2, step=3, duration=10e-3),))
        times = build_exec_times(cfg)
        assert times[2, 3] == pytest.approx(13e-3)
        assert times.sum() == pytest.approx(6 * 8 * 3e-3 + 10e-3)

    def test_seed_determines_noise(self):
        cfg = self.cfg(noise=ExponentialNoise(1e-4), seed=9)
        np.testing.assert_array_equal(build_exec_times(cfg), build_exec_times(cfg))


class TestBuildLockstepProgram:
    def test_ops_per_step_structure(self):
        cfg = LockstepConfig(n_ranks=5, n_steps=3)
        prog = build_lockstep_program(cfg)
        # Interior rank: COMP + IRECV + ISEND + WAITALL per step.
        ops = prog.ops[2]
        kinds = [op.kind for op in ops[:4]]
        assert kinds == [OpKind.COMP, OpKind.IRECV, OpKind.ISEND, OpKind.WAITALL]
        assert len(ops) == 3 * 4

    def test_boundary_ranks_have_fewer_message_ops(self):
        cfg = LockstepConfig(n_ranks=5, n_steps=1)
        prog = build_lockstep_program(cfg)
        # Rank 0 (uni): no receive; rank 4: no send.
        kinds0 = [op.kind for op in prog.ops[0]]
        kinds4 = [op.kind for op in prog.ops[4]]
        assert OpKind.IRECV not in kinds0
        assert OpKind.ISEND not in kinds4

    def test_custom_exec_times_used(self):
        cfg = LockstepConfig(n_ranks=3, n_steps=2)
        times = np.full((3, 2), 1e-3)
        times[1, 0] = 9e-3
        prog = build_lockstep_program(cfg, times)
        comp = [op for op in prog.ops[1] if op.kind == OpKind.COMP]
        assert comp[0].duration == pytest.approx(9e-3)

    def test_wrong_shape_rejected(self):
        cfg = LockstepConfig(n_ranks=3, n_steps=2)
        with pytest.raises(ValueError, match="shape"):
            build_lockstep_program(cfg, np.zeros((2, 2)))

    def test_negative_exec_times_rejected(self):
        cfg = LockstepConfig(n_ranks=3, n_steps=2)
        with pytest.raises(ValueError, match="non-negative"):
            build_lockstep_program(cfg, np.full((3, 2), -1.0))

    def test_delay_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LockstepConfig(
                n_ranks=4, n_steps=2,
                delays=(DelaySpec(rank=4, step=0, duration=1e-3),),
            )
        with pytest.raises(ValueError):
            LockstepConfig(
                n_ranks=4, n_steps=2,
                delays=(DelaySpec(rank=0, step=2, duration=1e-3),),
            )
