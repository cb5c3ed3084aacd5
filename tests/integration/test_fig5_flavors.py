"""Integration tests: the eight Fig. 5 propagation flavors."""

import pytest

from repro.core import RunTiming, meeting_ranks, resync_step, wave_front
from repro.experiments.fig5_flavors import (
    EAGER_SIZE,
    RENDEZVOUS_SIZE,
    SOURCE_RANK,
    T_EXEC,
    run_flavor,
)
from repro.sim import Direction


def flavor_timing(*args, **kwargs) -> RunTiming:
    """One Fig. 5 panel's trace as the analyses read it."""
    return RunTiming.from_trace(run_flavor(*args, **kwargs))


class TestEagerRow:
    def test_a_uni_open_runs_out_at_boundary(self):
        trace = flavor_timing(EAGER_SIZE, Direction.UNIDIRECTIONAL, periodic=False)
        up = wave_front(trace, SOURCE_RANK, +1, periodic=False)
        down = wave_front(trace, SOURCE_RANK, -1, periodic=False)
        assert up.reach == 12  # all the way to rank 17
        assert down.reach == 0  # eager: no backward propagation

    def test_b_uni_periodic_wraps_and_dies_at_source(self):
        trace = flavor_timing(EAGER_SIZE, Direction.UNIDIRECTIONAL, periodic=True)
        up = wave_front(trace, SOURCE_RANK, +1, periodic=True)
        assert up.reach == 17  # one full traversal (n_ranks - 1 hops)
        assert resync_step(trace) is not None  # in sync again afterwards

    def test_c_bi_open_propagates_both_ways(self):
        trace = flavor_timing(EAGER_SIZE, Direction.BIDIRECTIONAL, periodic=False)
        assert wave_front(trace, SOURCE_RANK, +1).reach == 12
        assert wave_front(trace, SOURCE_RANK, -1).reach == 5

    def test_d_bi_periodic_cancels_at_antipode(self):
        trace = flavor_timing(EAGER_SIZE, Direction.BIDIRECTIONAL, periodic=True)
        meet = meeting_ranks(trace)
        # Source 5 on an 18-ring: antipode is rank 14 (paper: 'rank 14').
        assert meet == [14]
        assert resync_step(trace) is not None


class TestRendezvousRow:
    def test_e_uni_open_backward_propagation(self):
        trace = flavor_timing(RENDEZVOUS_SIZE, Direction.UNIDIRECTIONAL, periodic=False)
        assert wave_front(trace, SOURCE_RANK, -1).reach == 5  # down to rank 0

    def test_f_uni_periodic_cancels(self):
        trace = flavor_timing(RENDEZVOUS_SIZE, Direction.UNIDIRECTIONAL, periodic=True)
        assert resync_step(trace) is not None

    def test_g_bi_open_twice_the_speed(self):
        from repro.core import measure_speed

        t_uni = flavor_timing(RENDEZVOUS_SIZE, Direction.UNIDIRECTIONAL, periodic=False)
        t_bi = flavor_timing(RENDEZVOUS_SIZE, Direction.BIDIRECTIONAL, periodic=False)
        v_uni = measure_speed(t_uni, SOURCE_RANK, +1).speed
        v_bi = measure_speed(t_bi, SOURCE_RANK, +1).speed
        assert v_bi / v_uni == pytest.approx(2.0, rel=0.01)

    def test_h_bi_periodic_resyncs_fastest(self):
        t_d = flavor_timing(EAGER_SIZE, Direction.BIDIRECTIONAL, periodic=True)
        t_h = flavor_timing(RENDEZVOUS_SIZE, Direction.BIDIRECTIONAL, periodic=True)
        # Twice the speed -> the ring is traversed and cancelled sooner.
        assert resync_step(t_h) < resync_step(t_d)


class TestProtocolBoundary:
    def test_sizes_straddle_the_eager_limit(self):
        from repro.sim.mpi import select_protocol, Protocol

        from repro.experiments.fig5_flavors import EAGER_LIMIT

        assert select_protocol(EAGER_SIZE, EAGER_LIMIT) == Protocol.EAGER
        assert select_protocol(RENDEZVOUS_SIZE, EAGER_LIMIT) == Protocol.RENDEZVOUS

    def test_all_flavors_preserve_total_work(self):
        """Every flavor runs the same 20 steps; runtime differs only by the
        delay handling, never by more than delay + wraparound slack."""
        base = 20 * T_EXEC
        for size in (EAGER_SIZE, RENDEZVOUS_SIZE):
            for direction in Direction:
                for periodic in (False, True):
                    trace = run_flavor(size, direction, periodic)
                    rt = trace.total_runtime()
                    assert base < rt < base + 4.5 * T_EXEC + 5e-3
