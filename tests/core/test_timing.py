"""Unit tests for the RunTiming and BatchedTiming run types."""

import numpy as np
import pytest

from repro.core.timing import RunTiming
from repro.sim import (
    DelaySpec,
    LockstepConfig,
    SimConfig,
    build_lockstep_program,
    simulate,
    simulate_lockstep,
)

T = 3e-3


def cfg():
    return LockstepConfig(
        n_ranks=8, n_steps=10, t_exec=T,
        delays=(DelaySpec(rank=3, step=0, duration=3 * T),),
    )


class TestConstructors:
    def test_from_trace_agrees_with_lockstep(self):
        c = cfg()
        trace = simulate(build_lockstep_program(c), SimConfig())
        a = RunTiming.from_trace(trace)
        b = simulate_lockstep(c)
        np.testing.assert_allclose(a.completion, b.completion, atol=1e-12)
        np.testing.assert_allclose(a.idle, b.idle, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            RunTiming(
                exec_end=np.zeros((2, 3)),
                completion=np.zeros((2, 4)),
                idle=np.zeros((2, 3)),
            )


class TestAggregates:
    def timing(self):
        return simulate_lockstep(cfg())

    def test_dimensions(self):
        t = self.timing()
        assert t.n_ranks == 8 and t.n_steps == 10

    def test_total_runtime_positive_and_max(self):
        t = self.timing()
        assert t.total_runtime() == pytest.approx(float(t.completion.max()))

    def test_total_runtime_of_no_steps_is_zero(self):
        empty = np.zeros((3, 0))
        run = RunTiming(exec_end=empty, completion=empty, idle=empty)
        assert run.total_runtime() == 0.0
        assert run.batch().total_runtimes().tolist() == [0.0]

    def test_wait_start_below_completion(self):
        t = self.timing()
        assert (t.wait_start() <= t.completion + 1e-15).all()

    def test_idle_aggregations_consistent(self):
        t = self.timing()
        assert t.total_idle() == pytest.approx(t.idle_by_rank().sum())

    def test_t_exec_from_meta(self):
        assert self.timing().t_exec == pytest.approx(T)
