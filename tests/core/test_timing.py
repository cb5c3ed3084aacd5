"""Unit tests for the RunTiming adapter."""

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
    def test_from_trace_and_from_lockstep_agree(self):
        c = cfg()
        trace = simulate(build_lockstep_program(c), SimConfig())
        res = simulate_lockstep(c)
        a = RunTiming.from_trace(trace)
        b = RunTiming.from_lockstep(res)
        np.testing.assert_allclose(a.completion, b.completion, atol=1e-12)
        np.testing.assert_allclose(a.idle, b.idle, atol=1e-12)

    def test_of_dispatches_all_types(self):
        c = cfg()
        res = simulate_lockstep(c)
        timing = RunTiming.of(res)
        assert RunTiming.of(timing) is timing
        trace = simulate(build_lockstep_program(c), SimConfig())
        assert isinstance(RunTiming.of(trace), RunTiming)

    def test_of_rejects_unknown(self):
        with pytest.raises(TypeError):
            RunTiming.of(42)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            RunTiming(
                exec_end=np.zeros((2, 3)),
                completion=np.zeros((2, 4)),
                idle=np.zeros((2, 3)),
            )


class TestAggregates:
    def timing(self):
        return RunTiming.of(simulate_lockstep(cfg()))

    def test_dimensions(self):
        t = self.timing()
        assert t.n_ranks == 8 and t.n_steps == 10

    def test_total_runtime_positive_and_max(self):
        t = self.timing()
        assert t.total_runtime() == pytest.approx(float(t.completion.max()))

    def test_wait_start_below_completion(self):
        t = self.timing()
        assert (t.wait_start() <= t.completion + 1e-15).all()

    def test_idle_aggregations_consistent(self):
        t = self.timing()
        assert t.total_idle() == pytest.approx(t.idle_by_rank().sum())

    def test_t_exec_from_meta(self):
        assert self.timing().t_exec == pytest.approx(T)
