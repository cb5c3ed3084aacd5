"""Unit tests for trace records and matrices."""

import numpy as np
import pytest

from repro.sim.program import OpKind
from repro.sim.trace import OpRecord, Trace


def rec(rank, step, kind, start, end, **kw):
    return OpRecord(rank=rank, step=step, kind=kind, start=start, end=end, **kw)


def small_trace():
    """2 ranks x 2 steps of COMP + WAITALL."""
    records = [
        rec(0, 0, OpKind.COMP, 0.0, 1.0),
        rec(0, 0, OpKind.WAITALL, 1.0, 1.5),
        rec(0, 1, OpKind.COMP, 1.5, 2.5),
        rec(0, 1, OpKind.WAITALL, 2.5, 2.5),
        rec(1, 0, OpKind.COMP, 0.0, 2.0),
        rec(1, 0, OpKind.WAITALL, 2.0, 2.0),
        rec(1, 1, OpKind.COMP, 2.0, 3.0),
        rec(1, 1, OpKind.WAITALL, 3.0, 3.2),
    ]
    return Trace(n_ranks=2, n_steps=2, records=records)


class TestMatrices:
    def test_exec_end_matrix(self):
        m = small_trace().exec_end_matrix()
        np.testing.assert_allclose(m, [[1.0, 2.5], [2.0, 3.0]])

    def test_completion_matrix(self):
        m = small_trace().completion_matrix()
        np.testing.assert_allclose(m, [[1.5, 2.5], [2.0, 3.2]])

    def test_idle_matrix(self):
        m = small_trace().idle_matrix()
        np.testing.assert_allclose(m, [[0.5, 0.0], [0.0, 0.2]])

    def test_missing_cells_are_nan(self):
        t = Trace(n_ranks=2, n_steps=2, records=[rec(0, 0, OpKind.COMP, 0, 1)])
        m = t.exec_end_matrix()
        assert m[0, 0] == 1.0
        assert np.isnan(m[1, 1])


class TestAggregates:
    def test_total_runtime(self):
        assert small_trace().total_runtime() == 3.2

    def test_empty_trace_runtime_zero(self):
        assert Trace(n_ranks=1, n_steps=0).total_runtime() == 0.0


class TestAccessors:
    def test_duration_property(self):
        r = rec(0, 0, OpKind.COMP, 1.0, 2.5)
        assert r.duration == pytest.approx(1.5)


class TestValidation:
    def test_valid_trace_passes(self):
        small_trace().validate()

    def test_overlap_detected(self):
        t = Trace(
            n_ranks=1,
            n_steps=1,
            records=[
                rec(0, 0, OpKind.COMP, 0.0, 1.0),
                rec(0, 0, OpKind.WAITALL, 0.5, 1.5),
            ],
        )
        with pytest.raises(ValueError, match="overlap"):
            t.validate()

    def test_reversed_interval_detected(self):
        t = Trace(n_ranks=1, n_steps=1, records=[rec(0, 0, OpKind.COMP, 1.0, 0.5)])
        with pytest.raises(ValueError, match="end < start"):
            t.validate()

    def test_out_of_range_rank_detected(self):
        t = Trace(n_ranks=1, n_steps=1, records=[rec(5, 0, OpKind.COMP, 0, 1)])
        with pytest.raises(ValueError, match="rank"):
            t.validate()

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Trace(n_ranks=0, n_steps=1)
