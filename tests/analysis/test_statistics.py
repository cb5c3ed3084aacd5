"""Unit tests for the multi-run statistics."""

import pytest

from repro.analysis.statistics import RunStatistics


class TestRunStatistics:
    def test_basic_summary(self):
        s = RunStatistics.from_samples([1.0, 2.0, 3.0, 4.0, 10.0])
        assert s.median == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 10.0
        assert s.mean == pytest.approx(4.0)
        assert s.n == 5

    def test_single_sample_zero_std(self):
        s = RunStatistics.from_samples([2.0])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RunStatistics.from_samples([])
