"""Unit tests for the compute-bound divide workload."""

import pytest

from repro.cluster import EMMY, MEGGIE
from repro.workloads.divide import DivideWorkload


class TestDivideWorkload:
    def test_ideal_duration_from_throughput(self):
        w = DivideWorkload(cpu=EMMY.cpu, n_instructions=1000)
        assert w.ideal_duration == pytest.approx(1000 * 28 / 2.2e9)

    def test_for_duration_inverts(self):
        w = DivideWorkload.for_duration(EMMY.cpu, 3e-3)
        assert w.ideal_duration == pytest.approx(3e-3, rel=1e-4)

    def test_broadwell_needs_more_instructions_for_same_time(self):
        # 16 vs 28 cycles per divide: Broadwell fits more in 3 ms.
        ivb = DivideWorkload.for_duration(EMMY.cpu, 3e-3)
        bdw = DivideWorkload.for_duration(MEGGIE.cpu, 3e-3)
        assert bdw.n_instructions > ivb.n_instructions

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DivideWorkload(cpu=EMMY.cpu, n_instructions=0)
        with pytest.raises(ValueError):
            DivideWorkload.for_duration(EMMY.cpu, 0.0)

