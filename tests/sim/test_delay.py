"""Unit tests for one-off delay specification and injection helpers."""

import numpy as np
import pytest

from repro.sim.delay import DelaySpec, delays_at_local_rank
from repro.sim.topology import single_switch_mapping


class TestDelaySpec:
    @pytest.mark.parametrize("kwargs", [
        dict(rank=-1, step=0, duration=1e-3),
        dict(rank=0, step=-1, duration=1e-3),
        dict(rank=0, step=0, duration=-1e-3),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DelaySpec(**kwargs)

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            DelaySpec(rank=0, step=0, duration=duration)


class TestDelaysAtLocalRank:
    def test_fig6_pattern_targets_sixth_process_per_socket(self):
        mapping = single_switch_mapping(100, ppn=20)
        specs = delays_at_local_rank(mapping, 5, [1e-3] * 10)
        assert len(specs) == 10
        # Socket s starts at rank 10*s; local rank 5 -> global 10*s + 5.
        assert [s.rank for s in specs] == [10 * s + 5 for s in range(10)]

    def test_zero_durations_skipped(self):
        mapping = single_switch_mapping(40, ppn=20)  # 4 sockets
        specs = delays_at_local_rank(mapping, 0, [1e-3, 0.0, 0.0, 0.0])
        assert len(specs) == 1
        assert specs[0].rank == 0

    def test_wrong_duration_count_rejected(self):
        mapping = single_switch_mapping(40, ppn=20)
        with pytest.raises(ValueError, match="durations"):
            delays_at_local_rank(mapping, 0, [1e-3] * 3)

    def test_local_rank_out_of_range_rejected(self):
        mapping = single_switch_mapping(40, ppn=20)  # 10 ranks per socket
        with pytest.raises(ValueError, match="local_rank"):
            delays_at_local_rank(mapping, 10, [1e-3] * 4)

    def test_step_propagated(self):
        mapping = single_switch_mapping(40, ppn=20)
        specs = delays_at_local_rank(mapping, 2, [1e-3] * 4, step=3)
        assert all(s.step == 3 for s in specs)
