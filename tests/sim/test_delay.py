"""Unit tests for one-off delay specification and injection helpers."""

import numpy as np
import pytest

from repro.sim.delay import DelaySpec, delays_at_local_rank, random_delays
from repro.sim.topology import single_switch_mapping


class TestDelaySpec:
    def test_in_phases(self):
        spec = DelaySpec(rank=5, step=0, duration=13.5e-3)
        assert spec.in_phases(3e-3) == pytest.approx(4.5)

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

    def test_in_phases_requires_positive_t_exec(self):
        with pytest.raises(ValueError):
            DelaySpec(rank=0, step=0, duration=1e-3).in_phases(0)


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


class TestRandomDelays:
    def test_durations_within_bounds(self):
        mapping = single_switch_mapping(100, ppn=20)
        rng = np.random.default_rng(0)
        specs = random_delays(mapping, 5, rng, low=1e-3, high=2e-3)
        assert len(specs) == 10
        assert all(1e-3 <= s.duration <= 2e-3 for s in specs)

    def test_reproducible_given_seed(self):
        mapping = single_switch_mapping(60, ppn=20)
        a = random_delays(mapping, 5, np.random.default_rng(1), 1e-3, 2e-3)
        b = random_delays(mapping, 5, np.random.default_rng(1), 1e-3, 2e-3)
        assert [s.duration for s in a] == [s.duration for s in b]

    def test_invalid_bounds_rejected(self):
        mapping = single_switch_mapping(40, ppn=20)
        with pytest.raises(ValueError):
            random_delays(mapping, 5, np.random.default_rng(0), 2e-3, 1e-3)
