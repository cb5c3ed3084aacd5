"""Unit tests for the paper's Eq. 1."""

import pytest

from repro.models.hockney import triad_strong_scaling_model


class TestEq1:
    def test_paper_defaults_at_one_socket(self):
        # T(1) = 1.2e9/40e9 + 2*2e6/3e9 = 30 ms + 1.33 ms
        t = triad_strong_scaling_model(1)
        assert t == pytest.approx(1.2e9 / 40e9 + 4e6 / 3e9)

    def test_execution_term_scales_communication_does_not(self):
        t1 = triad_strong_scaling_model(1)
        t2 = triad_strong_scaling_model(2)
        comm = 4e6 / 3e9
        assert t1 - comm == pytest.approx(2 * (t2 - comm))

    def test_performance_model_shape(self):
        """Eq. 1 predicts sublinear scaling: comm floor limits speedup."""
        flops = 2 * 5e7
        p = [flops / triad_strong_scaling_model(n) for n in (1, 4, 16)]
        assert p[1] > p[0] and p[2] > p[1]
        assert p[2] / p[0] < 16  # far below linear

    def test_validation(self):
        with pytest.raises(ValueError):
            triad_strong_scaling_model(0)
        with pytest.raises(ValueError):
            triad_strong_scaling_model(1, b_mem=0)

