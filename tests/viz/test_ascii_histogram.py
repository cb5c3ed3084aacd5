"""Unit tests for the ASCII histogram renderer."""

import numpy as np
import pytest

from repro.analysis.histogram import NoiseHistogram
from repro.viz.ascii_histogram import render_histogram


def hist(samples, bin_width=1e-6):
    return NoiseHistogram.from_samples(np.asarray(samples), bin_width)


class TestRenderHistogram:
    def test_contains_bars_and_counts(self):
        h = hist([0.5e-6] * 100 + [2.5e-6] * 10)
        out = render_histogram(h)
        assert "#" in out
        assert "100" in out
        assert "µs" in out

    def test_row_limit_respected(self):
        samples = np.linspace(0, 100e-6, 500)
        out = render_histogram(hist(samples), max_rows=8)
        bar_rows = [ln for ln in out.splitlines() if "|" in ln][1:]  # skip header
        assert len(bar_rows) <= 8 + 1

    def test_peak_bar_has_full_width(self):
        h = hist([0.5e-6] * 1000 + [2.5e-6])
        out = render_histogram(h)
        assert "#" * 60 in out and "#" * 61 not in out

    def test_log_scaling_compresses(self):
        h = hist([0.5e-6] * 10000 + [2.5e-6] * 10)
        lines_log = render_histogram(h).splitlines()
        small_bar = next(ln for ln in lines_log if ln.rstrip().endswith(" 10"))
        assert small_bar.count("#") > 5  # visible despite 1000x ratio

    def test_summary_footer(self):
        h = hist([1e-6, 3e-6])
        out = render_histogram(h)
        assert "n=2" in out
        assert "mean=2.00" in out

    def test_validation(self):
        h = hist([1e-6])
        with pytest.raises(ValueError):
            render_histogram(h, max_rows=0)
