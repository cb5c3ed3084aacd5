"""Unit tests for the text table formatting."""

import pytest

from repro.viz.tables import format_table


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["a", "long header"], [[1.0, 2.0], [3.5, 4.25]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", "+"}
        assert len(lines) == 4

    def test_floats_formatted(self):
        out = format_table(["x"], [[1.23456789]], float_fmt="{:.2f}")
        assert "1.23" in out

    def test_non_floats_stringified(self):
        out = format_table(["n", "tag"], [[3, "abc"]])
        assert "abc" in out

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError, match="headers"):
            format_table(["a", "b"], [[1.0]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])
