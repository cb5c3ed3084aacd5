"""Unit tests for the ASCII timeline renderers."""

import numpy as np
import pytest

from repro.core.timing import RunTiming
from repro.sim import DelaySpec, LockstepConfig, simulate_lockstep
from repro.viz.ascii_timeline import render_idle_heatmap, render_timeline

T = 3e-3


def delayed_run():
    cfg = LockstepConfig(
        n_ranks=6, n_steps=8, t_exec=T,
        delays=(DelaySpec(rank=2, step=0, duration=4 * T),),
    )
    return simulate_lockstep(cfg)


class TestRenderTimeline:
    def test_one_row_per_rank_plus_axis(self):
        out = render_timeline(delayed_run(), width=60)
        lines = out.splitlines()
        assert len(lines) == 6 + 2  # ranks + axis + time label

    def test_contains_all_glyphs(self):
        out = render_timeline(delayed_run(), width=80)
        assert "D" in out  # the injected delay
        assert "#" in out  # downstream idle
        assert "." in out  # execution

    def test_delay_on_correct_row(self):
        out = render_timeline(delayed_run(), width=80)
        lines = out.splitlines()
        # Rows are printed top-down from rank 5 to rank 0; rank 2 is lines[3].
        assert "D" in lines[3]
        assert all("D" not in lines[i] for i in (0, 1, 2, 4, 5))

    def test_width_respected(self):
        out = render_timeline(delayed_run(), width=40)
        label_w = len("5 |")
        for line in out.splitlines()[:-2]:
            assert len(line) <= 40 + label_w

    def test_minimum_width_enforced(self):
        with pytest.raises(ValueError):
            render_timeline(delayed_run(), width=5)


class TestRenderIdleHeatmap:
    def test_marks_wave_cells(self):
        out = render_idle_heatmap(delayed_run())
        lines = out.splitlines()
        # rank 3 row (index 2 from top) shows '#' at step 0.
        rank3 = lines[2]
        assert rank3.split("|")[1][0] == "#"

    def test_quiet_run_all_dots(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=5, t_exec=T)
        out = render_idle_heatmap(simulate_lockstep(cfg))
        body = [ln.split("|")[1] for ln in out.splitlines()[:4]]
        assert all(set(row) <= {"."} for row in body)

    def test_invalid_threshold(self):
        # Without a phase length or any idle time the wave threshold is
        # 0, which separates nothing.
        completion = np.tile(np.arange(1.0, 4.0), (3, 1))
        quiet = RunTiming(exec_end=completion, completion=completion,
                          idle=np.zeros_like(completion))
        with pytest.raises(ValueError, match="threshold must be > 0"):
            render_idle_heatmap(quiet)
