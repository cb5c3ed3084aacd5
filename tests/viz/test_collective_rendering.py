"""Rendering works on runs with multiple Waitalls per step (collectives)."""

from repro.core import RunTiming
from repro.sim import DelaySpec, SimConfig, UniformNetwork, simulate
from repro.sim.collectives import Collective, CollectiveConfig, build_collective_program
from repro.viz import render_idle_heatmap, render_timeline

T = 3e-3


def collective_trace():
    cfg = CollectiveConfig(
        n_ranks=8, n_steps=5, collective=Collective.BARRIER, t_exec=T,
        delays=(DelaySpec(rank=3, step=1, duration=4 * T),),
    )
    return RunTiming.from_trace(simulate(build_collective_program(cfg),
                                         SimConfig(network=UniformNetwork())))


class TestCollectiveRendering:
    def test_timeline_renders(self):
        out = render_timeline(collective_trace(), width=70)
        assert "D" in out  # the injected delay
        assert "#" in out  # everyone waits at the barrier
        assert len(out.splitlines()) == 8 + 2

    def test_heatmap_shows_barrier_coupling(self):
        out = render_idle_heatmap(collective_trace())
        lines = out.splitlines()[:8]  # rank rows, top = rank 7
        # Injection step (column 1) idles every rank except the delayed one.
        col1 = [ln.split("|")[1][1] for ln in lines]
        delayed_row = 7 - 3  # rank 3 from the top
        waiting = [c for i, c in enumerate(col1) if i != delayed_row]
        assert all(c == "#" for c in waiting)
