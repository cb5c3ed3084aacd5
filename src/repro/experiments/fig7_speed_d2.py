"""Fig. 7 — wave speed with next-to-next-neighbor communication (d = 2).

Rendezvous protocol, open boundaries, noise-free, neighbor distance 2:
(a) unidirectional vs. (b) bidirectional.  Bidirectional communication
doubles the propagation speed (σ = 2 in Eq. 2); with d = 2 the absolute
speeds are twice their d = 1 counterparts.

As in Fig. 5, the panels stay on ``simulate``: the ``perfbench/reference/``
digests pin the full trace each keeps in ``data``.
"""

from __future__ import annotations

from repro.core import measure_speed, silent_speed
from repro.core.timing import RunTiming
from repro.experiments.base import ExperimentResult
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    SimConfig,
    UniformNetwork,
    build_lockstep_program,
    simulate,
)
from repro.sim.topology import CommDomain
from repro.viz.ascii_timeline import render_idle_heatmap
from repro.viz.tables import format_table

__all__ = ["run", "run_d2"]

T_EXEC = 3e-3
MSG_SIZE = 31080 * 8  # rendezvous-sized, as in Fig. 5's bottom row
SOURCE = 8


def run_d2(direction: Direction, n_ranks: int = 18, n_steps: int = 20, seed: int = 0):
    """One Fig. 7 panel (d=2, rendezvous, open chain); returns the trace."""
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=T_EXEC,
        msg_size=MSG_SIZE,
        pattern=CommPattern(direction=direction, distance=2, periodic=False),
        delays=(DelaySpec(rank=SOURCE, step=0, duration=4.5 * T_EXEC),),
        seed=seed,
    )
    return simulate(build_lockstep_program(cfg), SimConfig(network=UniformNetwork()))


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 7 speed comparison."""
    net = UniformNetwork()
    t_comm = net.total_pingpong_time(MSG_SIZE, CommDomain.INTER_NODE)

    rows = []
    data = {}
    timings = {}
    for label, direction in (("(a) unidirectional", Direction.UNIDIRECTIONAL),
                             ("(b) bidirectional", Direction.BIDIRECTIONAL)):
        trace = run_d2(direction, seed=seed)
        timings[label] = RunTiming.from_trace(trace)
        # The same front fit the fig7_speed report spec runs, on one draw.
        speed = measure_speed(timings[label], SOURCE, direction=+1,
                              periodic=False).speed
        bidi = direction == Direction.BIDIRECTIONAL
        model = silent_speed(T_EXEC, t_comm, d=2, bidirectional=bidi, rendezvous=True)
        rows.append((label, speed, model, abs(speed - model) / model * 100))
        data[label] = {"trace": trace, "speed": speed, "model": model}

    ratio = data["(b) bidirectional"]["speed"] / data["(a) unidirectional"]["speed"]
    table = format_table(
        ["panel", "measured [ranks/s]", "Eq.2 [ranks/s]", "error [%]"], rows
    )
    tables = {"speeds": table}
    if not fast:
        for label, timing in timings.items():
            tables[f"{label} idle map"] = render_idle_heatmap(timing)

    notes = [
        f"Speed ratio bidirectional/unidirectional = {ratio:.2f} (paper: 2).",
        "Both absolute speeds are twice the d=1 rendezvous speeds "
        "(d enters Eq. 2 linearly).",
    ]
    return ExperimentResult(
        name="fig7",
        title="Wave speed at neighbor distance d=2 (rendezvous): uni vs. bi",
        tables=tables,
        data={**data, "ratio": ratio},
        notes=notes,
    )
