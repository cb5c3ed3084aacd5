"""Fig. 5 — all eight propagation flavors.

A scan of {eager, rendezvous} × {unidirectional, bidirectional} ×
{open, periodic} on 18 ranks (one process per node), with a 4.5-phase
delay injected at rank 5.  Message sizes follow the paper: 16384 B for the
eager row, 31080 doubles (248640 B) for the rendezvous row, with the eager
limit at 131072 B.

Expected mechanisms (all asserted by the integration tests):

- (a/b) eager unidirectional: wave moves only upward; on a periodic ring
  it wraps and dies at the injection rank.
- (c/d) eager bidirectional: waves move both ways; on a ring they meet at
  the antipodal rank (14 for source 5 on 18 ranks) and cancel.
- (e/f) rendezvous unidirectional: backward propagation appears (the
  sender cannot get rid of its messages).
- (g/h) rendezvous bidirectional: speed doubles (σ = 2 in Eq. 2).

The panels run on the DAG engine's record-building ``simulate`` because
each keeps its full trace (ISEND/IRECV records, ``meta["engine"]``) in
``data``, which the ``perfbench/reference/`` digests pin.
"""

from __future__ import annotations

from repro.core import (
    meeting_ranks,
    measure_speed,
    resync_step,
    silent_speed,
    wave_front,
)
from repro.core.timing import RunTiming
from repro.experiments.base import ExperimentResult
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    SimConfig,
    UniformNetwork,
    build_lockstep_program,
    simulate,
)
from repro.sim.topology import CommDomain
from repro.viz.ascii_timeline import render_idle_heatmap
from repro.viz.tables import format_table

__all__ = ["run", "FLAVORS", "run_flavor"]

EAGER_SIZE = 16384
RENDEZVOUS_SIZE = 31080 * 8  # "31080 B" per figure text is doubles: 248640 B
EAGER_LIMIT = 131072  # 16384 doubles

#: The eight panels: (label, size, direction, periodic).
FLAVORS: list[tuple[str, int, Direction, bool]] = [
    ("(a) eager uni open", EAGER_SIZE, Direction.UNIDIRECTIONAL, False),
    ("(b) eager uni periodic", EAGER_SIZE, Direction.UNIDIRECTIONAL, True),
    ("(c) eager bi open", EAGER_SIZE, Direction.BIDIRECTIONAL, False),
    ("(d) eager bi periodic", EAGER_SIZE, Direction.BIDIRECTIONAL, True),
    ("(e) rdv uni open", RENDEZVOUS_SIZE, Direction.UNIDIRECTIONAL, False),
    ("(f) rdv uni periodic", RENDEZVOUS_SIZE, Direction.UNIDIRECTIONAL, True),
    ("(g) rdv bi open", RENDEZVOUS_SIZE, Direction.BIDIRECTIONAL, False),
    ("(h) rdv bi periodic", RENDEZVOUS_SIZE, Direction.BIDIRECTIONAL, True),
]

SOURCE_RANK = 5
T_EXEC = 3e-3


def run_flavor(size: int, direction: Direction, periodic: bool,
               n_ranks: int = 18, n_steps: int = 20, seed: int = 0):
    """Simulate one Fig. 5 panel; returns the trace."""
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=T_EXEC,
        msg_size=size,
        pattern=CommPattern(direction=direction, distance=1, periodic=periodic),
        delays=(DelaySpec(rank=SOURCE_RANK, step=0, duration=4.5 * T_EXEC),),
        seed=seed,
    )
    return simulate(
        build_lockstep_program(cfg),
        SimConfig(network=UniformNetwork(), eager_limit=EAGER_LIMIT,
                  protocol=Protocol.AUTO),
    )


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate all eight panels with per-panel diagnostics."""
    net = UniformNetwork()
    rows = []
    tables: dict[str, str] = {}
    panel_data: dict[str, dict] = {}

    for label, size, direction, periodic in FLAVORS:
        trace = run_flavor(size, direction, periodic, seed=seed)
        timing = RunTiming.from_trace(trace)
        up = wave_front(timing, SOURCE_RANK, +1, periodic=periodic)
        down = wave_front(timing, SOURCE_RANK, -1, periodic=periodic)
        try:
            speed_up = measure_speed(timing, SOURCE_RANK, +1, periodic=periodic).speed
        except ValueError:
            speed_up = float("nan")
        rendezvous = size > EAGER_LIMIT
        bidirectional = direction == Direction.BIDIRECTIONAL
        t_comm = net.total_pingpong_time(size, CommDomain.INTER_NODE)
        v_model = silent_speed(T_EXEC, t_comm, d=1,
                               bidirectional=bidirectional, rendezvous=rendezvous)
        meet = meeting_ranks(timing)
        resync = resync_step(timing)
        rows.append(
            (label, up.reach, down.reach, speed_up, v_model,
             ",".join(map(str, meet)) or "-", resync if resync is not None else -1)
        )
        panel_data[label] = {
            "trace": trace, "up_reach": up.reach, "down_reach": down.reach,
            "speed_up": speed_up, "model_speed": v_model,
            "meeting_ranks": meet, "resync_step": resync,
        }
        if not fast:
            tables[f"{label} idle map"] = render_idle_heatmap(timing)

    summary = format_table(
        ["panel", "up reach", "down reach", "speed up [ranks/s]",
         "Eq.2 [ranks/s]", "meet @ranks", "resync step"],
        rows,
    )
    tables = {"summary": summary, **tables}

    d_panel = panel_data["(d) eager bi periodic"]
    notes = [
        "Eager unidirectional: no downward propagation "
        f"(down reach = {panel_data['(a) eager uni open']['down_reach']}).",
        "Rendezvous unidirectional: downward propagation appears "
        f"(down reach = {panel_data['(e) rdv uni open']['down_reach']}).",
        "Bidirectional rendezvous doubles the speed: "
        f"{panel_data['(g) rdv bi open']['speed_up']:.0f} vs "
        f"{panel_data['(e) rdv uni open']['speed_up']:.0f} ranks/s.",
        "Periodic eager bidirectional: waves meet and cancel at rank(s) "
        f"{d_panel['meeting_ranks']} (paper: rank 14).",
    ]
    return ExperimentResult(
        name="fig5",
        title="Eight flavors of delay propagation (protocol × direction × boundary)",
        tables=tables,
        data=panel_data,
        notes=notes,
    )
