"""Eq. 2 validation — the analytic speed model across the parameter space.

``v_silent = σ·d / (T_exec + T_comm)``.  We sweep neighbor distance,
protocol, direction, execution-phase length and message size, measure the
wave speed in the simulator, and tabulate model-vs-measured.  This is the
paper's central quantitative claim for noise-free systems; the paper
validates it implicitly through Figs. 4, 5 and 7 — here it gets an explicit
table.
"""

from __future__ import annotations

from repro.core import measure_speed, silent_speed
from repro.experiments.base import ExperimentResult
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    UniformNetwork,
    simulate_lockstep,
)
from repro.sim.topology import CommDomain
from repro.viz.tables import format_table

__all__ = ["run", "measure_configuration"]


def measure_configuration(
    d: int,
    direction: Direction,
    protocol: Protocol,
    t_exec: float,
    msg_size: int,
    n_ranks: int = 24,
    n_steps: int = 24,
    seed: int = 0,
) -> tuple[float, float]:
    """Measure one parameter combination; returns (measured, model) ranks/s."""
    net = UniformNetwork()
    source = n_ranks // 2
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=t_exec,
        msg_size=msg_size,
        pattern=CommPattern(direction=direction, distance=d, periodic=False),
        delays=(DelaySpec(rank=source, step=0, duration=5 * t_exec),),
        seed=seed,
    )
    result = simulate_lockstep(cfg, network=net, protocol=protocol)
    measured = measure_speed(result, source, +1).speed
    t_comm = net.total_pingpong_time(msg_size, CommDomain.INTER_NODE)
    model = silent_speed(
        t_exec,
        t_comm,
        d=d,
        bidirectional=direction == Direction.BIDIRECTIONAL,
        rendezvous=protocol == Protocol.RENDEZVOUS,
    )
    return measured, model


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Sweep the Eq. 2 parameter space and tabulate model accuracy."""
    distances = (1, 2) if fast else (1, 2, 3)
    t_execs = (3e-3,) if fast else (1.5e-3, 3e-3, 6e-3)
    msg_sizes = (8192, 262144) if fast else (8192, 65536, 262144, 1048576)

    rows = []
    errors = []
    for d in distances:
        for direction in (Direction.UNIDIRECTIONAL, Direction.BIDIRECTIONAL):
            for protocol in (Protocol.EAGER, Protocol.RENDEZVOUS):
                for t_exec in t_execs:
                    for msg in msg_sizes:
                        measured, model = measure_configuration(
                            d, direction, protocol, t_exec, msg, seed=seed
                        )
                        err = abs(measured - model) / model * 100
                        errors.append(err)
                        rows.append(
                            (
                                d,
                                direction.value,
                                protocol.value,
                                t_exec * 1e3,
                                msg,
                                measured,
                                model,
                                err,
                            )
                        )

    table = format_table(
        ["d", "dir", "protocol", "T_exec [ms]", "msg [B]",
         "measured [ranks/s]", "Eq.2 [ranks/s]", "error [%]"],
        rows,
    )
    notes = [
        f"{len(rows)} configurations; max relative error "
        f"{max(errors):.2f}%, mean {sum(errors) / len(errors):.2f}%.",
        "σ = 2 applies exactly to the bidirectional+rendezvous rows; all "
        "other rows use σ = 1.",
    ]
    return ExperimentResult(
        name="eq2",
        title="Eq. 2 wave-speed model validation sweep",
        tables={"sweep": table},
        data={"rows": rows, "max_error_pct": max(errors)},
        notes=notes,
    )
