"""Fig. 6 — interaction of propagating idle waves.

100 MPI processes (ten ranks per socket on 10 sockets / 5 nodes),
bidirectional eager communication (16384 B) on a periodic chain.  A delay
is injected at the sixth process (local rank 5) of every socket:

- (a) **equal** delays — the waves meet midway between sockets and cancel
  after five hops;
- (b) **half** delays on odd sockets — partial cancellation; the longer
  waves keep going until they meet their symmetric counterparts;
- (c) **random** delays — the longest waves survive until the program ends.

The quantitative nonlinearity check (beyond the paper's qualitative
timelines): the total idle time of the combined run is far below the sum
of single-wave runs — linear superposition does not hold.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core import find_waves, resync_step, superposition_defect
from repro.experiments.base import ExperimentResult
from repro.sim import (
    CommPattern,
    Direction,
    LockstepConfig,
    delays_at_local_rank,
    simulate_lockstep,
)
from repro.sim.topology import single_switch_mapping
from repro.viz.ascii_timeline import render_idle_heatmap
from repro.viz.tables import format_table

__all__ = ["run", "make_config", "SCENARIOS"]

N_RANKS = 100
N_STEPS = 20
T_EXEC = 3e-3
MSG_SIZE = 16384
LOCAL_RANK = 5  # "sixth process on each socket"
BASE_DELAY = 5 * T_EXEC

SCENARIOS = ("equal", "half", "random")


def _durations(scenario: str, n_sockets: int, rng: np.random.Generator) -> np.ndarray:
    if scenario == "equal":
        return np.full(n_sockets, BASE_DELAY)
    if scenario == "half":
        out = np.full(n_sockets, BASE_DELAY)
        out[1::2] *= 0.5
        return out
    if scenario == "random":
        return rng.uniform(0.3 * BASE_DELAY, 1.5 * BASE_DELAY, size=n_sockets)
    raise ValueError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")


def make_config(scenario: str, seed: int = 0) -> LockstepConfig:
    """Build the Fig. 6 configuration for one injection scenario."""
    mapping = single_switch_mapping(N_RANKS, ppn=20)
    rng = np.random.default_rng(seed + 1000)
    durations = _durations(scenario, mapping.n_sockets_used(), rng)
    delays = delays_at_local_rank(mapping, LOCAL_RANK, durations, step=0)
    return LockstepConfig(
        n_ranks=N_RANKS,
        n_steps=N_STEPS,
        t_exec=T_EXEC,
        msg_size=MSG_SIZE,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True),
        delays=tuple(delays),
        seed=seed,
    )


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the three Fig. 6 panels plus the nonlinearity metric."""
    rows = []
    tables: dict[str, str] = {}
    data: dict[str, dict] = {}

    for scenario in SCENARIOS:
        cfg = make_config(scenario, seed=seed)
        combined = simulate_lockstep(cfg)

        # Single-wave reference runs for the superposition check.
        singles = []
        for spec in cfg.delays:
            single_cfg = LockstepConfig(
                n_ranks=cfg.n_ranks, n_steps=cfg.n_steps, t_exec=cfg.t_exec,
                msg_size=cfg.msg_size, pattern=cfg.pattern,
                delays=(spec,), seed=cfg.seed,
            )
            singles.append(simulate_lockstep(single_cfg))
        defect = superposition_defect(combined, singles)
        total_single = sum(float(np.sum(s.idle)) for s in singles)

        waves = find_waves(combined)
        resync = resync_step(combined)
        rows.append(
            (
                scenario,
                len(cfg.delays),
                len(waves),
                resync if resync is not None else -1,
                defect * 1e3,
                (defect / total_single * 100) if total_single else 0.0,
            )
        )
        data[scenario] = {
            "config": cfg,
            # Exactly the leaves perfbench/reference/ pins for this run.
            "result": SimpleNamespace(
                exec_start=combined.exec_start, exec_end=combined.exec_end,
                post_end=combined.post_end, completion=combined.completion,
                meta=combined.meta),
            "waves": len(waves),
            "resync_step": resync,
            "superposition_defect": defect,
        }
        if not fast:
            tables[f"{scenario} idle map"] = render_idle_heatmap(combined)

    summary = format_table(
        ["scenario", "injected delays", "detected waves", "resync step",
         "superposition defect [rank-ms]", "defect [% of linear sum]"],
        rows,
    )
    tables = {"summary": summary, **tables}

    notes = [
        "Equal delays cancel pairwise: the system resynchronizes within a few "
        "hops (paper: 'expected cancellation after five hops').",
        "Half delays: partial cancellation; the surviving halves run on "
        "until they meet their symmetric counterparts (later resync).",
        "Random delays: the longest waves survive to the end of the run "
        "(resync step = -1 means never within the horizon).",
        "Superposition defect << 0 in all scenarios: idle waves destroy idle "
        "time when they collide -> no linear wave equation can describe them.",
    ]
    return ExperimentResult(
        name="fig6",
        title="Interaction and cancellation of idle waves (equal/half/random)",
        tables=tables,
        data=data,
        notes=notes,
    )
