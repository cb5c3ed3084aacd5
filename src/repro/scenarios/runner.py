"""Scenario execution: compiled spec → engine run → outputs.

Every scenario run, single or batched, takes the same three steps:

1. :func:`prepare_scenario_run` draws the delay campaign's schedule (if
   any) and the noise matrix from a single
   :class:`numpy.random.Generator` seeded by the run seed, so a scenario
   + seed is bit-reproducible across processes;
2. :func:`_execute_prepared_batch` runs B prepared draws of *one*
   compiled scenario as a single ``[B, n_ranks, n_steps]`` invocation of
   the engine the compiler chose (or an explicit override) — the
   lockstep recurrence, or the DAG engine's build-once/propagate-many
   :class:`~repro.sim.engine.StaticDag` sweep for forced-DAG scenarios.
   Both engines consume the *same* execution-time matrices, which is
   what makes cross-engine results agree to machine precision;
3. :func:`finish_scenario_run` evaluates the requested outputs.

:func:`run_scenario` executes one scenario as a one-draw block, and
:func:`run_scenario_batch` many seeds of one scenario (e.g. the
replicate draws of a delay campaign) as one block.  Both batched
propagations are elementwise along the batch axis, so a run's outputs do
not depend on the block it ran in: they are **bit-identical** for a
given seed — the contract the campaign runtime's content-addressed cache
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.core.timing import RunTiming
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.outputs import compute_outputs
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import simulate_dag_batch
from repro.sim.hybrid import HybridConfig, hybrid_exec_times
from repro.sim.lockstep import simulate_lockstep_batch

__all__ = ["PreparedRun", "ScenarioRun", "run_scenario", "run_scenario_batch"]


@dataclass
class ScenarioRun:
    """Everything one scenario execution produced."""

    compiled: CompiledScenario
    seed: int
    timing: RunTiming
    n_campaign_delays: int
    data: dict
    tables: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.compiled.spec.name

    def render(self) -> str:
        """Printable report (same shape as the experiment drivers')."""
        spec = self.compiled.spec
        header = f"=== scenario {self.name}"
        if spec.description:
            header += f": {spec.description}"
        header += " ==="
        parts = [header,
                 f"[engine={self.compiled.engine} seed={self.seed} "
                 f"ranks={spec.n_ranks} steps={spec.n_steps} "
                 f"protocol={self.compiled.resolved_protocol.value}"
                 + (f" campaign_delays={self.n_campaign_delays}"
                    if self.compiled.campaign is not None else "")
                 + "]"]
        for kind, text in self.tables.items():
            parts.append(f"\n--- {kind} ---")
            parts.append(text)
        return "\n".join(parts)


@dataclass
class PreparedRun:
    """One scenario run's fully drawn inputs, ready for an engine.

    ``cfg`` carries the merged delays (explicit + campaign draw) and the
    run seed; ``exec_times`` is the complete ``[n_ranks, n_steps]``
    execution-time matrix — the only thing either engine consumes besides
    the static pattern/network parameters.
    """

    cfg: "object"  # LockstepConfig
    exec_times: np.ndarray
    seed: int
    n_campaign_delays: int


def prepare_scenario_run(
    compiled: CompiledScenario, seed: "int | None" = None
) -> PreparedRun:
    """Draw all randomness for one run of a compiled scenario.

    Deterministic per ``(compiled, seed)``: the campaign schedule and the
    noise matrix both derive from one generator seeded by the run seed,
    exactly as the serial pipeline has always done.
    """
    spec = compiled.spec
    run_seed = spec.seed if seed is None else int(seed)
    with telemetry.span("scenario.prepare", scenario=spec.name,
                        seed=run_seed):
        return _prepare_scenario_run_inner(compiled, run_seed)


def _prepare_scenario_run_inner(
    compiled: CompiledScenario, run_seed: int
) -> PreparedRun:
    spec = compiled.spec
    rng = np.random.default_rng(run_seed)

    cfg = compiled.cfg
    campaign_delays: tuple = ()
    if compiled.campaign is not None:
        campaign_delays = compiled.campaign.draw(cfg.n_ranks, cfg.n_steps, rng)
        cfg = replace(cfg, delays=cfg.delays + campaign_delays)
    if run_seed != cfg.seed:
        cfg = replace(cfg, seed=run_seed)

    if compiled.threads > 1:
        hybrid = HybridConfig(
            n_processes=cfg.n_ranks, threads=compiled.threads,
            n_steps=cfg.n_steps, t_exec=cfg.t_exec, msg_size=cfg.msg_size,
            pattern=cfg.pattern, noise=compiled.noise, delays=cfg.delays,
            seed=run_seed,
        )
        exec_times = hybrid_exec_times(hybrid, rng)
    else:
        from repro.sim.program import build_exec_times

        exec_times = build_exec_times(cfg, rng)

    return PreparedRun(
        cfg=cfg, exec_times=exec_times, seed=run_seed,
        n_campaign_delays=len(campaign_delays),
    )


def _execute_prepared_batch(
    compiled: CompiledScenario, prepared: "Sequence[PreparedRun]"
) -> "list[RunTiming]":
    """Run prepared draws of one compiled scenario as one batched call.

    The one engine dispatch of the scenario layer: a single run is a
    one-draw block.  The B execution-time matrices are stacked into one
    ``[B, n_ranks, n_steps]`` lockstep recurrence, or flow through one
    cached :class:`~repro.sim.engine.StaticDag` as a single batched
    propagation.  Both are elementwise along the batch axis, so a draw's
    timing is bit-identical in any block.
    """
    stacked = np.stack([p.exec_times for p in prepared])
    with telemetry.span("scenario.execute", engine=compiled.engine,
                        batch=len(prepared)):
        if compiled.engine == "lockstep":
            batch = simulate_lockstep_batch(
                compiled.cfg, stacked,
                network=compiled.network, domain=compiled.domain,
                protocol=compiled.protocol, eager_limit=compiled.eager_limit,
                mapping=compiled.mapping,
            )
        else:
            batch = simulate_dag_batch(compiled.cfg, stacked,
                                       compiled.sim_config())
    timings = [batch[b] for b in range(batch.n_batch)]
    for timing, p in zip(timings, prepared):
        timing.meta.pop("n_batch", None)
        timing.meta.update({"delays": p.cfg.delays, "seed": p.seed})
    return timings


def finish_scenario_run(
    compiled: CompiledScenario, prepared: PreparedRun, timing: RunTiming
) -> ScenarioRun:
    """Evaluate the scenario's requested outputs against a finished run."""
    with telemetry.span("scenario.finish"):
        data, tables = compute_outputs(compiled, timing)
    return ScenarioRun(
        compiled=compiled, seed=prepared.seed, timing=timing,
        n_campaign_delays=prepared.n_campaign_delays, data=data, tables=tables,
    )


def run_scenario(
    scenario: "ScenarioSpec | CompiledScenario",
    seed: "int | None" = None,
    engine: str = "auto",
) -> ScenarioRun:
    """Execute one scenario and evaluate its outputs.

    Parameters
    ----------
    scenario:
        A spec (compiled here) or an already compiled scenario.  A
        ``sweep`` block is ignored — this runs the base point; use
        :mod:`repro.scenarios.sweep` for grids.
    seed:
        Run seed; defaults to the spec's own ``seed``.  All randomness
        (campaign schedule, noise) derives from it.
    engine:
        Engine override, forwarded to the compiler when ``scenario`` is a
        spec.  Ignored for pre-compiled scenarios.
    """
    if isinstance(scenario, CompiledScenario):
        compiled = scenario
    else:
        with telemetry.span("scenario.compile"):
            compiled = compile_scenario(scenario, engine=engine)
    run_seed = compiled.spec.seed if seed is None else int(seed)
    telemetry.emit("run.start", kind="scenario.run", name=compiled.spec.name,
                   n_tasks=1, engine=compiled.engine, seed_root=run_seed,
                   jobs=1)
    telemetry.emit("task.start", index=0)
    [run] = run_scenario_batch(compiled, [run_seed])
    telemetry.emit("task.done", index=0)
    telemetry.emit("run.finish", status="ok", n_tasks=1, n_failed=0)
    return run


def run_scenario_batch(
    compiled: CompiledScenario,
    seeds: Sequence[int],
) -> "list[ScenarioRun]":
    """Execute one compiled scenario for many seeds as a single batched
    engine call.

    The runs share everything but their seed (campaign schedule, noise
    draw), which is the shape of a delay-campaign replicate block.  The
    engine call is :func:`_execute_prepared_batch`, so each returned
    :class:`ScenarioRun` is bit-identical to
    ``run_scenario(compiled, seed=s)``, the one-draw block of its seed.
    """
    if not seeds:
        return []
    prepared = [prepare_scenario_run(compiled, s) for s in seeds]
    timings = _execute_prepared_batch(compiled, prepared)
    return [finish_scenario_run(compiled, p, timing)
            for p, timing in zip(prepared, timings)]
