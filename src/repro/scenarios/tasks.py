"""Campaign task functions for scenario execution.

Scenario sweeps execute through the parallel campaign runtime
(:mod:`repro.runtime`), whose tasks must be importable top-level functions
taking plain-data keyword arguments.  :func:`scenario_task` is that
bridge: the scenario travels as its ``to_dict`` document, per-point
overrides as a ``{dotted.path: value}`` dict, and the derived per-task
seed drives all randomness — so sweep results are bit-identical for any
worker count and cacheable by content hash.

A task runs as a one-draw :func:`run_seed_block`; a
:class:`~repro.scenarios.batch.SeedBlockBatcher` runs a block of such
tasks through the same function, with the same per-draw record builder.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core.timing import RunTiming
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.runner import PreparedRun, _execute_prepared_batch, \
    finish_scenario_run, prepare_scenario_run
from repro.scenarios.spec import ScenarioSpec, apply_overrides

__all__ = ["run_seed_block", "scenario_record", "scenario_task"]


def run_seed_block(
    record: "Callable[[CompiledScenario, PreparedRun, RunTiming, int], dict]",
    scenario: Mapping,
    overrides: "Mapping[str, Any] | None",
    engine: str,
    draws: "Sequence[tuple[int, int]]",
) -> "list[dict]":
    """Run ``(seed, replicate)`` draws of one task scenario as one block.

    The single definition of how campaign tasks interpret their scenario
    parameters: the document without its sweep block, with the grid
    point's overrides applied, is compiled once.  Each draw is prepared
    from its own seed, and all of them run as one batched engine call;
    ``record`` builds each draw's task value from ``(compiled, prepared,
    timing, replicate)``.  The batched call is elementwise along its
    draws, so a value does not depend on the block it ran in.
    """
    data = dict(scenario)
    data.pop("sweep", None)
    if overrides:
        data = apply_overrides(data, overrides)
    compiled = compile_scenario(ScenarioSpec.from_dict(data), engine=engine)
    prepared = [prepare_scenario_run(compiled, seed) for seed, _ in draws]
    timings = _execute_prepared_batch(compiled, prepared)
    return [record(compiled, p, timing, replicate)
            for (_, replicate), p, timing in zip(draws, prepared, timings)]


def scenario_record(compiled: CompiledScenario, prepared: PreparedRun,
                    timing: RunTiming, replicate: int) -> dict:
    """A scenario task's value: the run's evaluated outputs."""
    run = finish_scenario_run(compiled, prepared, timing)
    return {
        "outputs": run.data,
        "engine": compiled.engine,
        "n_campaign_delays": run.n_campaign_delays,
        "replicate": int(replicate),
    }


def scenario_task(
    scenario: Mapping,
    overrides: "Mapping[str, Any] | None" = None,
    replicate: int = 0,
    engine: str = "auto",
    seed: int = 0,
) -> dict:
    """Run one scenario grid point; returns the outputs' data dict.

    Parameters
    ----------
    scenario:
        Scenario document (``ScenarioSpec.to_dict`` form), *without* its
        sweep block.
    overrides:
        Sweep-axis values for this grid point, as dotted spec paths.
    replicate:
        Replicate index; only distinguishes otherwise-identical grid
        points (the derived ``seed`` varies with it).
    engine:
        Engine selection, as in :func:`repro.scenarios.runner.run_scenario`.
    seed:
        Derived per-task seed (from the sweep's base seed).
    """
    [value] = run_seed_block(scenario_record, scenario, overrides, engine,
                             [(seed, replicate)])
    return value
