"""Campaign task functions for scenario execution.

Scenario sweeps execute through the parallel campaign runtime
(:mod:`repro.runtime`), whose tasks must be importable top-level functions
taking plain-data keyword arguments.  :func:`scenario_task` is that
bridge: the scenario travels as its ``to_dict`` document, per-point
overrides as a ``{dotted.path: value}`` dict, and the derived per-task
seed drives all randomness — so sweep results are bit-identical for any
worker count and cacheable by content hash.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, apply_overrides

__all__ = ["resolve_task_scenario", "scenario_task"]


def resolve_task_scenario(
    scenario: Mapping, overrides: "Mapping[str, Any] | None" = None
) -> ScenarioSpec:
    """Resolve a task's scenario document + overrides into a spec.

    The single definition of how campaign tasks interpret their scenario
    parameters — shared by :func:`scenario_task` and the batched path
    (:class:`repro.scenarios.batch.ScenarioTaskBatcher`), so the two can
    never drift apart and break their bit-identity contract.
    """
    data = dict(scenario)
    data.pop("sweep", None)
    if overrides:
        data = apply_overrides(data, overrides)
    return ScenarioSpec.from_dict(data)


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
    spec = resolve_task_scenario(scenario, overrides)
    run = run_scenario(spec, seed=seed, engine=engine)
    return {
        "outputs": run.data,
        "engine": run.compiled.engine,
        "n_campaign_delays": run.n_campaign_delays,
        "replicate": int(replicate),
    }
