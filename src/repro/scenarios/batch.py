"""Batched execution of scenario campaign tasks.

A scenario sweep expands into ``(overrides, replicate)`` grid tasks whose
replicates of one grid point differ *only* in their derived seed (the
campaign's delay draw and the noise matrix follow from it).  Simulating
each replicate with its own engine invocation wastes most of the wall
clock on fixed per-run overhead — compilation, program setup, and the
Python-level per-step loop over small per-rank arrays.

:class:`ScenarioTaskBatcher` plugs into
:func:`repro.runtime.executor.run_campaign` and runs each contiguous
replicate block through :func:`repro.scenarios.runner.run_scenario_batch`:
the scenario is compiled once, each task's randomness is drawn from its
own seed exactly as in serial execution, and the B draws run as one
batched engine call.  Every task's outputs — and therefore its
content-addressed cache record — are bit-identical to unbatched
execution (guarded by ``tests/scenarios/test_batch.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.runtime.executor import TaskBatcher
from repro.runtime.spec import RunSpec, hashable
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.runner import run_scenario_batch
from repro.scenarios.sweep import SCENARIO_TASK_FN
from repro.scenarios.tasks import resolve_task_scenario

__all__ = ["SCENARIO_TASK_FN", "ScenarioTaskBatcher"]


class ScenarioTaskBatcher(TaskBatcher):
    """Group contiguous same-grid-point scenario tasks into engine batches.

    Planning and ``max_block`` come from
    :class:`~repro.runtime.executor.TaskBatcher`.
    """

    @staticmethod
    def _signature(spec: RunSpec,
                   memo: "dict | None" = None) -> "tuple | None":
        """Batch-compatibility key: everything but the replicate and seed.

        ``None`` marks a task that must never join a block (not a
        scenario task, or seedless).  Two tasks with equal signatures
        describe the same compiled scenario; only their derived seeds —
        and hence their random draws — differ.  ``RunSpec.params`` is
        already a canonically sorted tuple, so the filtered tuple itself
        is the key — no serialization needed.
        """
        if spec.fn != SCENARIO_TASK_FN or spec.seed is None:
            return None
        return tuple((k, hashable(v, memo)) for k, v in spec.params
                     if k != "replicate")

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one replicate block through the batched engine path.

        Mirrors :func:`repro.scenarios.tasks.scenario_task` exactly —
        same document/override resolution, same compile, same per-seed
        randomness — so each returned value is bit-identical to the
        corresponding unbatched task call.
        """
        first = specs[0].kwargs
        spec = resolve_task_scenario(first["scenario"], first.get("overrides"))
        compiled = compile_scenario(spec, engine=first.get("engine", "auto"))

        runs = run_scenario_batch(compiled, [s.seed for s in specs])
        return [
            {
                "outputs": run.data,
                "engine": run.compiled.engine,
                "n_campaign_delays": run.n_campaign_delays,
                "replicate": int(task.kwargs.get("replicate", 0)),
            }
            for task, run in zip(specs, runs)
        ]
