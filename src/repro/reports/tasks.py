"""Campaign task functions for report metric extraction.

Reports separate *simulation* from *analysis*: the campaign task persists
a run's dense timing matrices (the :class:`~repro.core.timing.RunTiming`
triple, stored as raw array segments in the result store's shards),
and the metric kernels re-derive every reported quantity from those
matrices at report time.  Changing a report's metrics, grouping, or
artifacts therefore never invalidates the cache — a new report over an
already-run sweep touches the engine zero times.

:class:`ReportTaskBatcher` mirrors
:class:`repro.scenarios.batch.ScenarioTaskBatcher`: contiguous blocks of
tasks that differ only in their seed execute as one batched engine
call, with per-task values bit-identical to unbatched execution.

The module imports the whole execution path at module top, so the
campaign pool, which imports it before forking, leaves its workers
nothing to import; a warm report never imports it at all.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.timing import RunTiming
from repro.reports.compiler import TIMING_TASK_FN
from repro.runtime.executor import TaskBatcher
from repro.runtime.spec import RunSpec, hashable
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.runner import _execute_prepared, \
    _execute_prepared_batch, prepare_scenario_run
from repro.scenarios.tasks import resolve_task_scenario

__all__ = ["ReportTaskBatcher", "scenario_timing_task"]


def scenario_timing_task(
    scenario: Mapping,
    overrides: "Mapping[str, Any] | None" = None,
    replicate: int = 0,
    engine: str = "auto",
    seed: int = 0,
) -> dict:
    """Run one scenario grid point; returns its dense timing matrices.

    Parameters mirror :func:`repro.scenarios.tasks.scenario_task` — same
    document/override resolution, same compile, same per-seed randomness
    — but the value is the run's raw ``[n_ranks, n_steps]`` timing
    (``exec_end`` / ``completion`` / ``idle``) instead of the scenario's
    evaluated outputs, which is what the report kernels consume.
    """
    spec = resolve_task_scenario(scenario, overrides)
    compiled = compile_scenario(spec, engine=engine)
    prepared = prepare_scenario_run(compiled, seed)
    timing = _execute_prepared(compiled, prepared)
    return _timing_value(timing)


def _timing_value(timing: RunTiming) -> dict:
    return {
        "exec_end": np.asarray(timing.exec_end, dtype=float),
        "completion": np.asarray(timing.completion, dtype=float),
        "idle": np.asarray(timing.idle, dtype=float),
    }


def _task_seed(spec: RunSpec) -> int:
    """A timing task's effective seed: derived, or the explicit parameter."""
    if spec.seed is not None:
        return spec.seed
    return int(spec.kwargs.get("seed", 0))


class ReportTaskBatcher(TaskBatcher):
    """Group contiguous same-grid-point timing tasks into engine batches.

    Tasks are batchable when they share everything but their seed — either
    the derived per-task seed of a replicate block, or an explicit
    ``seed`` axis value (reports with a ``seeds = [...]`` list).  Each
    block compiles the scenario once and runs all its draws through the
    batched dispatch :func:`~repro.scenarios.runner.run_scenario_batch`
    uses.  Planning and ``max_block`` come from
    :class:`~repro.runtime.executor.TaskBatcher`.
    """

    @staticmethod
    def _signature(spec: RunSpec,
                   memo: "dict | None" = None) -> "tuple | None":
        """Batch-compatibility key: everything but the seed and replicate."""
        if spec.fn != TIMING_TASK_FN:
            return None
        return tuple((k, hashable(v, memo)) for k, v in spec.params
                     if k not in ("replicate", "seed"))

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one seed block through the batched engine path.

        Mirrors :func:`scenario_timing_task` exactly — same resolution,
        same compile, same per-seed randomness — so each returned value
        is bit-identical to the corresponding unbatched task call (the
        batched recurrence is elementwise along the batch axis).
        """
        first = specs[0].kwargs
        spec = resolve_task_scenario(first["scenario"], first.get("overrides"))
        compiled = compile_scenario(spec, engine=first.get("engine", "auto"))
        prepared = [prepare_scenario_run(compiled, _task_seed(s)) for s in specs]
        return [_timing_value(t)
                for t in _execute_prepared_batch(compiled, prepared)]
