"""Campaign task functions for report metric extraction.

Reports separate *simulation* from *analysis*: the campaign task persists
a run's dense timing matrices (the :class:`~repro.core.timing.RunTiming`
triple, stored as raw array segments in the result store's shards),
and the metric kernels re-derive every reported quantity from those
matrices at report time.  Changing a report's metrics, grouping, or
artifacts therefore never invalidates the cache — a new report over an
already-run sweep touches the engine zero times.

:class:`ReportTaskBatcher` is the
:class:`~repro.scenarios.batch.SeedBlockBatcher` of timing tasks:
contiguous blocks of tasks that differ only in their seed execute as one
batched engine call, with per-task values bit-identical to per-task
execution.

The module imports the whole execution path at module top, so the
campaign pool, which imports it before forking, leaves its workers
nothing to import; a warm report never imports it at all.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.timing import RunTiming
from repro.reports.compiler import TIMING_TASK_FN
from repro.scenarios.batch import SeedBlockBatcher
from repro.scenarios.compiler import CompiledScenario
from repro.scenarios.runner import PreparedRun
from repro.scenarios.tasks import run_seed_block

__all__ = ["ReportTaskBatcher", "scenario_timing_task", "timing_record"]


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
    [value] = run_seed_block(timing_record, scenario, overrides, engine,
                             [(seed, replicate)])
    return value


def timing_record(compiled: CompiledScenario, prepared: PreparedRun,
                  timing: RunTiming, replicate: int) -> dict:
    """A timing task's value: the run's dense timing matrices."""
    return {
        "exec_end": np.asarray(timing.exec_end, dtype=float),
        "completion": np.asarray(timing.completion, dtype=float),
        "idle": np.asarray(timing.idle, dtype=float),
    }


class ReportTaskBatcher(SeedBlockBatcher):
    """Batches :func:`scenario_timing_task` seed blocks.

    Tasks are batchable when they share everything but their seed — either
    the derived per-task seed of a replicate block, or an explicit
    ``seed`` axis value (reports with a ``seeds = [...]`` list).
    """

    task_fn = TIMING_TASK_FN
    record = staticmethod(timing_record)
