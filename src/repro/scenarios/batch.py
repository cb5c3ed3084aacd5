"""Batched execution of seeded scenario campaign tasks.

A scenario sweep expands into ``(overrides, replicate)`` grid tasks whose
replicates of one grid point differ *only* in their derived seed (the
campaign's delay draw and the noise matrix follow from it); a report's
timing tasks have the same shape, or an explicit ``seed`` axis value in
place of the derived seed.  Simulating each draw with its own engine
invocation wastes most of the wall clock on fixed per-run overhead —
compilation, program setup, and the Python-level per-step loop over
small per-rank arrays.

:class:`SeedBlockBatcher` plugs into
:func:`repro.runtime.executor.run_campaign` and runs each contiguous seed
block through :func:`repro.scenarios.tasks.run_seed_block`: the scenario
is compiled once, each task's randomness is drawn from its own seed, and
the B draws run as one batched engine call.  A task function runs the
same function with its one draw and the same per-draw record builder, so
every task's value — and therefore its content-addressed cache record —
is bit-identical to per-task execution (guarded by
``tests/scenarios/test_batch.py`` and ``tests/reports/test_report_batch.py``).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.runtime.executor import TaskBatcher
from repro.runtime.spec import RunSpec, hashable
from repro.scenarios.sweep import SCENARIO_TASK_FN
from repro.scenarios.tasks import run_seed_block, scenario_record

__all__ = ["SCENARIO_TASK_FN", "ScenarioTaskBatcher", "SeedBlockBatcher"]


class SeedBlockBatcher(TaskBatcher):
    """Group contiguous same-point tasks of one task function into blocks.

    A subclass sets two class attributes: ``task_fn``, the
    ``module:function`` path of the tasks it groups, and ``record``, the
    per-draw record builder that function passes to
    :func:`~repro.scenarios.tasks.run_seed_block`.  Planning and
    ``max_block`` come from :class:`~repro.runtime.executor.TaskBatcher`.
    """

    task_fn: str = ""
    record: Callable

    @classmethod
    def _signature(cls, spec: RunSpec,
                   memo: "dict | None" = None) -> "tuple | None":
        """Batch-compatibility key: everything but the replicate and seed.

        ``None`` marks a task that must never join a block: another
        function's task, or one with neither a derived seed nor a
        ``seed`` parameter.  Two tasks with equal signatures describe the
        same compiled scenario; only their seeds — and hence their random
        draws — differ.  ``RunSpec.params`` is already a canonically
        sorted tuple, so the filtered tuple itself is the key — no
        serialization needed.
        """
        if spec.fn != cls.task_fn:
            return None
        if spec.seed is None and all(k != "seed" for k, _ in spec.params):
            return None
        return tuple((k, hashable(v, memo)) for k, v in spec.params
                     if k not in ("replicate", "seed"))

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one seed block as one batched engine call."""
        first = specs[0].kwargs
        draws = []
        for spec in specs:
            kwargs = spec.kwargs
            seed = spec.seed if spec.seed is not None else kwargs["seed"]
            draws.append((seed, kwargs.get("replicate", 0)))
        return run_seed_block(self.record, first["scenario"],
                              first.get("overrides"),
                              first.get("engine", "auto"), draws)


class ScenarioTaskBatcher(SeedBlockBatcher):
    """Batches :func:`~repro.scenarios.tasks.scenario_task` replicate blocks."""

    task_fn = SCENARIO_TASK_FN
    record = staticmethod(scenario_record)
