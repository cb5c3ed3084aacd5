"""Report compilation: resolve a spec into runnable campaign + kernel plans.

:func:`compile_report` validates a :class:`~repro.reports.spec.ReportSpec`
against the scenario registry, the sweep grids of its target scenarios,
and the metric-kernel registry, producing a :class:`CompiledReport` whose
targets carry ready-to-dispatch :class:`~repro.runtime.spec.SweepSpec`
campaigns over the timing task.  Compilation is cheap and side-effect
free; every failure raises :class:`~repro.reports.errors.ReportError`
naming the offending report field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.timing import TIMING_FIELDS
from repro.reports.errors import ReportError
from repro.reports.kernels import MetricKernel, get_kernel
from repro.reports.spec import MetricRequest, ReportSpec
from repro.runtime.spec import SweepSpec
from repro.scenarios.errors import ScenarioError
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import GridExpansion, expand_scenario_grid

__all__ = ["CompiledReport", "ReportTarget", "ResolvedMetric", "compile_report"]

#: The implicit group column naming the target scenario.
SCENARIO_COLUMN = "scenario"

#: The campaign task every report target sweeps; named here, not
#: imported, so compiling (and serving a warm report) never loads the
#: execution path in :mod:`repro.reports.tasks`.
TIMING_TASK_FN = "repro.reports.tasks:scenario_timing_task"


@dataclass(frozen=True)
class ResolvedMetric:
    """One metric request bound to its registered kernel."""

    request: MetricRequest
    kernel: MetricKernel

    @property
    def label(self) -> str:
        return self.request.label

    @property
    def params(self) -> dict:
        return dict(self.request.params)


@dataclass(frozen=True)
class ReportTarget:
    """One scenario's contribution to a report: grid + timing campaign."""

    scenario: ScenarioSpec
    grid: GridExpansion
    sweep: SweepSpec
    draws_per_point: int


@dataclass(frozen=True)
class CompiledReport:
    """A validated, fully resolved report, ready to execute."""

    spec: ReportSpec
    targets: "tuple[ReportTarget, ...]"
    metrics: "tuple[ResolvedMetric, ...]"
    group_by: "tuple[str, ...]"
    aggregate: "tuple[str, ...]"

    @property
    def n_tasks(self) -> int:
        return sum(t.sweep.size for t in self.targets)

    @property
    def reads(self) -> "tuple[str, ...]":
        """The timing matrices its kernels read, in stacking order: the
        only ones a run of the report reads from the store and stacks."""
        wanted = {name for m in self.metrics for name in m.kernel.reads}
        return tuple(name for name in TIMING_FIELDS if name in wanted)


def _resolve_metrics(spec: ReportSpec) -> "tuple[ResolvedMetric, ...]":
    metrics = []
    for i, request in enumerate(spec.metrics):
        try:
            kernel = get_kernel(request.name)
        except ReportError as exc:
            raise ReportError(exc.message, path=f"metrics[{i}].name",
                              report=spec.name) from exc
        unknown = [k for k, _ in request.params if k not in kernel.params]
        if unknown:
            raise ReportError(
                f"kernel {kernel.name!r} does not take parameter(s) "
                f"{sorted(unknown)} (recognized: {sorted(kernel.params) or 'none'})",
                path=f"metrics[{i}].params", report=spec.name,
            )
        metrics.append(ResolvedMetric(request=request, kernel=kernel))
    return tuple(metrics)


def _target_sweep(spec: ReportSpec, scenario: ScenarioSpec,
                  grid: GridExpansion) -> "tuple[SweepSpec, int]":
    base = {"scenario": grid.document, "engine": grid.engine}
    if spec.seeds is not None:
        # Explicit seeds travel as an ordinary axis (seeded=False): the
        # seed is part of the task description — and hence the cache key —
        # exactly as a derived seed would be.
        sweep = SweepSpec(
            fn=TIMING_TASK_FN, base=base,
            axes=(("overrides", grid.points), ("seed", spec.seeds)),
            seeded=False,
        )
        return sweep, len(spec.seeds)
    sweep = SweepSpec(
        fn=TIMING_TASK_FN, base=base,
        axes=(("overrides", grid.points),
              ("replicate", tuple(range(grid.replicates)))),
        base_seed=scenario.seed if spec.base_seed is None else spec.base_seed,
    )
    return sweep, grid.replicates


def _resolve_group_by(spec: ReportSpec,
                      targets: "tuple[ReportTarget, ...]") -> "tuple[str, ...]":
    axis_lists = [
        [axis.path for axis in (t.scenario.sweep.axes if t.scenario.sweep else ())]
        for t in targets
    ]
    common = [p for p in axis_lists[0]
              if all(p in paths for paths in axis_lists[1:])]
    if spec.group_by is None:
        prefix = [SCENARIO_COLUMN] if len(targets) > 1 else []
        return tuple(prefix + common)
    for i, path in enumerate(spec.group_by):
        if path == SCENARIO_COLUMN:
            continue
        if path not in common:
            raise ReportError(
                f"group path {path!r} is not a sweep axis of every target "
                f"scenario (common axes: {common or 'none'}; "
                f"'{SCENARIO_COLUMN}' is always available)",
                path=f"group_by[{i}]", report=spec.name,
            )
    if len(set(spec.group_by)) != len(spec.group_by):
        raise ReportError("duplicate group paths", path="group_by",
                          report=spec.name)
    return spec.group_by


def compile_report(spec: ReportSpec) -> CompiledReport:
    """Validate and resolve a report against scenarios and kernels."""
    metrics = _resolve_metrics(spec)

    targets = []
    for i, name in enumerate(spec.scenarios):
        where = (f"scenarios[{i}]" if len(spec.scenarios) > 1 else "scenario")
        try:
            scenario = resolve_scenario(name)
            grid = expand_scenario_grid(scenario, engine=spec.engine)
        except ScenarioError as exc:
            raise ReportError(
                f"scenario {name!r} does not resolve: {exc}",
                path=where, report=spec.name,
            ) from exc
        needing = [m.kernel.name for m in metrics if m.kernel.needs_delay]
        if needing and any(not c.cfg.delays for c in grid.compiled):
            raise ReportError(
                f"metric(s) {needing} trace the idle wave of an explicit "
                f"delay, but scenario {scenario.name!r} has grid points "
                "without any 'delays' entry",
                path=where, report=spec.name,
            )
        sweep, draws = _target_sweep(spec, scenario, grid)
        targets.append(ReportTarget(scenario=scenario, grid=grid,
                                    sweep=sweep, draws_per_point=draws))
    targets = tuple(targets)

    # Kernel parameter *values* are validated against every grid point
    # here, so `report validate` catches them — not a dispatched sweep.
    for i, metric in enumerate(metrics):
        if metric.kernel.check is None:
            continue
        for target in targets:
            for compiled_point in target.grid.compiled:
                problem = metric.kernel.check(metric.params, compiled_point)
                if problem:
                    raise ReportError(problem, path=f"metrics[{i}].params",
                                      report=spec.name)

    return CompiledReport(
        spec=spec,
        targets=targets,
        metrics=metrics,
        group_by=_resolve_group_by(spec, targets),
        aggregate=spec.aggregate,
    )
