"""Sweep expansion: a scenario's ``sweep`` block → campaign runtime grid.

A scenario with a ``sweep`` section declares axes of dotted spec paths.
:func:`scenario_sweep_spec` expands those into a
:class:`~repro.runtime.spec.SweepSpec` over :func:`repro.scenarios.tasks.
scenario_task`, so scenario grids inherit everything the campaign
runtime provides: deterministic per-task seeds, process-pool sharding, the
content-addressed result store, and bit-identical serial/parallel
results.  :func:`run_scenario_sweep` executes the grid and aggregates
per-point summaries.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import _lazy_exports, telemetry
from repro.runtime.spec import SweepSpec
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.viz.tables import format_table

if TYPE_CHECKING:
    from repro.runtime.executor import CampaignResult

__all__ = ["GridExpansion", "SweepPointSummary", "ScenarioSweepResult",
           "expand_scenario_grid", "scenario_sweep_spec",
           "run_scenario_sweep"]

#: The campaign task every scenario sweep runs; named here, not imported,
#: so expanding a grid never loads the execution path.
SCENARIO_TASK_FN = "repro.scenarios.tasks:scenario_task"

# Report compilation imports this module for its grid expansion, so the
# executor (and with it multiprocessing) is bound on the first sweep.
_, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.runtime.executor": ("run_campaign",),
})


def _grid_points(spec: ScenarioSpec) -> "list[dict]":
    """Cartesian product of the sweep axes as override dicts (last-fastest)."""
    sweep = spec.sweep
    if sweep is None or not sweep.axes:
        return [{}]
    names = [axis.path for axis in sweep.axes]
    grids = [axis.values for axis in sweep.axes]
    return [dict(zip(names, combo)) for combo in itertools.product(*grids)]


@dataclass(frozen=True)
class GridExpansion:
    """A scenario's validated sweep grid, ready for task expansion.

    The single definition of "what a scenario grid is" — shared by the
    scenario sweep path and the report subsystem (which dispatches the
    same grid through a different task function), so their engine
    resolution and point order can never drift apart.
    """

    document: dict  # sweep-less scenario document (ScenarioSpec.to_dict)
    points: "tuple[dict, ...]"  # per-point {dotted.path: value} overrides
    compiled: tuple  # CompiledScenario per point, same order
    engine: str  # concrete resolved engine ("lockstep" | "dag")
    replicates: int


def expand_scenario_grid(spec: ScenarioSpec, engine: str = "auto") -> GridExpansion:
    """Validate and expand a scenario's grid (compiling every point).

    Every grid point is validated up front (overrides applied, document
    re-parsed, point compiled), so a sweep whose axis values break the
    spec fails here with the offending path — not inside a worker
    process halfway through the campaign.

    ``engine="auto"`` is resolved to the *concrete* engine the compiler
    chooses before it enters any task parameters, so the content hash
    that addresses the result store names the engine whose semantics
    produced the result — a dispatch-rule change can never silently serve
    results computed under the old rule.

    Scenarios *without* a ``sweep`` block expand to a single-point grid,
    which keeps caching and sharding uniform for the CLI.
    """
    document = spec.without_sweep().to_dict()
    points = _grid_points(spec)
    compiled_points = []
    for point in points:
        candidate = apply_overrides(document, point) if point else document
        try:
            compiled = compile_scenario(ScenarioSpec.from_dict(candidate),
                                        engine=engine)
        except ScenarioError as exc:
            raise ScenarioError(
                f"sweep point {point!r} does not compile: {exc.message}",
                path=exc.path, scenario=spec.name,
            ) from exc
        compiled_points.append(compiled)
    return GridExpansion(
        document=document,
        points=tuple(points),
        compiled=tuple(compiled_points),
        engine=compiled_points[0].engine,  # the same for every point
        replicates=spec.sweep.replicates if spec.sweep is not None else 1,
    )


def scenario_sweep_spec(
    spec: ScenarioSpec,
    base_seed: "int | None" = None,
    engine: str = "auto",
) -> SweepSpec:
    """Expand a scenario into a campaign-runtime sweep declaration.

    See :func:`expand_scenario_grid` for the validation and engine
    resolution this inherits.
    """
    grid = expand_scenario_grid(spec, engine=engine)
    return SweepSpec(
        fn=SCENARIO_TASK_FN,
        base={"scenario": grid.document, "engine": grid.engine},
        axes=(
            ("overrides", grid.points),
            ("replicate", tuple(range(grid.replicates))),
        ),
        base_seed=spec.seed if base_seed is None else base_seed,
    )


@dataclass(frozen=True)
class SweepPointSummary:
    """Aggregated outputs of one grid point across its replicates."""

    overrides: dict
    n_runs: int
    outputs: dict  # output kind -> {field: mean across replicates}


@dataclass(frozen=True)
class ScenarioSweepResult:
    """A finished scenario sweep: the campaign plus per-point summaries."""

    spec: ScenarioSpec
    campaign: CampaignResult
    points: "tuple[SweepPointSummary, ...]"

    def render(self) -> str:
        """Printable per-point summary table."""
        axis_names = sorted({k for p in self.points for k in p.overrides})
        numeric: "list[str]" = []
        for point in self.points:
            for kind, fields in point.outputs.items():
                for name, value in fields.items():
                    col = f"{kind}.{name}"
                    if isinstance(value, (int, float)) and col not in numeric:
                        numeric.append(col)
        rows = []
        for point in self.points:
            row: list = [point.overrides.get(a, "") for a in axis_names]
            row.append(point.n_runs)
            for col in numeric:
                kind, name = col.split(".", 1)
                value = point.outputs.get(kind, {}).get(name, "")
                row.append(f"{value:.6g}" if isinstance(value, float) else value)
            rows.append(tuple(row))
        header = [*axis_names, "runs", *numeric]
        title = f"=== scenario sweep {self.spec.name}: {len(self.campaign)} runs, " \
                f"{self.campaign.n_cached} cached, " \
                f"{self.campaign.n_executed} executed on {self.campaign.jobs} worker(s) ==="
        return title + "\n" + format_table(header, rows)


def _mean_outputs(values: "list[dict]") -> dict:
    """Per-output-kind mean of every numeric field across replicate runs."""
    out: dict = {}
    kinds = {k for v in values for k in v["outputs"]}
    for kind in sorted(kinds):
        fields: dict = {}
        dicts = [v["outputs"][kind] for v in values if kind in v["outputs"]]
        for name in dicts[0]:
            samples = [d[name] for d in dicts
                       if isinstance(d.get(name), (int, float))
                       and not isinstance(d.get(name), bool)]
            if samples and len(samples) == len(dicts):
                fields[name] = float(np.mean(samples))
        out[kind] = fields
    return out


def _sweep_spec_key(tasks) -> str:
    """One content hash naming the whole sweep: the digest of its task keys.

    Same alphabet/length as a store key, but derived from *all* task
    hashes — two sweeps share it iff they would hit the same records.
    Only computed when a run is observed (telemetry enabled).
    """
    import hashlib

    joined = "\n".join(task.key for task in tasks).encode()
    return hashlib.sha256(joined).hexdigest()[:32]


def run_scenario_sweep(
    spec: ScenarioSpec,
    base_seed: "int | None" = None,
    engine: str = "auto",
    jobs: int = 1,
    store=None,
) -> ScenarioSweepResult:
    """Run a scenario's grid through the campaign runtime and aggregate.

    ``jobs``/``store`` are forwarded to
    :func:`repro.runtime.executor.run_campaign`; task failures raise.
    Contiguous replicate blocks of one grid point execute as single
    batched-engine invocations, bit-identical to per-task runs.
    """
    with telemetry.span("sweep.expand", scenario=spec.name):
        # The first sweep in a process loads the executor here, which takes
        # longer than the expansion; inside the span that time is a phase.
        from repro.scenarios.batch import ScenarioTaskBatcher
        from repro.scenarios.sweep import run_campaign  # the lazy binding above

        sweep = scenario_sweep_spec(spec, base_seed=base_seed, engine=engine)
        tasks = sweep.tasks()
        if telemetry.enabled():
            # Hashing every task key is part of expanding the grid: the
            # span keeps that time inside the run's phase breakdown.
            telemetry.emit(
                "run.start", kind="scenario.sweep", name=spec.name,
                n_tasks=len(tasks), engine=dict(sweep.base)["engine"],
                seed_root=sweep.base_seed, jobs=jobs,
                spec_key=_sweep_spec_key(tasks),
            )
    campaign = run_campaign(tasks, jobs=jobs, store=store,
                            batcher=ScenarioTaskBatcher())
    if telemetry.enabled():
        telemetry.emit("run.finish",
                       status="failed" if campaign.failures else "ok",
                       n_tasks=len(campaign),
                       n_failed=len(campaign.failures),
                       n_cached=campaign.n_cached,
                       n_executed=campaign.n_executed)
    campaign.raise_failures()

    with telemetry.span("sweep.aggregate", n_runs=len(campaign)):
        grouped: "dict[str, tuple[dict, list]]" = {}
        for result in campaign:
            overrides = result.spec.kwargs.get("overrides") or {}
            key = json.dumps(overrides, sort_keys=True)
            grouped.setdefault(key, (overrides, []))[1].append(result.value)
        points = tuple(
            SweepPointSummary(overrides=dict(overrides), n_runs=len(values),
                              outputs=_mean_outputs(values))
            for overrides, values in grouped.values()
        )
    return ScenarioSweepResult(spec=spec, campaign=campaign, points=points)
