"""Report execution: compiled report → cached/dispatched runs → table.

:func:`run_report` drives the full pipeline:

1. each target's timing campaign is resolved against the result store
   (:mod:`repro.reports.query`) — fully cached sweeps never touch the
   engine and **stream**: draws are read lazily one record at a time,
   so a huge sweep is never materialized whole; misses dispatch
   through the campaign runtime with batching, and a pooled run
   streams too, reading back the records its workers wrote;
2. each grid point's draws are folded into one ``(B, P, S)``
   :class:`~repro.core.timing.BatchedTiming` as they arrive and
   every metric kernel runs once per point (vectorized over draws — no
   per-draw loop); the stack is dropped before the next point loads;
3. per-draw metric arrays are pooled by the report's ``group_by`` paths
   and reduced with the requested statistics into the final table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.timing import BatchedTiming
from repro.reports.compiler import SCENARIO_COLUMN, CompiledReport
from repro.reports.errors import ReportError
from repro.reports.kernels import MetricContext
from repro.reports.query import stream_campaign
from repro.viz.tables import format_table

__all__ = ["ReportResult", "ReportRow", "aggregate_stat", "run_report"]


def aggregate_stat(samples: np.ndarray, stat: str) -> float:
    """Reduce one group's per-draw samples with a named statistic.

    Draws where a kernel could not produce a value (``NaN``) are
    excluded; a group with no finite draws reduces to ``NaN``.
    ``std`` uses ``ddof=1`` (0.0 for a single sample), matching
    :class:`repro.analysis.statistics.RunStatistics`.
    """
    arr = np.asarray(samples, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return float("nan")
    if stat == "mean":
        return float(arr.mean())
    if stat == "std":
        return float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if stat == "median":
        return float(np.median(arr))
    if stat == "min":
        return float(arr.min())
    if stat == "max":
        return float(arr.max())
    if stat.startswith("p"):
        return float(np.percentile(arr, float(stat[1:])))
    raise ValueError(f"unknown statistic {stat!r}")  # pragma: no cover


@dataclass(frozen=True)
class ReportRow:
    """One group of the report table.

    ``draws`` holds the raw per-draw samples per metric column (the
    material the NPZ artifact and any downstream analysis consume);
    ``values`` the aggregated statistics per value column.
    """

    group: dict
    n_draws: int
    values: dict
    draws: dict


@dataclass(frozen=True)
class ReportResult:
    """A finished report: the table plus its execution provenance."""

    report: CompiledReport
    rows: "tuple[ReportRow, ...]"
    group_columns: "tuple[str, ...]"
    value_columns: "tuple[str, ...]"
    n_tasks: int
    n_loaded: int
    n_executed: int

    @property
    def name(self) -> str:
        return self.report.spec.name

    def render(self) -> str:
        """Printable report table (the ``ascii`` artifact's content)."""
        title = (
            f"=== report {self.name}: {self.n_tasks} runs, "
            f"{self.n_loaded} from store, {self.n_executed} executed ==="
        )
        header = [*self.group_columns, "draws", *self.value_columns]
        rows = []
        for row in self.rows:
            cells: list = [row.group.get(col, "") for col in self.group_columns]
            cells.append(row.n_draws)
            cells.extend(row.values.get(col, float("nan"))
                         for col in self.value_columns)
            rows.append(cells)
        parts = [title]
        if self.report.spec.description:
            parts.append(self.report.spec.description)
        parts.append(format_table(header, rows, float_fmt="{:.6g}"))
        return "\n".join(parts)


def _point_meta(compiled_point) -> dict:
    """Batch metadata the kernels read (mirrors the engines' run meta)."""
    return {
        "t_exec": compiled_point.t_exec,
        "msg_size": compiled_point.cfg.msg_size,
        "pattern": compiled_point.cfg.pattern,
        "protocol": compiled_point.resolved_protocol.value,
    }


def run_report(
    report: CompiledReport,
    store=None,
    jobs: int = 1,
    batch: bool = True,
) -> ReportResult:
    """Execute a compiled report.

    Parameters
    ----------
    report:
        The compiled report (see :func:`repro.reports.compiler.compile_report`).
    store:
        Optional :class:`~repro.runtime.store.ResultStore`.  Cached runs
        are loaded by spec key without touching the engine; fresh runs
        are persisted for the next report.
    jobs:
        Worker processes for cache-missing runs (0 = auto-detect).
    batch:
        Execute contiguous same-point seed blocks as single batched
        engine invocations (results are bit-identical, only faster).
    """
    group_columns = report.group_by
    stats = report.aggregate
    draw_columns = [
        f"{metric.label}.{field_name}"
        for metric in report.metrics
        for field_name in metric.kernel.fields
    ]
    value_columns = tuple(
        f"{column}.{stat}" for column in draw_columns for stat in stats
    )

    # group key -> (group dict, {draw column -> list of sample arrays})
    groups: "dict[tuple, tuple[dict, dict]]" = {}
    n_tasks = n_loaded = n_executed = 0
    owns_run = telemetry.enabled() and not telemetry.in_run()
    if owns_run:
        telemetry.emit("run.start", kind="report.run",
                       name=report.spec.name,
                       n_tasks=sum(t.sweep.size for t in report.targets),
                       jobs=jobs)
    for target in report.targets:
        if owns_run:
            telemetry.emit("report.phase", phase="fetch",
                           scenario=target.scenario.name)
        draws = target.draws_per_point
        points = list(zip(target.grid.points, target.grid.compiled))
        with telemetry.span("report.fetch", scenario=target.scenario.name):
            stream = stream_campaign(target.sweep.tasks(), store=store,
                                     jobs=jobs, batch=batch)
            values = iter(stream)
            # Build the first point's stack inside the fetch span: a
            # cache miss runs the whole campaign here, and the first
            # point's draws are read — later points are read lazily
            # (from the store when cached or written by pool workers),
            # so such a sweep is never materialized whole.
            timing = BatchedTiming.from_records(
                values, draws, meta=_point_meta(points[0][1]))
        if owns_run:
            telemetry.emit("report.phase", phase="metrics",
                           scenario=target.scenario.name,
                           n_points=len(points))
        with telemetry.span("report.metrics", scenario=target.scenario.name,
                            n_points=len(points)):
            for overrides, compiled_point in points:
                if timing is None:
                    timing = BatchedTiming.from_records(
                        values, draws, meta=_point_meta(compiled_point))
                ctx = MetricContext(compiled=compiled_point)

                group = {}
                for path in group_columns:
                    if path == SCENARIO_COLUMN:
                        group[path] = target.scenario.name
                    else:
                        group[path] = overrides[path]
                key = tuple(sorted(group.items(), key=lambda kv: kv[0]))
                _, samples = groups.setdefault(key, (group, {}))

                for metric in report.metrics:
                    try:
                        fields = metric.kernel.compute(timing, ctx,
                                                       **metric.params)
                    except ReportError:
                        raise
                    except (ValueError, IndexError, KeyError) as exc:
                        # Backstop for kernels without a compile-time check:
                        # surface *which* metric/scenario broke, not a numpy
                        # traceback after the sweep already ran.
                        raise ReportError(
                            f"metric {metric.label!r} failed on scenario "
                            f"{target.scenario.name!r} (point {overrides!r}): "
                            f"{exc}",
                            report=report.spec.name,
                        ) from exc
                    for field_name, arr in fields.items():
                        column = f"{metric.label}.{field_name}"
                        samples.setdefault(column, []).append(arr)
                # A point's stack must not outlive its kernels: drop it
                # before the next point's draws are read.
                timing = None
        n_tasks += stream.n_tasks
        n_loaded += stream.n_loaded
        n_executed += stream.n_executed

    rows = []
    if owns_run:
        telemetry.emit("report.phase", phase="aggregate",
                       n_groups=len(groups))
    with telemetry.span("report.aggregate", n_groups=len(groups)):
        for group, samples in groups.values():
            pooled = {column: np.concatenate(arrays)
                      for column, arrays in samples.items()}
            n_draws = max((arr.size for arr in pooled.values()), default=0)
            values = {
                f"{column}.{stat}": aggregate_stat(arr, stat)
                for column, arr in pooled.items()
                for stat in stats
            }
            rows.append(ReportRow(group=group, n_draws=n_draws,
                                  values=values, draws=pooled))

    if owns_run:
        telemetry.emit("run.finish", status="ok", n_tasks=n_tasks,
                       n_cached=n_loaded, n_executed=n_executed,
                       n_failed=0)
    return ReportResult(
        report=report,
        rows=tuple(rows),
        group_columns=group_columns,
        value_columns=value_columns,
        n_tasks=n_tasks,
        n_loaded=n_loaded,
        n_executed=n_executed,
    )
