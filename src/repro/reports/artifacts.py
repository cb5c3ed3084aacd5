"""Artifact generation: a finished report table → files on disk.

Four artifact kinds are supported (see ``ARTIFACT_KINDS`` in
:mod:`repro.reports.spec`):

- ``csv`` — the aggregated table, one row per group;
- ``json`` — the table plus provenance (task counts, store hits) in a
  machine-readable document;
- ``npz`` — the aggregated columns as arrays, plus the raw per-draw
  samples per metric column (for downstream numeric analysis);
- ``ascii`` — the rendered text table, written under ``viz/`` (the
  plotless counterpart of a figure).

Paths default to ``<out_dir>/<report name>.<ext>`` (``viz/<name>.txt``
for ascii) and can be overridden per artifact in the spec
(:meth:`repro.reports.spec.ArtifactRequest.file_name`); the spec
rejects two artifacts whose files collide.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.reports.runner import ReportResult

__all__ = ["write_artifacts"]


def _write_csv(result: ReportResult, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*result.group_columns, "draws", *result.value_columns])
        for row in result.rows:
            writer.writerow([
                *(row.group.get(col, "") for col in result.group_columns),
                row.n_draws,
                *(repr(row.values.get(col, float("nan")))
                  for col in result.value_columns),
            ])


def _write_json(result: ReportResult, path: Path) -> None:
    def scrub(value):
        # JSON has no NaN; emit null so consumers need no custom parser.
        if isinstance(value, float) and not np.isfinite(value):
            return None
        return value

    document = {
        "name": result.name,
        "description": result.report.spec.description,
        "group_columns": list(result.group_columns),
        "value_columns": list(result.value_columns),
        "rows": [
            {
                "group": dict(row.group),
                "draws": row.n_draws,
                "values": {col: scrub(row.values.get(col, float("nan")))
                           for col in result.value_columns},
            }
            for row in result.rows
        ],
        "provenance": {
            "n_tasks": result.n_tasks,
            "n_loaded_from_store": result.n_loaded,
            "n_executed": result.n_executed,
        },
    }
    path.write_text(json.dumps(document, indent=2) + "\n")


def _write_npz(result: ReportResult, path: Path) -> None:
    arrays: dict = {
        f"group/{col}": np.asarray(
            [str(row.group.get(col, "")) for row in result.rows])
        for col in result.group_columns
    }
    arrays["n_draws"] = np.asarray([row.n_draws for row in result.rows])
    for col in result.value_columns:
        arrays[f"value/{col}"] = np.asarray(
            [row.values.get(col, float("nan")) for row in result.rows])
    for i, row in enumerate(result.rows):
        for col, samples in row.draws.items():
            arrays[f"draws/{i}/{col}"] = np.asarray(samples)
    np.savez_compressed(path, **arrays)


def _write_ascii(result: ReportResult, path: Path) -> None:
    path.write_text(result.render() + "\n")


_WRITERS = {
    "csv": _write_csv,
    "json": _write_json,
    "npz": _write_npz,
    "ascii": _write_ascii,
}


def write_artifacts(result: ReportResult, out_dir: "str | Path") -> "list[Path]":
    """Write every artifact the report spec requests; returns the paths."""
    out_dir = Path(out_dir)
    written = []
    for artifact in result.report.spec.artifacts:
        path = out_dir / artifact.file_name(result.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _WRITERS[artifact.kind](result, path)
        written.append(path)
    return written
