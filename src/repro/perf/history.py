"""The performance-history file: append-only JSONL of flat metric records.

One history line is one *observation* of a labelled workload::

    {"version": 1, "ts": 1754650000.0, "label": "scenario.sweep/rate",
     "source": "run-ledger", "metrics": {"wall_s": 1.93, ...},
     "context": {"run_id": "sweep-...", "jobs": 4}}

``metrics`` is deliberately flat (``str -> number``): trend analysis,
diffing, and rendering all iterate one dict without schema knowledge.
The ``metrics_from_*`` adapters flatten the three existing observation
products — run-ledger records, telemetry snapshots (phase breakdown as
``phase.<name>_s``), and ``BENCH_*.json`` emissions — into that shape;
anything they cannot coerce to a finite number is dropped, never
guessed.

Append-only by construction: records are only ever added at the end of
``history.jsonl``, torn or foreign lines are skipped on read, and the
file stays ``cat``-able and diff-able in review.  The committed
``benchmarks/baselines/perf_history.jsonl`` holds the benchmark gate's
floors: one ``bench`` record per gated test whose only metric is
``speedup`` (absolute timings vary by machine and are never floored).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "PERF_RECORD_VERSION",
    "PerfHistory",
    "metrics_from_bench",
    "metrics_from_run_record",
    "metrics_from_telemetry",
    "new_record",
]

#: Schema version of one history line.  Bump on renames or semantic
#: changes of existing fields; *adding* metric keys is compatible (old
#: records simply lack them and trend analysis skips the gap).
PERF_RECORD_VERSION = 1

#: Sources a record can declare — where its metrics were measured.
_SOURCES = frozenset({"run-ledger", "telemetry", "bench", "manual"})


def _clean_metrics(metrics: Mapping) -> "dict[str, float]":
    """Keep only finite-number values; booleans and NaNs are not metrics."""
    out: "dict[str, float]" = {}
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        value = float(value)
        if math.isfinite(value):
            out[str(key)] = value
    return out


def new_record(label: str, source: str, metrics: Mapping,
               context: "Mapping | None" = None,
               ts: "float | None" = None) -> dict:
    """Build one validated history record (not yet persisted)."""
    if not label:
        raise ValueError("perf record needs a non-empty label")
    if source not in _SOURCES:
        raise ValueError(
            f"unknown perf source {source!r}; expected one of "
            f"{sorted(_SOURCES)}")
    cleaned = _clean_metrics(metrics)
    if not cleaned:
        raise ValueError(
            f"perf record {label!r} has no numeric metrics to store")
    record = {
        "version": PERF_RECORD_VERSION,
        "ts": float(ts) if ts is not None else time.time(),
        "label": str(label),
        "source": source,
        "metrics": cleaned,
    }
    if context:
        record["context"] = {k: v for k, v in context.items() if v is not None}
    return record


# -- adapters ----------------------------------------------------------

def metrics_from_run_record(record: Mapping) -> "tuple[str, dict, dict]":
    """Flatten a run-ledger record: ``(label, metrics, context)``.

    The label is ``<kind>/<name>`` so sweeps of different scenarios
    trend independently; wall time, task counts, cache economics, and
    the v2 worker-health fields all become metrics.
    """
    label = f"{record.get('kind', 'run')}/{record.get('name', '?')}"
    metrics = _clean_metrics({
        "wall_s": record.get("wall_s"),
        "n_tasks": record.get("n_tasks"),
        "n_cached": record.get("n_cached"),
        "n_executed": record.get("n_executed"),
        "n_failed": record.get("n_failed"),
        "cache_hit_rate": record.get("cache_hit_rate"),
        "n_stalls": record.get("n_stalls"),
        # v3 fault-tolerance economics: the re-dispatch family lets the
        # trend gate flag a crash storm (a workload that still passes but
        # now kills workers) as a regression, not silence.
        "n_retried": record.get("n_retried"),
        "n_quarantined": record.get("n_quarantined"),
        "n_pool_respawns": record.get("n_pool_respawns"),
        # 0 here means "no heartbeat sampled" (serial or fully cached
        # run), not "zero memory" — recording it would make the next
        # real measurement an infinite regression against a zero EWMA.
        "worker_rss_peak_bytes": record.get("worker_rss_peak_bytes") or None,
    })
    wall = metrics.get("wall_s")
    n_tasks = metrics.get("n_tasks")
    if wall and n_tasks:
        metrics["tasks_per_s"] = n_tasks / wall
    if n_tasks and metrics.get("n_retried") is not None:
        metrics["retries_per_task"] = metrics["n_retried"] / n_tasks
    context = {"run_id": record.get("id"), "jobs": record.get("jobs"),
               "status": record.get("status"),
               "spec_key": record.get("spec_key")}
    return label, metrics, context


def metrics_from_telemetry(snapshot: Mapping) -> "tuple[str, dict, dict]":
    """Flatten a telemetry snapshot: total and per-phase wall seconds.

    Phases become ``phase.<name>_s`` — the metric family the trend
    analysis watches for the "one phase quietly doubled" regressions a
    total-only gate averages away.
    """
    from repro.telemetry.sinks import summarize

    summary = summarize(snapshot)
    breakdown = summary["phase_breakdown"]
    metrics = {"total_s": breakdown["total_s"]}
    for name, phase in breakdown["phases"].items():
        metrics[f"phase.{name}_s"] = phase["total_s"]
    for key in ("dag_cache_hit_rate", "store_hit_rate",
                "campaign_cache_hit_rate"):
        if summary.get(key) is not None:
            metrics[key] = summary[key]
    label = f"telemetry/{summary.get('label') or 'run'}"
    context = {"n_spans": summary.get("n_spans"),
               "coverage": breakdown.get("coverage")}
    return label, _clean_metrics(metrics), context


def metrics_from_bench(payload: Mapping) -> "list[tuple[str, dict, dict]]":
    """Flatten one ``BENCH_*.json`` emission: one entry per test.

    Labels are ``bench/<benchmark>/<test>``; every numeric field of the
    test record (speedup, absolute timings, sizes) becomes a metric.
    """
    bench = payload.get("benchmark", "bench")
    out = []
    for test_name, fields in sorted(payload.get("tests", {}).items()):
        metrics = _clean_metrics(fields if isinstance(fields, Mapping) else {})
        if not metrics:
            continue
        out.append((f"bench/{bench}/{test_name}", metrics,
                    {"schema": payload.get("schema")}))
    return out


# -- storage -----------------------------------------------------------

class PerfHistory:
    """Append-only ``history.jsonl`` under a perf directory.

    Constructed from the directory (``<cache-dir>/perf``) or pointed at
    an explicit history file (CI gates a copy of the committed history
    under ``benchmarks/baselines/``).
    """

    def __init__(self, root: "str | Path", filename: str = "history.jsonl"):
        root = Path(root).expanduser()
        if root.suffix == ".jsonl":
            self.path = root
        else:
            self.path = root / filename

    def append(self, record: Mapping) -> Path:
        """Persist one record as one line; returns the history path."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return self.path

    def records(self, label: "str | None" = None) -> "list[dict]":
        """All readable records in file order (torn lines are skipped)."""
        if not self.path.exists():
            return []
        out: "list[dict]" = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict) or "metrics" not in record:
                continue
            if label is not None and record.get("label") != label:
                continue
            out.append(record)
        return out

    def labels(self) -> "list[str]":
        """Distinct labels in first-seen order."""
        seen: "dict[str, None]" = {}
        for record in self.records():
            seen.setdefault(record.get("label", "?"))
        return list(seen)

    def by_label(self) -> "dict[str, list[dict]]":
        """Records grouped per label, file order preserved within each."""
        grouped: "dict[str, list[dict]]" = {}
        for record in self.records():
            grouped.setdefault(record.get("label", "?"), []).append(record)
        return grouped
