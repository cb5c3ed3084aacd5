"""The performance-history file: append-only JSONL of flat metric records.

One history line is one *observation* of a labelled workload::

    {"version": 1, "ts": 1754650000.0, "label": "bench/bench_dag/test_x",
     "source": "bench", "metrics": {"speedup": 15.9, ...},
     "context": {"schema": 1}}

``metrics`` is deliberately flat (``str -> number``): trend analysis
and rendering iterate one dict without schema knowledge.
:func:`metrics_from_bench` flattens a ``BENCH_*.json`` emission into
that shape and :func:`metrics_from_run_record` a run-ledger record;
anything they cannot coerce to a finite number is dropped, never
guessed.  Runs are never copied into the file: :func:`ledger_history`
reads their series straight from the ledger.

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
from typing import Mapping

from repro.obs.ledger import RunLedger

__all__ = [
    "PERF_RECORD_VERSION",
    "PerfHistory",
    "format_metric",
    "ledger_history",
    "metrics_from_bench",
    "metrics_from_run_record",
    "new_record",
]

#: Schema version of one history line.  Bump on renames or semantic
#: changes of existing fields; *adding* metric keys is compatible (old
#: records simply lack them and trend analysis skips the gap).
PERF_RECORD_VERSION = 1

#: Sources a record can declare — where its metrics were measured.
_SOURCES = frozenset({"run-ledger", "bench", "manual"})


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


def format_metric(value: float) -> str:
    """A metric value for a table: integral values print whole."""
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


# -- adapters ----------------------------------------------------------

def metrics_from_run_record(record: Mapping) -> "tuple[str, dict, dict]":
    """Flatten a run-ledger record: ``(label, metrics, context)``.

    The label is ``<kind>/<name>`` so sweeps of different scenarios
    trend independently; wall time, task counts, cache economics, the
    worker-health fields and each v5 phase (as ``phase.<name>_s``) all
    become metrics.
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
        **{f"phase.{name}_s": seconds
           for name, seconds in (record.get("phases") or {}).items()},
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


def ledger_history(cache_dir: "str | Path") -> "list[dict]":
    """The run series of ``<cache_dir>/runs/``, ordered by ``started_unix``.

    An ok run joins ``<kind>/<name>`` when no task was a cache hit and
    ``<kind>/<name>/cached`` when the store served every task (a warm run
    is several times faster, so mixing them would flag every cold run
    after a warm one); partial and failed runs join neither.
    """
    out = []
    for run in RunLedger(cache_dir).records():
        n_cached = run.get("n_cached") or 0
        if run.get("status") != "ok" or (
                n_cached and n_cached != run.get("n_tasks")):
            continue
        label, metrics, context = metrics_from_run_record(run)
        if metrics:
            out.append(new_record(label + ("/cached" if n_cached else ""),
                                  "run-ledger", metrics, context,
                                  ts=run.get("started_unix")))
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
            if not isinstance(record, dict) or not {
                    "label", "metrics"} <= record.keys():
                continue
            if label is not None and record["label"] != label:
                continue
            out.append(record)
        return out
