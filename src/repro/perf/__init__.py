"""Cross-run performance history: record, trend, and gate over time.

The run ledger answers *"what did this run do?"* and telemetry answers
*"where did its time go?"* — both are single-run views.  This package
adds the time axis: an append-only JSONL **performance history** under
``<cache-dir>/perf/`` that ingests ledger records, telemetry phase
breakdowns, and benchmark emissions (``BENCH_*.json``) into one flat
metric stream per label, plus EWMA trend analysis that flags when the
latest entry regresses against the smoothed history.

CLI surface (``repro-experiment perf ...``)::

    perf record --cache-dir DIR --run latest      # ingest a ledger run
    perf record --cache-dir DIR --telemetry F.jsonl --bench BENCH_x.json
    perf history --cache-dir DIR [--label L] [-n N]
    perf diff --cache-dir DIR [--label L] [OLD NEW]
    perf check --cache-dir DIR [--threshold 0.3]  # exit 1 on regression

CI's benchmark gate is ``perf check`` over a copy of the committed
history (``benchmarks/baselines/perf_history.jsonl``) after ``perf
record --bench`` added each fresh ``BENCH_*.json`` to it.  The committed
history holds one speedup-only floor record per gated test, so a fresh
``speedup`` fails when it falls more than the threshold below its floor.
"""

from __future__ import annotations

from .history import (
    PERF_RECORD_VERSION,
    PerfHistory,
    metrics_from_bench,
    metrics_from_run_record,
    metrics_from_telemetry,
    new_record,
)
from .trend import analyze_history, metric_direction

__all__ = [
    "PERF_RECORD_VERSION",
    "PerfHistory",
    "analyze_history",
    "metric_direction",
    "metrics_from_bench",
    "metrics_from_run_record",
    "metrics_from_telemetry",
    "new_record",
]
