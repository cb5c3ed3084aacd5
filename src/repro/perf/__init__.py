"""Cross-run performance history: trend and gate over time.

The run ledger answers *"what did this run do, and where did its time
go?"* for one run.  This package adds the time axis: it reads the
ledger's records as one flat metric series per ``<kind>/<name>``
(``<kind>/<name>/cached`` for runs served wholly from the store), keeps
benchmark emissions (``BENCH_*.json``) in an append-only JSONL, and
flags with an EWMA trend analysis when the latest entry of a series
regresses against its smoothed history.

CLI surface (``repro-experiment perf ...``)::

    perf record --history H.jsonl --bench BENCH_x.json
    perf history --cache-dir DIR [--label L] [-n N]
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
    ledger_history,
    metrics_from_bench,
    metrics_from_run_record,
    new_record,
)
from .trend import analyze_history, metric_direction

__all__ = [
    "PERF_RECORD_VERSION",
    "PerfHistory",
    "analyze_history",
    "ledger_history",
    "metric_direction",
    "metrics_from_bench",
    "metrics_from_run_record",
    "new_record",
]
