"""Live run observability: progress rendering and the run ledger.

The obs layer consumes the one instrument stream, the telemetry
recorder (:mod:`repro.telemetry`), whose lifecycle events the executor
and runners emit (``run.start``, ``task.done``, ``block.fallback``, …;
the vocabulary is :mod:`repro.obs.events`):

- :mod:`repro.obs.progress` — a TTY-aware single-line renderer
  (throughput, cache-hit rate, EWMA-based ETA) subscribed to the
  recorder.
- :mod:`repro.obs.health` — worker resource samples (recorded as
  ``worker.*`` histograms) and the pool's stall watchdog.
- :mod:`repro.obs.ledger` / :mod:`repro.obs.session` — per-run
  provenance records under ``<cache-dir>/runs/`` and the
  :func:`observe_run` context manager that wires a whole CLI run
  together.  ``repro-experiment runs ls|show|tail|diff`` queries the
  ledger.

Observability is pure: enabling it never changes engine outputs or the
bytes the store persists (enforced by ``tests/scenarios/test_batch.py``
and ``benchmarks/bench_obs.py``).
"""

from repro.obs.events import EVENT_VERSION, KNOWN_EVENTS
from repro.obs.ledger import (
    RUN_RECORD_VERSION,
    RunLedger,
    RunTracker,
    render_run_summary,
)
from repro.obs.progress import ProgressRenderer
from repro.obs.session import observe_run

__all__ = [
    "EVENT_VERSION",
    "KNOWN_EVENTS",
    "ProgressRenderer",
    "RUN_RECORD_VERSION",
    "RunLedger",
    "RunTracker",
    "observe_run",
    "render_run_summary",
]
