"""Live run observability: progress rendering and the run ledger.

The obs layer consumes the one instrument stream, the telemetry
recorder (:mod:`repro.telemetry`), whose lifecycle events the executor
and runners emit (``run.start``, ``task.done``, ``block.fallback``, …;
consumers match them by name, and the schema version is
:data:`repro.obs.ledger.EVENT_VERSION`):

- :mod:`repro.obs.progress` — a TTY-aware single-line renderer
  (throughput, cache-hit rate, EWMA-based ETA) subscribed to the
  recorder.
- :mod:`repro.obs.health` — worker resource samples (recorded as
  ``worker.*`` histograms).
- :mod:`repro.obs.ledger` / :mod:`repro.obs.session` — per-run
  provenance records under ``<cache-dir>/runs/``, each built from the
  run recorder's snapshot, and the :func:`observe_run` context manager
  that wires a whole CLI run together.  The ``runs ls|show|diff``
  subcommands query the ledger.

Observability is pure: enabling it never changes engine outputs or the
bytes the store persists (enforced by ``tests/scenarios/test_batch.py``
and ``benchmarks/bench_obs.py``).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".ledger": ("EVENT_VERSION", "RUN_RECORD_VERSION", "RunLedger",
                "RunTracker", "render_run_summary"),
    ".progress": ("ProgressRenderer",),
    ".session": ("observe_run",),
})
