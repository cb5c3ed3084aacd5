"""The lifecycle event vocabulary.

Events are instants on the telemetry recorder: emission sites call
``telemetry.emit("task.done", index=spec.index)``, a no-op unless a run
is observed, and live consumers (the progress renderer, the run tracker)
subscribe to the recorder.  See :mod:`repro.telemetry.recorder` for the
event tuple and the identity-stream determinism contract.
"""

from __future__ import annotations

__all__ = ["EVENT_VERSION", "KNOWN_EVENTS"]

#: Version of the event schema (names + payload conventions).  Bump on
#: renames, removals or payload-shape changes and note it in the PR
#: description — ledger records carry it so old records stay
#: interpretable.  v2 added the fault-tolerance events: ``task.retry``,
#: ``task.quarantined``, ``pool.respawn``.  v3 removed
#: ``worker.heartbeat``: worker health samples are now the
#: ``worker.rss_bytes`` / ``worker.cpu_s`` histograms.
EVENT_VERSION = 3

#: The typed lifecycle vocabulary.  ``emit`` does not enforce membership
#: (forward compatibility for downstream consumers), but events outside
#: this set are invisible to the progress renderer and the run tracker.
#:
#: ``task.stall`` and ``pool.respawn`` are **pool-only**: they describe
#: wall-clock health (stalled tasks, dead workers) that serial runs never
#: emit, so the ``--jobs 1`` identity-stream determinism contract is
#: unaffected.  ``task.retry`` (payload: ``index``, ``attempt``) fires
#: for both worker-side soft retries — deterministic given deterministic
#: failures, e.g. under the chaos harness — and pool-side re-dispatches
#: after a worker death or abandoned stall, which are pool-only like the
#: events that caused them.  ``task.quarantined`` precedes the
#: ``task.failed`` of a task the executor refuses to run again.
KNOWN_EVENTS = frozenset({
    "run.start", "run.finish",
    "task.submit", "task.start", "task.done", "task.failed",
    "task.cache_hit", "task.stall", "task.retry", "task.quarantined",
    "block.dispatch", "block.fallback",
    "pool.respawn",
    "report.phase",
})
