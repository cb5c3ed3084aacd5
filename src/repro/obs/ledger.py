"""The run ledger: one provenance record per run, under ``<cache>/runs/``.

A ledger record is the durable answer to *"what ran here?"* — spec key,
seed root, engine, worker count, task/cache economics, wall time and
its phases, the recorder's counters, failure summaries, and where the
telemetry JSONL and report artifacts landed.  One atomically written
single-line JSON file per run keeps the ledger append-only under
concurrent campaigns (two runs never contend on one file) while ``cat
runs/*.json`` still yields valid JSONL.

:class:`RunTracker` builds a record from the run recorder's snapshot
plus the provenance no event carries; :class:`RunLedger` reads and
writes the directory.  The CLI surface is :mod:`repro.obs.cli`
(``runs ls|show|diff``), and :mod:`repro.perf` trends the records.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from collections import Counter
from pathlib import Path
from typing import Iterator, Mapping

from repro.telemetry.recorder import phase_breakdown

__all__ = ["EVENT_VERSION", "RUN_RECORD_VERSION", "RunLedger", "RunTracker",
           "new_run_id", "render_run_summary"]

#: Version of the event schema (names + payload conventions).  Bump on
#: renames, removals or payload-shape changes and note it in the PR
#: description — ledger records carry it so old records stay
#: interpretable.  v2 added the fault-tolerance events: ``task.retry``,
#: ``task.quarantined``, ``pool.respawn``.  v3 removed
#: ``worker.heartbeat``: worker health samples are now the
#: ``worker.rss_bytes`` / ``worker.cpu_s`` histograms.  v4 removed the
#: pool-only ``task.stall``, ``task.retry``, ``task.quarantined`` and
#: ``pool.respawn``: a dead worker ends the campaign, and nothing is
#: watched, re-dispatched or quarantined.
EVENT_VERSION = 4

#: Schema version of ledger records; bump together with field changes.
#: v2 added the worker-health fields: ``n_stalls``, ``n_heartbeats``,
#: ``worker_rss_peak_bytes``.  v3 added the fault-tolerance economics —
#: ``n_retried``, ``n_quarantined``, ``n_pool_respawns``,
#: ``retry_wasted_s`` — and the resume link ``resumed_from``.  v4
#: dropped ``retry_wasted_s`` with the in-worker retries that filled it;
#: ``n_retried`` now counts only re-dispatches after a worker death.  v5
#: added ``phases`` (seconds per direct child of the root span) and
#: ``counters`` (the recorder's counters).  v6 dropped ``n_stalls``,
#: ``n_retried``, ``n_quarantined`` and ``n_pool_respawns`` with the
#: events that filled them.
RUN_RECORD_VERSION = 6

#: Failure summaries kept per record — enough to diagnose, bounded so a
#: 10k-task wreck cannot bloat the ledger.
_MAX_FAILURES = 8


def new_run_id(kind: str, started_unix: float) -> str:
    """Sortable, collision-free run id: ``sweep-20260808T120000-3fa9c1``."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started_unix))
    return f"{kind.rsplit('.', 1)[-1]}-{stamp}-{uuid.uuid4().hex[:6]}"


class RunTracker:
    """A run's out-of-band provenance, and the builder of its record.

    Everything a record says about the run itself is read off the
    recorder's snapshot by :meth:`record`.  The tracker holds only what
    no event carries: :meth:`note_failure` for run-level exceptions,
    :meth:`add_artifact` for written artifact paths,
    :meth:`set_telemetry` for the profiled JSONL path, and
    :meth:`set_resumed_from` for the run this one resumes.
    """

    def __init__(self) -> None:
        self.failures: "list[str]" = []
        self.artifacts: "list[str]" = []
        self.telemetry: "str | None" = None
        self.resumed_from: "str | None" = None

    def note_failure(self, summary: str) -> None:
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(str(summary))

    def add_artifact(self, path) -> None:
        self.artifacts.append(os.path.abspath(path))

    def set_telemetry(self, path) -> None:
        self.telemetry = os.path.abspath(path)

    def set_resumed_from(self, run_id: "str | None") -> None:
        """Link this run to the ledger record it resumes."""
        self.resumed_from = str(run_id) if run_id is not None else None

    def record(self, snapshot: Mapping, *, run_id: str, status: str,
               kind: str, name: str, wall_s: float, started_unix: float,
               finished_unix: float) -> dict:
        """Build the ledger record dict (see :data:`RUN_RECORD_VERSION`).

        The first ``run.start`` payload gives the run's identity (kind,
        name, totals, spec key, seed root, engine, jobs); ``kind`` and
        ``name`` stand in when it has none.  Event counts give the task
        and cache economics, the ``worker.rss_bytes`` samples (one
        per pool unit) give ``n_heartbeats`` and
        ``worker_rss_peak_bytes``, and ``phases`` maps each direct child
        of the root span to its summed seconds.
        """
        events = snapshot["events"]
        counts = Counter(event_name for event_name, _, _ in events)
        start = next((data or {} for event_name, _, data in events
                      if event_name == "run.start"), {})
        failed_tasks = sorted(
            int(data["index"]) for event_name, _, data in events
            if event_name == "task.failed" and data and "index" in data)
        n_cached = counts["task.cache_hit"]
        n_failed = counts["task.failed"]
        n_executed = counts["task.done"]
        n_tasks = start.get("n_tasks")
        n_tasks = (int(n_tasks) if n_tasks is not None
                   else n_executed + n_cached + n_failed)
        rss = snapshot["hists"].get("worker.rss_bytes") or (0, 0, 0, 0)
        phases = phase_breakdown(snapshot)["phases"]
        return {
            "version": RUN_RECORD_VERSION,
            "event_version": EVENT_VERSION,
            "id": run_id,
            "kind": start.get("kind") or kind,
            "name": start.get("name") or name,
            "status": status,
            "spec_key": start.get("spec_key"),
            "seed_root": start.get("seed_root"),
            "engine": start.get("engine"),
            "jobs": start.get("jobs"),
            "n_tasks": n_tasks,
            "n_cached": n_cached,
            "n_executed": n_executed,
            "n_failed": n_failed,
            "cache_hit_rate": (n_cached / n_tasks) if n_tasks else None,
            "wall_s": wall_s,
            "started_unix": started_unix,
            "finished_unix": finished_unix,
            "failures": list(self.failures),
            "failed_tasks": failed_tasks[:_MAX_FAILURES],
            "resumed_from": self.resumed_from,
            "n_heartbeats": int(rss[0]),
            "worker_rss_peak_bytes": int(rss[3]),
            "telemetry": self.telemetry,
            "artifacts": list(self.artifacts),
            "n_events": len(events),
            "phases": {n: p["total_s"] for n, p in phases.items()},
            "counters": dict(snapshot["counters"]),
        }


def render_run_summary(record: dict) -> str:
    """The one-line exit summary, sourced from the *ledger record* itself.

    Printing and persisting read the same dict, so the terminal line and
    the ledger can never disagree about what a run did.
    """
    status = record["status"]
    mark = "" if status == "ok" else f" {status.upper()}"
    extras = (f", resumed from {record['resumed_from']}"
              if record.get("resumed_from") else "")
    return (f"[run {record['id']}{mark}: {record['n_tasks']} task(s), "
            f"{record['n_failed']} failed, {record['n_cached']} cache "
            f"hit(s){extras}, {record['wall_s']:.2f}s]")


class RunLedger:
    """The ``<cache-dir>/runs/`` directory of per-run JSON records."""

    def __init__(self, cache_dir: "str | Path") -> None:
        self.root = Path(cache_dir).expanduser() / "runs"

    def path_for(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    def append(self, record: dict) -> Path:
        """Atomically persist one record; returns its path."""
        path = self.path_for(record["id"])
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(record, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def records(self) -> "Iterator[dict]":
        """Every readable record, oldest first (torn files are skipped)."""
        if not self.root.exists():
            return
        loaded = []
        for path in sorted(self.root.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(record, dict) and "id" in record:
                loaded.append(record)
        loaded.sort(key=lambda r: (r.get("started_unix") or 0, r["id"]))
        yield from loaded

    def find(self, id_or_prefix: str) -> dict:
        """The unique record matching a full id or unambiguous prefix.

        Raises :class:`KeyError` with a readable message when nothing
        (or more than one record) matches.
        """
        # One directory scan: records() re-reads and re-parses every
        # file, so materialize it once and run both match passes (exact,
        # then prefix) over the loaded list.
        records = list(self.records())
        matches = [r for r in records if r["id"] == id_or_prefix]
        if not matches:
            matches = [r for r in records
                       if r["id"].startswith(id_or_prefix)]
        if not matches:
            raise KeyError(f"no run {id_or_prefix!r} in {self.root}")
        if len(matches) > 1:
            ids = ", ".join(r["id"] for r in matches[:5])
            raise KeyError(
                f"run id prefix {id_or_prefix!r} is ambiguous ({ids})")
        return matches[0]
