"""The run ledger: one provenance record per run, under ``<cache>/runs/``.

A ledger record is the durable answer to *"what ran here?"* — spec key,
seed root, engine, worker count, task/cache economics, wall time and
its phases, the recorder's counters, failure summaries, and where the
telemetry JSONL and report artifacts landed.  One atomically written
single-line JSON file per run keeps the ledger append-only under
concurrent campaigns (two runs never contend on one file) while ``cat
runs/*.json`` still yields valid JSONL.

:class:`RunTracker` is the recorder subscriber that accumulates a
record's fields from lifecycle events; :class:`RunLedger` reads and
writes the directory.  The CLI surface is :mod:`repro.obs.cli`
(``runs ls|show|tail|diff``), and :mod:`repro.perf` trends the records.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import Iterator, Mapping

from repro.obs.events import EVENT_VERSION

__all__ = ["RUN_RECORD_VERSION", "RunLedger", "RunTracker", "new_run_id",
           "render_run_summary"]

#: Schema version of ledger records; bump together with field changes.
#: v2 added the worker-health fields: ``n_stalls``, ``n_heartbeats``,
#: ``worker_rss_peak_bytes``.  v3 added the fault-tolerance economics —
#: ``n_retried``, ``n_quarantined``, ``n_pool_respawns``,
#: ``retry_wasted_s`` — and the resume link ``resumed_from``.  v4
#: dropped ``retry_wasted_s`` with the in-worker retries that filled it;
#: ``n_retried`` now counts only re-dispatches after a worker death.  v5
#: added ``phases`` (seconds per direct child of the root span) and
#: ``counters`` (the recorder's counters).
RUN_RECORD_VERSION = 5

#: Failure summaries kept per record — enough to diagnose, bounded so a
#: 10k-task wreck cannot bloat the ledger.
_MAX_FAILURES = 8


def new_run_id(kind: str, started_unix: float) -> str:
    """Sortable, collision-free run id: ``sweep-20260808T120000-3fa9c1``."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started_unix))
    return f"{kind.rsplit('.', 1)[-1]}-{stamp}-{uuid.uuid4().hex[:6]}"


class RunTracker:
    """Accumulates one ledger record from the event stream.

    Subscribe :meth:`handle` to the recorder; the first ``run.start``
    defines the run's identity (kind, name, totals, spec key) and later
    ones are ignored — nested or worker-side lifecycles never overwrite
    the outer run.  Callers attach out-of-band provenance directly:
    :meth:`add_artifact` for written artifact paths,
    :meth:`set_telemetry` for the profiled JSONL path, and
    :meth:`note_failure` for run-level exceptions.  Worker health comes
    from the recorder's histograms when :meth:`record` builds the record.
    """

    def __init__(self) -> None:
        self.kind: "str | None" = None
        self.name: "str | None" = None
        self.n_tasks: "int | None" = None
        self.spec_key: "str | None" = None
        self.seed_root: "int | None" = None
        self.engine: "str | None" = None
        self.jobs: "int | None" = None
        self.n_done = 0
        self.n_cached = 0
        self.n_failed = 0
        self.n_stalls = 0
        self.n_retried = 0
        self.n_quarantined = 0
        self.n_pool_respawns = 0
        self.resumed_from: "str | None" = None
        self.n_events = 0
        self.failures: "list[str]" = []
        self.failed_tasks: "list[int]" = []
        self.run_started = False
        self.run_finished = False
        self.finish_status: "str | None" = None
        self.telemetry: "str | None" = None
        self.artifacts: "list[str]" = []

    # -- recorder subscriber ------------------------------------------

    def handle(self, event: tuple) -> None:
        _, name, _, _, data = event
        data = data or {}
        self.n_events += 1
        if name == "run.start":
            if self.run_started:
                return
            self.run_started = True
            self.kind = data.get("kind", self.kind)
            self.name = data.get("name", self.name)
            if data.get("n_tasks") is not None:
                self.n_tasks = int(data["n_tasks"])
            self.spec_key = data.get("spec_key", self.spec_key)
            self.seed_root = data.get("seed_root", self.seed_root)
            self.engine = data.get("engine", self.engine)
            self.jobs = data.get("jobs", self.jobs)
        elif name in ("task.done", "task.failed", "task.cache_hit"):
            self.n_done += 1
            if name == "task.cache_hit":
                self.n_cached += 1
            elif name == "task.failed":
                self.n_failed += 1
                if data.get("index") is not None:
                    self.failed_tasks.append(int(data["index"]))
        elif name == "task.stall":
            self.n_stalls += 1
        elif name == "task.retry":
            self.n_retried += 1
        elif name == "task.quarantined":
            self.n_quarantined += 1
        elif name == "pool.respawn":
            self.n_pool_respawns += 1
        elif name == "run.finish":
            self.run_finished = True
            self.finish_status = data.get("status", self.finish_status)

    # -- out-of-band provenance ---------------------------------------

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

    # -- record -------------------------------------------------------

    def record(self, run_id: str, status: str, kind: str, name: str,
               wall_s: float, started_unix: float, finished_unix: float,
               hists: "Mapping | None" = None,
               phases: "Mapping | None" = None,
               counters: "Mapping | None" = None) -> dict:
        """Build the ledger record dict (see :data:`RUN_RECORD_VERSION`).

        ``hists`` are the run recorder's histograms: the
        ``worker.rss_bytes`` samples (one per pool unit) give
        ``n_heartbeats`` and ``worker_rss_peak_bytes``.  ``phases`` maps
        each direct child of the root span to its summed seconds, and
        ``counters`` are the recorder's counters.
        """
        rss = (hists or {}).get("worker.rss_bytes") or (0, 0, 0, 0)
        n_tasks = self.n_tasks if self.n_tasks is not None else self.n_done
        n_executed = self.n_done - self.n_cached - self.n_failed
        hit_rate = (self.n_cached / n_tasks) if n_tasks else None
        return {
            "version": RUN_RECORD_VERSION,
            "event_version": EVENT_VERSION,
            "id": run_id,
            "kind": self.kind or kind,
            "name": self.name or name,
            "status": status,
            "spec_key": self.spec_key,
            "seed_root": self.seed_root,
            "engine": self.engine,
            "jobs": self.jobs,
            "n_tasks": n_tasks,
            "n_cached": self.n_cached,
            "n_executed": n_executed,
            "n_failed": self.n_failed,
            "cache_hit_rate": hit_rate,
            "wall_s": wall_s,
            "started_unix": started_unix,
            "finished_unix": finished_unix,
            "failures": list(self.failures),
            "failed_tasks": sorted(self.failed_tasks)[:_MAX_FAILURES],
            "n_stalls": self.n_stalls,
            "n_retried": self.n_retried,
            "n_quarantined": self.n_quarantined,
            "n_pool_respawns": self.n_pool_respawns,
            "resumed_from": self.resumed_from,
            "n_heartbeats": int(rss[0]),
            "worker_rss_peak_bytes": int(rss[3]),
            "telemetry": self.telemetry,
            "artifacts": list(self.artifacts),
            "n_events": self.n_events,
            "phases": dict(phases or {}),
            "counters": dict(counters or {}),
        }


def render_run_summary(record: dict) -> str:
    """The one-line exit summary, sourced from the *ledger record* itself.

    Printing and persisting read the same dict, so the terminal line and
    the ledger can never disagree about what a run did.
    """
    status = record["status"]
    mark = "" if status == "ok" else f" {status.upper()}"
    extras = ""
    if record.get("n_stalls"):
        extras += f", {record['n_stalls']} stall(s)"
    if record.get("n_retried"):
        extras += f", {record['n_retried']} retried"
    if record.get("n_quarantined"):
        extras += f", {record['n_quarantined']} quarantined"
    if record.get("n_pool_respawns"):
        extras += f", {record['n_pool_respawns']} pool respawn(s)"
    if record.get("resumed_from"):
        extras += f", resumed from {record['resumed_from']}"
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

    def tail(self, n: int = 10) -> "list[dict]":
        """The most recent ``n`` records, oldest of them first."""
        return list(self.records())[-n:]
