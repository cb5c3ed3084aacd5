"""Process-local telemetry recorder: spans, instruments, lifecycle events.

One recorder is a run's single instrument stream: timed spans, counters,
gauges and histograms answer *"where did the time go?"*, and lifecycle
event instants (``run.start``, ``task.done``, ...; the vocabulary is
:mod:`repro.obs.events`) answer *"what is happening right now?"* for the
live consumers subscribed to it.  Design constraints, in order:

1. **Zero cost when disabled.**  Every instrumentation point in a hot
   path compiles down to one module-global check: :func:`span` returns a
   shared no-op object, :func:`count`/:func:`gauge`/:func:`observe`/
   :func:`emit` return immediately.  Disabled telemetry must never show
   up in a profile (``benchmarks/bench_telemetry.py`` asserts < 2%
   overhead even *enabled*).
2. **Cheap when enabled.**  A finished span is one list append of a
   plain tuple; counters/histograms are dict updates.  No locks — a
   recorder is process-local by construction, and worker processes run
   their own (merged back explicitly, see :func:`merge_snapshot`).
3. **Plain-data export.**  :meth:`Recorder.snapshot` returns nothing but
   dicts/lists/tuples of builtins, so snapshots travel through the
   executor's pickled result channel and serialize to JSONL unchanged
   (:mod:`repro.telemetry.sinks`).

**Event identity.**  An event is the tuple ``(seq, name, t, wall,
data)``; its *identity* is ``(seq, name, data)``.  Timestamps are kept
out of it, so two runs of the same campaign with the same seed and
``--jobs 1`` produce equal identity streams.  Payloads therefore never
carry durations, wall-clock values, tracebacks, or memory addresses —
those belong in spans or the run ledger.

Span and event clocks are ``time.perf_counter()`` values.  Within one
process they are exact; across the processes of one campaign they are
comparable wherever ``perf_counter`` is system-wide monotonic (Linux).
The summaries only ever *group* merged worker spans by name, so on a
platform with per-process clocks only the Chrome-trace timeline skews.

Naming convention (see CONTRIBUTING.md): dotted lowercase
``layer.noun[.verb]`` — ``engine.dag.propagate`` (span),
``dag.cache.hits`` (counter), ``executor.queue_wait_s`` (histogram; the
unit suffix is part of the name).
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Recorder",
    "Span",
    "count",
    "current_recorder",
    "disable",
    "emit",
    "enable",
    "enabled",
    "gauge",
    "in_run",
    "merge_snapshot",
    "observe",
    "span",
    "timed_span",
]

_perf_counter = time.perf_counter

#: Snapshot schema version (bumped on incompatible layout changes; the
#: JSONL sink re-exports it as the file's ``version`` field).
SNAPSHOT_VERSION = 1


class Span:
    """One timed region; a context manager handing back its duration.

    ``start``/``duration`` are always measured (two ``perf_counter``
    calls), even when recording is off — callers like the executor reuse
    them for result fields that must exist regardless of telemetry
    (:func:`timed_span`).  The span is appended to its recorder only on
    exit, so a crash mid-span loses that span alone.
    """

    __slots__ = ("name", "attrs", "start", "duration", "_rec", "_id", "_parent")

    def __init__(self, name: str, attrs: "dict | None",
                 rec: "Recorder | None") -> None:
        self.name = name
        self.attrs = attrs
        self._rec = rec
        self.start = 0.0
        self.duration = 0.0
        self._id = -1
        self._parent = -1

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered while the span is running."""
        if self._rec is not None:
            if self.attrs is None:
                self.attrs = attrs
            else:
                self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        rec = self._rec
        if rec is not None:
            self._id, self._parent = rec._begin()
        self.start = _perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration = _perf_counter() - self.start
        rec = self._rec
        if rec is not None:
            rec._end(self)
        return False


class _NullSpan:
    """Shared do-nothing span for disabled telemetry (no timing at all)."""

    __slots__ = ()
    start = 0.0
    duration = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Collects one process's telemetry.

    Spans are stored as plain tuples ``(id, parent, name, start,
    duration, attrs)`` with ``parent == -1`` for roots; counters are
    ``name -> number`` sums, gauges ``name -> last value``, histograms
    ``name -> [count, total, min, max]``.  Lifecycle events are
    ``(seq, name, t, wall, data)`` tuples: ``seq`` is the 0-based
    position in :attr:`events`, ``t`` a ``perf_counter`` value (the span
    clock), ``wall`` a Unix timestamp, and ``data`` the payload dict or
    ``None``.

    Not thread-safe by design: instrumentation runs on the owning thread
    (the executor's completion loop, or a worker's task code).
    """

    __slots__ = ("spans", "counters", "gauges", "hists", "events",
                 "subscribers", "t0", "wall0", "_stack", "_next_id",
                 "_run_depth")

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.counters: "dict[str, float]" = {}
        self.gauges: "dict[str, float]" = {}
        self.hists: "dict[str, list]" = {}
        self.events: "list[tuple]" = []
        self.subscribers: "list[Callable[[tuple], None]]" = []
        self.t0 = _perf_counter()
        self.wall0 = time.time()
        self._stack: "list[int]" = []
        self._next_id = 0
        self._run_depth = 0

    # -- spans ---------------------------------------------------------

    def _begin(self) -> "tuple[int, int]":
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _end(self, sp: Span) -> None:
        # Exceptions unwinding through nested spans pop in LIFO order, so
        # the plain pop is correct even on error paths.
        if self._stack and self._stack[-1] == sp._id:
            self._stack.pop()
        self.spans.append(
            (sp._id, sp._parent, sp.name, sp.start, sp.duration, sp.attrs))

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(name, attrs or None, self)

    # -- scalar instruments --------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self.hists.get(name)
        if h is None:
            self.hists[name] = [1, value, value, value]
        else:
            h[0] += 1
            h[1] += value
            if value < h[2]:
                h[2] = value
            if value > h[3]:
                h[3] = value

    # -- lifecycle events ----------------------------------------------

    def emit(self, name: str, /, **data: Any) -> None:
        """Record one event instant and notify subscribers synchronously."""
        event = (len(self.events), name, _perf_counter(), time.time(),
                 data or None)
        self.events.append(event)
        if name == "run.start":
            self._run_depth += 1
        elif name == "run.finish":
            self._run_depth = max(0, self._run_depth - 1)
        for callback in self.subscribers:
            callback(event)

    def subscribe(self, callback: "Callable[[tuple], None]") -> None:
        """Attach a per-event callback (progress renderer, run tracker)."""
        self.subscribers.append(callback)

    def mark_in_run(self) -> None:
        """Declare this recorder *inside* an enclosing run, without an event.

        Campaigns and pool workers mark their recorder so task code that
        would own a run lifecycle at top level (``run_scenario`` inside
        ``scenario_task``) stays silent: it executes one unit of the
        enclosing run.
        """
        self._run_depth += 1

    def unmark_in_run(self) -> None:
        """Undo one :meth:`mark_in_run` (clamped at zero)."""
        self._run_depth = max(0, self._run_depth - 1)

    def identity(self) -> "list[tuple]":
        """The deterministic view: ``(seq, name, data)`` per event."""
        return [(seq, name, data) for seq, name, _, _, data in self.events]

    def counts(self) -> "dict[str, int]":
        """Events per name."""
        out: "dict[str, int]" = {}
        for _, name, _, _, _ in self.events:
            out[name] = out.get(name, 0) + 1
        return out

    # -- export / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded so far (picklable).

        ``pid`` is the recording process — :meth:`merge` uses it to tag
        a worker snapshot's re-rooted spans with their origin, which is
        what lets the Chrome-trace exporter
        (:mod:`repro.telemetry.trace_export`) lay worker spans out on
        per-worker tracks.  Events travel as ``(name, t, data)``: the
        merging recorder assigns fresh sequence numbers.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "t0": self.t0,
            "wall0": self.wall0,
            "pid": os.getpid(),
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "hists": {k: list(v) for k, v in self.hists.items()},
            "events": [(name, t, data)
                       for _, name, t, _, data in self.events],
        }

    def merge(self, snap: Mapping, parent: "int | None" = None) -> None:
        """Fold another recorder's snapshot into this one.

        Span ids are remapped past this recorder's counter, and the
        snapshot's *root* spans are re-parented under ``parent`` (default:
        the innermost span currently open here — e.g. the campaign span a
        worker's results stream back into).  Counters and histograms sum;
        gauges take the snapshot's value (last writer wins, matching
        single-process semantics).

        When the snapshot came from another process (its ``pid`` differs
        from ours), each re-rooted root span gains a ``worker_pid``
        attribute — the provenance mark the trace exporter turns into
        per-worker thread ids.

        Events are appended in snapshot order with fresh sequence numbers
        and passed to the subscribers.  Each keeps the ``t`` it was
        emitted at: ``perf_counter`` is system-wide on Linux, so a
        worker's ``task.start`` stays before its task's span ends.  The
        snapshot's ``run.*`` events are dropped: a worker executing one
        unit of a campaign is *inside* this recorder's run, and a nested
        lifecycle would double-start the consumers.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        base = self._next_id
        max_id = -1
        worker_pid = snap.get("pid")
        if worker_pid == os.getpid():
            worker_pid = None
        for sid, sparent, name, start, duration, attrs in snap.get("spans", ()):
            if sid > max_id:
                max_id = sid
            if sparent < 0 and worker_pid is not None:
                attrs = {**(attrs or {}), "worker_pid": worker_pid}
            self.spans.append((
                sid + base,
                parent if sparent < 0 else sparent + base,
                name, start, duration, attrs,
            ))
        self._next_id = base + max_id + 1
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauges[name] = value
        for name, (n, total, lo, hi) in snap.get("hists", {}).items():
            h = self.hists.get(name)
            if h is None:
                self.hists[name] = [n, total, lo, hi]
            else:
                h[0] += n
                h[1] += total
                h[2] = min(h[2], lo)
                h[3] = max(h[3], hi)
        wall_offset = snap.get("wall0", 0.0) - snap.get("t0", 0.0)
        for name, t, data in snap.get("events", ()):
            if name.startswith("run."):
                continue
            event = (len(self.events), name, t, t + wall_offset, data)
            self.events.append(event)
            for callback in self.subscribers:
                callback(event)

    def iter_spans(self) -> "Iterator[tuple]":
        return iter(self.spans)


# ----------------------------------------------------------------------
# module-level fast path (the API instrumentation sites actually use)
# ----------------------------------------------------------------------

_RECORDER: "Recorder | None" = None


def enabled() -> bool:
    """Is telemetry currently recording in this process?"""
    return _RECORDER is not None


def enable(fresh: bool = True) -> Recorder:
    """Switch recording on; returns the active recorder.

    With ``fresh`` (the default) any previous recorder is discarded —
    a run's telemetry always starts from zero.  ``fresh=False`` keeps an
    existing recorder (idempotent re-enable).
    """
    global _RECORDER
    if _RECORDER is None or fresh:
        _RECORDER = Recorder()
    return _RECORDER


def disable() -> "Recorder | None":
    """Switch recording off; returns the final recorder (or ``None``)."""
    global _RECORDER
    rec, _RECORDER = _RECORDER, None
    return rec


def current_recorder() -> "Recorder | None":
    """The live recorder, or ``None`` when telemetry is disabled."""
    return _RECORDER


def span(name: str, **attrs: Any):
    """A recording span when enabled, a shared no-op otherwise.

    The no-op performs no clock reads — use :func:`timed_span` where the
    caller needs the duration regardless of telemetry.
    """
    rec = _RECORDER
    if rec is None:
        return _NULL_SPAN
    return Span(name, attrs or None, rec)


def timed_span(name: str, **attrs: Any) -> Span:
    """A span that always measures ``start``/``duration``.

    Recorded only when telemetry is enabled, but the timing fields are
    valid either way — the executor derives its ``duration``/``elapsed``
    result fields from them, so those stay bit-compatible with the old
    ad-hoc ``perf_counter`` bookkeeping whether or not telemetry is on.
    """
    return Span(name, attrs or None, _RECORDER)


def count(name: str, n: float = 1) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.count(name, n)


def gauge(name: str, value: float) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.gauge(name, value)


def observe(name: str, value: float) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.observe(name, value)


def emit(name: str, /, **data: Any) -> None:
    """Record one lifecycle event; a single ``None`` check when disabled."""
    rec = _RECORDER
    if rec is not None:
        rec.emit(name, **data)


def in_run() -> bool:
    """True while a ``run.start`` is open (or a run mark is set).

    Runners emit run lifecycle events only when they *own* the run: a
    scenario executed as one task of a sweep (or a report's campaign) is
    inside the outer run and must stay silent.
    """
    rec = _RECORDER
    return rec is not None and rec._run_depth > 0


def merge_snapshot(snap: "Mapping | None", parent: "int | None" = None) -> None:
    """Merge a worker snapshot into the live recorder (no-op if disabled)."""
    rec = _RECORDER
    if rec is not None and snap:
        rec.merge(snap, parent=parent)
