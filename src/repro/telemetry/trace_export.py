"""Chrome trace-event export: one profiled run as a Perfetto timeline.

:func:`export_chrome_trace` converts a telemetry snapshot (live, or read
back from JSONL via :func:`repro.telemetry.sinks.read_jsonl`) into the
Chrome trace-event JSON object format — loadable in ``chrome://tracing``
and https://ui.perfetto.dev — so a campaign's execution structure
(worker occupancy, batching, queue gaps, cache behavior) is *visible*
instead of tabulated:

- every span becomes a complete duration event (``ph: "X"``) with
  microsecond ``ts``/``dur``;
- thread ids come from the worker provenance the recorder stamps at
  merge time (:meth:`Recorder.merge` tags re-rooted worker roots with
  ``worker_pid``): parent-process spans render on tid 0 (``main``),
  each worker's spans on a track named after its pid — the
  trace-level view of the executor's id-remap;
- the recorder's lifecycle events become instant events (``ph:
  "i"``) at the time they were emitted — a worker's ``task.start`` at
  its worker-side time — and the ``task.cache_hit`` /
  ``task.submit``/terminal streams are integrated into cumulative
  **counter tracks** (``ph: "C"``): ``cache hits`` and ``queue depth``;
- without events, final counter sums (``*.cache.*``) still emit one
  closing counter sample each, so cache economics always appear.

All timestamps are shifted so the earliest one is 0 (viewers dislike
negative ``ts``).  :func:`validate_trace` is a pure-stdlib schema check
over the produced object — the CLI (``stats trace``) refuses to write a
file that does not pass it, and the tests round-trip through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["export_chrome_trace", "validate_trace", "write_chrome_trace"]

#: Trace-export format version, recorded in ``otherData``.
TRACE_EXPORT_VERSION = 1

#: The single process id used for the whole run: the trace models the
#: campaign as one process with one track (thread) per OS worker.
_PID = 1

#: tid of the parent process's own spans.
_MAIN_TID = 0

#: Event phases this exporter emits (also the set the validator allows).
_PHASES = frozenset({"X", "i", "C", "M"})


def _metadata(name: str, tid: int, value: str) -> dict:
    return {"name": name, "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": value}}


def _span_tids(spans) -> "dict[int, int]":
    """Map span id -> tid: ``worker_pid`` attrs propagate to subtrees."""
    tids: "dict[int, int]" = {}
    # Spans are appended in completion order, so a parent (which outlives
    # its children) can appear *after* them; resolve via two passes over
    # a children index instead of relying on file order.
    children: "dict[int, list]" = {}
    by_id = {}
    for sp in spans:
        by_id[sp[0]] = sp
        children.setdefault(sp[1], []).append(sp)

    def assign(sid: int, tid: int) -> None:
        tids[sid] = tid
        for child in children.get(sid, ()):
            assign(child[0], tid)

    for root in children.get(-1, ()):
        attrs = root[5] or {}
        assign(root[0], int(attrs.get("worker_pid", _MAIN_TID)))
    # Merged worker roots are usually *not* file roots (they sit under
    # campaign.run); restart assignment wherever a worker_pid attr marks
    # a subtree, overriding the inherited main tid.
    for sp in spans:
        attrs = sp[5] or {}
        if "worker_pid" in attrs:
            assign(sp[0], int(attrs["worker_pid"]))
    # Anything orphaned (parent id missing from the file) renders on main.
    for sp in spans:
        tids.setdefault(sp[0], _MAIN_TID)
    return tids


def _counter_tracks(events, shift: float) -> "list[dict]":
    """Cumulative ``cache hits`` / ``queue depth`` samples from events."""
    out: "list[dict]" = []
    hits = 0
    depth = 0
    for name, start, _data in events:
        ts = (start - shift) * 1e6
        if name == "task.cache_hit":
            hits += 1
            out.append({"name": "cache hits", "ph": "C", "pid": _PID,
                        "tid": _MAIN_TID, "ts": ts,
                        "args": {"hits": hits}})
        if name == "task.submit":
            depth += 1
        elif name in ("task.done", "task.failed", "task.cache_hit"):
            depth = max(0, depth - 1)
        else:
            continue
        out.append({"name": "queue depth", "ph": "C", "pid": _PID,
                    "tid": _MAIN_TID, "ts": ts,
                    "args": {"pending": depth}})
    return out


def export_chrome_trace(snapshot: Mapping) -> dict:
    """Build the Chrome trace-event object for one telemetry snapshot."""
    spans = list(snapshot.get("spans", ()))
    events = list(snapshot.get("events", ()))
    if not all(isinstance(sp, (list, tuple)) and len(sp) == 6
               for sp in spans):
        raise ValueError("snapshot 'spans' are not (id, parent, name, "
                         "start, dur, attrs) records — not a telemetry "
                         "snapshot?")
    t0 = snapshot.get("t0", 0.0)
    starts = [sp[3] - t0 for sp in spans] + [ev[1] - t0 for ev in events]
    shift = min(starts) if starts else 0.0

    trace_events: "list[dict]" = [
        _metadata("process_name", _MAIN_TID, "repro campaign"),
        _metadata("thread_name", _MAIN_TID, "main"),
    ]
    tids = _span_tids(spans)
    for tid in sorted({t for t in tids.values() if t != _MAIN_TID}):
        trace_events.append(_metadata("thread_name", tid, f"worker {tid}"))

    for sid, _parent, name, start, dur, attrs in spans:
        rec = {"name": name, "ph": "X", "pid": _PID, "tid": tids[sid],
               "ts": (start - t0 - shift) * 1e6,
               "dur": max(0.0, dur) * 1e6}
        if attrs:
            rec["args"] = dict(attrs)
        trace_events.append(rec)

    end_ts = max((e["ts"] + e.get("dur", 0.0) for e in trace_events
                  if "ts" in e), default=0.0)
    for name, start, data in events:
        rec = {"name": name, "ph": "i", "pid": _PID, "tid": _MAIN_TID,
               "ts": (start - t0 - shift) * 1e6, "s": "t"}
        if data:
            rec["args"] = dict(data)
        trace_events.append(rec)
    if events:
        trace_events.extend(_counter_tracks(
            [(n, s - t0, d) for n, s, d in events], shift))
    # Close every cache counter with one final sample — present whether
    # or not a lifecycle stream rode along, so cache economics always
    # appear as counter tracks (hits and misses grouped per cache).
    for cname, value in sorted(snapshot.get("counters", {}).items()):
        if ".cache." not in cname and not cname.startswith("store.get."):
            continue
        trace_events.append({
            "name": cname.rsplit(".", 1)[0], "ph": "C", "pid": _PID,
            "tid": _MAIN_TID, "ts": end_ts,
            "args": {cname.rsplit(".", 1)[1]: value}})

    meta = snapshot.get("meta", {}) or {}
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.telemetry.trace_export",
            "export_version": TRACE_EXPORT_VERSION,
            "label": meta.get("label", ""),
            "snapshot_version": snapshot.get("version"),
        },
    }


def validate_trace(trace: Any) -> "list[str]":
    """Pure-stdlib schema check; returns problems (empty list = valid).

    Checks the subset of the trace-event format this exporter promises:
    object form with a ``traceEvents`` list; every event a dict with a
    non-empty string ``name``, a known ``ph``, integer ``pid``/``tid``,
    and non-negative numeric ``ts`` (plus ``dur`` for ``X``, ``args``
    numbers for ``C``, an ``s`` scope for ``i``); and the whole object
    JSON-serializable.
    """
    problems: "list[str]" = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty name")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a number >= 0")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: C event needs numeric args")
        elif ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: i event needs scope s in t/p/g")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serializable: {exc}")
    return problems


def write_chrome_trace(snapshot: Mapping, path) -> Path:
    """Export, validate, and write one snapshot's Chrome trace JSON.

    Raises :class:`ValueError` listing every schema problem rather than
    writing a file no viewer would load.
    """
    trace = export_chrome_trace(snapshot)
    problems = validate_trace(trace)
    if problems:
        raise ValueError(
            "refusing to write an invalid Chrome trace:\n  "
            + "\n  ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace) + "\n")
    return path
