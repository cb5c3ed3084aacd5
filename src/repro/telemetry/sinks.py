"""Telemetry export: JSONL event files and human-readable summaries.

A telemetry file is newline-delimited JSON.  The first line is a meta
record; every further line is one event:

    {"type": "meta", "version": 1, "label": ..., "created_unix": ...}
    {"type": "span", "id": 0, "parent": -1, "name": "campaign.run",
     "start": 0.0, "dur": 1.25, "attrs": {"n_tasks": 64}}
    {"type": "counter", "name": "dag.cache.hits", "value": 63}
    {"type": "gauge", "name": "executor.jobs", "value": 4}
    {"type": "hist", "name": "executor.queue_wait_s",
     "count": 16, "sum": 0.9, "min": 0.01, "max": 0.2}
    {"type": "event", "name": "task.cache_hit", "start": 0.003,
     "data": {"index": 7}}

Span (and event) ``start`` values are normalized to the recorder's epoch
(``t0``) so files from different runs line up at 0; ``parent`` is -1 for
roots.  ``event`` records are the recorder's lifecycle event instants
— they share the span timeline, which is what lets the Chrome-trace
exporter draw them and derive cache-hit and queue-depth counter tracks.
The format is append-only and versioned via the meta line; readers
must ignore record types they do not know.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Mapping

from .recorder import SNAPSHOT_VERSION, phase_breakdown, root_span

__all__ = ["read_jsonl", "render_summary", "write_jsonl"]


def write_jsonl(snapshot: Mapping, path, label: str = "") -> Path:
    """Serialize a recorder snapshot to a JSONL telemetry file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = snapshot.get("t0", 0.0)
    lines = [json.dumps({
        "type": "meta",
        "version": snapshot.get("version", SNAPSHOT_VERSION),
        "label": label,
        "created_unix": snapshot.get("wall0", time.time()),
    }, sort_keys=True)]
    for sid, parent, name, start, dur, attrs in snapshot.get("spans", ()):
        rec = {"type": "span", "id": sid, "parent": parent, "name": name,
               "start": round(start - t0, 9), "dur": round(dur, 9)}
        if attrs:
            rec["attrs"] = attrs
        lines.append(json.dumps(rec, sort_keys=True))
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(json.dumps(
            {"type": "counter", "name": name, "value": value}, sort_keys=True))
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(json.dumps(
            {"type": "gauge", "name": name, "value": value}, sort_keys=True))
    for name, (n, total, lo, hi) in sorted(snapshot.get("hists", {}).items()):
        lines.append(json.dumps(
            {"type": "hist", "name": name, "count": n, "sum": total,
             "min": lo, "max": hi}, sort_keys=True))
    for name, start, data in snapshot.get("events", ()):
        rec = {"type": "event", "name": name,
               "start": round(start - t0, 9)}
        if data:
            rec["data"] = data
        lines.append(json.dumps(rec, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path) -> dict:
    """Load a telemetry JSONL file back into snapshot form.

    Returns the same shape as :meth:`Recorder.snapshot` (with ``t0`` 0.0,
    since file span starts are already epoch-relative) plus a ``"meta"``
    key holding the file's meta record.  Unknown record types are
    skipped, per the format contract.
    """
    snap = {"version": SNAPSHOT_VERSION, "t0": 0.0, "wall0": 0.0,
            "spans": [], "counters": {}, "gauges": {}, "hists": {},
            "events": [], "meta": {}}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "meta":
            snap["meta"] = rec
            snap["version"] = rec.get("version", SNAPSHOT_VERSION)
            snap["wall0"] = rec.get("created_unix", 0.0)
        elif kind == "span":
            snap["spans"].append((
                rec["id"], rec["parent"], rec["name"],
                rec["start"], rec["dur"], rec.get("attrs"),
            ))
        elif kind == "counter":
            snap["counters"][rec["name"]] = rec["value"]
        elif kind == "gauge":
            snap["gauges"][rec["name"]] = rec["value"]
        elif kind == "hist":
            snap["hists"][rec["name"]] = [
                rec["count"], rec["sum"], rec["min"], rec["max"]]
        elif kind == "event":
            snap["events"].append(
                (rec["name"], rec["start"], rec.get("data")))
    return snap


# ----------------------------------------------------------------------
# summary analysis
# ----------------------------------------------------------------------

def _hit_rate(counters: Mapping, hits: str, misses: str) -> "float | None":
    h = counters.get(hits, 0)
    m = counters.get(misses, 0)
    if h + m == 0:
        return None
    return h / (h + m)


def span_name_table(snapshot: Mapping) -> "list[dict]":
    """All spans aggregated by name, heaviest self-total first."""
    agg: "dict[str, dict]" = {}
    for sid, parent, name, start, dur, attrs in snapshot.get("spans", ()):
        row = agg.setdefault(name, {"name": name, "count": 0,
                                    "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur
        row["max_s"] = max(row["max_s"], dur)
    return sorted(agg.values(), key=lambda r: -r["total_s"])


def summarize(snapshot: Mapping) -> dict:
    """Structured run summary: hit rates, phases, hot spans, instruments."""
    counters = snapshot.get("counters", {})
    return {
        "label": snapshot.get("meta", {}).get("label", ""),
        "n_spans": len(snapshot.get("spans", ())),
        "phase_breakdown": phase_breakdown(snapshot),
        "dag_cache_hit_rate": _hit_rate(
            counters, "dag.cache.hits", "dag.cache.misses"),
        "store_hit_rate": _hit_rate(
            counters, "store.get.hits", "store.get.misses"),
        "campaign_cache_hit_rate": _hit_rate(
            counters, "campaign.cache.hits", "campaign.cache.misses"),
        "spans_by_name": span_name_table(snapshot),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(snapshot.get("gauges", {}).items())),
        "hists": {
            name: {"count": n, "sum": total, "min": lo, "max": hi,
                   "mean": (total / n) if n else 0.0}
            for name, (n, total, lo, hi)
            in sorted(snapshot.get("hists", {}).items())
        },
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f}ms"
    return f"{seconds * 1e6:7.1f}us"


def _fmt_rate(rate: "float | None") -> str:
    return "    --" if rate is None else f"{rate * 100:5.1f}%"


def render_summary(snapshot: Mapping) -> str:
    """The end-of-run summary table printed by ``--profile``."""
    s = summarize(snapshot)
    pb = s["phase_breakdown"]
    out = []
    label = s["label"] or pb.get("root") or "run"
    out.append(f"telemetry summary — {label}")
    out.append(f"  total {_fmt_s(pb['total_s'])}   spans {s['n_spans']}")
    out.append(
        "  cache hit rates:"
        f"  dag {_fmt_rate(s['dag_cache_hit_rate'])}"
        f"  store {_fmt_rate(s['store_hit_rate'])}"
        f"  campaign {_fmt_rate(s['campaign_cache_hit_rate'])}")
    if pb["phases"]:
        out.append("  phases:")
        for name, p in pb["phases"].items():
            out.append(f"    {name:<28} {_fmt_s(p['total_s'])}"
                       f"  {p['share'] * 100:5.1f}%  x{p['count']}")
        if pb["coverage"] is not None:
            out.append(f"    {'(coverage)':<28} {pb['coverage'] * 100:9.1f}%")
    hot = [r for r in s["spans_by_name"] if r["name"] != pb.get("root")][:8]
    if hot:
        out.append("  hot spans:")
        for r in hot:
            out.append(f"    {r['name']:<28} {_fmt_s(r['total_s'])}"
                       f"  x{r['count']}  max {_fmt_s(r['max_s'])}")
    if s["hists"]:
        out.append("  distributions:")
        for name, h in s["hists"].items():
            # Only the `_s` unit suffix means seconds (CONTRIBUTING.md);
            # anything else is a plain quantity (block sizes, bytes).
            fmt = _fmt_s if name.endswith("_s") else "{:g}".format
            out.append(f"    {name:<28} n={h['count']}"
                       f"  mean {fmt(h['mean'])}"
                       f"  max {fmt(h['max'])}")
    return "\n".join(out)
