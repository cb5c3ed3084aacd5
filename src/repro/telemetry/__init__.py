"""Zero-dependency runtime telemetry: spans, counters, events, sinks.

Instrumentation sites call the module-level fast path::

    from repro import telemetry

    with telemetry.span("engine.dag.propagate", batch=n) as sp:
        ...
        sp.set(n_levels=levels)
    telemetry.count("dag.cache.hits")
    telemetry.emit("task.done", index=spec.index)

which is a no-op (shared null span, no clock reads) unless an observed
run — :func:`repro.obs.observe_run`, which every ``scenario run|sweep``
and ``report run`` opens — or a test has called :func:`enable`.  The
one recorder carries spans, instruments and lifecycle events alike;
``--profile`` / ``--telemetry-out`` only decide whether its summary is
printed and its JSONL written when the run ends.
"""

from __future__ import annotations

from .recorder import (
    Recorder,
    Span,
    count,
    current_recorder,
    disable,
    emit,
    enable,
    enabled,
    gauge,
    in_run,
    merge_snapshot,
    observe,
    span,
    timed_span,
)
from .sinks import read_jsonl, render_summary, summarize, write_jsonl
from .trace_export import export_chrome_trace, validate_trace, \
    write_chrome_trace

__all__ = [
    "Recorder",
    "Span",
    "count",
    "current_recorder",
    "disable",
    "emit",
    "enable",
    "enabled",
    "export_chrome_trace",
    "gauge",
    "in_run",
    "merge_snapshot",
    "observe",
    "read_jsonl",
    "render_summary",
    "span",
    "summarize",
    "timed_span",
    "validate_trace",
    "write_chrome_trace",
    "write_jsonl",
]
