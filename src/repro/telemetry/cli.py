"""``repro-experiment stats`` subcommands: inspect telemetry files.

::

    repro-experiment stats show run.jsonl [--max-depth N]
    repro-experiment stats summarize run.jsonl [--json]
    repro-experiment stats trace run.jsonl [out.json]

``show`` renders the span tree; ``summarize`` reports cache hit rates,
the per-phase time breakdown and hot spans; ``trace`` exports the run
as Chrome trace-event JSON (validated against the schema check before
writing) for ``chrome://tracing`` / Perfetto.  Two runs are compared
from their ledger records with ``runs diff``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .sinks import read_jsonl, render_summary, summarize

__all__ = ["stats_main", "build_stats_parser", "StatsError"]


class StatsError(Exception):
    """User-facing failure reading a telemetry file (no traceback)."""


def _load(path: str) -> dict:
    """Read a telemetry JSONL file, failing cleanly on bad input.

    Missing/unreadable files, non-JSONL content, and files holding no
    telemetry events (empty, or a bare meta line from a run that died
    before recording anything) all raise :class:`StatsError`, which
    :func:`stats_main` turns into a one-line message and exit code 1.
    """
    try:
        snap = read_jsonl(path)
    except OSError as exc:
        raise StatsError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise StatsError(f"{path} is not telemetry JSONL: {exc}") from exc
    if not (snap["spans"] or snap["counters"] or snap["gauges"]
            or snap["hists"]):
        raise StatsError(
            f"{path} holds no telemetry events (empty or meta-only file); "
            "was the run profiled?")
    return snap


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment stats",
        description="Inspect telemetry JSONL files written by --profile / "
                    "--telemetry-out runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="render the span tree")
    p_show.add_argument("file", help="telemetry JSONL file")
    p_show.add_argument("--max-depth", type=int, default=None, metavar="N",
                        help="truncate the tree below this depth")

    p_sum = sub.add_parser(
        "summarize", help="hit rates, phase breakdown, hot spans")
    p_sum.add_argument("file", help="telemetry JSONL file")
    p_sum.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")

    p_trace = sub.add_parser(
        "trace", help="export Chrome trace-event JSON (Perfetto)")
    p_trace.add_argument("file", help="telemetry JSONL file")
    p_trace.add_argument("out", nargs="?", default=None, metavar="OUT",
                         help="output path (default: <file>.trace.json)")
    return parser


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _cmd_show(args) -> int:
    snap = _load(args.file)
    spans = snap["spans"]
    if not spans:
        print("[no spans recorded]")
        return 0
    children: "dict[int, list]" = {}
    for sp in spans:
        children.setdefault(sp[1], []).append(sp)
    for sibs in children.values():
        sibs.sort(key=lambda s: s[3])

    def render(parent: int, depth: int) -> None:
        if args.max_depth is not None and depth > args.max_depth:
            return
        for sid, _, name, start, dur, attrs in children.get(parent, ()):
            extra = ""
            if attrs:
                extra = "  " + " ".join(f"{k}={v}" for k, v in attrs.items())
            print(f"{'  ' * depth}{name}  [{_fmt_s(dur)} @ "
                  f"+{_fmt_s(start)}]{extra}")
            render(sid, depth + 1)

    render(-1, 0)
    return 0


def _cmd_summarize(args) -> int:
    snap = _load(args.file)
    if args.as_json:
        print(json.dumps(summarize(snap), indent=2, sort_keys=True))
    else:
        print(render_summary(snap))
    return 0


def _cmd_trace(args) -> int:
    from .trace_export import write_chrome_trace

    snap = _load(args.file)
    out = args.out or (args.file + ".trace.json")
    try:
        path = write_chrome_trace(snap, out)
    except (ValueError, OSError) as exc:
        raise StatsError(str(exc)) from exc
    n_spans = len(snap["spans"])
    n_events = len(snap.get("events", ()))
    tids = {e.get("tid") for e in json.loads(
        path.read_text())["traceEvents"] if e.get("ph") == "X"}
    print(f"[chrome trace written to {path}: {n_spans} span(s), "
          f"{n_events} lifecycle event(s), {len(tids)} track(s) — load in "
          "chrome://tracing or https://ui.perfetto.dev]")
    return 0


def stats_main(argv: "list[str] | None" = None) -> int:
    args = build_stats_parser().parse_args(argv)
    handler = {"show": _cmd_show, "summarize": _cmd_summarize,
               "trace": _cmd_trace}[args.command]
    try:
        return handler(args)
    except StatsError as exc:
        print(f"stats error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(stats_main())
