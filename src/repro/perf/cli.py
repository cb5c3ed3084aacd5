"""``repro-experiment perf`` subcommands: the cross-run history surface.

::

    repro-experiment perf record --history H.jsonl --bench BENCH_x.json
    repro-experiment perf history (--cache-dir DIR | --history H.jsonl)
                                  [--label L] [-n N]
    repro-experiment perf check (--cache-dir DIR | --history H.jsonl)
                                [--label L] [--threshold 0.30]

``record`` appends ``BENCH_*.json`` results to a history file;
``history`` lists the records; ``check`` runs the EWMA trend analysis
and exits 1 when any directional metric regressed past the threshold —
the CI gate against slow drift.  ``--cache-dir DIR`` reads the run
series of the ledger in ``DIR/runs/``; ``--history FILE`` reads that
history file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cli import count_arg

from .history import (
    PerfHistory,
    format_metric,
    ledger_history,
    metrics_from_bench,
    new_record,
)
from .trend import analyze_history

__all__ = ["perf_main", "build_perf_parser", "PerfError"]


class PerfError(Exception):
    """User-facing failure (bad paths, empty history) — no traceback."""


def build_perf_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment perf",
        description="Record and trend performance metrics across runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_history_args(p) -> None:
        where = p.add_mutually_exclusive_group(required=True)
        where.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="read the run series of the ledger in "
                                "DIR/runs/")
        where.add_argument("--history", default=None, metavar="FILE",
                           help="read this history JSONL")

    p_rec = sub.add_parser("record", help="append bench results to history")
    p_rec.add_argument("--history", required=True, metavar="FILE",
                       help="history JSONL to append to")
    p_rec.add_argument("--bench", action="append", default=[],
                       metavar="FILE", help="BENCH_*.json to ingest "
                       "(repeatable)")

    p_hist = sub.add_parser("history", help="list recorded history")
    add_history_args(p_hist)
    p_hist.add_argument("--label", default=None, help="only this label")
    p_hist.add_argument("-n", type=count_arg, default=20, dest="tail",
                        metavar="N", help="show the last N records "
                        "(default 20)")

    p_check = sub.add_parser(
        "check", help="EWMA trend gate: exit 1 on regression")
    add_history_args(p_check)
    p_check.add_argument("--label", default=None, help="only this label")
    p_check.add_argument("--threshold", type=float, default=0.30,
                         help="tolerated relative drift (default 0.30)")
    return parser


def _read_history(args) -> "tuple[list[dict], str]":
    """The records ``history`` and ``check`` read, and where from."""
    if args.cache_dir is not None:
        return ledger_history(args.cache_dir), args.cache_dir
    history = PerfHistory(args.history)
    if not history.path.is_file():
        raise PerfError(f"no history file {history.path}")
    return history.records(), str(history.path)


def _fmt_when(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(ts))


def _headline(metrics: dict) -> str:
    for key in ("wall_s", "speedup", "t_observed_s"):
        if key in metrics:
            return f"{key}={format_metric(metrics[key])}"
    first = next(iter(sorted(metrics)), None)
    return f"{first}={format_metric(metrics[first])}" if first else ""


def _cmd_record(args) -> int:
    history = PerfHistory(args.history)
    records = []
    for path in args.bench:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PerfError(f"cannot read bench file {path}: {exc}") from exc
        entries = metrics_from_bench(payload)
        if not entries:
            raise PerfError(f"{path} holds no numeric bench results")
        for label, metrics, context in entries:
            records.append(new_record(label, "bench", metrics, context))
    if not records:
        raise PerfError("nothing to record: pass --bench FILE")
    for record in records:
        path = history.append(record)
    print(f"[{len(records)} perf record(s) appended to {path}]")
    return 0


def _cmd_history(args) -> int:
    records, where = _read_history(args)
    n_labels = len({r["label"] for r in records})
    if args.label is not None:
        records = [r for r in records if r["label"] == args.label]
    if not records:
        label = f" for label {args.label!r}" if args.label else ""
        print(f"[no perf history{label} in {where}]")
        return 0
    offset = max(len(records) - args.tail, 0)
    for i, record in enumerate(records[offset:], offset):
        print(f"{i:>4}  {_fmt_when(record.get('ts', 0))}  "
              f"{record.get('source', '?'):<10}  "
              f"{record['label']:<40}  {_headline(record['metrics'])}")
    print(f"[{len(records)} record(s), {n_labels} label(s) in {where}]")
    return 0


def _cmd_check(args) -> int:
    if not 0.0 < args.threshold < 10.0:
        raise PerfError(
            f"--threshold must be in (0, 10), got {args.threshold}")
    records, where = _read_history(args)
    by_label: "dict[str, list[dict]]" = {}
    for record in records:
        by_label.setdefault(record["label"], []).append(record)
    if args.label is not None:
        if args.label not in by_label:
            raise PerfError(f"no series {args.label!r} in {where} (have: "
                            f"{', '.join(by_label) or 'none'})")
        by_label = {args.label: by_label[args.label]}
    findings = analyze_history(by_label, threshold=args.threshold)
    if not findings:
        print(f"[no comparable perf series in {where} — need two "
              "records of a label with directional metrics]")
        return 0
    regressions = [f for f in findings if f["status"] == "regression"]
    for finding in sorted(findings,
                          key=lambda f: (f["status"] != "regression",
                                         f["label"], f["metric"])):
        status = finding["status"]
        mark = {"regression": "REGRESSION", "improvement": "improved",
                "ok": "ok"}[status]
        print(f"{mark:>10}  {finding['label']}::{finding['metric']} "
              f"latest {format_metric(finding['latest'])} vs ewma "
              f"{format_metric(finding['ewma'])} "
              f"({finding['ratio']:.2f}x, {finding['direction']} is "
              "better)")
    if regressions:
        print(f"\n[{len(regressions)} metric(s) drifted >"
              f"{args.threshold:.0%} past their history]", file=sys.stderr)
        return 1
    print(f"\n[{len(findings)} directional metric(s) within "
          f"{args.threshold:.0%} of history]")
    return 0


def perf_main(argv: "list[str] | None" = None) -> int:
    args = build_perf_parser().parse_args(argv)
    handler = {"record": _cmd_record, "history": _cmd_history,
               "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except PerfError as exc:
        print(f"perf error: {exc}", file=sys.stderr)
        return 1
