"""``repro-experiment runs`` subcommands: query the run ledger.

::

    repro-experiment runs ls --cache-dir DIR [--json] [--name N] [--status S]
    repro-experiment runs show RUN_ID --cache-dir DIR [--json] [--telemetry]
    repro-experiment runs tail --cache-dir DIR [-n N] [--json]
    repro-experiment runs diff OLD NEW [--cache-dir DIR]

``ls`` lists every recorded run (filterable by scenario/report name and
status); ``show`` reconstructs one run's full provenance — spec key,
seed root, engine, cache economics, worker health (stalls, heartbeats,
peak RSS), failure summaries, telemetry file, artifact paths, phases —
from its ledger record (unambiguous id prefixes work), and with
``--telemetry`` renders the linked telemetry summary inline; ``tail``
shows the most recent records; ``diff`` compares two runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cli import count_arg
from repro.obs.ledger import RunLedger

__all__ = ["runs_main", "build_runs_parser"]


def build_runs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment runs",
        description="Query the run ledger written under <cache-dir>/runs/.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list recorded runs")
    p_ls.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="cache directory holding the runs/ ledger")
    p_ls.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")
    p_ls.add_argument("--name", default=None, metavar="NAME",
                      help="only runs of this scenario/report name")
    p_ls.add_argument("--status", default=None,
                      choices=["ok", "failed", "interrupted"],
                      help="only runs with this status")

    p_show = sub.add_parser("show", help="full provenance of one run")
    p_show.add_argument("run_id", metavar="RUN_ID",
                        help="run id (unambiguous prefixes work)")
    p_show.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="cache directory holding the runs/ ledger")
    p_show.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw ledger record")
    p_show.add_argument("--telemetry", action="store_true",
                        dest="with_telemetry",
                        help="also render the run's linked telemetry "
                             "summary (phase breakdown, hit rates)")

    p_tail = sub.add_parser("tail", help="most recent runs")
    p_tail.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="cache directory holding the runs/ ledger")
    p_tail.add_argument("-n", type=count_arg, default=10, metavar="N",
                        help="how many records (default 10)")
    p_tail.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")

    p_diff = sub.add_parser("diff", help="compare two runs' metrics and "
                            "counters")
    for arg in ("old", "new"):
        p_diff.add_argument(arg, metavar=arg.upper(), help="run id or "
                            "prefix in --cache-dir, or a record file (*.json)")
    p_diff.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory holding the runs/ ledger")
    return parser


def _fmt_when(unix: "float | None") -> str:
    if unix is None:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix)) + "Z"


def _fmt_rate(rate: "float | None") -> str:
    return "-" if rate is None else f"{rate * 100:.0f}%"


def _ls_line(r: dict) -> str:
    return (f"{r['id']:<34} {r['status']:<6} {r.get('kind') or '-':<14} "
            f"{r.get('name') or '-':<28} "
            f"{r.get('n_tasks', 0):>5} task(s) "
            f"cache {_fmt_rate(r.get('cache_hit_rate')):>4}  "
            f"{r.get('wall_s', 0.0):>7.2f}s  "
            f"{_fmt_when(r.get('started_unix'))}")


def _print_records(records: "list[dict]", as_json: bool, root) -> int:
    if as_json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"[no runs recorded in {root}]")
        return 0
    for r in records:
        print(_ls_line(r))
    print(f"[{len(records)} run(s) in {root}]")
    return 0


def _cmd_ls(args) -> int:
    ledger = RunLedger(args.cache_dir)
    records = list(ledger.records())
    if args.name is not None:
        records = [r for r in records if r.get("name") == args.name]
    if args.status is not None:
        records = [r for r in records if r.get("status") == args.status]
    return _print_records(records, args.as_json, ledger.root)


def _cmd_tail(args) -> int:
    ledger = RunLedger(args.cache_dir)
    return _print_records(ledger.tail(args.n), args.as_json, ledger.root)


def _cmd_show(args) -> int:
    ledger = RunLedger(args.cache_dir)
    try:
        r = ledger.find(args.run_id)
    except KeyError as exc:
        print(f"runs error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(r, indent=2, sort_keys=True))
        return 0
    print(f"=== run {r['id']} ===")
    rows = [
        ("status", r.get("status")),
        ("kind", r.get("kind")),
        ("name", r.get("name")),
        ("engine", r.get("engine")),
        ("jobs", r.get("jobs")),
        ("spec key", r.get("spec_key")),
        ("seed root", r.get("seed_root")),
        ("tasks", r.get("n_tasks")),
        ("cached", r.get("n_cached")),
        ("executed", r.get("n_executed")),
        ("failed", r.get("n_failed")),
        ("cache hit rate", _fmt_rate(r.get("cache_hit_rate"))),
        ("wall time", f"{r.get('wall_s', 0.0):.3f}s"),
        ("started", _fmt_when(r.get("started_unix"))),
        ("finished", _fmt_when(r.get("finished_unix"))),
        ("events", r.get("n_events")),
        ("telemetry", r.get("telemetry") or "-"),
    ]
    # v2 worker-health fields: only shown when the record carries them,
    # so v1 records render exactly as before.
    if r.get("version", 1) >= 2:
        rows.extend([
            ("stalls", r.get("n_stalls")),
            ("heartbeats", r.get("n_heartbeats")),
            ("worker rss peak", _fmt_bytes(r.get("worker_rss_peak_bytes"))),
        ])
    # v3 fault-tolerance economics, gated the same way.
    if r.get("version", 1) >= 3:
        rows.extend([
            ("retried", r.get("n_retried")),
            ("quarantined", r.get("n_quarantined")),
            ("pool respawns", r.get("n_pool_respawns")),
            ("resumed from", r.get("resumed_from") or "-"),
        ])
    for label, value in rows:
        print(f"  {label:<16} {value if value is not None else '-'}")
    artifacts = r.get("artifacts") or []
    print(f"  {'artifacts':<16} {len(artifacts)}")
    for path in artifacts:
        print(f"    {path}")
    for failure in r.get("failures") or []:
        print(f"  failure: {failure.splitlines()[0]}")
    if r.get("version", 1) >= 5:
        phases, wall = r["phases"], r["wall_s"]
        print(f"  {'phases':<16} {len(phases)}")
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            share = f"  {seconds / wall:6.1%}" if wall else ""
            print(f"    {name:<30} {seconds:9.4f}s{share}")
    if args.with_telemetry:
        return _show_telemetry(r)
    return 0


def _load_run(ref: str, cache_dir: "str | None") -> dict:
    """A ``.json`` record file, or a run id (prefix) in ``cache_dir``."""
    if not ref.endswith(".json"):
        if cache_dir is None:
            raise KeyError(f"run id {ref!r} needs --cache-dir DIR")
        return RunLedger(cache_dir).find(ref)
    try:
        record = json.loads(Path(ref).read_text())
    except (OSError, ValueError) as exc:
        raise KeyError(f"cannot read run record {ref}: {exc}") from None
    if not isinstance(record, dict) or "id" not in record:
        raise KeyError(f"{ref} is not a run record")
    return record


def _cmd_diff(args) -> int:
    from repro.perf.history import format_metric, metrics_from_run_record

    try:
        old, new = [_load_run(ref, args.cache_dir)
                    for ref in (args.old, args.new)]
    except KeyError as exc:
        print(f"runs error: {exc.args[0]}", file=sys.stderr)
        return 1
    rows = [{**metrics_from_run_record(r)[1], **(r.get("counters") or {})}
            for r in (old, new)]
    print(f"{old['id']} -> {new['id']}")
    print(f"{'metric':<36} {'old':>12} {'new':>12}")
    for key in sorted(set(rows[0]) | set(rows[1])):
        a, b = (row.get(key) for row in rows)
        # A zero or missing side has no ratio: n/a, never inf or 0x.
        ratio = f"{b / a:.2f}x" if a and b else "n/a"
        was, now = ("--" if v is None else format_metric(v) for v in (a, b))
        print(f"{key:<36} {was:>12} {now:>12}  ({ratio})")
    return 0


def _fmt_bytes(n: "int | None") -> str:
    if not n:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _show_telemetry(record: dict) -> int:
    """Render the run's linked telemetry inline (``runs show --telemetry``).

    This is ``stats summarize`` of the linked file, so a missing,
    unreadable or empty file gives the same one-line ``stats error``.
    """
    from repro.telemetry.cli import stats_main

    path = record.get("telemetry")
    if not path:
        print("stats error: run has no linked telemetry (was it run with "
              "--profile?)", file=sys.stderr)
        return 1
    print()
    return stats_main(["summarize", path])


def runs_main(argv: "list[str] | None" = None) -> int:
    args = build_runs_parser().parse_args(argv)
    return {"ls": _cmd_ls, "show": _cmd_show, "tail": _cmd_tail,
            "diff": _cmd_diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(runs_main())
