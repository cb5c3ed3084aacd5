"""``repro-experiment report`` subcommands.

::

    repro-experiment report list [--json]
    repro-experiment report validate [NAME_OR_FILE ...] (default: all bundled)
    repro-experiment report run NAME_OR_FILE [--cache-dir DIR] [--jobs N]
                                             [--out DIR] [--no-batch]

``NAME_OR_FILE`` is a bundled report name (see ``report list``) or a path
to a ``.toml``/``.json`` file anywhere on disk.  ``run`` resolves the
report's scenario sweeps against the content-addressed result store in
``--cache-dir``: already-simulated runs are loaded by spec key with zero
engine invocations, and only cache misses dispatch through the campaign
runtime (sharded over ``--jobs`` workers, batched per seed block).  With
``--out`` the report's declared artifacts (CSV/JSON/NPZ tables, ascii
renderings under ``viz/``) are written below that directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_campaign_args, campaign_store, \
    observe_campaign, retry_policy
from repro.reports.compiler import compile_report
from repro.reports.errors import ReportError
from repro.reports.kernels import get_kernel, kernel_names
from repro.reports.registry import (
    bundled_report_names,
    load_bundled_report,
    resolve_report,
)
from repro.reports.runner import run_report

__all__ = ["report_main", "build_report_parser"]


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment report",
        description=(
            "Declarative reports over scenario sweeps: store-backed metric "
            "extraction, aggregation, and artifact generation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list bundled reports and kernels")
    p_list.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")

    p_val = sub.add_parser("validate", help="parse + compile reports")
    p_val.add_argument("reports", nargs="*", metavar="NAME_OR_FILE",
                       help="bundled names or file paths (default: all bundled)")

    p_run = sub.add_parser("run", help="execute a report and print its table")
    p_run.add_argument("report", metavar="NAME_OR_FILE")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="write the report's declared artifacts below DIR")
    add_campaign_args(p_run)
    return parser


def _cmd_list(args) -> int:
    rows = []
    for name in bundled_report_names():
        spec = load_bundled_report(name)
        rows.append({
            "name": name,
            "description": spec.description,
            "scenarios": list(spec.scenarios),
            "metrics": [m.name for m in spec.metrics],
            "artifacts": [a.kind for a in spec.artifacts],
        })
    if args.as_json:
        print(json.dumps({
            "reports": rows,
            "kernels": [
                {"name": k, "fields": list(get_kernel(k).fields),
                 "doc": get_kernel(k).doc}
                for k in kernel_names()
            ],
        }, indent=2))
        return 0
    width = max((len(r["name"]) for r in rows), default=4)
    for r in rows:
        print(f"{r['name']:<{width}}  [{', '.join(r['metrics'])}]  "
              f"{r['description']}")
    print(f"\nregistered metric kernels: {', '.join(kernel_names())}")
    return 0


def _cmd_validate(args) -> int:
    targets = args.reports or bundled_report_names()
    failures = 0
    for target in targets:
        try:
            spec = resolve_report(target)
            compile_report(spec)
        except ReportError as exc:
            failures += 1
            print(f"FAIL  {target}: {exc}")
        else:
            print(f"ok    {target} ({spec.name})")
    if failures:
        print(f"[{failures}/{len(targets)} report(s) failed validation]")
        return 1
    print(f"[{len(targets)} report(s) valid]")
    return 0


def _cmd_run(args) -> int:
    spec = resolve_report(args.report)
    compiled = compile_report(spec)
    from repro.runtime.store import StoreError

    resumed = None
    if args.resume:
        if args.cache_dir is None:
            print("report error: --resume requires --cache-dir: completed "
                  "tasks are served from the result store of the "
                  "interrupted run", file=sys.stderr)
            return 2
        from repro.obs.ledger import RunLedger

        try:
            resumed = RunLedger(args.cache_dir).find(args.resume)
        except KeyError as exc:
            print(f"report error: {exc.args[0]}", file=sys.stderr)
            return 2

    try:
        with observe_campaign(args, "report.run", spec.name) as tracker:
            if resumed is not None:
                tracker.set_resumed_from(resumed["id"])
            result = run_report(
                compiled, store=campaign_store(args.cache_dir),
                jobs=args.jobs, batch=not args.no_batch,
                retry=retry_policy(args), stall_action=args.stall_action,
            )
            print(result.render())
            if args.out is not None:
                from repro.reports.artifacts import write_artifacts

                for path in write_artifacts(result, args.out):
                    tracker.add_artifact(path)
                    print(f"[wrote {path}]")
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 2
    return 0


def report_main(argv: "list[str] | None" = None) -> int:
    args = build_report_parser().parse_args(argv)
    handler = {"list": _cmd_list, "validate": _cmd_validate,
               "run": _cmd_run}[args.command]
    try:
        return handler(args)
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(report_main())
