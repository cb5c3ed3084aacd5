"""``repro-experiment store`` subcommands: result-store maintenance.

::

    repro-experiment store ls --cache-dir DIR [--json]
    repro-experiment store gc --cache-dir DIR [--dry-run] [--min-age S]

``ls`` lists the shard index entry of every cached task result: its
spec key, owning task function, derived seed, and on-disk size (the
JSON record plus its array segment).  ``gc`` prunes what no read ever
reaches — temp files abandoned by interrupted writes, telemetry JSONL no
ledger record references, and torn run-ledger records — without ever
touching a live record.  Neither command reads or removes anything else
under the cache directory.
"""

from __future__ import annotations

import argparse
import json
import math

from repro.cli import human_bytes
from repro.runtime.shards import SHARD_DIR
from repro.runtime.store import ResultStore

__all__ = ["store_main", "build_store_parser"]


def _min_age_arg(text: str) -> float:
    """``--min-age`` parser: a finite number of seconds, at least 0.

    A negative or infinite age would make ``gc`` remove temp files a
    concurrent writer may still own, or spare everything forever.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"--min-age must be a finite number >= 0, got {text}")
    return value


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment store",
        description="Inspect and maintain the content-addressed result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list cached results (key, task, size)")
    p_ls.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="result store directory")
    p_ls.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")

    p_gc = sub.add_parser("gc", help="prune unreferenced files (temp "
                                     "files, orphan telemetry, torn run "
                                     "records)")
    p_gc.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="result store directory")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without deleting")
    p_gc.add_argument("--min-age", type=_min_age_arg, default=3600.0,
                      metavar="SECONDS",
                      help="spare anything younger than this (a "
                           "concurrent campaign may be mid-write; "
                           "default 3600)")
    return parser


def _mtime(path) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


def _cmd_ls(args) -> int:
    store = ResultStore(args.cache_dir)
    entries = list(store.entries())
    if args.as_json:
        shards = store.root / SHARD_DIR
        mtimes = {e.shard: _mtime(shards / e.shard) for e in entries}
        print(json.dumps(
            [{"key": e.key, "fn": e.fn, "seed": e.seed,
              "n_arrays": e.n_arrays, "json_bytes": e.json_len,
              "npz_bytes": e.arr_len, "total_bytes": e.json_len + e.arr_len,
              "mtime": mtimes[e.shard]}
             for e in entries],
            indent=2,
        ))
        return 0
    if not entries:
        print(f"[empty store at {store.root}]")
        return 0
    for e in entries:
        arrays = f" +{e.n_arrays} array(s)" if e.n_arrays else ""
        print(f"{e.key}  {human_bytes(e.json_len + e.arr_len):>10}  "
              f"{e.fn or '(no spec)'}{arrays}")
    total = sum(e.json_len + e.arr_len for e in entries)
    print(f"[{len(entries)} result(s), {human_bytes(total)} in "
          f"{store.root}]")
    return 0


def _cmd_gc(args) -> int:
    store = ResultStore(args.cache_dir)
    stats = store.gc(dry_run=args.dry_run, min_age_s=args.min_age)
    verb = "would remove" if args.dry_run else "removed"
    print(f"[{verb} {stats.n_removed} item(s): {stats.n_tmp} temp "
          f"file(s), {stats.n_orphan_telemetry} orphan telemetry, "
          f"{stats.n_torn_runs} torn run record(s); "
          f"{human_bytes(stats.bytes_freed)} freed]")
    return 0


def store_main(argv: "list[str] | None" = None) -> int:
    args = build_store_parser().parse_args(argv)
    return {"ls": _cmd_ls, "gc": _cmd_gc}[args.command](args)
