"""Command-line interface: paper figures and declarative scenarios.

Usage::

    repro-experiment fig4                 # fast variant of the Fig. 4 study
    repro-experiment fig8 --full          # paper-sized run counts
    repro-experiment all --seed 3         # everything
    repro-experiment list --json          # experiment ids + descriptions
    repro-experiment ext_campaign --jobs 4 --cache-dir ~/.cache/repro
    python -m repro fig5                  # module form

    repro-experiment scenario list                      # bundled scenarios
    repro-experiment scenario run fig4_single_delay     # run one scenario
    repro-experiment scenario validate my_scenario.toml # compile-check a file
    repro-experiment scenario sweep campaign_rate_sweep --jobs 4

    repro-experiment report list                        # bundled reports
    repro-experiment report run fig7_speed --cache-dir ~/.cache/repro
    repro-experiment report validate my_report.toml     # compile-check a file

    repro-experiment store ls --cache-dir ~/.cache/repro   # contents
    repro-experiment store gc --cache-dir ~/.cache/repro   # prune orphans

    repro-experiment stats show run.jsonl        # telemetry span tree
    repro-experiment stats summarize run.jsonl   # hit rates, phase times

    repro-experiment runs ls --cache-dir ~/.cache/repro    # run ledger
    repro-experiment runs show RUN_ID --cache-dir ~/.cache/repro
    repro-experiment runs tail -n 5 --cache-dir ~/.cache/repro
    repro-experiment runs diff OLD NEW --cache-dir ~/.cache/repro

    repro-experiment perf history --cache-dir ~/.cache/repro  # run series
    repro-experiment perf check --cache-dir ~/.cache/repro    # trend gate

    repro-experiment golden --check       # verify the golden-trace corpus
    repro-experiment golden --regen       # regenerate tests/golden/

Campaign-style experiments and scenario sweeps execute through the
parallel campaign runtime (:mod:`repro.runtime`): ``--jobs N`` shards
their independent runs over N worker processes (``--jobs 0`` auto-detects
the CPU count) and ``--cache-dir`` enables the content-addressed on-disk
result store, so a repeated invocation skips every already-simulated run.
Results are bit-identical for a given ``--seed`` regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from typing import Callable

__all__ = ["main", "add_campaign_args", "build_parser", "campaign_store",
           "count_arg", "jobs_arg", "observe_campaign", "resume_record",
           "seed_arg"]


def _int_at_least(text: str, flag: str, low: int, note: str = "") -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"{flag} must be >= {low}{note}, got {value}")
    return value


def jobs_arg(text: str) -> int:
    """``--jobs`` parser: non-negative int (0 = auto-detect CPU count)."""
    return _int_at_least(text, "--jobs", 0, " (0 = auto-detect CPU count)")


def seed_arg(text: str) -> int:
    """``--seed`` parser: non-negative int, as NumPy seeds must be."""
    return _int_at_least(text, "--seed", 0)


def count_arg(text: str) -> int:
    """``-n`` parser: how many records to show, at least one."""
    return _int_at_least(text, "-n", 1)


def add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The campaign flags ``scenario run|sweep`` and ``report run`` share."""
    parser.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                        help="worker processes for cache misses (0 = auto)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result store; cached runs "
                             "are loaded with zero engine invocations")
    parser.add_argument("--no-batch", action="store_true",
                        help="run cache misses one engine call at a time "
                             "instead of batched (results are identical)")
    parser.add_argument("--profile", action="store_true",
                        help="print the run's telemetry summary (spans, "
                             "cache hit rates) and keep its JSONL under "
                             "<cache-dir>/telemetry/; results are unchanged")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="write the run's telemetry JSONL here "
                             "(implies --profile); inspect with "
                             "'repro-experiment stats'")
    parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="live progress line on stderr (default: auto "
                             "when stderr is a TTY)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run: completed tasks "
                             "are served from the run's cache, and the new "
                             "ledger record links back via resumed_from "
                             "(requires --cache-dir)")


def campaign_store(cache_dir: "str | None"):
    """The ``--cache-dir`` result store, checked writable (or ``None``)."""
    if cache_dir is None:
        return None
    from repro.runtime.store import ResultStore

    store = ResultStore(cache_dir)
    # Fail before the campaign starts, not after it computed results it
    # cannot persist.
    store.ensure_writable()
    return store


def resume_record(args, kind: str, name: str,
                  spec_key: "Callable[[], str] | None" = None) -> "dict | None":
    """Resolve ``--resume RUN_ID`` to the ledger record of the run resumed.

    Returns ``None`` without ``--resume``.  Raises :class:`ValueError`
    when there is no ``--cache-dir``, when the id is unknown or
    ambiguous, and when the record is not a ``kind`` run of ``name`` —
    or, given ``spec_key`` (called only here), swept a different grid:
    resuming another run would silently compute the wrong campaign
    against its cache.  The caller reports the error with exit 2 before
    any ledger record is written.
    """
    if not args.resume:
        return None
    if args.cache_dir is None:
        raise ValueError("--resume requires --cache-dir: completed tasks "
                         "are served from the result store of the "
                         "interrupted run")
    from repro.obs.ledger import RunLedger

    try:
        record = RunLedger(args.cache_dir).find(args.resume)
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from None
    if (record.get("kind"), record.get("name")) != (kind, name):
        raise ValueError(
            f"run {record['id']} is a {record.get('kind')} of "
            f"{record.get('name')!r}, not a {kind} of {name!r}; "
            "--resume continues the same run")
    if spec_key is not None and record.get("spec_key"):
        key = spec_key()
        if record["spec_key"] != key:
            raise ValueError(
                f"run {record['id']} swept a different grid "
                f"(spec_key {record['spec_key']}, this invocation {key}); "
                "pass the same scenario, --seed, and --engine to resume it")
    return record


def observe_campaign(args, kind: str, name: str):
    """:func:`repro.obs.observe_run` wired to the campaign flags."""
    from repro.obs import observe_run

    return observe_run(kind, name, cache_dir=args.cache_dir,
                       progress=args.progress, profile=args.profile,
                       telemetry_out=args.telemetry_out)


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce the figures of 'Propagation and Decay of Injected "
            "One-Off Delays on Clusters' (CLUSTER 2019) on the built-in "
            "cluster simulator, or run declarative scenarios "
            "('repro-experiment scenario --help')."
        ),
        epilog=(
            "The 'scenario', 'report', 'store', 'stats', 'runs', and "
            "'perf' commands delegate to their own subcommands: "
            "repro-experiment scenario {list,validate,run,sweep}, "
            "repro-experiment report {list,validate,run}, "
            "repro-experiment store {ls,gc}, "
            "repro-experiment stats {show,summarize,trace}, "
            "repro-experiment runs {ls,show,tail,diff}, "
            "repro-experiment perf {record,history,check} ..."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted(EXPERIMENTS), "all", "list", "scenario", "report",
                 "store", "stats", "runs", "perf", "golden"],
        help=(
            "experiment id (paper figure), 'all', 'list', 'scenario' / "
            "'report' / 'store' / 'stats' / 'runs' / 'perf' (see epilog), "
            "or 'golden' (golden-trace corpus)"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-sized parameters (slower; default is a fast variant)",
    )
    parser.add_argument("--seed", type=seed_arg, default=0,
                        help="base RNG seed (>= 0)")
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        metavar="N",
        help=(
            "worker processes for campaign experiments "
            "(default 1 = serial, 0 = auto-detect CPU count)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store; repeated runs skip cached work",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything even if --cache-dir has results",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output (only for 'list')",
    )
    return parser


def _list_experiments(as_json: bool) -> int:
    from repro.experiments import experiment_descriptions

    descriptions = experiment_descriptions()
    if as_json:
        print(json.dumps(
            [{"id": name, "description": desc}
             for name, desc in sorted(descriptions.items())],
            indent=2,
        ))
        return 0
    width = max(len(name) for name in descriptions)
    for name in sorted(descriptions):
        print(f"{name:<{width}}  {descriptions[name]}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        from repro.scenarios.cli import scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.reports.cli import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "store":
        from repro.runtime.cli import store_main

        return store_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.telemetry.cli import stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "runs":
        from repro.obs.cli import runs_main

        return runs_main(argv[1:])
    if argv and argv[0] == "perf":
        from repro.perf.cli import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "golden":
        from repro.golden import golden_main

        return golden_main(argv[1:])

    args = build_parser().parse_args(argv)
    if args.experiment in ("scenario", "report", "store", "stats", "runs",
                           "perf", "golden"):
        # Reachable only when the subcommand is not the first token (e.g.
        # 'repro-experiment --seed 3 scenario'); its own arguments cannot
        # be recovered once argparse consumed the flags.
        print(f"usage: repro-experiment {args.experiment} ... "
              f"('{args.experiment}' must come first)", file=sys.stderr)
        return 2
    if args.experiment == "list":
        return _list_experiments(args.as_json)

    from repro.experiments import EXPERIMENTS, RuntimeOptions, run_experiment

    run_all = args.experiment == "all"
    names = sorted(EXPERIMENTS) if run_all else [args.experiment]
    runtime = RuntimeOptions(
        jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
    )

    failures: "list[tuple[str, BaseException]]" = []
    for name in names:
        t0 = time.perf_counter()
        try:
            result = run_experiment(
                name, fast=not args.full, seed=args.seed, runtime=runtime
            )
        except Exception as exc:  # noqa: BLE001 — keep the campaign going
            elapsed = time.perf_counter() - t0
            failures.append((name, exc))
            traceback.print_exc(file=sys.stderr)
            print(f"\n[{name} FAILED after {elapsed:.1f}s: {exc}]\n")
            continue
        elapsed = time.perf_counter() - t0
        print(result.render())
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")

    if run_all:
        n_ok = len(names) - len(failures)
        print(f"[summary: {n_ok}/{len(names)} experiments succeeded]")
    if failures:
        for name, exc in failures:
            print(f"[FAILED {name}: {type(exc).__name__}: {exc}]")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
