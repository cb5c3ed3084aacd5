"""Benchmark entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 25

Workloads (see ``BENCHMARK.json`` for why each exists) and what their
operation -- timed as ``op_s`` -- is:

- ``reproduce`` -- the 14 fast-mode experiment calls in one fresh
  process (``repro all``); the saturation engine dominates;
- ``campaign_cold`` -- one ``report run`` of a generated 512-task
  campaign on an empty store (``--jobs 2``): executor, store writes,
  batched lockstep;
- ``report_warm`` -- the same report on a store filled during set-up:
  CLI start-up, store reads and the report kernels.

With ``--trace 0`` the last stdout line carries every end-to-end metric
(see :data:`END_TO_END` for how a run's samples are reduced); with
``--trace 1`` every per-layer metric from a traced run.  The line before
it is a JSON detail record: the machine fingerprint (CPU count, Python
and NumPy versions, a speed probe of the driver's core), each metric's
sample count, median and highest well-supported percentile, the median
raw wall time behind each steady time, and any failed operation.

Times are steady times (:mod:`perfbench.calibrate`): each operation's
wall time scaled by the speed of the cores it ran on, probed while it
ran, so that the shared host's drifting speed cancels out.

The benchmark builds nothing: it runs the checkout's ``src/`` directly
and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import speed  # noqa: E402
from perfbench.checks import REFERENCE_DIR  # noqa: E402
from perfbench.trace import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, Bench, timed, traced  # noqa: E402

#: (name, unit, better, reduce) of every end-to-end metric.  ``reduce``
#: turns a run's per-operation samples into the run's value: the median
#: steady time of the operations and of the set-up repeats.
END_TO_END = (
    ("op_s", "s", "lower", statistics.median),
    ("setup_s", "s", "lower", statistics.median),
    ("peak_rss_mb", "MB", "lower", max),
    ("success_rate", "fraction", "higher", None),
)

_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(samples: "list[float]") -> "dict | None":
    """The highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    for p in _PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"p": p, "value": cuts[round(p * 10) - 1]}
    return None


def end_to_end(samples: dict, success_rate: float,
               walls: "dict | None" = None) -> "tuple[dict, dict]":
    """Reduce per-operation samples to the end-to-end metrics.

    Returns ``(metrics, detail)``: ``metrics`` maps each name to its
    value, ``detail`` each one's sample count, median and tail percentile,
    and the median of the raw wall times in ``walls``.
    """
    metrics, detail = {}, {}
    for name, _, _, reduce in END_TO_END:
        if reduce is None:
            continue
        values = samples[name]
        if not values:
            raise RuntimeError(f"no successful operation measured {name}")
        metrics[name] = reduce(values)
        detail[name] = {"n": len(values), "median": statistics.median(values),
                        "tail": tail_percentile(values)}
    for name, values in (walls or {}).items():
        detail.setdefault(name, {})["wall_median"] = statistics.median(values)
    metrics["success_rate"] = success_rate
    return metrics, detail


def fingerprint() -> dict:
    """The machine a result was measured on, for reading results side by
    side."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "speed": speed(),
    }


def _units() -> "dict[str, str]":
    return {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def result_line(metrics: dict, ledger) -> str:
    units = _units()
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def check_checkout(root: Path) -> "str | None":
    """Why ``root`` cannot be benchmarked, or ``None``."""
    for needed in ("src/repro/__init__.py", "src/repro/cli.py"):
        if not (root / needed).is_file():
            return f"{root / needed} is missing: run from a source checkout"
    for kind in ("reproduce", "campaign"):
        if not (REFERENCE_DIR / f"{kind}.json").is_file():
            return f"reference outputs {REFERENCE_DIR / kind}.json missing"
    return None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a termination request into SystemExit, so the running child's
    # process group is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    problem = check_checkout(ROOT)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(ROOT, work, args.seed)
        # Untimed warm-up: byte-compiles the sources on a fresh checkout
        # and proves the package imports before anything is measured.
        warmup = bench.spawn([sys.executable, "-c",
                              "import repro.cli, repro.reports.cli"])
        if warmup.rc != 0:
            print("perfbench: the repro package does not import:\n"
                  + warmup.log.read_text(), file=sys.stderr)
            return 2
        if args.trace:
            metrics = traced(bench, args.workload)
            detail = {}
        else:
            samples, walls = timed(bench, args.workload, args.seconds)
            metrics, detail = end_to_end(samples, bench.ledger.success_rate,
                                         walls)
        print(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "machine": fingerprint(),
            "samples": detail, "failures": bench.ledger.failures,
        }))
        print(result_line(metrics, bench.ledger))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
