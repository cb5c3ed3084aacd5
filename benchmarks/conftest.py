"""Shared benchmark configuration.

Benchmarks time a layer of the system and assert its contract (bit
identity, speedup, overhead).  Heavy paths run once inside the timer
(``once``, which wraps ``benchmark.pedantic`` with a single round).

Benchmarks record their headline numbers (timings, speedup ratios)
through the ``bench_record`` fixture; at session end each benchmark
module's records are written to ``BENCH_<name>.json`` (in
``$BENCH_JSON_DIR``, default the current directory).  CI uploads these
files and gates their ``speedup`` fields with ``repro perf record
--bench`` and ``repro perf check`` against the floors in
``baselines/perf_history.jsonl``.
"""

import json
import os
from pathlib import Path

import pytest

_RECORDS: "dict[str, dict[str, dict]]" = {}


def pytest_addoption(parser):
    parser.addoption(
        "--chaos", action="store_true", default=False,
        help="run the chaos-injection benchmarks: campaigns under "
             "deterministic fault injection, asserting recovery and "
             "recording respawn overhead (skipped by default)")


@pytest.fixture
def chaos_mode(request):
    """Skip unless the session opted into chaos benchmarks."""
    if not request.config.getoption("--chaos"):
        pytest.skip("chaos benchmarks run only with --chaos")


@pytest.fixture
def once(benchmark):
    """Run the callable exactly once inside the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture
def bench_record(request):
    """Record this test's headline numbers into ``BENCH_<module>.json``.

    Call with plain JSON-able keyword fields, e.g.
    ``bench_record(t_serial_s=1.2, t_batched_s=0.05, speedup=24.0)``.
    Repeated calls from one test merge (later keys win).
    """
    module = request.module.__name__

    def _record(**fields):
        _RECORDS.setdefault(module, {}).setdefault(
            request.node.name, {}).update(fields)

    return _record


def pytest_sessionfinish(session, exitstatus):
    out_dir = Path(os.environ.get("BENCH_JSON_DIR", "."))
    for module, tests in _RECORDS.items():
        name = module.removeprefix("bench_")
        payload = {
            "benchmark": module,
            "schema": 1,
            "tests": tests,
        }
        path = out_dir / f"BENCH_{name}.json"
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:  # never fail the suite over a report file
            print(f"[bench json: cannot write {path}: {exc}]")
