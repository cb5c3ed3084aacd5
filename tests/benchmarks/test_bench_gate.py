"""The CI benchmark gate: ``perf record --bench`` + ``perf check``.

CI copies the committed history, records each baselined module's fresh
``BENCH_*.json`` into the copy, and runs ``perf check`` on it.  With one
speedup-only floor record per test, the check fails exactly when a fresh
``speedup`` falls below ``(1 - threshold)`` times its floor.
"""

import json
from pathlib import Path

from repro.perf import PerfHistory, new_record
from repro.perf.cli import perf_main

HISTORY = (Path(__file__).parents[2] / "benchmarks" / "baselines"
           / "perf_history.jsonl")

#: The committed floor of every gated test.
FLOORS = {
    "bench/bench_batched/test_bench_batched_engine_speedup_64_draw_campaign":
        14.67,
    "bench/bench_batched/test_bench_batched_sweep_bit_identity_and_speedup":
        1.06,
    "bench/bench_batched/test_bench_hierarchical_lockstep_vs_dag": 2.47,
    "bench/bench_dag/test_bench_dag_batched_speedup_64_draw_campaign": 15.89,
    "bench/bench_dag/test_bench_dag_structure_cache_hit": 8.9,
    "bench/bench_health/test_bench_health_watched_pool_overhead": 0.95,
    "bench/bench_obs/test_bench_obs_overhead_live_progress": 0.95,
    "bench/bench_reports/test_bench_report_kernels_vs_per_draw_loop": 3.12,
    "bench/bench_reports/test_bench_report_store_backed_rerun": 1.37,
    "bench/bench_runtime/test_bench_runtime_cache_hit": 248.41,
    "bench/bench_runtime/test_bench_runtime_parallel_speedup": 0.49,
    "bench/bench_telemetry/test_bench_telemetry_overhead_enabled": 0.95,
}


def write_bench(directory: Path, name: str, tests: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(
        {"benchmark": f"bench_{name}", "schema": 1, "tests": tests}))
    return path


def floor_history(tmp_path: Path, name: str, tests: dict) -> Path:
    """A history with one floor record per test of ``BENCH_<name>.json``."""
    history = PerfHistory(tmp_path / "history.jsonl")
    for test, metrics in tests.items():
        history.append(new_record(f"bench/bench_{name}/{test}", "bench",
                                  metrics, ts=1.0))
    return history.path


def gate(history: Path, *fresh: Path, threshold: "float | None" = None) -> int:
    """CI's gate step: record every fresh file, then check the history."""
    for path in fresh:
        status = perf_main(["record", "--history", str(history),
                            "--bench", str(path)])
        if status:
            return status
    argv = ["check", "--history", str(history)]
    if threshold is not None:
        argv += ["--threshold", str(threshold)]
    return perf_main(argv)


def test_within_threshold_passes(tmp_path):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    fresh = write_bench(tmp_path / "fresh", "x", {"t": {"speedup": 8.0}})
    assert gate(history, fresh, threshold=0.30) == 0


def test_regression_beyond_threshold_fails(tmp_path, capsys):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    fresh = write_bench(tmp_path / "fresh", "x", {"t": {"speedup": 6.0}})
    assert gate(history, fresh, threshold=0.30) == 1
    assert "REGRESSION  bench/bench_x/t::speedup" in capsys.readouterr().out


def test_improvement_passes(tmp_path):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    fresh = write_bench(tmp_path / "fresh", "x", {"t": {"speedup": 50.0}})
    assert gate(history, fresh, threshold=0.30) == 0


def test_absolute_timings_are_not_compared(tmp_path):
    """Floors carry only ``speedup``, so a slower timing cannot fail;
    a floor record that kept ``t_batched_s`` would."""
    fresh = write_bench(tmp_path / "fresh", "x",
                        {"t": {"speedup": 9.9, "t_batched_s": 5.0}})
    history = floor_history(tmp_path / "floor", "x", {"t": {"speedup": 10.0}})
    assert gate(history, fresh, threshold=0.30) == 0
    timed = floor_history(tmp_path / "timed", "x",
                          {"t": {"speedup": 10.0, "t_batched_s": 0.01}})
    assert gate(timed, fresh, threshold=0.30) == 1


def test_missing_fresh_file_fails(tmp_path, capsys):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    (tmp_path / "fresh").mkdir()
    assert gate(history, tmp_path / "fresh" / "BENCH_x.json") == 1
    assert "cannot read bench file" in capsys.readouterr().err


def test_empty_tests_map_fails(tmp_path, capsys):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    fresh = write_bench(tmp_path / "fresh", "x", {})
    assert gate(history, fresh) == 1
    assert "no numeric bench results" in capsys.readouterr().err


def test_new_test_without_baseline_is_not_failed(tmp_path):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    fresh = write_bench(tmp_path / "fresh", "x",
                        {"t": {"speedup": 10.0}, "t_new": {"speedup": 1.0}})
    assert gate(history, fresh, threshold=0.30) == 0


def test_cli_threshold_validation(tmp_path, capsys):
    history = floor_history(tmp_path, "x", {"t": {"speedup": 10.0}})
    for threshold in (0.0, -0.3, 10.0):
        assert perf_main(["check", "--history", str(history),
                          "--threshold", str(threshold)]) == 1
        assert "--threshold must be in (0, 10)" in capsys.readouterr().err


def test_committed_history_holds_the_twelve_speedup_floors():
    """One speedup-only record per gated test, at its committed floor."""
    bench = [r for r in PerfHistory(HISTORY).records()
             if r["label"].startswith("bench/")]
    assert {r["label"]: r["metrics"] for r in bench} == {
        label: {"speedup": floor} for label, floor in FLOORS.items()}
    assert len(bench) == len(FLOORS)
