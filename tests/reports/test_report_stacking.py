"""A report's stacks are the same bytes however their records arrive.

A cold pooled run (``jobs=2``) reads back the records its workers
wrote, a cold serial run (``jobs=1``) copies in the values it holds,
and a warm run reads every record from the store straight into its
stack.  Every bundled report's artifacts must be byte-identical across
the three, the provenance counts that name the path aside.  A warm run
reads each record's JSON payload and only the matrices its kernels
declare.
"""

import json

import pytest

from repro import telemetry
from repro.reports import compile_report, load_bundled_report, run_report, \
    write_artifacts
from repro.reports.registry import bundled_report_names
from repro.runtime import ResultStore


def _files(directory) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per bundled report: its compiled form, the artifacts of each run,
    the warm run's ``store.read_bytes`` and the store's index entries."""
    out = {}
    for name in bundled_report_names():
        report = compile_report(load_bundled_report(name))
        root = tmp_path_factory.mktemp(name)
        store = ResultStore(root / "cache")
        artifacts = {}
        for label, run_store, jobs in (("pool", store, 2),
                                       ("serial", None, 1),
                                       ("warm", store, 1)):
            rec = telemetry.enable() if label == "warm" else None
            try:
                result = run_report(report, store=run_store, jobs=jobs)
            finally:
                if rec is not None:
                    telemetry.disable()
            write_artifacts(result, root / label)
            artifacts[label] = _files(root / label)
        assert result.n_loaded == report.n_tasks and result.n_executed == 0
        out[name] = (report, artifacts, rec.counters["store.read_bytes"],
                     {e.key: e for e in store.entries()})
    return out


def _without_provenance(name: str, data: bytes) -> bytes:
    if name.endswith(".json"):
        document = json.loads(data)
        document.pop("provenance")
        return json.dumps(document).encode()
    if name.endswith(".txt"):  # the title line carries the counts
        return data.split(b"\n", 1)[1]
    return data


@pytest.mark.parametrize("name", bundled_report_names())
def test_cold_pool_cold_serial_and_warm_give_the_same_bytes(runs, name):
    _, artifacts, _, _ = runs[name]
    assert artifacts["pool"] == artifacts["serial"]
    assert artifacts["warm"].keys() == artifacts["pool"].keys()
    for path, cold in artifacts["pool"].items():
        if path.endswith((".csv", ".npz")):
            assert artifacts["warm"][path] == cold, path
        else:
            assert _without_provenance(path, artifacts["warm"][path]) == \
                _without_provenance(path, cold), path


def _expected_read_bytes(report, entries, n_matrices: int) -> int:
    """Every task's JSON payload plus ``n_matrices`` float64 matrices of
    its point's shape."""
    total = 0
    for target in report.targets:
        for i, task in enumerate(target.sweep.tasks()):
            cfg = target.grid.compiled[i // target.draws_per_point].cfg
            total += (entries[task.key].json_len
                      + n_matrices * cfg.n_ranks * cfg.n_steps * 8)
    return total


@pytest.mark.parametrize("name", bundled_report_names())
def test_warm_run_reads_only_the_declared_matrices(runs, name):
    report, _, read_bytes, entries = runs[name]
    assert read_bytes == _expected_read_bytes(report, entries,
                                              len(report.reads))


def test_fig7_speed_reads_two_matrices_per_task(runs):
    report, _, read_bytes, entries = runs["fig7_speed"]
    assert report.reads == ("completion", "idle")
    assert read_bytes == _expected_read_bytes(report, entries, 2)


def test_hybrid_desync_profile_reads_all_three(runs):
    report, _, read_bytes, entries = runs["hybrid_desync_profile"]
    assert report.reads == ("exec_end", "completion", "idle")
    assert read_bytes == _expected_read_bytes(report, entries, 3) == \
        sum(e.json_len + e.arr_len for e in entries.values())
