"""Self-tests of the benchmark harness.

They run with the repository's test suite (``python -m pytest``) and use
no timing: inputs are generated, wrappers installed and removed, and
wrong outputs injected through the harness's own checking paths.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, inputs  # noqa: E402
from perfbench.checks import (  # noqa: E402
    GOLDEN_RTOL,
    compare_digest,
    digest,
    load_reference,
)
from perfbench.run import END_TO_END, end_to_end, result_line  # noqa: E402
from perfbench.trace import (  # noqa: E402
    EXPERIMENT_IDS,
    PER_LAYER,
    Tracer,
    layer_metrics,
    wrapped_bindings,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Bench,
    Ledger,
    Proc,
    parse_importtime,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- seeded inputs -----------------------------------------------------

def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for seed in (0, 1, 7, 12345):
        a = inputs.write_inputs(seed, tmp_path / f"a{seed}")
        b = inputs.write_inputs(seed, tmp_path / f"b{seed}")
        for name in inputs.render_inputs(seed):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    same = 3 + inputs.N_VARIANTS
    assert inputs.render_inputs(3) == inputs.render_inputs(same)
    rendered = {str(inputs.render_inputs(v)) for v in range(inputs.N_VARIANTS)}
    assert len(rendered) == inputs.N_VARIANTS


def test_generated_report_compiles_to_the_declared_campaign(tmp_path,
                                                            monkeypatch):
    from repro.reports.compiler import compile_report
    from repro.reports.registry import resolve_report

    monkeypatch.chdir(inputs.write_inputs(5, tmp_path))
    compiled = compile_report(resolve_report(inputs.REPORT_FILE))
    assert sum(t.sweep.size for t in compiled.targets) == inputs.N_TASKS
    assert [m.name for m in compiled.spec.metrics] == [
        "runtime", "wave_speed", "decay_rate", "idle_histogram"]


def test_references_cover_every_variant_and_experiment():
    import repro.experiments

    assert tuple(repro.experiments.EXPERIMENTS) == EXPERIMENT_IDS
    variants = {str(v) for v in range(inputs.N_VARIANTS)}
    reproduce = load_reference("reproduce")
    assert set(reproduce) == variants
    assert all(set(reproduce[v]) == set(EXPERIMENT_IDS) for v in variants)
    assert set(load_reference("campaign")) == variants


# -- traced-run wrappers -------------------------------------------------

def test_tracer_counts_and_leaves_no_patched_function_behind(monkeypatch):
    import repro.core.elimination as elimination
    import repro.experiments.fig1_stream_scaling as fig1
    import repro.sim as sim
    import repro.sim.lockstep as lockstep
    import repro.sim.saturation as saturation
    from repro.runtime.store import ResultStore

    before = (lockstep.simulate_lockstep, fig1.simulate_saturation,
              ResultStore.get, elimination.elimination_scan.__defaults__)
    late = types.ModuleType("repro._perfbench_late_import")
    with Tracer() as tracer:
        assert fig1.simulate_saturation is saturation.simulate_saturation
        assert fig1.simulate_saturation is not before[1]
        assert sim.simulate_lockstep is lockstep.simulate_lockstep
        assert elimination.elimination_scan.__defaults__ != before[3]
        # A module imported while tracing binds the wrapper.
        late.simulate = lockstep.simulate_lockstep
        monkeypatch.setitem(sys.modules, late.__name__, late)
        cfg = sim.LockstepConfig(n_ranks=4, n_steps=5)
        sim.simulate_lockstep(cfg)
        assert wrapped_bindings()
    assert tracer.stats["lockstep"]["calls"] == 1
    assert tracer.stats["lockstep"]["work"] == 20
    assert wrapped_bindings() == []
    assert late.simulate is before[0]
    assert (lockstep.simulate_lockstep, fig1.simulate_saturation,
            ResultStore.get,
            elimination.elimination_scan.__defaults__) == before


def test_tracer_restores_on_error():
    import repro.sim.lockstep as lockstep

    original = lockstep.simulate_lockstep
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert lockstep.simulate_lockstep is original
    assert wrapped_bindings() == []


# -- declared names ------------------------------------------------------

def test_every_emitted_name_is_declared_in_benchmark_json():
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)

    samples = {name: [1.0, 2.0, 3.0] for name, *_ in END_TO_END}
    metrics, _ = end_to_end(samples, success_rate=1.0)
    assert list(metrics) == declared_e2e
    layers = layer_metrics({}, {}, {}, parse_importtime(""), 0, 1.0)
    assert list(layers) == declared_layer

    units = {m["name"]: (m["unit"], m["better"])
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, unit, better, *_ in (*END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(name), name
        assert units[name] == (unit, better), name
    line = json.loads(result_line({**metrics, **layers}, Ledger(1, 0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, _, _, moves in PER_LAYER:
        for metric, workload in moves:
            assert metric in e2e and workload in WORKLOADS, name
        assert moves or name == "trace.overhead", name


def test_importtime_parsing_counts_outermost_entries_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       500 |       1000 |     numpy",
        "import time:       200 |        300 |       repro.reports.cli",
        "import time:       100 |        400 |     repro.reports",
        "import time:       100 |       1500 |   repro.experiments",
        "import time:       300 |       2000 | repro.cli",
    ])
    assert parse_importtime(text) == {
        "cli.import_s": 0.002,
        "cli.import.experiments_s": 0.0015,
        "cli.import.reports_s": 0.0004,
        "cli.import.numpy_s": 0.001,
    }


# -- wrong outputs raise the error rate ----------------------------------

def test_digest_tolerates_rounding_but_not_drift():
    data = {"speeds": np.linspace(1.0, 2.0, 500), "beta": 0.25,
            "rows": [{"n": 3, "label": "bi"}]}
    ref = digest(data)
    assert compare_digest(ref, digest(copy.deepcopy(data))) == []
    nudged = copy.deepcopy(data)
    nudged["beta"] *= 1 + GOLDEN_RTOL / 10
    assert compare_digest(ref, digest(nudged)) == []
    drifted = copy.deepcopy(data)
    drifted["speeds"][-1] *= 1 + 1e-6
    assert compare_digest(ref, digest(drifted)) == ["/speeds"]


def _fake_report_bench(tmp_path, doc: dict) -> Bench:
    bench = Bench(ROOT, tmp_path, seed=0)

    def spawn(argv, cwd=None):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "perfbench_report.json").write_text(json.dumps(doc))
        return Proc(0, 1.0, 10.0, tmp_path / "log")

    bench.spawn = spawn
    return bench


def test_wrong_report_output_raises_error_rate(tmp_path):
    reference = load_reference("campaign")["0"]
    good = {**reference, "provenance": {
        "n_tasks": inputs.N_TASKS, "n_loaded_from_store": inputs.N_TASKS,
        "n_executed": 0}}
    bench = _fake_report_bench(tmp_path, good)
    bench.report(tmp_path / "cache", warm=True)
    assert (bench.ledger.attempted, bench.ledger.failed) == (1, 0)

    wrong = copy.deepcopy(good)
    column = wrong["value_columns"][0]
    wrong["rows"][0]["values"][column] *= 1 + 1e-6
    bench = _fake_report_bench(tmp_path / "wrong", wrong)
    bench.report(tmp_path / "cache", warm=True)
    assert (bench.ledger.attempted, bench.ledger.failed) == (1, 1)
    line = json.loads(result_line({"success_rate": bench.ledger.success_rate},
                                  bench.ledger))
    assert line["correct"] is False and line["failed"] == 1
    assert line["metrics"]["success_rate"]["value"] == 0.0

    # A warm run that executed tasks is wrong even with the right numbers.
    bench = _fake_report_bench(tmp_path / "executed", {
        **good, "provenance": {**good["provenance"], "n_executed": 1}})
    bench.report(tmp_path / "cache", warm=True)
    assert bench.ledger.failed == 1


def test_wrong_experiment_output_raises_error_rate(tmp_path):
    digests = copy.deepcopy(load_reference("reproduce")["0"])
    path, leaf = next((p, v) for p, v in digests["fig4"].items()
                      if v[0] == "num" and v[1])
    leaf[1] *= 1 + 1e-6
    bench = Bench(ROOT, tmp_path, seed=0)
    result = {"calls": {eid: 0.1 for eid in EXPERIMENT_IDS},
              "steady": {eid: 0.1 for eid in EXPERIMENT_IDS},
              "digests": digests, "errors": {}, "layers": {}}
    bench.child = lambda spec, cwd=None: (Proc(0, 1.0, 10.0, tmp_path), result)
    op = bench.reproduce()
    assert bench.ledger.attempted == len(EXPERIMENT_IDS)
    assert bench.ledger.failed == 1
    assert path in bench.ledger.failures[0]
    assert op["calls"]  # timings still count


# -- steady times ----------------------------------------------------------

def test_steady_time_scales_by_the_speed_probed_inside_the_interval():
    sampler = calibrate.Sampler()
    sampler.samples = [(0.0, 0.1, 9.0), (1.0, 1.1, 0.5), (2.0, 2.1, 1.5),
                       (5.0, 5.1, 9.0)]
    # Two probes inside [0.5, 3]: 0.2 s of probing is taken out and the
    # remaining 2.3 s scaled by their mean speed, 1.0.
    assert sampler.steady(0.5, 3.0) == pytest.approx(2.3)
    # No probe inside: the nearest one scales the interval.
    assert sampler.steady(4.5, 4.9) == pytest.approx(0.4 * 9.0)
    assert sampler.mean_speed() == pytest.approx(5.0)
    assert calibrate.steady(2.0, 0.5, 1.5) == pytest.approx(2.0)


def test_sampled_child_runs_the_statement_without_numpy(tmp_path):
    out = tmp_path / "out.json"
    code = ("import sys, time; time.sleep(0.5); "
            "assert 'numpy' not in sys.modules; raise SystemExit(3)")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" /
                                               "calibrate.py"), str(out),
                           "-c", code], cwd=tmp_path)
    result = json.loads(out.read_text())
    assert proc.returncode == result["rc"] == 3
    assert result["wall_s"] >= 0.5
    assert result["steady_s"] > 0
