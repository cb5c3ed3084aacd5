"""Tests for report compilation, execution, and artifact generation."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from repro.reports import (
    ReportError,
    ReportSpec,
    compile_report,
    load_bundled_report,
    run_report,
    write_artifacts,
)
from repro.runtime import ResultStore


def make_spec(**overrides) -> ReportSpec:
    doc = {
        "name": "t",
        "scenario": "campaign_rate_sweep",
        "metrics": [{"name": "runtime"}],
    }
    doc.update(overrides)
    return ReportSpec.from_dict({k: v for k, v in doc.items() if v is not None})


class TestCompile:
    def test_group_by_defaults_to_sweep_axes(self):
        compiled = compile_report(make_spec())
        assert compiled.group_by == ("campaign.rate",)

    def test_cross_scenario_default_group(self):
        compiled = compile_report(make_spec(
            scenario=None,
            scenarios=["fig4_single_delay", "inline_slow_network"]))
        assert compiled.group_by == ("scenario",)

    def test_unknown_scenario(self):
        with pytest.raises(ReportError, match="does not resolve"):
            compile_report(make_spec(scenario="nope"))

    def test_unknown_metric_names_path(self):
        with pytest.raises(ReportError, match=r"metrics\[0\].name"):
            compile_report(make_spec(metrics=[{"name": "nope"}]))

    def test_unknown_kernel_param(self):
        with pytest.raises(ReportError, match="does not take parameter"):
            compile_report(make_spec(
                metrics=[{"name": "runtime", "params": {"bogus": 1}}]))

    def test_bad_param_value_fails_at_compile_time(self):
        with pytest.raises(ReportError, match=r"metrics\[0\].params.*out of "
                                              "range"):
            compile_report(make_spec(
                metrics=[{"name": "fourier", "params": {"step": 99}}]))

    def test_bad_desync_fraction_fails_at_compile_time(self):
        with pytest.raises(ReportError, match="fraction must be > 0"):
            compile_report(make_spec(
                metrics=[{"name": "desync", "params": {"fraction": 0}}]))

    def test_bad_direction_fails_at_compile_time(self):
        with pytest.raises(ReportError, match="direction must be"):
            compile_report(make_spec(
                scenario="fig4_single_delay",
                metrics=[{"name": "wave_speed", "params": {"direction": 2}}]))

    @pytest.mark.parametrize("metric,params,message", [
        ("wave_speed", {"direction": True},
         "direction must be +1 or -1, got True"),
        ("wave_speed", {"min_hops": True},
         "min_hops must be an int >= 1, got True"),
        ("wave_speed", {"max_hops": True},
         "max_hops must be an int >= 1, got True"),
        ("decay_rate", {"direction": True},
         "direction must be +1 or -1, got True"),
        ("desync", {"fraction": True}, "fraction must be > 0, got True"),
        ("fourier", {"step": True}, "step must be an int, got True"),
    ])
    def test_bool_param_rejected(self, metric, params, message):
        # True == 1 in Python; a bool is still not a direction or a count.
        with pytest.raises(ReportError, match=re.escape(message)):
            compile_report(make_spec(
                scenario="fig4_single_delay",
                metrics=[{"name": metric, "params": params}]))

    def test_group_path_must_be_common_axis(self):
        with pytest.raises(ReportError, match="not a sweep axis"):
            compile_report(make_spec(group_by=["workload.threads"]))

    def test_wave_metric_needs_delay(self):
        with pytest.raises(ReportError, match="without any 'delays'"):
            compile_report(make_spec(metrics=[{"name": "wave_speed"}]))

    def test_explicit_seeds_replace_replicates(self):
        compiled = compile_report(make_spec(seeds=[7, 8, 9]))
        target = compiled.targets[0]
        assert target.draws_per_point == 3
        # 3 rate grid points x 3 seeds
        assert target.sweep.size == 9
        assert not target.sweep.seeded


class TestRun:
    def test_groups_and_aggregates(self):
        compiled = compile_report(make_spec(aggregate=["mean", "min", "max"]))
        result = run_report(compiled)
        rates = [row.group["campaign.rate"] for row in result.rows]
        assert rates == [0.001, 0.01, 0.05]
        # 4 replicates pooled per rate point.
        assert all(row.n_draws == 4 for row in result.rows)
        for row in result.rows:
            vals = row.values
            assert (vals["runtime.total_runtime.min"]
                    <= vals["runtime.total_runtime.mean"]
                    <= vals["runtime.total_runtime.max"])
        # A denser delay climate costs runtime.
        assert (result.rows[-1].values["runtime.total_runtime.mean"]
                > result.rows[0].values["runtime.total_runtime.mean"])

    def test_render_mentions_provenance(self):
        result = run_report(compile_report(make_spec()))
        text = result.render()
        assert "0 from store" in text and "12 executed" in text
        assert "campaign.rate" in text

    def test_batched_and_unbatched_agree(self):
        compiled = compile_report(make_spec(aggregate=["mean", "std"]))
        batched = run_report(compiled, batch=True)
        unbatched = run_report(compiled, batch=False)
        assert [r.values for r in batched.rows] == \
            [r.values for r in unbatched.rows]

    def test_cross_scenario_rows(self):
        compiled = compile_report(make_spec(
            scenario=None,
            scenarios=["fig4_single_delay", "inline_slow_network"],
            metrics=[{"name": "wave_speed"}, {"name": "runtime"}],
            seeds=[0]))
        result = run_report(compiled)
        names = [row.group["scenario"] for row in result.rows]
        assert names == ["fig4_single_delay", "inline_slow_network"]
        for row in result.rows:
            measured = row.values["wave_speed.measured_speed.mean"]
            predicted = row.values["wave_speed.predicted_speed.mean"]
            assert measured == pytest.approx(predicted, rel=0.05)


class TestStoreBacked:
    def test_cold_then_warm_zero_engine_invocations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        compiled = compile_report(make_spec())
        cold = run_report(compiled, store=store)
        assert cold.n_executed == cold.n_tasks and cold.n_loaded == 0

        # Poison every engine entry point: a warm report must not simulate.
        import repro.scenarios.runner as runner_mod
        import repro.sim.engine as engine_mod
        import repro.sim.lockstep as lockstep_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine invoked on a warm report")

        monkeypatch.setattr(lockstep_mod, "simulate_lockstep", boom)
        monkeypatch.setattr(lockstep_mod, "simulate_lockstep_batch", boom)
        monkeypatch.setattr(engine_mod, "simulate_dag", boom)
        monkeypatch.setattr(engine_mod, "simulate_dag_batch", boom)
        monkeypatch.setattr(runner_mod, "simulate_lockstep", boom)
        monkeypatch.setattr(runner_mod, "simulate_lockstep_batch", boom)
        monkeypatch.setattr(runner_mod, "simulate_dag", boom)
        monkeypatch.setattr(runner_mod, "simulate_dag_batch", boom)
        monkeypatch.setattr(runner_mod, "prepare_scenario_run", boom)

        warm = run_report(compiled, store=store)
        assert warm.n_executed == 0
        assert warm.n_loaded == warm.n_tasks
        assert [r.values for r in warm.rows] == [r.values for r in cold.rows]

    def test_partial_cache_fills_the_gap(self, tmp_path, interrupt_store):
        store = ResultStore(tmp_path / "store")
        compiled = compile_report(make_spec())
        cold = run_report(compiled, store=store)
        # Lose the last record: the rerun must re-execute exactly that task.
        interrupt_store(store.root, len(store) - 1)
        again = run_report(compiled, store=ResultStore(store.root))
        assert again.n_executed == 1
        assert again.n_loaded == again.n_tasks - 1
        assert [r.values for r in again.rows] == [r.values for r in cold.rows]

    def test_report_variation_reuses_the_same_cache(self, tmp_path):
        """Changing metrics/aggregation must not invalidate cached runs."""
        store = ResultStore(tmp_path / "store")
        run_report(compile_report(make_spec()), store=store)
        other = compile_report(make_spec(
            metrics=[{"name": "idle_histogram"}, {"name": "desync"}],
            aggregate=["median"]))
        result = run_report(other, store=store)
        assert result.n_executed == 0
        assert result.n_loaded == result.n_tasks


#: The Fig. 7/8 ring of the benchmark campaign (60 ranks x 70 steps),
#: cut to 3 noise levels x 32 draws.
RING = """\
n_ranks = 60
n_steps = 70
seed = 11
outputs = ["runtime"]

[machine]
preset = "simulated"

[workload]
kind = "synthetic"
t_exec = 3e-3

[comm]
direction = "bidirectional"
distance = 1
periodic = true
msg_size = 8192
protocol = "eager"

[noise]
model = "exponential"
level = 0.02

[[delays]]
rank = 0
step = 0
duration = 90e-3

[sweep]
replicates = 32

[[sweep.axes]]
path = "noise.level"
values = [0.02, 0.05, 0.1]
"""


class TestStreamingMemory:
    def test_warm_report_holds_about_one_points_stack(self, tmp_path):
        """A warm report folds each record into its point's stack as it
        is read and drops the stack after the point's kernels: the traced
        peak stays near one point's three (B, P, S) float64 matrices,
        not a point's records next to their stacked copy."""
        scenario = tmp_path / "ring.toml"
        scenario.write_text(RING)
        compiled = compile_report(ReportSpec.from_dict({
            "name": "ring", "scenario": str(scenario),
            "group_by": ["noise.level"],
            "aggregate": ["mean", "median", "p95"],
            "metrics": [{"name": name} for name in (
                "runtime", "wave_speed", "decay_rate", "idle_histogram")],
        }))
        store = ResultStore(tmp_path / "store")
        cold = run_report(compiled, store=store)
        point_bytes = 3 * 32 * 60 * 70 * 8

        tracemalloc.start()
        try:
            warm = run_report(compiled, store=store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert warm.n_loaded == 96 and warm.n_executed == 0
        assert [r.values for r in warm.rows] == [r.values for r in cold.rows]
        assert peak < 2.5 * point_bytes, peak / point_bytes

    def test_cold_pooled_report_holds_about_one_points_stack(self, tmp_path):
        """A cold --jobs 2 report streams like a warm one: the workers
        write the records they compute, and the parent reads each back
        as its point's stack fills, so it never holds the whole sweep."""
        scenario = tmp_path / "ring.toml"
        scenario.write_text(RING)
        compiled = compile_report(ReportSpec.from_dict({
            "name": "ring", "scenario": str(scenario),
            "group_by": ["noise.level"],
            "aggregate": ["mean", "median", "p95"],
            "metrics": [{"name": name} for name in (
                "runtime", "wave_speed", "decay_rate", "idle_histogram")],
        }))
        serial = run_report(compiled, store=ResultStore(tmp_path / "serial"))
        point_bytes = 3 * 32 * 60 * 70 * 8

        tracemalloc.start()
        try:
            pooled = run_report(compiled, store=ResultStore(tmp_path / "pool"),
                                jobs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pooled.n_executed == 96 and pooled.n_loaded == 0
        assert [r.values for r in pooled.rows] == \
            [r.values for r in serial.rows]
        assert peak < 2.5 * point_bytes, peak / point_bytes


class TestArtifacts:
    @pytest.fixture(scope="class")
    def result(self):
        spec = make_spec(artifacts=[
            {"kind": "csv"}, {"kind": "json"}, {"kind": "npz"},
            {"kind": "ascii"},
        ])
        return run_report(compile_report(spec))

    def test_writes_all_kinds(self, result, tmp_path):
        paths = write_artifacts(result, tmp_path)
        assert [p.name for p in paths] == ["t.csv", "t.json", "t.npz", "t.txt"]
        assert (tmp_path / "viz" / "t.txt").exists()

    def test_csv_round_trips_values(self, result, tmp_path):
        import csv as csv_mod

        (path,) = write_artifacts(result, tmp_path)[:1]
        with path.open() as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == len(result.rows)
        first = result.rows[0]
        assert float(rows[0]["campaign.rate"]) == first.group["campaign.rate"]
        assert (float(rows[0]["runtime.total_runtime.mean"])
                == first.values["runtime.total_runtime.mean"])

    def test_json_document(self, result, tmp_path):
        write_artifacts(result, tmp_path)
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["provenance"]["n_tasks"] == result.n_tasks
        assert len(doc["rows"]) == len(result.rows)

    def test_npz_holds_raw_draws(self, result, tmp_path):
        write_artifacts(result, tmp_path)
        with np.load(tmp_path / "t.npz") as npz:
            assert list(npz["group/campaign.rate"]) == \
                [str(r.group["campaign.rate"]) for r in result.rows]
            draws = npz["draws/0/runtime.total_runtime"]
            assert draws.shape == (result.rows[0].n_draws,)

    def test_path_override(self, tmp_path):
        spec = make_spec(artifacts=[{"kind": "csv", "path": "sub/out.csv"}])
        result = run_report(compile_report(spec))
        (path,) = write_artifacts(result, tmp_path)
        assert path == tmp_path / "sub" / "out.csv"
