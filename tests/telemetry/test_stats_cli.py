"""End-to-end telemetry acceptance: profiled runs through the real CLI.

The headline contract (ISSUE 6): a 64-draw forced-DAG sweep run with
``--profile --telemetry-out`` produces a JSONL file from which
``repro stats summarize`` reports the structure-cache hit rate, the
store hit rate, and a per-phase breakdown covering >= 90% of the wall
time.  Worker-process telemetry must merge back through the executor's
result channel for ``--jobs N``.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios.cli import scenario_main
from repro.sim import clear_dag_cache
from repro.telemetry.cli import stats_main
from repro.telemetry.sinks import read_jsonl

SWEEP_64 = """\
description = "64-draw forced-DAG acceptance sweep"
n_ranks = 8
n_steps = 10
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
model = "none"

[campaign]
rate = 0.01
phases_low = 2.0
phases_high = 8.0

[sweep]
replicates = 32

[[sweep.axes]]
path = "campaign.rate"
values = [0.01, 0.05]
"""


@pytest.fixture
def sweep_toml(tmp_path):
    path = tmp_path / "sweep64.toml"
    path.write_text(SWEEP_64)
    return path


class TestAcceptance:
    def test_64_draw_forced_dag_sweep_profile_summarize(
            self, sweep_toml, tmp_path, capsys):
        """The ISSUE acceptance criterion, end to end through the CLI."""
        clear_dag_cache()  # the hit rate below needs one cold build
        out = tmp_path / "run.jsonl"
        assert scenario_main([
            "sweep", str(sweep_toml), "--engine", "dag",
            "--cache-dir", str(tmp_path / "store"),
            "--profile", "--telemetry-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "telemetry summary" in printed
        assert out.exists()

        assert stats_main(["summarize", str(out), "--json"]) == 0
        s = json.loads(capsys.readouterr().out)

        # structure-cache hit rate: every batched block after the first
        # reuses the one cold build (batching already amortizes build_dag
        # within a block, so the draw count does not inflate the rate)
        assert s["dag_cache_hit_rate"] is not None
        assert 0.0 < s["dag_cache_hit_rate"] < 1.0
        # store hit rate is reported (cold run: all misses)
        assert s["store_hit_rate"] == 0.0
        assert s["counters"]["store.get.misses"] == 64
        assert s["counters"]["store.puts"] == 64
        # per-phase breakdown sums to within 10% of total wall time
        pb = s["phase_breakdown"]
        assert pb["root"] == "scenario.sweep"
        assert pb["coverage"] is not None
        assert pb["coverage"] >= 0.90
        assert sum(p["total_s"] for p in pb["phases"].values()) == \
            pytest.approx(pb["coverage"] * pb["total_s"])
        # the hot engine path was actually instrumented
        span_names = {r["name"] for r in s["spans_by_name"]}
        assert "engine.dag.propagate" in span_names
        assert "campaign.run" in span_names

    def test_warm_rerun_reports_full_store_hit_rate(
            self, sweep_toml, tmp_path, capsys):
        store = tmp_path / "store"
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        for out in (cold, warm):
            assert scenario_main([
                "sweep", str(sweep_toml), "--engine", "dag",
                "--cache-dir", str(store), "--telemetry-out", str(out),
            ]) == 0
        capsys.readouterr()
        assert stats_main(["summarize", str(warm), "--json"]) == 0
        s = json.loads(capsys.readouterr().out)
        assert s["store_hit_rate"] == 1.0
        assert s["counters"]["store.get.hits"] == 64
        assert s["campaign_cache_hit_rate"] == 1.0

    def test_profiled_run_persists_record_next_to_store(
            self, sweep_toml, tmp_path, capsys):
        """--profile with a cache dir drops a telemetry record under
        <cache-dir>/telemetry/<run id>.jsonl, outside the store's record
        globs."""
        from repro.obs.ledger import RunLedger

        store = tmp_path / "store"
        assert scenario_main([
            "sweep", str(sweep_toml), "--engine", "dag",
            "--cache-dir", str(store), "--profile",
        ]) == 0
        records = list((store / "telemetry").glob("*.jsonl"))
        (run,) = RunLedger(store).records()
        assert records == [store / "telemetry" / f"{run['id']}.jsonl"]
        snap = read_jsonl(records[0])
        assert snap["meta"]["label"] == "scenario.sweep"
        # the store itself does not see the telemetry file as a record
        from repro.runtime.store import ResultStore

        assert len(list(ResultStore(store).entries())) == 64


class TestWorkerMerge:
    def test_jobs_2_worker_spans_merge_into_one_file(
            self, sweep_toml, tmp_path, capsys):
        """Worker-process recorders come back through the executor's
        result channel: block/task spans land under campaign.run."""
        out = tmp_path / "run.jsonl"
        assert scenario_main([
            "sweep", str(sweep_toml), "--engine", "dag", "--jobs", "2",
            "--telemetry-out", str(out),
        ]) == 0
        snap = read_jsonl(out)
        spans = {s[0]: s for s in snap["spans"]}
        by_name = {}
        for s in snap["spans"]:
            by_name.setdefault(s[2], []).append(s)
        campaign_ids = {s[0] for s in by_name["campaign.run"]}
        # every worker block span was re-rooted under the campaign span
        assert by_name["executor.block"]
        for block in by_name["executor.block"]:
            assert block[1] in campaign_ids
        # (fully batched sweeps have no singleton task spans; any that do
        # appear must sit under their block)
        for task in by_name.get("executor.task", []):
            assert spans[task[1]][2] == "executor.block"
        # queue-wait distribution survives the merge
        assert snap["hists"]["executor.queue_wait_s"][0] >= \
            len(by_name["executor.block"])
        assert snap["gauges"]["executor.jobs"] == 2
        # engine spans recorded inside the workers made it back too
        assert by_name["engine.dag.propagate"]

    def test_jobs_2_ledger_record_matches_its_telemetry_file(
            self, sweep_toml, tmp_path, capsys):
        """The record's phases and counters are the ones the profiled
        JSONL gives, worker snapshots included."""
        from repro.obs.ledger import RunLedger
        from repro.telemetry.sinks import phase_breakdown

        store = tmp_path / "store"
        assert scenario_main([
            "sweep", str(sweep_toml), "--engine", "dag", "--jobs", "2",
            "--cache-dir", str(store), "--profile", "--no-progress",
        ]) == 0
        (record,) = RunLedger(store).records()
        snap = read_jsonl(record["telemetry"])
        phases = phase_breakdown(snap)["phases"]
        assert record["phases"].keys() == phases.keys()
        assert "campaign.run" in phases
        for name, phase in phases.items():
            assert record["phases"][name] == pytest.approx(
                phase["total_s"], abs=1e-6)
        assert record["counters"] == snap["counters"]
        assert record["counters"]["store.puts"] == 64

    def test_unprofiled_run_records_phases_and_counters(
            self, sweep_toml, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        store = tmp_path / "store"
        for _ in range(2):
            assert scenario_main([
                "sweep", str(sweep_toml), "--engine", "dag",
                "--cache-dir", str(store), "--no-progress",
            ]) == 0
        cold, warm = RunLedger(store).records()
        assert cold["telemetry"] is None
        assert "campaign.run" in cold["phases"]
        assert cold["counters"]["store.get.misses"] == 64
        assert warm["counters"]["store.get.hits"] == 64
        assert not (store / "telemetry").exists()

    def test_jobs_2_profiled_values_identical_to_unprofiled_serial(
            self, sweep_toml):
        """Profiling a parallel sweep changes nothing about the results."""
        from repro import telemetry
        from repro.scenarios import run_scenario_sweep
        from repro.scenarios.registry import load_scenario_file

        spec = load_scenario_file(sweep_toml)
        serial = run_scenario_sweep(spec, engine="dag", jobs=1)
        telemetry.enable()
        try:
            parallel = run_scenario_sweep(spec, engine="dag", jobs=2)
        finally:
            telemetry.disable()
        assert parallel.campaign.values() == serial.campaign.values()
        assert parallel.points == serial.points


class TestStatsCli:
    @pytest.fixture
    def run_file(self, sweep_toml, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert scenario_main([
            "sweep", str(sweep_toml), "--engine", "dag",
            "--cache-dir", str(tmp_path / "store"),
            "--telemetry-out", str(out),
        ]) == 0
        capsys.readouterr()
        return out

    def test_show_renders_span_tree(self, run_file, capsys):
        assert stats_main(["show", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario.sweep" in out
        assert "  campaign.run" in out  # indented child

    def test_show_max_depth_truncates(self, run_file, capsys):
        assert stats_main(["show", str(run_file), "--max-depth", "0"]) == 0
        out = capsys.readouterr().out
        assert "scenario.sweep" in out
        assert "campaign.run" not in out

    def test_summarize_human_readable(self, run_file, capsys):
        assert stats_main(["summarize", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "cache hit rates" in out

    def test_routed_through_main_cli(self, run_file, capsys):
        """`repro-experiment stats ...` reaches stats_main via argv[0]."""
        assert main(["stats", "summarize", str(run_file)]) == 0
        assert "telemetry summary" in capsys.readouterr().out

    def test_show_meta_only_file_fails_cleanly(self, tmp_path, capsys):
        """A bare meta line means the run recorded nothing — say so and
        exit nonzero instead of rendering an empty tree."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps(
            {"type": "meta", "version": 1, "label": ""}) + "\n")
        assert stats_main(["show", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "stats error" in err
        assert "no telemetry events" in err

    @pytest.mark.parametrize("command", ["show", "summarize"])
    def test_zero_byte_file_fails_cleanly(self, command, tmp_path, capsys):
        empty = tmp_path / "zero.jsonl"
        empty.write_text("")
        assert stats_main([command, str(empty)]) == 1
        assert "stats error" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert stats_main(["show", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "stats error" in err
        assert "cannot read" in err

    def test_non_jsonl_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert stats_main(["summarize", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "stats error" in err
        assert "not telemetry JSONL" in err

    @pytest.mark.parametrize("argv", [
        ["diff", "a.jsonl", "b.jsonl"],
        ["summarize", "a.jsonl", "--store", "store"],
    ])
    def test_removed_commands_are_rejected(self, argv):
        """Runs are compared with `runs diff`, and the store's size is
        `store ls`'s job."""
        with pytest.raises(SystemExit) as exc:
            stats_main(argv)
        assert exc.value.code == 2
