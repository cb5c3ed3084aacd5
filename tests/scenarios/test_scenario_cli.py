"""The scenario CLI subcommands (driven through repro.cli.main)."""

import json

import pytest

from repro.cli import main
from repro.scenarios.cli import build_scenario_parser


class TestList:
    def test_lists_bundled_scenarios(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4_single_delay" in out
        assert "meggie_bimodal_rendezvous_campaign" in out

    def test_json_output(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert by_name["campaign_rate_sweep"]["sweep_size"] > 1

    def test_json_reports_resolved_engine_per_scenario(self, capsys):
        """``list --json`` states the engine each scenario dispatches to —
        the compiler's actual resolution, not a side heuristic."""
        from repro.scenarios import compile_scenario, load_bundled_scenario

        assert main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows, "list --json returned no scenarios"
        for row in rows:
            assert row["engine"] == \
                compile_scenario(load_bundled_scenario(row["name"])).engine
        by_name = {r["name"]: r for r in rows}
        # hierarchical placement now resolves to the lockstep engine
        assert by_name["emmy_mapped_dag"]["engine"] == "lockstep"


NON_FINITE = {
    "nan_duration": "[[delays]]\nrank = 1\nduration = nan\n",
    "inf_duration": "[[delays]]\nrank = 1\nduration = inf\n",
    "inf_t_exec": "[workload]\nt_exec = inf\n",
}


def write_non_finite(tmp_path, case):
    path = tmp_path / f"{case}.toml"
    path.write_text('n_ranks = 6\nn_steps = 4\noutputs = ["runtime", "timeline"]\n'
                    + NON_FINITE[case])
    return path


class TestValidate:
    def test_all_bundled_valid(self, capsys):
        assert main(["scenario", "validate"]) == 0
        assert "failed" not in capsys.readouterr().out

    def test_invalid_file_fails_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("n_ranks = 1\nn_steps = 4\n")
        assert main(["scenario", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "n_ranks" in out

    def test_mixed_batch_reports_each(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("nope = true\n")
        assert main(["scenario", "validate", "fig4_single_delay",
                     str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok    fig4_single_delay" in out
        assert "1/2 scenario(s) failed" in out

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_value_fails(self, tmp_path, capsys, case):
        path = write_non_finite(tmp_path, case)
        assert main(["scenario", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL  {path}" in out and "must be finite, got" in out


class TestRun:
    def test_run_bundled(self, capsys):
        assert main(["scenario", "run", "fig4_single_delay"]) == 0
        out = capsys.readouterr().out
        assert "wave_speed" in out and "engine=lockstep" in out

    def test_run_sweep_scenario_routes_through_runtime(self, capsys):
        assert main(["scenario", "run", "campaign_rate_sweep"]) == 0
        assert "scenario sweep" in capsys.readouterr().out

    def test_run_user_file(self, tmp_path, capsys):
        path = tmp_path / "mine.toml"
        path.write_text(
            'n_ranks = 6\nn_steps = 4\noutputs = ["runtime"]\n'
        )
        assert main(["scenario", "run", str(path)]) == 0
        assert "scenario mine" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown bundled scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_value_exits_2(self, tmp_path, capsys, case):
        assert main(["scenario", "run", str(write_non_finite(tmp_path, case))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "must be finite, got" in err
        assert "Traceback" not in err

    def test_engine_override(self, capsys):
        assert main(["scenario", "run", "fig4_single_delay",
                     "--engine", "dag"]) == 0
        assert "engine=dag" in capsys.readouterr().out


class TestSweep:
    def test_sweep_with_cache(self, tmp_path, capsys):
        cache = tmp_path / "store"
        assert main(["scenario", "sweep", "campaign_rate_sweep", "--jobs", "2",
                     "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "12 executed on 2 worker(s)" in out
        assert cache.exists()
        # Warm rerun: everything from the store.
        assert main(["scenario", "sweep", "campaign_rate_sweep",
                     "--cache-dir", str(cache)]) == 0
        assert "12 cached, 0 executed" in capsys.readouterr().out

    def test_sweep_of_single_point_scenario(self, capsys):
        assert main(["scenario", "sweep", "fig4_single_delay"]) == 0
        assert "1 runs" in capsys.readouterr().out


class TestParserHardening:
    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_scenario_parser().parse_args(
                ["sweep", "campaign_rate_sweep", "--jobs", "-1"])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_scenario_parser().parse_args(["frobnicate"])
