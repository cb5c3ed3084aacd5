"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_all_keyword(self):
        args = build_parser().parse_args(["all", "--seed", "3"])
        assert args.experiment == "all"
        assert args.seed == 3

    def test_full_flag(self):
        assert build_parser().parse_args(["fig4", "--full"]).full
        assert not build_parser().parse_args(["fig4"]).full

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["ext_campaign", "--jobs", "4", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"

    def test_runtime_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ext_campaign", "--jobs", "-1"])
        assert "--jobs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["fig4", "all"])
    def test_negative_seed_is_a_usage_error(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err
        assert "Traceback" not in err

    def test_jobs_zero_means_auto(self):
        assert build_parser().parse_args(["ext_campaign", "--jobs", "0"]).jobs == 0


class TestListCommand:
    def test_lists_every_experiment_with_description(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "Eq. 2" in out  # a description made it through

    def test_json_output(self, capsys):
        import json

        from repro.cli import main

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["id"] for r in rows} == set(EXPERIMENTS)
        assert all(r["description"] for r in rows)


class TestMain:
    def test_runs_single_experiment(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "ranks/s" in out

    def test_seed_propagates(self, capsys):
        assert main(["fig4", "--seed", "42"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_jobs_and_cache_dir_flow_into_campaign(self, capsys, tmp_path):
        cache = tmp_path / "store"
        assert main(["ext_campaign", "--jobs", "2", "--cache-dir",
                     str(cache)]) == 0
        out = capsys.readouterr().out
        assert "16 simulated on 2 worker(s)" in out
        assert cache.exists()

        # Warm rerun: everything served from the store.
        assert main(["ext_campaign", "--cache-dir", str(cache)]) == 0
        assert "16 from cache, 0 simulated" in capsys.readouterr().out

    def test_unwritable_cache_dir_stops_before_any_experiment(
            self, capsys, tmp_path):
        blocked = tmp_path / "a-file"
        blocked.write_text("not a directory")
        assert main(["ext_campaign", "--cache-dir", str(blocked)]) == 2
        out, err = capsys.readouterr()
        assert "store error:" in err and "Traceback" not in err
        assert "ext_campaign" not in out


class TestMainFailureHandling:
    @pytest.fixture
    def broken_fig4(self, monkeypatch):
        import repro.experiments as experiments

        def boom(fast=True, seed=0, **kwargs):
            raise RuntimeError("synthetic driver failure")

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig4", boom)

    def test_single_failure_exits_nonzero(self, broken_fig4, capsys):
        assert main(["fig4"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "synthetic driver failure" in out

    def test_all_continues_past_failure_and_reports(self, broken_fig4,
                                                    monkeypatch, capsys):
        import repro.experiments as experiments

        # Shrink "all" to a failing and a passing experiment: exercising
        # every driver here would just duplicate the driver tests.
        # The CLI looks the registry up in repro.experiments on each call.
        monkeypatch.setattr(
            experiments, "EXPERIMENTS",
            {"fig4": experiments.EXPERIMENTS["fig4"],
             "eq2": experiments.EXPERIMENTS["eq2"]},
        )

        assert main(["all"]) == 1
        out = capsys.readouterr().out
        assert "eq2" in out and "completed" in out  # kept going
        assert "summary: 1/2 experiments succeeded" in out
        assert "FAILED fig4" in out
