"""``scenario sweep --resume``: finish interrupted campaigns from cache."""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.runtime import ResultStore

SWEEP = "campaign_rate_sweep"  # bundled 12-task grid


def _run_ids(cache):
    return [r["id"] for r in RunLedger(cache).records()]


def _sweep(cache, *extra):
    return main(["scenario", "sweep", SWEEP,
                 "--cache-dir", str(cache), *extra])


class TestResume:
    def test_resume_finishes_only_the_missing_tasks(self, tmp_path, capsys,
                                                     interrupt_store):
        cache = tmp_path / "store"
        assert _sweep(cache) == 0
        (first_id,) = _run_ids(cache)
        capsys.readouterr()

        # Simulate an interrupted campaign: keep its first 3 records.
        assert len(list(ResultStore(cache).keys())) == 12
        interrupt_store(cache, 3)

        assert _sweep(cache, "--resume", first_id) == 0
        out = capsys.readouterr().out
        assert "3 cached, 9 executed" in out

        records = list(RunLedger(cache).records())
        assert len(records) == 2
        resumed = records[-1]
        assert resumed["resumed_from"] == first_id
        assert resumed["n_cached"] == 3
        assert resumed["n_executed"] == 9

    def test_resume_accepts_an_unambiguous_id_prefix(self, tmp_path, capsys):
        cache = tmp_path / "store"
        assert _sweep(cache) == 0
        (first_id,) = _run_ids(cache)
        assert _sweep(cache, "--resume", first_id[:12]) == 0
        records = list(RunLedger(cache).records())
        assert records[-1]["resumed_from"] == first_id

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["scenario", "sweep", SWEEP,
                     "--resume", "run-deadbeef"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_resume_of_unknown_run_id_exits_2(self, tmp_path, capsys):
        cache = tmp_path / "store"
        assert _sweep(cache) == 0
        capsys.readouterr()
        assert _sweep(cache, "--resume", "nosuchrun") == 2
        assert "no run 'nosuchrun'" in capsys.readouterr().err

    def test_resume_of_a_different_grid_is_refused(self, tmp_path, capsys):
        """Resuming under a different --seed would execute the wrong
        campaign against the old cache: the spec-key check refuses."""
        cache = tmp_path / "store"
        assert _sweep(cache) == 0
        (first_id,) = _run_ids(cache)
        capsys.readouterr()
        assert _sweep(cache, "--resume", first_id, "--seed", "999") == 2
        assert "different grid" in capsys.readouterr().err
        # No second ledger record was written for the refused run.
        assert len(_run_ids(cache)) == 1

    def test_resume_of_a_report_run_is_refused(self, tmp_path, capsys):
        """A report run's record carries no spec key, so the grid check
        alone would pass it: the kind check refuses it, and no second
        ledger record is written."""
        from repro.reports.cli import report_main

        cache = tmp_path / "store"
        assert report_main(["run", "campaign_rate_response",
                            "--cache-dir", str(cache)]) == 0
        (report_id,) = _run_ids(cache)
        capsys.readouterr()
        assert _sweep(cache, "--resume", report_id) == 2
        assert "not a scenario.sweep" in capsys.readouterr().err
        assert _run_ids(cache) == [report_id]

    def test_resume_rejected_for_non_sweep_scenarios(self, capsys):
        assert main(["scenario", "run", "fig4_single_delay",
                     "--resume", "run-deadbeef"]) == 2
        assert "only applies to sweeps" in capsys.readouterr().err


class TestStoreFailFast:
    def test_unwritable_cache_dir_exits_2_before_running(self, tmp_path,
                                                         capsys):
        bogus = tmp_path / "cache"
        bogus.write_text("a file, not a directory")
        assert _sweep(bogus) == 2
        assert "store error" in capsys.readouterr().err

    def test_blocked_shards_dir_exits_2_before_running(self, tmp_path,
                                                       capsys, monkeypatch):
        import repro.scenarios.sweep as sweep_mod

        def no_campaign(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("campaign started on an unwritable store")

        monkeypatch.setattr(sweep_mod, "run_campaign", no_campaign)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "shards").write_text("a file, not a directory")
        assert _sweep(cache) == 2
        assert "store error" in capsys.readouterr().err

    def test_a_refused_sweep_leaves_no_ledger_record(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "shards").write_text("a file, not a directory")
        assert _sweep(cache) == 2
        out, err = capsys.readouterr()
        assert "store error" in err and "recorded" not in out
        assert not list(cache.glob("runs/*.json"))
