"""Golden-trace regression tests: absolute engine timestamps, pinned.

Property tests guard that the engines agree with *each other*; the golden
corpus (``tests/golden/*.json``, regenerated via ``python -m repro golden
--regen``) guards that they still produce the *same numbers* as when the
fixtures were recorded — a joint drift of both engines cannot hide.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.golden import (
    GOLDEN_RTOL,
    golden_cases,
    compute_golden_record,
    verify_golden_record,
    write_golden_corpus,
)

GOLDEN_DIR = Path(__file__).parents[1] / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_replays_exactly(path):
    verify_golden_record(load(path))


class TestCorpusShape:
    def test_fixtures_exist_for_every_case(self):
        assert {p.stem for p in FIXTURES} == {c.name for c in golden_cases()}

    def test_corpus_covers_both_engines(self):
        engines = {load(p)["engine"] for p in FIXTURES}
        assert engines == {"lockstep", "dag"}

    def test_corpus_covers_hierarchical_placement(self):
        assert any(
            load(p)["scenario"].get("machine", {}).get("ppn") is not None
            for p in FIXTURES
        )

    def test_corpus_covers_a_delay_campaign(self):
        assert any("campaign" in load(p)["scenario"] for p in FIXTURES)

    def test_fixture_matrices_have_declared_shape(self):
        for path in FIXTURES:
            record = load(path)
            shape = (record["n_ranks"], record["n_steps"])
            assert np.asarray(record["completion"]).shape == shape
            assert np.asarray(record["exec_end"]).shape == shape


class TestRegenRoundTrip:
    def test_checked_in_fixtures_match_regenerated_corpus(self, tmp_path):
        """The corpus definitions and the checked-in fixtures agree.

        Guards drift between ``repro.golden.golden_cases`` and
        ``tests/golden/``: an edited case without a ``--regen``, or a
        hand-edited fixture, fails here.  Matrices compare within the
        golden tolerance (not byte equality) so the test is robust to
        last-ulp noise-stream differences across numpy builds.
        """
        paths = write_golden_corpus(tmp_path)
        assert {p.name for p in paths} == {p.name for p in FIXTURES}
        for fresh_path in paths:
            fresh = load(fresh_path)
            checked_in = load(GOLDEN_DIR / fresh_path.name)
            for key in ("name", "scenario", "seed", "engine",
                        "requested_engine", "n_ranks", "n_steps"):
                assert fresh[key] == checked_in[key], (
                    f"{fresh_path.name}: field {key!r} drifted — regenerate "
                    "with 'python -m repro golden --regen'"
                )
            np.testing.assert_allclose(
                np.asarray(fresh["completion"]),
                np.asarray(checked_in["completion"]),
                rtol=GOLDEN_RTOL, atol=0.0,
            )

    def test_tampered_fixture_is_detected(self):
        record = load(FIXTURES[0])
        record["completion"][0][0] += 1e-3
        with pytest.raises(AssertionError):
            verify_golden_record(record)

    def test_wrong_engine_dispatch_is_detected(self):
        record = compute_golden_record(golden_cases()[0])
        record["engine"] = "dag" if record["engine"] == "lockstep" else "lockstep"
        with pytest.raises(AssertionError, match="dispatched"):
            verify_golden_record(record)


class TestBatchedPathsReproduceGolden:
    """The batched engine paths replay every fixture within tolerance.

    The corpus was recorded through the serial ``run_scenario`` path;
    ``run_scenario_batch`` — the lockstep recurrence for auto-dispatched
    fixtures, one batched ``StaticDag`` propagation for the forced-DAG
    fixture — must reproduce the same timestamps even when the golden
    seed is buried inside a larger batch.
    """

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_batched_run_matches_fixture(self, path):
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.runner import run_scenario_batch
        from repro.scenarios.spec import ScenarioSpec

        record = load(path)
        seeds = [record["seed"], record["seed"] + 1, record["seed"] + 2]
        runs = run_scenario_batch(
            compile_scenario(ScenarioSpec.from_dict(record["scenario"]),
                             engine=record["requested_engine"]),
            seeds,
        )
        assert runs[0].compiled.engine == record["engine"]
        np.testing.assert_allclose(
            runs[0].timing.completion, np.asarray(record["completion"]),
            rtol=GOLDEN_RTOL, atol=0.0,
            err_msg=f"golden {record['name']}: batched completion drifted",
        )
        np.testing.assert_allclose(
            runs[0].timing.exec_end, np.asarray(record["exec_end"]),
            rtol=GOLDEN_RTOL, atol=0.0,
            err_msg=f"golden {record['name']}: batched exec_end drifted",
        )

    @pytest.mark.parametrize(
        "path",
        [p for p in FIXTURES if load(p)["engine"] == "dag"],
        ids=lambda p: p.stem,
    )
    def test_dag_fixture_batches_bitwise_with_serial(self, path):
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.runner import run_scenario, run_scenario_batch
        from repro.scenarios.spec import ScenarioSpec

        record = load(path)
        spec = ScenarioSpec.from_dict(record["scenario"])
        seeds = [record["seed"], record["seed"] + 7]
        batched = run_scenario_batch(compile_scenario(spec, engine="dag"),
                                     seeds)
        for seed, run in zip(seeds, batched):
            serial = run_scenario(spec, seed=seed, engine="dag")
            assert np.array_equal(run.timing.completion,
                                  serial.timing.completion)
            assert np.array_equal(run.timing.idle, serial.timing.idle)
            assert run.data == serial.data


class TestGoldenCli:
    def test_check_passes_on_checked_in_corpus(self, capsys):
        from repro.cli import main

        assert main(["golden", "--check", "--dir", str(GOLDEN_DIR)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_regen_writes_all_fixtures(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["golden", "--regen", "--dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*.json"))) == len(golden_cases())

    def test_check_on_empty_dir_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["golden", "--check", "--dir", str(tmp_path)]) == 2
