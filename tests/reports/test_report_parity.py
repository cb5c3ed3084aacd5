"""Acceptance parity: the fig7/fig8 report specs reproduce the
corresponding ``experiments/`` quantities to 1e-9.

The experiment drivers and the report kernels share one measurement
implementation (the batched analyses in :mod:`repro.core`); the
remaining differences between the two paths — DAG vs. lockstep engine
for Fig. 7, per-seed vs. batched recurrence for Fig. 8, preset-collapsed
vs. literal network parameters — must all stay below 1e-9 relative.
"""

import pytest

from repro.experiments.fig7_speed_d2 import run as fig7_run
from repro.experiments.fig8_decay_rate import run as fig8_run
from repro.reports import compile_report, load_bundled_report, run_report

RTOL = 1e-9


class TestFig7Parity:
    @pytest.fixture(scope="class")
    def pair(self):
        experiment = fig7_run(fast=True, seed=0)
        report = run_report(compile_report(load_bundled_report("fig7_speed")))
        rows = {row.group["comm.direction"]: row for row in report.rows}
        return experiment, rows

    @pytest.mark.parametrize("panel,direction", [
        ("(a) unidirectional", "unidirectional"),
        ("(b) bidirectional", "bidirectional"),
    ])
    def test_measured_speed(self, pair, panel, direction):
        experiment, rows = pair
        assert rows[direction].values["wave_speed.measured_speed.mean"] == \
            pytest.approx(experiment.data[panel]["speed"], rel=RTOL)

    @pytest.mark.parametrize("panel,direction", [
        ("(a) unidirectional", "unidirectional"),
        ("(b) bidirectional", "bidirectional"),
    ])
    def test_eq2_prediction(self, pair, panel, direction):
        experiment, rows = pair
        assert rows[direction].values["wave_speed.predicted_speed.mean"] == \
            pytest.approx(experiment.data[panel]["model"], rel=RTOL)

    def test_sigma_ratio(self, pair):
        _, rows = pair
        ratio = (rows["bidirectional"].values["wave_speed.measured_speed.mean"]
                 / rows["unidirectional"].values["wave_speed.measured_speed.mean"])
        assert ratio == pytest.approx(2.0, rel=0.01)


class TestFig8Parity:
    @pytest.fixture(scope="class")
    def pair(self):
        experiment = fig8_run(fast=True, seed=0)
        report = run_report(compile_report(load_bundled_report("fig8_decay")))
        rows = {row.group["noise.level"]: row for row in report.rows}
        return experiment.data["series"]["Simulated"], rows

    def test_levels_match_fast_mode(self, pair):
        series, rows = pair
        assert sorted(rows) == [pt["E"] for pt in series]

    @pytest.mark.parametrize("stat,attr", [
        ("median", "median"), ("min", "minimum"), ("max", "maximum"),
    ])
    def test_decay_statistics(self, pair, stat, attr):
        series, rows = pair
        for point in series:
            row = rows[point["E"]]
            assert row.n_draws == 5
            assert row.values[f"decay_rate.beta.{stat}"] == \
                pytest.approx(getattr(point["stats"], attr), rel=RTOL)
