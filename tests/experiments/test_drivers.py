"""Smoke + shape tests for every experiment driver.

Each driver must run in its fast variant and produce the paper's
qualitative shape; the render must be printable text.
"""

import math

import pytest

from repro.experiments import EXPERIMENTS, run_experiment


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_driver_runs_and_renders(name):
    if name in ("fig1", "fig2"):
        pytest.skip("covered by the dedicated shape tests below (slow)")
    result = run_experiment(name, fast=True)
    text = result.render()
    assert result.name == name
    assert result.tables
    assert isinstance(text, str) and len(text) > 100


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


class TestFig3Shape:
    def test_means_and_bimodality(self):
        r = run_experiment("fig3", fast=True)
        hists = r.data["histograms"]
        emmy_on = hists["Emmy (InfiniBand) / SMT on"]
        meggie_on = hists["Meggie (Omni-Path) / SMT on"]
        meggie_off = hists["Meggie (Omni-Path) / SMT off"]
        assert emmy_on.mean == pytest.approx(2.4e-6, rel=0.1)
        assert meggie_on.mean == pytest.approx(2.8e-6, rel=0.1)
        assert meggie_off.is_bimodal(min_separation=100e-6)
        second = meggie_off.modes(min_separation=100e-6)[1]
        assert second == pytest.approx(660e-6, rel=0.1)


class TestFig4Shape:
    def test_speed_matches_model(self):
        r = run_experiment("fig4", fast=True)
        assert r.data["speed"] == pytest.approx(r.data["model_speed"], rel=0.01)
        assert r.data["downward_reach"] == 0


class TestFig5Shape:
    def test_all_eight_panels_present(self):
        r = run_experiment("fig5", fast=True)
        assert len(r.data) == 8

    def test_rendezvous_bidirectional_doubles(self):
        r = run_experiment("fig5", fast=True)
        v_uni = r.data["(e) rdv uni open"]["speed_up"]
        v_bi = r.data["(g) rdv bi open"]["speed_up"]
        assert v_bi / v_uni == pytest.approx(2.0, rel=0.02)

    def test_cancellation_rank_matches_paper(self):
        r = run_experiment("fig5", fast=True)
        assert r.data["(d) eager bi periodic"]["meeting_ranks"] == [14]


class TestFig6Shape:
    def test_resync_ordering(self):
        r = run_experiment("fig6", fast=True)
        equal = r.data["equal"]["resync_step"]
        half = r.data["half"]["resync_step"]
        rand = r.data["random"]["resync_step"]
        assert equal is not None and half is not None
        assert equal < half
        assert rand is None

    def test_all_defects_negative(self):
        r = run_experiment("fig6", fast=True)
        for scenario in ("equal", "half", "random"):
            assert r.data[scenario]["superposition_defect"] < 0


class TestFig7Shape:
    def test_ratio_two(self):
        r = run_experiment("fig7", fast=True)
        assert r.data["ratio"] == pytest.approx(2.0, rel=0.01)

    def test_speeds_match_eq2(self):
        r = run_experiment("fig7", fast=True)
        for panel in ("(a) unidirectional", "(b) bidirectional"):
            d = r.data[panel]
            assert d["speed"] == pytest.approx(d["model"], rel=0.01), panel


class TestEq2Shape:
    def test_max_error_below_one_percent(self):
        r = run_experiment("eq2", fast=True)
        assert r.data["max_error_pct"] < 1.0


class TestFig8Shape:
    def test_positive_correlation_everywhere(self):
        r = run_experiment("fig8", fast=True)
        for system, series in r.data["series"].items():
            medians = [pt["stats"].median for pt in series]
            assert medians[-1] > medians[0] > 0, system


class TestFig9Shape:
    def test_elimination_trend(self):
        r = run_experiment("fig9", fast=True)
        points = r.data["points"]
        assert points[0].excess == pytest.approx(r.data["delay"], rel=0.01)
        assert points[-1].excess < points[0].excess
