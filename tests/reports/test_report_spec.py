"""Tests for report spec parsing and validation."""

import pytest

from repro.reports import ReportError, ReportSpec
from repro.reports.registry import load_report_file, parse_report_text

MINIMAL = {
    "name": "r",
    "scenario": "fig4_single_delay",
    "metrics": [{"name": "runtime"}],
}


def doc(**overrides) -> dict:
    """Minimal valid document with overrides; a ``None`` drops the key."""
    out = {k: v for k, v in MINIMAL.items()}
    out.update(overrides)
    return {k: v for k, v in out.items() if v is not None}


class TestParsing:
    def test_minimal_document(self):
        spec = ReportSpec.from_dict(doc())
        assert spec.scenarios == ("fig4_single_delay",)
        assert spec.aggregate == ("mean",)
        assert spec.metrics[0].name == "runtime"
        assert spec.artifacts == ()

    def test_round_trip(self):
        spec = ReportSpec.from_dict(doc(
            description="d",
            seeds=[3, 4],
            group_by=["comm.direction"],
            aggregate=["median", "p95"],
            metrics=[{"name": "wave_speed", "alias": "speed",
                      "params": {"direction": 1}}],
            artifacts=[{"kind": "csv"}, {"kind": "ascii", "path": "x.txt"}],
        ))
        assert ReportSpec.from_dict(spec.to_dict()) == spec

    def test_multi_scenario_round_trip(self):
        spec = ReportSpec.from_dict(doc(
            scenario=None, scenarios=["a", "b"]))
        assert spec.scenarios == ("a", "b")
        assert ReportSpec.from_dict(spec.to_dict()) == spec

    def test_name_from_file_stem(self, tmp_path):
        path = tmp_path / "my_report.toml"
        path.write_text(
            'scenario = "fig4_single_delay"\n[[metrics]]\nname = "runtime"\n')
        assert load_report_file(path).name == "my_report"


class TestRejections:
    def case(self, match, **overrides):
        with pytest.raises(ReportError, match=match):
            ReportSpec.from_dict(doc(**overrides))

    def test_unknown_key(self):
        self.case("unknown key", extra=1)

    def test_scenario_and_scenarios_both(self):
        self.case("exactly one", scenarios=["a"])

    def test_neither_scenario_form(self):
        self.case("exactly one", scenario=None)

    def test_empty_scenarios(self):
        self.case("must not be empty", scenario=None, scenarios=[])

    def test_no_metrics(self):
        self.case("at least one metric", metrics=[])

    def test_duplicate_metric_labels(self):
        self.case("duplicate metric label",
                  metrics=[{"name": "runtime"}, {"name": "runtime"}])

    def test_alias_disambiguates(self):
        spec = ReportSpec.from_dict(doc(metrics=[
            {"name": "runtime"}, {"name": "runtime", "alias": "rt2"}]))
        assert [m.label for m in spec.metrics] == ["runtime", "rt2"]

    def test_bad_statistic(self):
        self.case("not a known statistic", aggregate=["p101"])
        self.case("not a known statistic", aggregate=["variance"])

    def test_percentile_statistic_accepted(self):
        spec = ReportSpec.from_dict(doc(aggregate=["p5", "p99.9", "p100"]))
        assert spec.aggregate == ("p5", "p99.9", "p100")

    def test_bad_artifact_kind(self):
        self.case("not one of", artifacts=[{"kind": "pdf"}])

    def test_bad_engine(self):
        self.case("is not one of", engine="vectorized")

    def test_empty_seeds(self):
        self.case("must not be empty", seeds=[])

    def test_duplicate_seeds(self):
        self.case("duplicate seeds", seeds=[1, 1])

    def test_non_int_seed(self):
        self.case("expected int", seeds=[1.5])

    @pytest.mark.parametrize("overrides, where, value", [
        ({"seeds": [-1, 2]}, r"seeds\[0\]", -1),
        ({"seeds": [2, -5]}, r"seeds\[1\]", -5),
        ({"base_seed": -3}, "base_seed", -3),
    ], ids=["first_seed", "second_seed", "base_seed"])
    def test_negative_seed_rejected(self, overrides, where, value):
        self.case(rf"field '{where}': must be >= 0, got {value}$", **overrides)

    @pytest.mark.parametrize("path", [
        "/abs/dir/x.csv", "../escaped.json", "nested/../../escaped.csv"])
    def test_artifact_path_outside_out_rejected(self, path):
        self.case(r"field 'artifacts\[0\]\.path': must be a relative path "
                  r"without '\.\.' components",
                  artifacts=[{"kind": "csv", "path": path}])

    def test_seeds_and_base_seed_conflict(self):
        self.case("no effect", seeds=[1], base_seed=2)

    def test_error_names_dotted_path(self):
        try:
            ReportSpec.from_dict(doc(metrics=[{"name": "runtime", "bad": 1}]))
        except ReportError as exc:
            assert "metrics[0]" in str(exc)
        else:
            pytest.fail("expected ReportError")


class TestLoader:
    def test_invalid_toml(self):
        with pytest.raises(ReportError, match="invalid TOML"):
            parse_report_text("= nope", fmt="toml", name="x")

    def test_invalid_json(self):
        with pytest.raises(ReportError, match="invalid JSON"):
            parse_report_text("{", fmt="json", name="x")

    def test_unknown_format(self):
        with pytest.raises(ReportError, match="unknown report format"):
            parse_report_text("", fmt="yaml")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "r.yaml"
        path.write_text("")
        with pytest.raises(ReportError, match="unsupported report file type"):
            load_report_file(path)

    def test_error_names_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("scenario = 3\n")
        with pytest.raises(ReportError, match="broken.toml"):
            load_report_file(path)
