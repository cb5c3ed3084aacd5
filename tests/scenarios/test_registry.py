"""Bundled scenario registry: every shipped file must load and compile."""

import pytest

from repro.scenarios import (
    ScenarioError,
    bundled_scenario_names,
    compile_scenario,
    load_bundled_scenario,
    resolve_scenario,
    scenario_sweep_spec,
)


def bundled_scenarios():
    return [load_bundled_scenario(name) for name in bundled_scenario_names()]


class TestBundled:
    def test_at_least_eight_scenarios(self):
        assert len(bundled_scenario_names()) >= 8

    def test_every_bundled_scenario_compiles(self):
        for spec in bundled_scenarios():
            compiled = compile_scenario(spec)
            assert compiled.engine in ("lockstep", "dag")
            if spec.sweep is not None:
                sweep = scenario_sweep_spec(spec)
                assert sweep.size == spec.sweep.size

    def test_descriptions_present(self):
        for spec in bundled_scenarios():
            assert spec.description, f"{spec.name} has no description"

    def test_novel_configurations_present(self):
        # The two headline scenarios no EXPERIMENTS entry can express.
        names = bundled_scenario_names()
        assert "meggie_bimodal_rendezvous_campaign" in names
        assert "hybrid_desync_sweep" in names

        meggie = load_bundled_scenario("meggie_bimodal_rendezvous_campaign")
        assert meggie.comm.protocol == "rendezvous"
        assert meggie.comm.direction == "bidirectional"
        assert meggie.noise.model == "natural"
        assert meggie.campaign is not None

        hybrid = load_bundled_scenario("hybrid_desync_sweep")
        assert hybrid.sweep is not None
        assert any(a.path == "workload.threads" for a in hybrid.sweep.axes)

    def test_hierarchical_scenario_present(self):
        # At least one bundled scenario exercises hierarchical placement
        # (the two-tier path of the lockstep engine, DAG-checkable).
        assert any(s.machine.ppn is not None for s in bundled_scenarios())
        assert all(compile_scenario(s).engine == "lockstep"
                   for s in bundled_scenarios())

    def test_names_sorted_and_unique(self):
        names = bundled_scenario_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_json_stem_dedupes_against_toml(self, monkeypatch, tmp_path):
        import repro.reports.registry as report_registry
        import repro.scenarios.registry as registry

        (tmp_path / "a.toml").write_text("n_ranks = 4\nn_steps = 2\n")
        (tmp_path / "a.json").write_text('{"n_ranks": 4, "n_steps": 2}')
        (tmp_path / "b.json").write_text('{"n_ranks": 4, "n_steps": 2}')
        monkeypatch.setattr(registry.SCENARIO_FILES, "bundled_dir", tmp_path)
        monkeypatch.setattr(report_registry.REPORT_FILES, "bundled_dir",
                            tmp_path)
        assert registry.bundled_scenario_names() == ["a", "b"]
        assert report_registry.bundled_report_names() == ["a", "b"]

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="unknown bundled scenario"):
            load_bundled_scenario("nope")


class TestResolve:
    def test_resolves_bundled_name(self):
        assert resolve_scenario("fig4_single_delay").name == "fig4_single_delay"

    def test_resolves_path(self, tmp_path):
        path = tmp_path / "mine.toml"
        path.write_text("n_ranks = 4\nn_steps = 2\n")
        assert resolve_scenario(str(path)).name == "mine"

    def test_missing_path_is_an_error(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            resolve_scenario("no/such/file.toml")
