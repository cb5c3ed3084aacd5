"""Spec parsing: strict validation with path-precise errors."""

import pytest

from repro.scenarios import ScenarioError, ScenarioSpec, apply_overrides


def minimal(**extra) -> dict:
    doc = {"name": "t", "n_ranks": 8, "n_steps": 4}
    doc.update(extra)
    return doc


class TestParsing:
    def test_minimal_document_defaults(self):
        spec = ScenarioSpec.from_dict(minimal())
        assert spec.machine.preset == "simulated"
        assert spec.workload.kind == "synthetic"
        assert spec.comm.direction == "unidirectional"
        assert spec.noise.model == "none"
        assert spec.outputs == ("runtime",)
        assert spec.sweep is None

    def test_name_from_argument(self):
        spec = ScenarioSpec.from_dict({"n_ranks": 4, "n_steps": 2}, name="from_file")
        assert spec.name == "from_file"

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioError, match="no name"):
            ScenarioSpec.from_dict({"n_ranks": 4, "n_steps": 2})

    def test_direction_aliases(self):
        spec = ScenarioSpec.from_dict(minimal(comm={"direction": "bi"}))
        assert spec.comm.direction == "bidirectional"

    def test_round_trip(self):
        doc = minimal(
            seed=9,
            machine={"preset": "meggie", "smt": "off"},
            workload={"kind": "synthetic", "t_exec": 2e-3, "threads": 4},
            comm={"direction": "bidirectional", "periodic": True,
                  "protocol": "rendezvous"},
            noise={"model": "exponential", "level": 0.1},
            delays=[{"rank": 1, "step": 0, "phases": 4.5}],
            campaign={"rate": 0.01, "phases_low": 2.0, "phases_high": 8.0},
            outputs=["runtime", "desync"],
            sweep={"replicates": 2,
                   "axes": [{"path": "campaign.rate", "values": [0.01, 0.1]}]},
        )
        spec = ScenarioSpec.from_dict(doc)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestPathPreciseErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="'bogus'"):
            ScenarioSpec.from_dict(minimal(bogus=1))

    def test_unknown_section_key_names_section(self):
        with pytest.raises(ScenarioError, match=r"machine"):
            ScenarioSpec.from_dict(minimal(machine={"presett": "emmy"}))

    def test_wrong_type_names_field(self):
        with pytest.raises(ScenarioError, match=r"workload\.t_exec"):
            ScenarioSpec.from_dict(minimal(workload={"t_exec": "fast"}))

    def test_bad_preset_choice(self):
        with pytest.raises(ScenarioError, match=r"machine\.preset"):
            ScenarioSpec.from_dict(minimal(machine={"preset": "frontier"}))

    def test_preset_and_inline_conflict(self):
        with pytest.raises(ScenarioError, match="not both"):
            ScenarioSpec.from_dict(
                minimal(machine={"preset": "emmy", "latency": 1e-6}))

    def test_inline_needs_latency_and_bandwidth(self):
        with pytest.raises(ScenarioError, match="latency.*bandwidth"):
            ScenarioSpec.from_dict(minimal(machine={"latency": 1e-6}))

    def test_smt_requires_preset(self):
        with pytest.raises(ScenarioError, match=r"machine\.smt"):
            ScenarioSpec.from_dict(
                minimal(machine={"latency": 1e-6, "bandwidth": 1e9, "smt": "on"}))

    def test_delay_needs_exactly_one_duration_form(self):
        with pytest.raises(ScenarioError, match=r"delays\[0\]"):
            ScenarioSpec.from_dict(minimal(delays=[{"rank": 1}]))
        with pytest.raises(ScenarioError, match=r"delays\[0\]"):
            ScenarioSpec.from_dict(
                minimal(delays=[{"rank": 1, "duration": 1e-3, "phases": 2.0}]))

    def test_campaign_mixed_units_rejected(self):
        with pytest.raises(ScenarioError, match="campaign"):
            ScenarioSpec.from_dict(minimal(campaign={
                "rate": 0.1, "duration_low": 1e-3, "phases_high": 2.0}))

    def test_campaign_inverted_range(self):
        with pytest.raises(ScenarioError, match=r"campaign\.phases_high"):
            ScenarioSpec.from_dict(minimal(campaign={
                "rate": 0.1, "phases_low": 5.0, "phases_high": 2.0}))

    @pytest.mark.parametrize("unit", ["duration", "phases"])
    @pytest.mark.parametrize("high", [float("nan"), float("inf")])
    def test_campaign_upper_bound_must_be_finite(self, unit, high):
        with pytest.raises(ScenarioError,
                           match=rf"campaign\.{unit}_high'?: must be finite, got {high}"):
            ScenarioSpec.from_dict(minimal(campaign={
                "rate": 0.1, f"{unit}_low": 1.0, f"{unit}_high": high}))

    @pytest.mark.parametrize("section, body, message", [
        ("workload", {"t_exec": float("inf")},
         r"workload\.t_exec'?: must be finite, got inf"),
        # A value rejected before keeps its message.
        ("workload", {"t_exec": float("-inf")},
         r"workload\.t_exec'?: must be > 0, got -inf"),
        ("noise", {"model": "exponential", "mean_delay": float("nan")},
         r"noise\.mean_delay'?: must be finite, got nan"),
    ])
    def test_non_finite_value_rejected(self, section, body, message):
        with pytest.raises(ScenarioError, match=message + "$"):
            ScenarioSpec.from_dict(minimal(**{section: body}))

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_negative_seed_rejected(self, seed):
        # NumPy seeds must be >= 0; the spec says so before a run starts.
        with pytest.raises(ScenarioError,
                           match=rf"field 'seed': must be >= 0, got {seed}$"):
            ScenarioSpec.from_dict(minimal(seed=seed))

    def test_unknown_output(self):
        with pytest.raises(ScenarioError, match=r"outputs\[1\]"):
            ScenarioSpec.from_dict(minimal(outputs=["runtime", "speed"]))

    def test_noise_param_for_wrong_model(self):
        with pytest.raises(ScenarioError, match=r"noise\.spike_delay"):
            ScenarioSpec.from_dict(
                minimal(noise={"model": "exponential", "level": 0.1,
                               "spike_delay": 1e-3}))

    def test_noise_mean_and_level_conflict(self):
        with pytest.raises(ScenarioError, match="not both"):
            ScenarioSpec.from_dict(
                minimal(noise={"model": "exponential", "level": 0.1,
                               "mean_delay": 1e-6}))

    def test_sweep_duplicate_axis(self):
        with pytest.raises(ScenarioError, match="duplicate axis"):
            ScenarioSpec.from_dict(minimal(sweep={"axes": [
                {"path": "campaign.rate", "values": [1]},
                {"path": "campaign.rate", "values": [2]},
            ]}))

    def test_sweep_empty(self):
        with pytest.raises(ScenarioError, match="at least one axis"):
            ScenarioSpec.from_dict(minimal(sweep={}))

    def test_error_names_scenario(self):
        with pytest.raises(ScenarioError, match="'t'"):
            ScenarioSpec.from_dict(minimal(n_ranks=1))


class TestOverrides:
    def test_nested_override(self):
        doc = minimal(campaign={"rate": 0.01, "phases_low": 1.0,
                                "phases_high": 2.0})
        out = apply_overrides(doc, {"campaign.rate": 0.5})
        assert out["campaign"]["rate"] == 0.5
        assert doc["campaign"]["rate"] == 0.01  # original untouched

    def test_override_creates_section(self):
        out = apply_overrides(minimal(), {"workload.threads": 4})
        assert out["workload"]["threads"] == 4

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ScenarioError, match="not a table"):
            apply_overrides(minimal(), {"n_ranks.deep": 1})

    def test_bogus_override_fails_at_parse(self):
        out = apply_overrides(minimal(), {"bogus.key": 1})
        with pytest.raises(ScenarioError, match="bogus"):
            ScenarioSpec.from_dict(out)
