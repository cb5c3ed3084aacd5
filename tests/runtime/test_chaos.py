"""The chaos-injection harness: deterministic and transportable."""

import json
from dataclasses import asdict

import pytest

from repro.runtime import chaos
from repro.runtime.chaos import ChaosError, ChaosSpec


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"abort_rate": -0.1},
        {"abort_rate": 1.5},
        {"abort_rate": 2.0},
        {"abort_rate": -1.0},
        {"abort_rate": 1.01},
        {"abort_rate": float("inf")},
        {"abort_rate": float("nan")},  # would silently never fire
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_json_roundtrip(self):
        spec = ChaosSpec(seed=7, abort_rate=0.25)
        assert ChaosSpec.from_json(json.dumps(asdict(spec))) == spec

    def test_unknown_json_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos spec fields"):
            ChaosSpec.from_json('{"seed": 1, "segfault_rate": 0.5}')
        # Fields of retired fault kinds fail loudly, not silently.
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosSpec.from_json('{"seed": 1, "crash_rate": 0.5}')
        with pytest.raises(ValueError, match="max_faults_per_task"):
            ChaosSpec.from_json('{"seed": 1, "max_faults_per_task": 1}')

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError):
            ChaosSpec.from_json('[1, 2]')


class TestDeterminism:
    def test_roll_is_pure(self):
        spec = ChaosSpec(seed=3, abort_rate=0.5)
        assert spec.roll("abc") == spec.roll("abc")

    def test_roll_varies_with_every_input(self):
        spec = ChaosSpec(seed=3)
        base = spec.roll("abc")
        assert base != spec.roll("abd")
        assert base != ChaosSpec(seed=4).roll("abc")

    def test_rolls_are_roughly_uniform(self):
        spec = ChaosSpec(seed=0)
        rolls = [spec.roll(f"task{i}") for i in range(500)]
        assert all(0.0 <= r < 1.0 for r in rolls)
        assert 0.4 < sum(rolls) / len(rolls) < 0.6


class TestInstallation:
    def test_install_and_active(self):
        spec = ChaosSpec(seed=1, abort_rate=0.5)
        chaos.install(spec)
        assert chaos.active() is spec
        chaos.uninstall()
        assert chaos.active() is None

    def test_env_var_loads_lazily(self, monkeypatch):
        spec = ChaosSpec(seed=9, abort_rate=0.25)
        monkeypatch.setenv(chaos.ENV_VAR, json.dumps(asdict(spec)))
        chaos.uninstall()  # forget any prior env lookup
        assert chaos.active() == spec

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR,
                           json.dumps(asdict(ChaosSpec(seed=9, abort_rate=1.0))))
        override = ChaosSpec(seed=1)
        chaos.install(override)
        assert chaos.active() is override


class TestInjection:
    def test_noop_without_spec(self):
        chaos.maybe_inject(["k"])  # no raise

    def test_abort_degrades_to_error_outside_a_worker(self):
        # In the parent (serial backend) an injected abort must never
        # os._exit the campaign driver.
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0))
        with pytest.raises(ChaosError, match="degraded to exception"):
            chaos.maybe_inject(["k"])

    def test_block_injection_faults_on_any_member(self):
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0))
        with pytest.raises(ChaosError, match="for task a$"):
            chaos.maybe_inject(["a", "b"])
        chaos.maybe_inject([])  # empty block never faults
