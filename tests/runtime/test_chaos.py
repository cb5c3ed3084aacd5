"""The chaos-injection harness: deterministic, bounded, transportable."""

import os

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
        {"torn_write_rate": -1.0},
        {"torn_write_rate": 1.01},
        {"max_faults_per_task": -1},
        {"abort_rate": float("nan")},  # would silently never fire
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_json_roundtrip(self):
        spec = ChaosSpec(seed=7, abort_rate=0.25, torn_write_rate=0.1,
                         max_faults_per_task=2)
        assert ChaosSpec.from_json(spec.to_json()) == spec

    def test_unknown_json_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos spec fields"):
            ChaosSpec.from_json('{"seed": 1, "segfault_rate": 0.5}')
        # Fields of retired fault kinds fail loudly, not silently.
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosSpec.from_json('{"seed": 1, "crash_rate": 0.5}')

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError):
            ChaosSpec.from_json('[1, 2]')


class TestDeterminism:
    def test_roll_is_pure(self):
        spec = ChaosSpec(seed=3, abort_rate=0.5)
        assert spec.roll("abort", "abc", 0) == spec.roll("abort", "abc", 0)

    def test_roll_varies_with_every_input(self):
        spec = ChaosSpec(seed=3)
        base = spec.roll("abort", "abc", 0)
        assert base != spec.roll("abort", "abc", 1)
        assert base != spec.roll("abort", "abd", 0)
        assert base != spec.roll("torn", "abc", 0)
        assert base != ChaosSpec(seed=4).roll("abort", "abc", 0)

    def test_rolls_are_roughly_uniform(self):
        spec = ChaosSpec(seed=0)
        rolls = [spec.roll("abort", f"task{i}", 0) for i in range(500)]
        assert all(0.0 <= r < 1.0 for r in rolls)
        assert 0.4 < sum(rolls) / len(rolls) < 0.6


class TestFaultsFor:
    def test_max_faults_bounds_injection(self):
        spec = ChaosSpec(seed=0, abort_rate=1.0, max_faults_per_task=2)
        assert spec.aborts("k", 0)
        assert spec.aborts("k", 1)
        # The third dispatch runs clean: a bound below quarantine_after
        # heals under pool respawn.
        assert not spec.aborts("k", 2)


class TestInstallation:
    def test_install_and_active(self):
        spec = ChaosSpec(seed=1, abort_rate=0.5)
        chaos.install(spec)
        assert chaos.active() is spec
        chaos.uninstall()
        assert chaos.active() is None

    def test_env_var_loads_lazily(self, monkeypatch):
        spec = ChaosSpec(seed=9, abort_rate=0.25)
        monkeypatch.setenv(chaos.ENV_VAR, spec.to_json())
        chaos.uninstall()  # forget any prior env lookup
        assert chaos.active() == spec

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR,
                           ChaosSpec(seed=9, abort_rate=1.0).to_json())
        override = ChaosSpec(seed=1)
        chaos.install(override)
        assert chaos.active() is override


class TestInjection:
    def test_noop_without_spec(self):
        chaos.maybe_inject("k", 0)  # no raise

    def test_abort_degrades_to_error_outside_a_worker(self):
        # In the parent (serial backend) an injected abort must never
        # os._exit the campaign driver.
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0))
        with pytest.raises(ChaosError, match="degraded to exception"):
            chaos.maybe_inject("k", 0)

    def test_clean_attempt_beyond_fault_budget(self):
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0,
                                max_faults_per_task=1))
        chaos.maybe_inject("k", 1)  # attempt 1 runs clean

    def test_block_injection_faults_on_any_member(self):
        chaos.install(ChaosSpec(seed=0, abort_rate=1.0))
        with pytest.raises(ChaosError, match="task a attempt 0"):
            chaos.maybe_inject_block(["a", "b"])
        chaos.maybe_inject_block([])  # empty block never faults


class TestTornWrite:
    def test_disabled_without_rate(self):
        chaos.install(ChaosSpec(seed=0))
        assert chaos.torn_shard_write("shard-0") is False

    def test_fires_deterministically_when_certain(self):
        chaos.install(ChaosSpec(seed=0, torn_write_rate=1.0))
        assert chaos.torn_shard_write("shard-0") is True
