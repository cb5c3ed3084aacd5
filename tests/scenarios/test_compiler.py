"""Compiler: preset/workload/noise resolution and engine dispatch."""

import pytest

from repro.cluster import EMMY, MEGGIE
from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    compile_scenario,
)
from repro.sim.mpi import DEFAULT_EAGER_LIMIT, Protocol
from repro.sim.noise import BimodalNoise, ExponentialNoise, NoNoise


def spec(**extra) -> ScenarioSpec:
    doc = {"name": "t", "n_ranks": 10, "n_steps": 6}
    doc.update(extra)
    return ScenarioSpec.from_dict(doc)


class TestMachineResolution:
    def test_preset_network_collapses_exactly(self):
        # Uniform extraction must reproduce Hockney on the chosen domain.
        compiled = compile_scenario(spec(machine={"preset": "emmy"}))
        from repro.sim.topology import CommDomain

        for size in (0, 8192, 1_000_000):
            assert compiled.network.transfer_time(size, CommDomain.INTER_NODE) == \
                pytest.approx(EMMY.network.transfer_time(size, CommDomain.INTER_NODE),
                              rel=1e-12)
        assert compiled.machine is EMMY

    def test_domain_selection(self):
        c = compile_scenario(spec(machine={"preset": "emmy",
                                           "domain": "intra_socket"}))
        from repro.sim.topology import CommDomain

        assert c.domain == CommDomain.INTRA_SOCKET
        assert c.network.latency == pytest.approx(3e-7)

    def test_inline_machine(self):
        c = compile_scenario(spec(machine={"latency": 1e-5, "bandwidth": 1e8}))
        assert c.machine is None
        assert c.network.latency == 1e-5
        assert c.network.bandwidth == 1e8


class TestWorkloadResolution:
    def test_divide_quantizes_t_exec(self):
        c = compile_scenario(spec(machine={"preset": "meggie"},
                                  workload={"kind": "divide", "t_exec": 3e-3}))
        per_instr = MEGGIE.cpu.vdivpd_cycles / MEGGIE.cpu.clock_hz
        assert c.t_exec == pytest.approx(3e-3, rel=1e-3)
        assert (c.t_exec / per_instr) == pytest.approx(round(c.t_exec / per_instr))

    def test_stream_derives_t_exec_and_msg_size(self):
        c = compile_scenario(spec(machine={"preset": "emmy"},
                                  workload={"kind": "stream"}))
        assert c.t_exec == pytest.approx(50_000_000 * 24 / 10 / EMMY.b_core)
        assert c.cfg.msg_size == 2_000_000
        assert c.resolved_protocol == Protocol.RENDEZVOUS  # > eager limit

    def test_lbm_checks_decomposition(self):
        with pytest.raises(ScenarioError, match=r"workload\.lbm_domain"):
            compile_scenario(spec(machine={"preset": "emmy"},
                                  workload={"kind": "lbm",
                                            "lbm_domain": [8, 50, 50]}))

    def test_machine_derived_workload_needs_preset(self):
        with pytest.raises(ScenarioError, match=r"workload\.kind"):
            compile_scenario(spec(machine={"latency": 1e-6, "bandwidth": 1e9},
                                  workload={"kind": "stream"}))


class TestNoiseResolution:
    def test_natural_uses_machine_calibration(self):
        c = compile_scenario(spec(machine={"preset": "meggie", "smt": "off"},
                                  noise={"model": "natural"}))
        assert isinstance(c.noise, BimodalNoise)
        c_on = compile_scenario(spec(machine={"preset": "meggie", "smt": "on"},
                                     noise={"model": "natural"}))
        assert isinstance(c_on.noise, ExponentialNoise)
        assert c_on.noise.mean() == pytest.approx(2.8e-6)

    def test_smt_without_natural_noise_rejected(self):
        # 'smt' only feeds the natural-noise calibration; silently
        # ignoring it would give a noise-free run the user didn't ask for.
        with pytest.raises(ScenarioError, match=r"machine\.smt"):
            compile_scenario(spec(machine={"preset": "meggie", "smt": "off"}))
        with pytest.raises(ScenarioError, match="silently"):
            compile_scenario(spec(machine={"preset": "emmy", "smt": "on"},
                                  noise={"model": "exponential", "level": 0.1}))

    def test_natural_needs_preset(self):
        with pytest.raises(ScenarioError, match=r"noise\.model"):
            compile_scenario(spec(machine={"latency": 1e-6, "bandwidth": 1e9},
                                  noise={"model": "natural"}))

    def test_level_scales_with_t_exec(self):
        c = compile_scenario(spec(workload={"t_exec": 2e-3},
                                  noise={"model": "exponential", "level": 0.25}))
        assert c.noise.mean() == pytest.approx(0.25 * 2e-3)

    def test_exponential_needs_a_mean(self):
        with pytest.raises(ScenarioError, match="mean_delay.*level"):
            compile_scenario(spec(noise={"model": "exponential"}))

    def test_none_noise(self):
        assert isinstance(compile_scenario(spec()).noise, NoNoise)


class TestEngineDispatch:
    def test_flat_scenario_goes_lockstep(self):
        assert compile_scenario(spec()).engine == "lockstep"

    def test_ppn_scenario_goes_lockstep_with_hierarchy(self):
        # Hierarchical placement no longer forces the DAG fallback: the
        # lockstep engine resolves per-message tiers through the mapping.
        c = compile_scenario(spec(machine={"preset": "emmy", "ppn": 2}))
        assert c.engine == "lockstep"
        assert c.mapping is not None
        assert c.network is EMMY.network  # per-domain model, not collapsed

    def test_forced_lockstep_on_ppn_scenario_is_allowed(self):
        c = compile_scenario(spec(machine={"preset": "emmy", "ppn": 2}),
                             engine="lockstep")
        assert c.engine == "lockstep"
        assert c.mapping is not None

    def test_forced_dag_on_ppn_scenario_keeps_per_domain_network(self):
        c = compile_scenario(spec(machine={"preset": "emmy", "ppn": 2}),
                             engine="dag")
        assert c.engine == "dag"
        assert c.network is EMMY.network

    def test_forced_dag_on_eligible_scenario(self):
        assert compile_scenario(spec(), engine="dag").engine == "dag"

    def test_unknown_engine(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            compile_scenario(spec(), engine="warp")


class TestCompileValidation:
    def test_delay_rank_bounds(self):
        with pytest.raises(ScenarioError, match=r"delays\[0\]\.rank"):
            compile_scenario(spec(delays=[{"rank": 10, "phases": 2.0}]))

    def test_delay_step_bounds(self):
        with pytest.raises(ScenarioError, match=r"delays\[0\]\.step"):
            compile_scenario(spec(delays=[{"rank": 1, "step": 6, "phases": 2.0}]))

    def test_distance_bounds(self):
        with pytest.raises(ScenarioError, match=r"comm\.distance"):
            compile_scenario(spec(comm={"distance": 10}))

    def test_wave_speed_needs_a_delay(self):
        with pytest.raises(ScenarioError, match="wave_speed"):
            compile_scenario(spec(outputs=["wave_speed"]))

    def test_delay_phases_resolve_against_t_exec(self):
        c = compile_scenario(spec(workload={"t_exec": 2e-3},
                                  delays=[{"rank": 1, "phases": 4.5}]))
        assert c.cfg.delays[0].duration == pytest.approx(9e-3)

    def test_campaign_phase_bounds_resolve(self):
        c = compile_scenario(spec(workload={"t_exec": 2e-3},
                                  campaign={"rate": 0.1, "phases_low": 2.0,
                                            "phases_high": 4.0}))
        assert c.campaign.duration_low == pytest.approx(4e-3)
        assert c.campaign.duration_high == pytest.approx(8e-3)

    def test_protocol_resolution_default_limit(self):
        c = compile_scenario(spec(comm={"msg_size": DEFAULT_EAGER_LIMIT}))
        assert c.resolved_protocol == Protocol.EAGER
        c2 = compile_scenario(spec(comm={"msg_size": DEFAULT_EAGER_LIMIT + 1}))
        assert c2.resolved_protocol == Protocol.RENDEZVOUS
