"""Integration tests: the paper's headline claims, end to end.

Each test reproduces one quantitative or mechanistic claim from the paper
on the full stack (program builder -> engine -> analysis).
"""

import numpy as np
import pytest

from repro.core import (
    RunTiming,
    measure_decay,
    measure_speed,
    silent_speed,
    superposition_defect,
    wave_front,
)
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    ExponentialNoise,
    LockstepConfig,
    Protocol,
    SimConfig,
    UniformNetwork,
    build_lockstep_program,
    simulate,
    simulate_lockstep,
)
from repro.sim.topology import CommDomain

T = 3e-3
NET = UniformNetwork()


def run_dag(cfg, protocol=Protocol.AUTO):
    return RunTiming.from_trace(simulate(
        build_lockstep_program(cfg), SimConfig(network=NET, protocol=protocol)))


class TestClaimConstantSpeed:
    """Sec. IV: 'an idle wave ripples through the system at a constant
    speed of one rank per execution plus communication phase length'."""

    def test_fig4_speed_exactly_one_rank_per_phase(self):
        cfg = LockstepConfig(
            n_ranks=14, n_steps=16, t_exec=T, msg_size=8192,
            pattern=CommPattern(direction=Direction.UNIDIRECTIONAL),
            delays=(DelaySpec(rank=5, step=0, duration=4.5 * T),),
        )
        m = measure_speed(run_dag(cfg), source=5)
        t_comm = NET.total_pingpong_time(8192, CommDomain.INTER_NODE)
        assert m.speed == pytest.approx(1.0 / (T + t_comm), rel=0.005)
        assert m.residual < 1e-4  # genuinely constant speed


class TestClaimSigmaTwo:
    """Sec. IV-C: bidirectional rendezvous doubles the propagation speed."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_speed_ratio_is_two(self, d):
        speeds = {}
        for direction in Direction:
            cfg = LockstepConfig(
                n_ranks=24, n_steps=20, t_exec=T, msg_size=8192,
                pattern=CommPattern(direction=direction, distance=d),
                delays=(DelaySpec(rank=12, step=0, duration=5 * T),),
            )
            run = run_dag(cfg, protocol=Protocol.RENDEZVOUS)
            speeds[direction] = measure_speed(run, source=12).speed
        ratio = speeds[Direction.BIDIRECTIONAL] / speeds[Direction.UNIDIRECTIONAL]
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_eager_shows_no_doubling(self):
        speeds = {}
        for direction in Direction:
            cfg = LockstepConfig(
                n_ranks=24, n_steps=20, t_exec=T, msg_size=8192,
                pattern=CommPattern(direction=direction, distance=1),
                delays=(DelaySpec(rank=12, step=0, duration=5 * T),),
            )
            run = run_dag(cfg, protocol=Protocol.EAGER)
            speeds[direction] = measure_speed(run, source=12).speed
        ratio = speeds[Direction.BIDIRECTIONAL] / speeds[Direction.UNIDIRECTIONAL]
        assert ratio == pytest.approx(1.0, rel=0.01)


class TestClaimCommOnEqualFooting:
    """Eq. 2: 'communication overhead and execution time appear on an equal
    footing' — only the sum T_exec + T_comm matters."""

    def test_trading_exec_for_comm_preserves_speed(self):
        # Configuration A: 3 ms exec, tiny messages.
        cfg_a = LockstepConfig(
            n_ranks=16, n_steps=18, t_exec=3e-3, msg_size=8192,
            delays=(DelaySpec(rank=8, step=0, duration=15e-3),),
        )
        v_a = measure_speed(run_dag(cfg_a), source=8).speed
        # Configuration B: 2 ms exec, ~1 ms of communication.
        t_comm_a = NET.total_pingpong_time(8192, CommDomain.INTER_NODE)
        extra = 3e-3 - 2e-3  # move 1 ms from exec to comm
        msg_b = int((extra + t_comm_a - 2 * NET.overhead - NET.latency) * NET.bandwidth)
        cfg_b = LockstepConfig(
            n_ranks=16, n_steps=18, t_exec=2e-3, msg_size=msg_b,
            delays=(DelaySpec(rank=8, step=0, duration=15e-3),),
        )
        v_b = measure_speed(run_dag(cfg_b, protocol=Protocol.EAGER), source=8).speed
        assert v_b == pytest.approx(v_a, rel=0.01)


class TestClaimNonlinearInteraction:
    """Sec. IV-B: idle waves cancel, so no linear wave equation applies."""

    def test_symmetric_waves_annihilate(self):
        cfg = LockstepConfig(
            n_ranks=36, n_steps=30, t_exec=T, msg_size=16384,
            pattern=CommPattern(direction=Direction.BIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=0, step=0, duration=4 * T),
                    DelaySpec(rank=18, step=0, duration=4 * T)),
        )
        run = simulate_lockstep(cfg)
        idle = run.idle
        # The waves collide at ranks 9 and 27 after ~9 steps; soon after,
        # the system is back in lockstep.
        assert idle[:, 15:].max() < 0.1 * T

    def test_superposition_strongly_violated(self):
        a = DelaySpec(rank=0, step=0, duration=4 * T)
        b = DelaySpec(rank=18, step=0, duration=4 * T)

        def run_with(delays):
            cfg = LockstepConfig(
                n_ranks=36, n_steps=30, t_exec=T, msg_size=16384,
                pattern=CommPattern(direction=Direction.BIDIRECTIONAL, periodic=True),
                delays=delays,
            )
            return simulate_lockstep(cfg)

        defect = superposition_defect(
            run_with((a, b)), [run_with((a,)), run_with((b,))],
            baseline=run_with(()),
        )
        linear = 2 * 4 * T * 17  # rough scale of one wave's idle budget
        assert defect < -0.3 * linear


class TestClaimLeadingEdgeNoiseInsensitive:
    """Sec. IV-C: 'the propagation speed along the forward slope of an idle
    wave is hardly changed' by noise."""

    def _speed_at(self, E, seed=11):
        cfg = LockstepConfig(
            n_ranks=30, n_steps=40, t_exec=T, msg_size=8192,
            pattern=CommPattern(direction=Direction.BIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=0, step=0, duration=30 * T),),
            noise=ExponentialNoise(E * T),
            seed=seed,
        )
        return measure_speed(simulate_lockstep(cfg), source=0, periodic=True)

    def test_forward_speed_barely_changed_at_low_noise(self):
        v_silent = self._speed_at(0.0).speed
        v_low = self._speed_at(0.02).speed
        assert v_low == pytest.approx(v_silent, rel=0.06)

    def test_forward_speed_within_noise_envelope_at_high_noise(self):
        """At E=10% the mean phase stretches to ~T*(1+E) plus neighborhood
        max effects; the leading edge stays within that cadence envelope
        (far from, e.g., halving)."""
        v_silent = self._speed_at(0.0).speed
        v_noisy = self._speed_at(0.10).speed
        assert 0.75 * v_silent < v_noisy <= v_silent

    def test_front_remains_cleanly_linear_under_noise(self):
        """The forward slope stays a straight line (small fit residual)."""
        m = self._speed_at(0.10)
        assert m.residual < 1.0  # ranks of RMS deviation from the line


class TestClaimDecayNeedsNoise:
    """Sec. V-A: decay rate correlates with noise; zero without noise."""

    def test_silent_system_preserves_wave(self):
        cfg = LockstepConfig(
            n_ranks=30, n_steps=40, t_exec=T, msg_size=8192,
            pattern=CommPattern(direction=Direction.BIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=0, step=0, duration=30 * T),),
        )
        meas = measure_decay(simulate_lockstep(cfg), source=0, periodic=True)
        assert abs(meas.beta) < 1e-5

    def test_decay_monotone_in_noise_level(self):
        def beta(E):
            vals = []
            for seed in range(6):
                cfg = LockstepConfig(
                    n_ranks=40, n_steps=55, t_exec=T, msg_size=8192,
                    pattern=CommPattern(direction=Direction.BIDIRECTIONAL,
                                        periodic=True),
                    delays=(DelaySpec(rank=0, step=0, duration=30 * T),),
                    noise=ExponentialNoise(E * T),
                    seed=seed,
                )
                vals.append(
                    measure_decay(simulate_lockstep(cfg), source=0, periodic=True).beta
                )
            return float(np.median(vals))

        b2, b10 = beta(0.02), beta(0.10)
        assert 0 < b2 < b10

    @pytest.mark.parametrize("shape", ["exponential", "gamma k=4", "uniform",
                                       "bimodal"])
    def test_decay_driven_by_level_not_shape(self, shape):
        """The paper injects exponential noise "to mimic the natural noise
        distribution"; at an equal 8% mean every shape damps the wave."""
        from repro.sim import BimodalNoise, GammaNoise, UniformNoise

        mean = 0.08 * T
        noise = {
            "exponential": ExponentialNoise(mean),
            "gamma k=4": GammaNoise(mean, shape_k=4.0),
            "uniform": UniformNoise(0.0, 2 * mean),
            "bimodal": BimodalNoise(base=ExponentialNoise(mean / 2),
                                    spike_delay=40 * mean / 2,
                                    spike_probability=0.025,
                                    spike_jitter=0.1),
        }[shape]
        assert noise.mean() == pytest.approx(mean, rel=1e-12)
        betas = []
        for seed in range(8):
            cfg = LockstepConfig(
                n_ranks=50, n_steps=60, t_exec=T, msg_size=8192,
                pattern=CommPattern(direction=Direction.BIDIRECTIONAL,
                                    periodic=True),
                delays=(DelaySpec(rank=0, step=0, duration=60e-3),),
                noise=noise,
                seed=seed,
            )
            betas.append(measure_decay(simulate_lockstep(cfg), source=0,
                                       periodic=True).beta)
        assert np.median(betas) > 0


class TestClaimDomainBoundariesModulateSpeed:
    """Sec. VII: "the propagation speed changes whenever a domain boundary
    is crossed", because T_comm differs between intra-socket, inter-socket
    and inter-node links."""

    def test_hierarchy_makes_per_hop_gaps_non_uniform(self):
        from repro.sim import HockneyModel
        from repro.sim.topology import single_switch_mapping

        def gaps(network, mapping):
            cfg = LockstepConfig(
                n_ranks=16, n_steps=20, t_exec=T, msg_size=200_000,
                pattern=CommPattern(direction=Direction.UNIDIRECTIONAL),
                delays=(DelaySpec(rank=0, step=0, duration=6 * T),),
            )
            trace = simulate(build_lockstep_program(cfg),
                             SimConfig(network=network, mapping=mapping))
            return np.diff(wave_front(RunTiming.from_trace(trace), 0,
                                      +1).arrival_times)

        mapping = single_switch_mapping(16, ppn=4, cores_per_socket=2)
        slow_internode = HockneyModel(
            latency={CommDomain.INTRA_SOCKET: 3e-7,
                     CommDomain.INTER_SOCKET: 6e-7,
                     CommDomain.INTER_NODE: 5e-5},
            bandwidth={CommDomain.INTRA_SOCKET: 8e9,
                       CommDomain.INTER_SOCKET: 5e9,
                       CommDomain.INTER_NODE: 2e8},
        )
        hier, flat = gaps(slow_internode, mapping), gaps(NET, None)
        # A flat network keeps a constant speed; the hierarchy makes the
        # per-hop gaps strongly non-uniform and the wave slower on average.
        assert np.ptp(flat) < 0.05 * flat.mean()
        assert np.ptp(hier) > 0.3 * hier.mean()
        assert hier.mean() > 1.1 * flat.mean()
        # gaps[i] is the front's travel time over the link (i + 1, i + 2).
        domains = {mapping.domain(i + 1, i + 2) for i in range(len(hier))}
        assert {CommDomain.INTER_NODE, CommDomain.INTRA_SOCKET} <= domains
