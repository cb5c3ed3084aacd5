"""Unit tests for the DAG discrete-event engine: mechanism-level semantics."""

import numpy as np
import pytest

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    SimConfig,
    UniformNetwork,
    build_lockstep_program,
    simulate,
)
from repro.sim.program import Op, OpKind, Program
from repro.sim.topology import single_switch_mapping

T = 3e-3


def run(cfg, protocol=Protocol.AUTO, network=None, mapping=None, eager_limit=None):
    from repro.sim.mpi import DEFAULT_EAGER_LIMIT

    return simulate(
        build_lockstep_program(cfg),
        SimConfig(
            network=network or UniformNetwork(),
            protocol=protocol,
            mapping=mapping,
            eager_limit=DEFAULT_EAGER_LIMIT if eager_limit is None else eager_limit,
        ),
    )


def cfg_with_delay(direction, periodic=False, d=1, n_ranks=12, n_steps=14, source=5,
                   phases=4.5, msg=8192, **kw):
    return LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=T, msg_size=msg,
        pattern=CommPattern(direction=direction, distance=d, periodic=periodic),
        delays=(DelaySpec(rank=source, step=0, duration=phases * T),),
        **kw,
    )


class TestBasicTiming:
    def test_noise_free_runtime_is_steps_times_phase(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=10, t_exec=T, msg_size=8192)
        trace = run(cfg)
        # Runtime ~= steps * (T_exec + T_comm); comm is microseconds here.
        assert trace.total_runtime() == pytest.approx(10 * T, rel=0.01)

    def test_all_ranks_finish_together_noise_free(self):
        cfg = LockstepConfig(n_ranks=6, n_steps=8, t_exec=T, msg_size=8192)
        trace = run(cfg)
        finals = trace.completion_matrix()[:, -1]
        # Boundary ranks of an open chain differ by microseconds only.
        assert finals.max() - finals.min() < 100e-6

    def test_trace_validates(self):
        trace = run(cfg_with_delay(Direction.BIDIRECTIONAL, periodic=True))
        trace.validate()

    def test_delay_extends_comp_record(self):
        trace = run(cfg_with_delay(Direction.UNIDIRECTIONAL, source=5, phases=4.5))
        comp = [
            r for r in trace.records
            if r.kind == OpKind.COMP and r.rank == 5 and r.step == 0
        ]
        assert comp[0].duration == pytest.approx(5.5 * T)


class TestEagerMechanism:
    def test_no_backward_propagation(self):
        """Fig. 4: ranks below the injection are unaffected under eager."""
        trace = run(cfg_with_delay(Direction.UNIDIRECTIONAL))
        idle = trace.idle_matrix()
        assert idle[:5].max() < 0.1 * T

    def test_forward_wave_one_rank_per_step(self):
        trace = run(cfg_with_delay(Direction.UNIDIRECTIONAL))
        idle = trace.idle_matrix()
        for hop in range(1, 5):
            rank = 5 + hop
            step = np.argmax(idle[rank] > T)
            assert step == hop - 1, f"hop {hop} arrived at step {step}"

    def test_periodic_wave_dies_at_injection_rank(self):
        """Fig. 5(b): the wrapped wave runs out at the delayed rank."""
        cfg = cfg_with_delay(Direction.UNIDIRECTIONAL, periodic=True, n_steps=20)
        trace = run(cfg)
        idle = trace.idle_matrix()
        # After one full traversal (~12 steps + delay width) everything quiet.
        assert idle[:, 15:].max() < 0.1 * T


class TestRendezvousMechanism:
    def test_backward_propagation_appears(self):
        """Fig. 5(e): under rendezvous the wave also travels downward."""
        cfg = cfg_with_delay(Direction.UNIDIRECTIONAL, msg=300_000)
        trace = run(cfg)
        idle = trace.idle_matrix()
        assert idle[4].max() > T  # direct predecessor blocked
        assert idle[2].max() > T  # wave keeps going down

    @pytest.mark.parametrize("size", [4096, 65536, 131072, 131073, 262144,
                                      1048576])
    def test_backward_reach_switches_at_the_eager_limit(self, size):
        """Sec. II-C1: messages up to the eager limit send the wave forward
        only; one byte more (rendezvous) sends it backward as well."""
        from repro.core import RunTiming, wave_front
        from repro.experiments.fig5_flavors import EAGER_LIMIT

        cfg = cfg_with_delay(Direction.UNIDIRECTIONAL, n_ranks=16, n_steps=16,
                             source=8, phases=5, msg=size)
        trace = RunTiming.from_trace(run(cfg, eager_limit=EAGER_LIMIT))
        assert wave_front(trace, 8, +1).reach > 0
        if size <= EAGER_LIMIT:
            assert wave_front(trace, 8, -1).reach == 0
        else:
            assert wave_front(trace, 8, -1).reach > 0

    def test_forced_protocol_beats_size_rule(self):
        cfg = cfg_with_delay(Direction.UNIDIRECTIONAL, msg=8192)
        trace = run(cfg, protocol=Protocol.RENDEZVOUS)
        assert trace.idle_matrix()[4].max() > T

    def test_bidirectional_rendezvous_reaches_two_ranks_first_step(self):
        """σ = 2: the delay 'reaches out' two ranks in either direction."""
        cfg = cfg_with_delay(Direction.BIDIRECTIONAL, msg=300_000)
        trace = run(cfg)
        idle = trace.idle_matrix()
        assert idle[6, 0] > T and idle[7, 0] > T
        assert idle[4, 0] > T and idle[3, 0] > T
        assert idle[8, 0] < 0.1 * T  # but not three ranks

    def test_eager_bidirectional_reaches_one_rank_first_step(self):
        cfg = cfg_with_delay(Direction.BIDIRECTIONAL, msg=8192)
        trace = run(cfg)
        idle = trace.idle_matrix()
        assert idle[6, 0] > T
        assert idle[7, 0] < 0.1 * T


class TestTopologyAwareness:
    def test_intra_socket_messages_cheaper_with_mapping(self):
        from repro.sim.network import HockneyModel

        n = 4
        cfg = LockstepConfig(n_ranks=n, n_steps=6, t_exec=T, msg_size=100_000)
        mapped = run(cfg, network=HockneyModel(), mapping=single_switch_mapping(n, ppn=4))
        unmapped = run(cfg, network=HockneyModel(), mapping=None)
        # All pairs intra-node when mapped -> lower total runtime.
        assert mapped.total_runtime() < unmapped.total_runtime()


class TestEngineErrors:
    def test_unmatched_requests_rejected(self):
        ops = [
            [Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.COMP, duration=1e-3, step=0)],
        ]
        with pytest.raises(ValueError, match="unmatched"):
            simulate(Program(ops=ops, n_steps=1), SimConfig())

    def test_requests_without_waitall_rejected(self):
        ops = [
            [Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0)],
            [Op(kind=OpKind.IRECV, peer=0, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
        ]
        with pytest.raises(ValueError, match="not covered"):
            simulate(Program(ops=ops, n_steps=1), SimConfig())


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        cfg = cfg_with_delay(Direction.BIDIRECTIONAL, periodic=True)
        a = run(cfg)
        b = run(cfg)
        ma, mb = a.completion_matrix(), b.completion_matrix()
        np.testing.assert_array_equal(ma, mb)
