"""DAG-engine tests with hand-built (non-lockstep) programs.

The engine is more general than the lockstep builder: programs may mix
message sizes (and therefore protocols), have asymmetric op sequences, or
use several communication phases per step.  These tests pin that
generality.
"""

import pytest

from repro.sim import Protocol, SimConfig, UniformNetwork, simulate
from repro.sim.program import Op, OpKind, Program

T = 3e-3


def op_comp(duration, step=0):
    return Op(kind=OpKind.COMP, duration=duration, step=step)


def op_send(peer, size, tag, step=0):
    return Op(kind=OpKind.ISEND, peer=peer, size=size, tag=tag, step=step)


def op_recv(peer, size, tag, step=0):
    return Op(kind=OpKind.IRECV, peer=peer, size=size, tag=tag, step=step)


def op_wait(step=0):
    return Op(kind=OpKind.WAITALL, step=step)


class TestMixedProtocols:
    def test_small_and_large_messages_in_one_program(self):
        """Rank 1 sends small (eager) to 0 and large (rendezvous) to 2;
        only the rendezvous leg couples rank 1 to its receiver's posting."""
        big = 10_000_000  # far beyond the eager limit
        ops = [
            # rank 0: computes briefly, receives the eager message late.
            [op_comp(5 * T), op_recv(1, 8, tag=0), op_wait()],
            # rank 1: fires both sends immediately.
            [op_comp(0.0), op_send(0, 8, tag=0), op_send(2, big, tag=1), op_wait()],
            # rank 2: long compute delays its rendezvous posting.
            [op_comp(5 * T), op_recv(1, big, tag=1), op_wait()],
        ]
        net = UniformNetwork()
        trace = simulate(Program(ops=ops, n_steps=1), SimConfig(network=net))
        trace.validate()
        waits = {r.rank: r for r in trace.records if r.kind == OpKind.WAITALL}
        from repro.sim.topology import CommDomain

        flight = net.transfer_time(big, CommDomain.INTER_NODE)
        # Eager to rank 0: rank 1 is NOT blocked by 0's late recv... but the
        # rendezvous to rank 2 blocks it until 2 posts (5 T) + the transfer.
        assert waits[1].end == pytest.approx(5 * T + flight, rel=0.01)
        assert waits[2].end == pytest.approx(5 * T + flight, rel=0.01)
        # Rank 0 completes right after its own compute (message arrived early).
        assert waits[0].end == pytest.approx(5 * T, rel=0.01)

    def test_forced_protocol_applies_to_all_sizes(self):
        ops = [
            [op_comp(0.0), op_send(1, 8, tag=0), op_wait()],
            [op_comp(3 * T), op_recv(0, 8, tag=0), op_wait()],
        ]
        trace = simulate(
            Program(ops=ops, n_steps=1),
            SimConfig(network=UniformNetwork(), protocol=Protocol.RENDEZVOUS),
        )
        waits = {r.rank: r for r in trace.records if r.kind == OpKind.WAITALL}
        # Rendezvous: the tiny message still blocks the sender on the recv post.
        assert waits[0].end >= 3 * T


class TestAsymmetricPrograms:
    def test_pipeline_chain(self):
        """A 3-stage pipeline: each stage computes then forwards."""
        ops = [
            [op_comp(T), op_send(1, 8, tag=0), op_wait()],
            [op_recv(0, 8, tag=0), op_wait(), op_comp(T), op_send(2, 8, tag=1), op_wait()],
            [op_recv(1, 8, tag=1), op_wait(), op_comp(T)],
        ]
        trace = simulate(Program(ops=ops, n_steps=1), SimConfig(network=UniformNetwork()))
        # Stage 2 finishes after ~3 serial phases.
        stage2_end = max(r.end for r in trace.records if r.rank == 2)
        assert stage2_end == pytest.approx(3 * T, rel=0.05)

    def test_multiple_comm_phases_per_step(self):
        ops = [
            [op_comp(T), op_send(1, 8, tag=0), op_wait(),
             op_comp(T), op_send(1, 8, tag=1), op_wait()],
            [op_comp(T), op_recv(0, 8, tag=0), op_wait(),
             op_comp(T), op_recv(0, 8, tag=1), op_wait()],
        ]
        trace = simulate(Program(ops=ops, n_steps=1), SimConfig(network=UniformNetwork()))
        trace.validate()
        assert trace.total_runtime() == pytest.approx(2 * T, rel=0.05)

    def test_tag_mismatch_detected(self):
        ops = [
            [op_send(1, 8, tag=0), op_wait()],
            [op_recv(0, 8, tag=99), op_wait()],
        ]
        with pytest.raises(ValueError, match="unmatched"):
            simulate(Program(ops=ops, n_steps=1), SimConfig())
