"""Property contracts of the batched hierarchy-aware lockstep engine.

Two machine-checked guarantees keep the widened fast path honest:

- **hierarchy parity** — for *any* random hierarchical placement
  (``ppn`` ranks per node on a random node/socket shape) with a
  per-domain network, the lockstep engine's timestamps match the
  authoritative DAG engine exactly (same 1e-12 envelope as the flat
  contract in ``test_engine_equivalence.py``);
- **batch == serial, bitwise** — simulating B execution-time matrices as
  one batched call yields, slice for slice, the *bit-identical* arrays of
  B unbatched calls (batch-of-1 included).  This is the property that
  lets the campaign runtime batch replicate blocks without perturbing the
  content-addressed cache.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    ExponentialNoise,
    HockneyModel,
    LockstepConfig,
    MachineTopology,
    ProcessMapping,
    Protocol,
    SimConfig,
    build_exec_times,
    build_lockstep_program,
    simulate,
    simulate_lockstep,
    simulate_lockstep_batch,
)

T = 3e-3


@st.composite
def hierarchical_scenarios(draw):
    """A random lockstep config plus a random hierarchical placement."""
    n_ranks = draw(st.integers(min_value=3, max_value=12))
    n_steps = draw(st.integers(min_value=2, max_value=8))
    cores_per_socket = draw(st.integers(min_value=1, max_value=4))
    sockets_per_node = draw(st.integers(min_value=1, max_value=2))
    cores_per_node = cores_per_socket * sockets_per_node
    ppn = draw(st.integers(min_value=1, max_value=cores_per_node))
    n_nodes = -(-n_ranks // ppn)  # ceil
    mapping = ProcessMapping(
        topology=MachineTopology(
            cores_per_socket=cores_per_socket,
            sockets_per_node=sockets_per_node,
            n_nodes=n_nodes,
        ),
        n_ranks=n_ranks,
        ppn=ppn,
    )
    distance = draw(st.integers(min_value=1, max_value=max(1, min(3, (n_ranks - 1) // 2))))
    direction = draw(st.sampled_from(list(Direction)))
    periodic = draw(st.booleans())
    protocol = draw(st.sampled_from([Protocol.EAGER, Protocol.RENDEZVOUS]))
    noise_mean = draw(st.sampled_from([0.0, 1e-5, 3e-4]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_delays = draw(st.integers(min_value=0, max_value=2))
    delays = tuple(
        DelaySpec(
            rank=draw(st.integers(min_value=0, max_value=n_ranks - 1)),
            step=draw(st.integers(min_value=0, max_value=n_steps - 1)),
            duration=draw(st.sampled_from([T, 3 * T, 10 * T])),
        )
        for _ in range(n_delays)
    )
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=T,
        msg_size=8192,
        pattern=CommPattern(direction=direction, distance=distance, periodic=periodic),
        noise=ExponentialNoise(noise_mean),
        delays=delays,
        seed=seed,
    )
    return cfg, mapping, protocol


@given(hierarchical_scenarios())
@settings(max_examples=50, deadline=None)
def test_hierarchical_engines_produce_identical_timestamps(scenario):
    cfg, mapping, protocol = scenario
    net = HockneyModel()  # distinct per-domain latency/bandwidth/overhead
    exec_times = build_exec_times(cfg)

    trace = simulate(
        build_lockstep_program(cfg, exec_times),
        SimConfig(network=net, mapping=mapping, protocol=protocol),
    )
    result = simulate_lockstep(
        cfg, exec_times=exec_times, network=net, protocol=protocol,
        mapping=mapping,
    )

    np.testing.assert_allclose(
        result.completion, trace.completion_matrix(), rtol=0, atol=1e-12,
        err_msg=(
            f"completion mismatch for {cfg.pattern} proto={protocol} "
            f"ppn={mapping.ppn} topo={mapping.topology}"
        ),
    )
    np.testing.assert_allclose(
        result.exec_end, trace.exec_end_matrix(), rtol=0, atol=1e-12,
    )


@given(hierarchical_scenarios(), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_batched_slices_bitwise_equal_serial_runs(scenario, n_batch):
    """batch[b] == simulate_lockstep(exec_times[b]) — exactly, bit for bit."""
    cfg, mapping, protocol = scenario
    net = HockneyModel()
    stack = np.stack([
        build_exec_times(cfg, np.random.default_rng(1000 + b))
        for b in range(n_batch)
    ])

    batch = simulate_lockstep_batch(
        cfg, stack, network=net, protocol=protocol, mapping=mapping
    )
    assert batch.n_batch == n_batch
    for b in range(n_batch):
        serial = simulate_lockstep(
            cfg, exec_times=stack[b], network=net, protocol=protocol,
            mapping=mapping,
        )
        for name in ("exec_start", "exec_end", "post_end", "completion"):
            got = getattr(batch[b], name)
            want = getattr(serial, name)
            assert np.array_equal(got, want), (
                f"{name} of batch slice {b} is not bit-identical "
                f"(ppn={mapping.ppn}, proto={protocol})"
            )


@given(hierarchical_scenarios())
@settings(max_examples=20, deadline=None)
def test_batch_of_one_is_bitwise_the_unbatched_run(scenario):
    cfg, mapping, protocol = scenario
    exec_times = build_exec_times(cfg)
    serial = simulate_lockstep(
        cfg, exec_times=exec_times, protocol=protocol, mapping=mapping,
        network=HockneyModel(),
    )
    batch = simulate_lockstep_batch(
        cfg, exec_times[np.newaxis], protocol=protocol, mapping=mapping,
        network=HockneyModel(),
    )
    assert np.array_equal(batch[0].completion, serial.completion)
    assert np.array_equal(batch[0].post_end, serial.post_end)


class TestBatchApi:
    def test_rejects_wrong_rank_shape(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=3)
        with np.testing.assert_raises(ValueError):
            simulate_lockstep_batch(cfg, np.zeros((2, 5, 3)))

    def test_rejects_2d_input(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=3)
        with np.testing.assert_raises(ValueError):
            simulate_lockstep_batch(cfg, np.zeros((4, 3)))

    def test_rejects_mismatched_mapping(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=3)
        mapping = ProcessMapping(
            topology=MachineTopology(n_nodes=3), n_ranks=6, ppn=2
        )
        with np.testing.assert_raises(ValueError):
            simulate_lockstep(cfg, mapping=mapping)

    def test_batch_index_bounds(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=3)
        batch = simulate_lockstep_batch(
            cfg, np.full((2, 4, 3), 1e-3)
        )
        with np.testing.assert_raises(IndexError):
            batch[2]

    def test_meta_records_batch_size_and_hierarchy(self):
        cfg = LockstepConfig(n_ranks=4, n_steps=3)
        mapping = ProcessMapping(
            topology=MachineTopology(n_nodes=2), n_ranks=4, ppn=2
        )
        batch = simulate_lockstep_batch(
            cfg, np.full((3, 4, 3), 1e-3), network=HockneyModel(),
            mapping=mapping,
        )
        assert batch.meta["n_batch"] == 3
        assert batch.meta["hierarchical"] is True
        assert batch.meta["ppn"] == 2
