"""The build-once/propagate-many StaticDag engine core.

Covers the structure cache (hits across draws, invalidation on any
structural or config change), the batched propagate contract, the typed
:class:`~repro.sim.engine.EngineError`, columnar timing extraction, and
the execution-time checks of the DAG entry points.

``DAG_STRUCTURE_DIGESTS`` pins every init field of built structures as a
sha256 digest per program, and ``TestBuildErrors`` the exact text of the
three build errors; both were recorded with the per-op walker that the
array builder replaced, so a builder change must keep every node id,
edge order and dtype.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    EngineError,
    ExponentialNoise,
    LockstepConfig,
    Protocol,
    SimConfig,
    UniformNetwork,
    build_dag,
    build_exec_times,
    build_lockstep_program,
    clear_dag_cache,
    dag_cache_info,
    simulate,
    simulate_dag,
    simulate_dag_batch,
)
from repro.sim.program import Op, OpKind, Program

T = 3e-3


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_dag_cache()
    yield
    clear_dag_cache()


def make_cfg(**kw):
    kw.setdefault("n_ranks", 8)
    kw.setdefault("n_steps", 6)
    kw.setdefault("t_exec", T)
    kw.setdefault("noise", ExponentialNoise(2e-4))
    return LockstepConfig(**kw)


def deadlock_program():
    """Two ranks that each wait for their send before posting the recv —
    a rendezvous cycle (classic head-to-head deadlock)."""
    ops = [
        [Op(kind=OpKind.COMP, duration=T, step=0),
         Op(kind=OpKind.ISEND, peer=1, size=10_000_000, tag=0, step=0),
         Op(kind=OpKind.WAITALL, step=0),
         Op(kind=OpKind.IRECV, peer=1, size=10_000_000, tag=1, step=0),
         Op(kind=OpKind.WAITALL, step=0)],
        [Op(kind=OpKind.COMP, duration=T, step=0),
         Op(kind=OpKind.ISEND, peer=0, size=10_000_000, tag=1, step=0),
         Op(kind=OpKind.WAITALL, step=0),
         Op(kind=OpKind.IRECV, peer=0, size=10_000_000, tag=0, step=0),
         Op(kind=OpKind.WAITALL, step=0)],
    ]
    return Program(ops=ops, n_steps=1)


class TestStructure:
    def test_csr_shape_and_levels(self):
        cfg = make_cfg()
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        assert dag.succ_indptr.shape == (dag.n_nodes + 1,)
        assert dag.succ_index.shape == (dag.n_edges,)
        assert dag.edge_delay.shape == (dag.n_edges,)
        assert int(dag.succ_indptr[-1]) == dag.n_edges
        # the level order is a permutation, and every edge points to a
        # strictly later level
        assert sorted(dag.level_order.tolist()) == list(range(dag.n_nodes))
        level_of = np.empty(dag.n_nodes, dtype=int)
        for lv in range(dag.n_levels):
            level_of[dag.level_order[dag.level_ptr[lv]:dag.level_ptr[lv + 1]]] = lv
        assert np.all(level_of[dag.edge_src_lv] < level_of[dag.edge_dst_lv])

    def test_propagate_default_durations_zero_comp(self):
        cfg = make_cfg(noise=ExponentialNoise(0.0))
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        _, end = dag._propagate_cols(dag.base_duration[:, None])
        assert end.shape == (dag.n_nodes, 1)
        assert np.all(np.isfinite(end))

    def test_propagate_rejects_bad_shapes(self):
        cfg = make_cfg()
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        with pytest.raises(ValueError, match="exec_times"):
            dag.durations_from_exec(np.zeros((2, 3)))

    def test_direct_construction_from_public_fields(self):
        """StaticDag is public API: an instance rebuilt from another's
        declared fields must be fully functional (derived state is
        computed in __post_init__, not patched on by the builder)."""
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        built = build_dag(program)
        init_fields = {f.name: getattr(built, f.name)
                       for f in dataclasses.fields(built) if f.init}
        from repro.sim import StaticDag

        clone = StaticDag(**init_fields)
        durations = built.durations_for(program)[:, None]
        assert np.array_equal(clone._propagate_cols(durations)[1],
                              built._propagate_cols(durations)[1])
        assert clone.lockstep_shaped == built.lockstep_shaped

    def test_multi_comp_cell_rejects_dense_exec_times(self):
        """Two COMP phases in one cell cannot be addressed by a (P, S)
        matrix; the scatter must refuse instead of double-counting."""
        ops = [
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.COMP, duration=2 * T, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
        ]
        program = Program(ops=ops, n_steps=1)
        dag = build_dag(program)
        with pytest.raises(ValueError, match="several COMP phases"):
            dag.durations_from_exec(np.full((2, 1), T))
        # the per-op gather remains exact
        assert np.isfinite(simulate_dag(program).completion).all()


class TestBatchedPropagate:
    def test_batch_slices_bitwise_equal_scalar(self):
        cfg = make_cfg(pattern=CommPattern(direction=Direction.BIDIRECTIONAL),
                       delays=(DelaySpec(rank=2, step=1, duration=5 * T),))
        stacked = np.stack([
            build_exec_times(cfg, np.random.default_rng(s)) for s in range(6)
        ])
        batch = simulate_dag_batch(cfg, stacked,
                                   SimConfig(protocol=Protocol.RENDEZVOUS))
        assert batch.n_batch == 6
        for b in range(6):
            single = simulate_dag(
                build_lockstep_program(cfg, stacked[b]),
                SimConfig(protocol=Protocol.RENDEZVOUS),
            )
            assert np.array_equal(batch[b].completion, single.completion)
            assert np.array_equal(batch[b].exec_end, single.exec_end)
            assert np.array_equal(batch[b].idle, single.idle)
            assert np.array_equal(batch[b].exec_start, single.exec_start)
            assert np.array_equal(batch[b].post_end, single.post_end)

    def test_batch_shape_validation(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="exec_times shape"):
            simulate_dag_batch(cfg, np.zeros((cfg.n_ranks, cfg.n_steps)))
        with pytest.raises(ValueError, match="at least one run"):
            simulate_dag_batch(cfg, np.zeros((0, cfg.n_ranks, cfg.n_steps)))


class TestColumnarTrace:
    def test_dag_result_matches_full_trace_matrices(self):
        cfg = make_cfg(delays=(DelaySpec(rank=1, step=2, duration=4 * T),))
        et = build_exec_times(cfg)
        program = build_lockstep_program(cfg, et)
        trace = simulate(program)
        result = simulate_dag(program)
        assert np.array_equal(result.exec_end, trace.exec_end_matrix())
        assert np.array_equal(result.exec_start, trace.exec_start_matrix())
        assert np.array_equal(result.completion, trace.completion_matrix())
        assert np.array_equal(result.idle, trace.idle_matrix())
        assert result.meta == trace.meta

    def test_lazy_trace_is_valid_and_matches(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        result = simulate_dag(program)
        wait_start = np.full((cfg.n_ranks, cfg.n_steps), np.nan)
        for rec in simulate(program).records:
            if rec.kind == OpKind.WAITALL:
                wait_start[rec.rank, rec.step] = rec.start
        assert np.array_equal(result.post_end, wait_start)
        assert np.array_equal(result.completion - result.post_end, result.idle)
        lazy = result.to_trace()
        lazy.validate()
        assert np.array_equal(lazy.completion_matrix(), result.completion)
        assert np.array_equal(lazy.exec_end_matrix(), result.exec_end)

    def test_irregular_program_refuses_lazy_trace(self):
        """Two Waitalls per step: matrices stay exact (idle accumulates,
        matching the full trace), but record reconstruction must refuse."""
        ops = [
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=1, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.COMP, duration=3 * T, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=1, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
        ]
        program = Program(ops=ops, n_steps=1)
        result = simulate_dag(program)
        trace = simulate(program)
        assert np.array_equal(result.idle, trace.idle_matrix())
        assert np.array_equal(result.completion, trace.completion_matrix())
        assert result.post_end is None
        with pytest.raises(ValueError, match="not lockstep-shaped"):
            result.to_trace()


class TestExecTimeChecks:
    """Every DAG entry point rejects a NaN, infinite or negative execution
    time, naming the first such cell, in every draw of a batch."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        cfg = make_cfg(n_ranks=6, n_steps=4,
                       pattern=CommPattern(direction=Direction.BIDIRECTIONAL,
                                           periodic=True))
        times = np.full((2, 6, 4), T)
        times[1, 2, 1] = value
        message = rf"exec_times must be finite, got {value} at "
        with pytest.raises(ValueError, match=message + r"\[2, 1\]"):
            simulate(build_lockstep_program(cfg, times[1]))
        with pytest.raises(ValueError, match=message + r"\[1, 2, 1\]"):
            simulate_dag_batch(cfg, times)

    def test_negative_in_a_later_draw_rejected(self):
        cfg = make_cfg(n_ranks=6, n_steps=4)
        times = np.full((3, 6, 4), T)
        times[2, 4, 3] = -1.0
        with pytest.raises(ValueError, match=r"exec_times must be non-negative, "
                           r"got -1.0 at \[2, 4, 3\]"):
            simulate_dag_batch(cfg, times)


class TestStructureCache:
    def test_draws_share_one_structure(self):
        cfg = make_cfg()
        for seed in range(5):
            et = build_exec_times(cfg, np.random.default_rng(seed))
            simulate_dag(build_lockstep_program(cfg, et))
        info = dag_cache_info()
        assert info["misses"] == 1 and info["hits"] == 4 and info["size"] == 1

    def test_structure_change_misses(self):
        cfg = make_cfg()
        simulate_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        other = make_cfg(pattern=CommPattern(direction=Direction.BIDIRECTIONAL))
        simulate_dag(build_lockstep_program(other, build_exec_times(other)))
        assert dag_cache_info()["misses"] == 2

    def test_config_change_misses(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        simulate_dag(program, SimConfig(protocol=Protocol.EAGER))
        simulate_dag(program, SimConfig(protocol=Protocol.RENDEZVOUS))
        simulate_dag(program, SimConfig(network=UniformNetwork(latency=9e-6)))
        assert dag_cache_info()["misses"] == 3

    def test_cache_opt_out_and_clear(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        build_dag(program, cache=False)
        assert dag_cache_info()["size"] == 0
        build_dag(program)
        assert dag_cache_info()["size"] == 1
        clear_dag_cache()
        assert dag_cache_info() == {"size": 0, "max_size": 16,
                                    "hits": 0, "misses": 0, "evictions": 0}

    def test_lru_eviction_is_counted(self):
        clear_dag_cache()
        for n_steps in range(2, 2 + 18):  # 18 shapes vs max_size 16
            cfg = make_cfg(n_ranks=4, n_steps=n_steps)
            build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        info = dag_cache_info()
        assert info["size"] == info["max_size"] == 16
        assert info["evictions"] == 2
        assert info["misses"] == 18

    def test_cached_structure_is_duration_independent(self):
        """A cache hit must not leak the first draw's COMP durations."""
        cfg = make_cfg(noise=ExponentialNoise(0.0))
        et0 = build_exec_times(cfg)
        et1 = et0 * 3.0
        r0 = simulate_dag(build_lockstep_program(cfg, et0))
        r1 = simulate_dag(build_lockstep_program(cfg, et1))
        assert dag_cache_info()["hits"] == 1
        assert r1.completion.max() > 2.5 * r0.completion.max()


class TestEngineError:
    def test_deadlock_raises_typed_error(self):
        with pytest.raises(EngineError, match="dependency cycle") as exc_info:
            simulate(deadlock_program(), SimConfig(protocol=Protocol.RENDEZVOUS))
        err = exc_info.value
        assert err.n_unprocessed > 0
        assert err.first_blocked_rank == 0
        assert isinstance(err, RuntimeError)  # backwards-compatible

    def test_deadlock_detected_at_build_time(self):
        with pytest.raises(EngineError):
            build_dag(deadlock_program(),
                      SimConfig(protocol=Protocol.RENDEZVOUS), cache=False)

    def test_eager_variant_does_not_deadlock(self):
        trace = simulate(deadlock_program(), SimConfig(protocol=Protocol.EAGER))
        trace.validate()


# ----------------------------------------------------------------------
# structure oracle
# ----------------------------------------------------------------------

def _grid_program(periodic, direction, n_ranks=14, distance=2, seed=5):
    c = make_cfg(n_ranks=n_ranks, n_steps=25,
                 pattern=CommPattern(direction=direction, distance=distance,
                                     periodic=periodic),
                 noise=ExponentialNoise(2e-4), seed=seed)
    return build_lockstep_program(c, build_exec_times(c))


def _two_waitall_program():
    """Each step exchanges small messages with both ring neighbours, then
    large ones, each exchange closed by its own WAITALL; rank 3 starts
    with a WAITALL."""
    n, steps = 5, 3
    ops = [[] for _ in range(n)]
    ops[3].append(Op(kind=OpKind.WAITALL, step=0))
    for step in range(steps):
        for r in range(n):
            ops[r].append(Op(kind=OpKind.COMP, duration=T, step=step))
            for phase, size in enumerate((4096, 200_000)):
                tag = 2 * step + phase
                for off in (1, -1):
                    ops[r].append(Op(kind=OpKind.IRECV, peer=(r - off) % n,
                                     tag=tag, step=step))
                    ops[r].append(Op(kind=OpKind.ISEND, peer=(r + off) % n,
                                     size=size, tag=tag, step=step))
                ops[r].append(Op(kind=OpKind.WAITALL, step=step))
    return Program(ops=ops, n_steps=steps)


def _mixed_protocol_program():
    """Eager and rendezvous messages in one program under AUTO.

    Rightward messages are large (rendezvous); leftward ones are large at
    odd steps only, so only odd steps exchange rendezvous both ways.
    Rank 0 also sends itself a small message, rank 6 has no operation,
    and a trailing COMP lies outside the step grid.
    """
    n, steps, small, large = 7, 4, 1024, 200_000
    active = n - 1
    ops = [[] for _ in range(n)]
    for step in range(steps):
        for r in range(active):
            ops[r].append(Op(kind=OpKind.COMP, duration=T, step=step))
            left, right = r - 1, r + 1
            if right < active:
                ops[r].append(Op(kind=OpKind.ISEND, peer=right, size=large,
                                 tag=step, step=step))
                ops[r].append(Op(kind=OpKind.IRECV, peer=right, tag=step,
                                 step=step))
            if left >= 0:
                ops[r].append(Op(kind=OpKind.IRECV, peer=left, tag=step,
                                 step=step))
                ops[r].append(Op(kind=OpKind.ISEND, peer=left,
                                 size=large if step % 2 else small,
                                 tag=step, step=step))
            if r == 0:
                ops[r].append(Op(kind=OpKind.IRECV, peer=0, tag=100 + step,
                                 step=step))
                ops[r].append(Op(kind=OpKind.ISEND, peer=0, size=small,
                                 tag=100 + step, step=step))
            ops[r].append(Op(kind=OpKind.WAITALL, step=step))
    ops[2].append(Op(kind=OpKind.COMP, duration=T, step=steps))
    return Program(ops=ops, n_steps=steps)


def structure_cases() -> dict:
    """The builds ``DAG_STRUCTURE_DIGESTS`` pins: name -> (program, config).

    ``LOCKSTEP_DIGESTS``' grid (ring or open chain, eager or rendezvous,
    one or two directions, flat or per-domain links, at distance 2) and
    its aliased 3-rank ring; the four collectives; a program with two
    Waitalls per step; and one that mixes eager and rendezvous messages.
    """
    from repro.sim import (
        Collective,
        CollectiveConfig,
        HockneyModel,
        MachineTopology,
        ProcessMapping,
        build_collective_program,
    )

    topology = MachineTopology(cores_per_socket=3, sockets_per_node=2, n_nodes=3)

    def mapped(n_ranks, **kw):
        return SimConfig(network=HockneyModel(),
                         mapping=ProcessMapping(topology, n_ranks=n_ranks, ppn=5),
                         **kw)

    cases = {}
    for periodic in (True, False):
        for protocol in (Protocol.EAGER, Protocol.RENDEZVOUS):
            for direction in Direction:
                program = _grid_program(periodic, direction)
                for is_mapped in (False, True):
                    config = (mapped(14, protocol=protocol) if is_mapped
                              else SimConfig(protocol=protocol))
                    name = "_".join(("periodic" if periodic else "open",
                                     protocol.value, direction.value,
                                     "mapped" if is_mapped else "flat"))
                    cases[name] = (program, config)
    cases["ring3_aliased_rendezvous_bi_flat"] = (
        _grid_program(True, Direction.BIDIRECTIONAL, n_ranks=3, seed=6),
        SimConfig(protocol=Protocol.RENDEZVOUS))
    for collective, n_ranks, config in (
            (Collective.BARRIER, 6, SimConfig()),
            (Collective.ALLREDUCE_RECDOUB, 8, mapped(8)),
            (Collective.ALLREDUCE_RING, 6, SimConfig(protocol=Protocol.RENDEZVOUS)),
            (Collective.BCAST_TREE, 6, mapped(6, protocol=Protocol.RENDEZVOUS))):
        cases[f"collective_{collective.value}"] = (
            build_collective_program(CollectiveConfig(
                n_ranks=n_ranks, n_steps=4, collective=collective)), config)
    cases["two_waitalls_eager"] = (_two_waitall_program(),
                                   SimConfig(protocol=Protocol.EAGER))
    cases["two_waitalls_mixed"] = (_two_waitall_program(), SimConfig())
    cases["mixed_protocol_mapped"] = (_mixed_protocol_program(), mapped(7))
    return cases


def structure_digest(dag) -> str:
    """sha256 over every init field of a StaticDag: each field's name,
    then its value (dtype, shape and bytes for arrays)."""
    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())

    h = hashlib.sha256()
    for f in dataclasses.fields(dag):
        if not f.init:
            continue
        h.update(f.name.encode())
        value = getattr(dag, f.name)
        if f.name == "rank_node_ids":
            h.update(f"tuple{len(value)}".encode())
            for ids in value:
                feed(ids)
        else:
            feed(value)
    return h.hexdigest()


DAG_STRUCTURE_DIGESTS = {
    "collective_allreduce_recdoub":
        "78deeeb3f49c590a826559135198c283bc92673d353ad37c3b5025b083eadbc0",
    "collective_allreduce_ring":
        "63c59dd9b90db77027c5750b36e7ee54dcc865e282972163dfa17db2ad5988bb",
    "collective_barrier":
        "58279304ebac7daa5e01e223bac9a6f1b0ef6bb3ff7ccdb2234d0bb2915e8832",
    "collective_bcast_tree":
        "26e68b67036e094ea69a77e0f58d2237b7d013df31bd88bb5eaa4a3df4346b29",
    "mixed_protocol_mapped":
        "c4271d993677dceebb099e7d9230cabfbe1d05d80a7b59593e9beb28a9d9be55",
    "open_eager_bi_flat":
        "33633ad556ce013240f68d88c135e9873ede877cf037b06b599dce59449c23af",
    "open_eager_bi_mapped":
        "fc6983635a5ced0b8d388e7906a515488fdd639dafc22c819fdf4c8184c26bb7",
    "open_eager_uni_flat":
        "d6cf05303aa050188bb33388e62fa818ba71a7a9ef4f147ae6ce72fcbbf60932",
    "open_eager_uni_mapped":
        "79ede8567f4a46b684a840d17070556f342c5c31782bbe44ea9f6ce767f35a75",
    "open_rendezvous_bi_flat":
        "27a7eeca31f6e4f7c8b215c1258df1db0e49eb77e504edbbdf1f68f37e270720",
    "open_rendezvous_bi_mapped":
        "3cad2ad389f59cf0cf4bcfe6d55f0eeca8fcc388d0498a6d4c3c55adf3200d8c",
    "open_rendezvous_uni_flat":
        "00a772087b781a9df11ee80105d139982e3195aec68d4f3acd90109c02f54c64",
    "open_rendezvous_uni_mapped":
        "891405cc8db9fa1e6fbbb49adfb7614019a75d46a8d17234cd145d57e41688f6",
    "periodic_eager_bi_flat":
        "5dfb9716719432291d079fee3bb63fe3469cad5615b11994d1e0f33f22e734a8",
    "periodic_eager_bi_mapped":
        "dd5668339576ed85112048011b2d72d1df7bdfb2b98ae4d19e9dde729874ce7c",
    "periodic_eager_uni_flat":
        "a864e6efb99d7e2c9e43a097ea29614692db02d4f52ae8b04735796612991727",
    "periodic_eager_uni_mapped":
        "6a2effe719d36665788a5d154d50b07ba8511c89535621994ec5500175bec817",
    "periodic_rendezvous_bi_flat":
        "1c1f2e52b78d6fd67c30af94b0b65b258bc104f59b14a350146d54e43883fcfc",
    "periodic_rendezvous_bi_mapped":
        "aa785623aecb7e3d985e32c5556c57481e43ed263173bfe407a29ec768c6f42b",
    "periodic_rendezvous_uni_flat":
        "e984438648383fd7b634c7ad137bc3352bad71288dcd32077e35da6d1bc784e0",
    "periodic_rendezvous_uni_mapped":
        "02153e553f67c9fa859226645c5f49bc8cee330152ab479480a417a462c48407",
    "ring3_aliased_rendezvous_bi_flat":
        "ad80a2fd42cd51f924980824e229313ea6056575f2d123e7321ea511460414de",
    "two_waitalls_eager":
        "e098d6e4355975c730e9364f9c20e8be5d5c5055cfd487902285c6054979d0d0",
    "two_waitalls_mixed":
        "7e81c7be9c409f81b350b8eaae2f6cc67646aaaf69eba0cbc5daf41e5c628cce",
}


@pytest.mark.parametrize("name", sorted(DAG_STRUCTURE_DIGESTS))
def test_structure_digest(name):
    program, config = structure_cases()[name]
    dag = build_dag(program, config, cache=False)
    assert structure_digest(dag) == DAG_STRUCTURE_DIGESTS[name], f"{name} drifted"


def test_structure_digests_cover_every_case():
    assert sorted(DAG_STRUCTURE_DIGESTS) == sorted(structure_cases())


class TestBuildErrors:
    """The exact text of the three errors a build can raise."""

    def test_unmatched_channels_named_in_first_touch_order(self):
        send = lambda peer, tag: Op(kind=OpKind.ISEND, peer=peer, size=8,
                                    tag=tag, step=0)
        recv = lambda peer, tag: Op(kind=OpKind.IRECV, peer=peer, tag=tag, step=0)
        wait = Op(kind=OpKind.WAITALL, step=0)
        ops = [
            [send(2, 9), send(1, 5), send(1, 5), recv(1, 3), wait],
            [recv(0, 5), recv(2, 7), send(0, 3), recv(2, 7), wait],
            [recv(0, 1), wait],
        ]
        with pytest.raises(ValueError) as exc_info:
            build_dag(Program(ops=ops, n_steps=1), cache=False)
        assert str(exc_info.value) == (
            "program has unmatched point-to-point operations: "
            "sends={(0, 2, 9): 1, (0, 1, 5): 1} "
            "recvs={(2, 1, 7): 2, (0, 2, 1): 1}")

    @pytest.mark.parametrize("with_wait", [True, False])
    def test_requests_after_the_last_waitall(self, with_wait):
        ops = [
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.IRECV, peer=0, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0),
             Op(kind=OpKind.IRECV, peer=2, tag=1, step=0),
             Op(kind=OpKind.ISEND, peer=2, size=8, tag=2, step=0)],
            [Op(kind=OpKind.ISEND, peer=1, size=8, tag=1, step=0)],
        ]
        if not with_wait:
            del ops[1][:2]
            del ops[0][1:]
        with pytest.raises(ValueError) as exc_info:
            build_dag(Program(ops=ops, n_steps=1), cache=False)
        assert str(exc_info.value) == (
            "rank 1 ends with 2 requests not covered by a WAITALL")

    @pytest.mark.parametrize("case, processed, n_nodes, blocked_rank", [
        ("head_to_head", 4, 12, 0),
        ("behind_a_free_rank", 5, 13, 1),
        ("two_waitalls", 26, 226, 0),
    ])
    def test_cycle_message_and_fields(self, case, processed, n_nodes,
                                      blocked_rank):
        if case == "two_waitalls":
            program = _two_waitall_program()
        else:
            program = deadlock_program()
            if case == "behind_a_free_rank":
                shifted = [[Op(kind=op.kind, duration=op.duration,
                               peer=op.peer + 1, size=op.size, tag=op.tag,
                               step=op.step) if op.peer >= 0 else op
                            for op in rank_ops] for rank_ops in program.ops]
                program = Program(
                    ops=[[Op(kind=OpKind.COMP, duration=T, step=0)]] + shifted,
                    n_steps=1)
        with pytest.raises(EngineError) as exc_info:
            build_dag(program, SimConfig(protocol=Protocol.RENDEZVOUS),
                      cache=False)
        err = exc_info.value
        unresolved = n_nodes - processed
        assert str(err) == (
            f"dependency cycle in program DAG: processed {processed} of "
            f"{n_nodes} nodes ({unresolved} unresolved, first blocked rank "
            f"{blocked_rank}) — this indicates a deadlocking communication "
            "pattern")
        assert (err.n_unprocessed, err.first_blocked_rank) == (
            unresolved, blocked_rank)
