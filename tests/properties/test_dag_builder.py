"""Property-based contract: the array DAG builder == the per-op walker.

``build_dag`` builds a :class:`~repro.sim.engine.StaticDag` with array
operations.  ``walk`` below is the per-op walker it replaced, kept here as
the reference: for random programs (any mix of sends, receives, computes
and Waitalls, messages to self, several Waitalls per step, eager,
rendezvous or size-based protocols, flat or per-domain links) both must
produce the same fields, dtypes included, or raise the same error with
the same text.
"""

from collections import defaultdict, deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    EngineError,
    HockneyModel,
    Protocol,
    SimConfig,
    StaticDag,
    build_dag,
    select_protocol,
)
from repro.sim.program import Op, OpKind, Program
from repro.sim.topology import single_switch_mapping

T = 3e-3


def _levelize(n, indptr, succ, node_rank):
    indeg = np.bincount(succ, minlength=n).astype(np.int64)
    frontier = np.flatnonzero(indeg == 0)
    order, perm, srcs, level_ptr = [], [], [], [0]
    while frontier.size:
        order.append(frontier)
        level_ptr.append(level_ptr[-1] + frontier.size)
        for u in frontier:
            perm.append(np.arange(indptr[u], indptr[u + 1]))
            srcs.append(np.full(indptr[u + 1] - indptr[u], u))
        dsts = succ[np.concatenate(perm[-frontier.size:])]
        np.subtract.at(indeg, dsts, 1)
        cand = np.unique(dsts)
        frontier = cand[indeg[cand] == 0]
    if level_ptr[-1] != n:
        done = np.concatenate(order) if order else np.empty(0, np.int64)
        blocked = node_rank[np.setdiff1d(np.arange(n), done)]
        blocked = blocked[blocked >= 0]
        first = int(blocked[0]) if blocked.size else -1
        raise EngineError(
            f"dependency cycle in program DAG: processed {level_ptr[-1]} of {n} "
            f"nodes ({n - level_ptr[-1]} unresolved, first blocked rank {first}) "
            "— this indicates a deadlocking communication pattern",
            n_unprocessed=n - level_ptr[-1], first_blocked_rank=first)
    cat = lambda parts: (np.concatenate(parts).astype(np.int64) if parts
                         else np.empty(0, np.int64))
    perm = cat(perm)
    return cat(order), np.asarray(level_ptr, np.int64), perm, cat(srcs), succ[perm]


def walk(program: Program, config: SimConfig) -> StaticDag:
    """Walk the program op by op, matching messages as they are posted."""
    duration, succs, prog_pred, node_rank = [], [], [], []

    def add_node(d, pred=-1, rank=-1):
        node = len(duration)
        duration.append(d)
        succs.append([])
        prog_pred.append(pred)
        node_rank.append(rank)
        if pred >= 0:
            succs[pred].append((node, 0.0))
        return node

    sends_waiting, recvs_waiting = defaultdict(deque), defaultdict(deque)
    matches, ids, coords, waitall_of, step_of, prewait = [], [], [], {}, {}, {}
    for rank, rank_ops in enumerate(program.ops):
        prev, pending, rank_ids = -1, [], []
        for j, op in enumerate(rank_ops):
            if op.kind == OpKind.WAITALL and prev >= 0:
                prewait[(rank, op.step)] = prev
            d = 0.0
            if op.kind == OpKind.ISEND:
                d = config.network.send_overhead(config.domain(rank, op.peer))
            node = add_node(d, prev, rank)
            coords.append((op.kind, node, rank, op.step, j))
            if op.kind == OpKind.ISEND:
                key = (rank, op.peer, op.tag)
                if recvs_waiting[key]:
                    matches.append((*key, op.size, node, recvs_waiting[key].popleft()))
                else:
                    sends_waiting[key].append((node, op.size))
                step_of[node] = op.step
            elif op.kind == OpKind.IRECV:
                key = (op.peer, rank, op.tag)
                if sends_waiting[key]:
                    s_node, size = sends_waiting[key].popleft()
                    matches.append((*key, size, s_node, node))
                else:
                    recvs_waiting[key].append(node)
            if op.kind in (OpKind.ISEND, OpKind.IRECV):
                pending.append(node)
            elif op.kind == OpKind.WAITALL:
                waitall_of.update(dict.fromkeys(pending, node))
                pending = []
            rank_ids.append(node)
            prev = node
        if pending:
            raise ValueError(f"rank {rank} ends with {len(pending)} requests "
                             "not covered by a WAITALL")
        ids.append(np.asarray(rank_ids, dtype=np.int64))
    left_s = {k: len(v) for k, v in sends_waiting.items() if v}
    left_r = {k: len(v) for k, v in recvs_waiting.items() if v}
    if left_s or left_r:
        raise ValueError("program has unmatched point-to-point operations: "
                         f"sends={left_s} recvs={left_r}")

    partners, directions, transfers = defaultdict(set), defaultdict(set), []
    for src, dst, tag, size, s_node, r_node in matches:
        domain = config.domain(src, dst)
        proto = select_protocol(size, config.eager_limit, config.protocol)
        flight = config.network.transfer_time(size, domain)
        o_recv = config.network.recv_overhead(domain)
        ws, wr = waitall_of[s_node], waitall_of[r_node]
        if proto == Protocol.EAGER:
            succs[s_node].append((ws, 0.0))
            done = add_node(o_recv)
            succs[s_node].append((done, flight))
            succs[r_node].append((done, 0.0))
            succs[done].append((wr, 0.0))
        else:
            transfer = add_node(flight + o_recv)
            succs[s_node].append((transfer, 0.0))
            succs[r_node].append((transfer, 0.0))
            succs[transfer] += [(ws, 0.0), (wr, 0.0)]
            step = step_of[s_node]
            partners[(src, step)].add(dst)
            partners[(dst, step)].add(src)
            directions[(min(src, dst), max(src, dst), step)].add((src, dst))
            transfers.append((src, dst, transfer, step))
    for src, dst, transfer, step in transfers:
        if len(directions[(min(src, dst), max(src, dst), step)]) < 2:
            continue
        for p in partners[(src, step)] | partners[(dst, step)]:
            if (p, step) in prewait:
                succs[prewait[(p, step)]].append((transfer, 0.0))

    n = len(duration)
    indptr = np.concatenate(([0], np.cumsum([len(s) for s in succs]))).astype(np.int64)
    succ = np.asarray([d for s in succs for d, _ in s], dtype=np.int64)
    delay = np.asarray([w for s in succs for _, w in s], dtype=float)
    order, level_ptr, perm, src_lv, dst_lv = _levelize(
        n, indptr, succ, np.asarray(node_rank, dtype=np.int64))
    column = lambda kind, i: np.asarray(
        [c[i] for c in coords if c[0] == kind], dtype=np.int64)
    return StaticDag(
        n_ranks=program.n_ranks, n_steps=program.n_steps,
        succ_indptr=indptr, succ_index=succ, edge_delay=delay,
        base_duration=np.asarray(duration, dtype=float),
        prog_pred=np.asarray(prog_pred, dtype=np.int64),
        level_order=order, level_ptr=level_ptr, edge_perm=perm,
        edge_src_lv=src_lv, edge_dst_lv=dst_lv,
        comp_node=column(OpKind.COMP, 1), comp_rank=column(OpKind.COMP, 2),
        comp_step=column(OpKind.COMP, 3), comp_op_idx=column(OpKind.COMP, 4),
        wait_node=column(OpKind.WAITALL, 1), wait_rank=column(OpKind.WAITALL, 2),
        wait_step=column(OpKind.WAITALL, 3), rank_node_ids=tuple(ids))


def outcome(build):
    """Every init field as (dtype, shape, bytes), or the error raised."""
    try:
        dag = build()
    except (ValueError, EngineError) as err:
        return (type(err).__name__, str(err), getattr(err, "n_unprocessed", None),
                getattr(err, "first_blocked_rank", None))
    as_bytes = lambda a: (a.dtype.str, a.shape, a.tobytes())
    return {name: (tuple(map(as_bytes, value)) if name == "rank_node_ids"
                   else as_bytes(value) if isinstance(value, np.ndarray) else value)
            for name, value in vars(dag).items() if not name.startswith("_")
            and name != "lockstep_shaped"}


@st.composite
def programs(draw):
    """Bulk-synchronous steps of random messages (often both ways between
    a pair), each rank's step closed by a WAITALL, then perturbed: an
    extra WAITALL inside a step, a stray step label, a missing last
    WAITALL, a dropped op."""
    n_ranks = draw(st.integers(min_value=1, max_value=5))
    n_steps = draw(st.integers(min_value=1, max_value=3))
    rank = st.integers(min_value=0, max_value=n_ranks - 1)
    rare = lambda: draw(st.integers(min_value=0, max_value=9)) == 0
    label = lambda s: draw(st.integers(-1, 2)) if rare() else s
    ops = [[] for _ in range(n_ranks)]
    for s in range(n_steps):
        blocks = [[Op(kind=OpKind.COMP, duration=T, step=label(s))]
                  for _ in range(n_ranks)]
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            src, dst, tag = draw(rank), draw(rank), draw(st.integers(0, 2))
            size = draw(st.sampled_from([0, 8, 200_000]))
            for a, b in [(src, dst), (dst, src)][:draw(st.integers(1, 2))]:
                for owner, op in ((a, Op(kind=OpKind.ISEND, peer=b, size=size,
                                         tag=tag, step=label(s))),
                                  (b, Op(kind=OpKind.IRECV, peer=a, tag=tag,
                                         step=label(s)))):
                    block = blocks[owner]
                    block.insert(draw(st.integers(1, len(block))), op)
        for block in blocks:
            if rare():
                block.insert(draw(st.integers(0, len(block))),
                             Op(kind=OpKind.WAITALL, step=label(s)))
            if s + 1 < n_steps or not rare():
                block.append(Op(kind=OpKind.WAITALL, step=label(s)))
        for rank_ops, block in zip(ops, blocks):
            rank_ops += block
    if rare():
        victim = draw(rank)
        del ops[victim][draw(st.integers(0, len(ops[victim]) - 1))]
    protocol = draw(st.sampled_from(list(Protocol)))
    if draw(st.booleans()):
        config = SimConfig(network=HockneyModel(), protocol=protocol,
                           mapping=single_switch_mapping(
                               n_ranks, ppn=draw(st.sampled_from([1, 2, 4]))))
    else:
        config = SimConfig(protocol=protocol)
    return Program(ops=ops, n_steps=draw(st.integers(0, 3))), config


def _op(kind, step, peer=-1):
    return Op(kind=kind, duration=T if kind == OpKind.COMP else 0.0,
              peer=peer, size=8, step=step)


#: Ranks 0 and 1 exchange rendezvous messages both ways in step 0, but
#: rank 1's only step-0 WAITALL heads its chain: (1, 0) anchors no
#: progress-coupling edge (rarely drawn by ``programs``).
CHAIN_HEAD_WAITALL = (Program(ops=[
    [_op(OpKind.COMP, 0), _op(OpKind.ISEND, 0, 1), _op(OpKind.IRECV, 0, 1),
     _op(OpKind.WAITALL, 0)],
    [_op(OpKind.WAITALL, 0), _op(OpKind.COMP, 0), _op(OpKind.ISEND, 0, 0),
     _op(OpKind.IRECV, 0, 0), _op(OpKind.WAITALL, 1)],
], n_steps=2), SimConfig(protocol=Protocol.RENDEZVOUS))


@given(programs())
@example(CHAIN_HEAD_WAITALL)
@settings(max_examples=300)
def test_array_builder_equals_the_walker(case):
    program, config = case
    assert outcome(lambda: build_dag(program, config, cache=False)) == \
        outcome(lambda: walk(program, config))
