"""The authoritative static-DAG discrete-event engine.

Bulk-synchronous programs with deterministic message matching form a static
dependency DAG: per-rank operations are chained in program order, and each
matched message adds cross-rank edges whose shape depends on the protocol:

- **eager** — the send completes locally (no backward edge); the receive
  request completes at ``max(message arrival, recv posted)``.  Modelled as
  a virtual *completion* node with edges from the ``ISEND`` (weighted by
  the flight time) and the ``IRECV``.
- **rendezvous** — the transfer starts only when *both* the sender and the
  receiver have arrived; both requests complete at the end of the transfer.
  Modelled as a virtual *transfer* node (duration = transfer time) feeding
  both ranks' ``WAITALL``.  This is the mechanism by which delays propagate
  against the message direction (Fig. 5(e,f)).
- **bidirectional rendezvous progress coupling** — the paper measures that
  idle waves travel *twice* as fast under bidirectional rendezvous
  communication (σ = 2 in Eq. 2): "two neighbors of the delayed process are
  blocked in either direction".  We model this as a one-hop coupling rule:
  when a pair of ranks exchanges rendezvous messages in *both* directions
  within a step, the pair's transfers additionally wait for the posting
  times of both endpoints' other same-step rendezvous partners.  The rule
  uses posting (not completion) times, so it reaches exactly one extra hop
  and cannot cascade; it reproduces the measured σ = 2 (and σ·d for d > 1)
  while leaving unidirectional and eager traffic untouched.

The engine separates the **structure** of that DAG from the **weights**
flowing through it.  Message matching is deterministic, so the node/edge
graph depends only on the program's operation schedule and the network
configuration — never on the drawn execution-phase durations.  A campaign
that re-simulates the same program under hundreds of delay/noise draws
therefore builds the graph **once**:

- :func:`build_dag` compiles a program + config into a :class:`StaticDag`
  holding CSR-style NumPy arrays (``succ_indptr``/``succ_index`` successor
  lists, ``edge_delay`` slots) plus a precomputed topological level order;
- the Kahn sweep runs as a vectorized per-level ``np.maximum.at``
  recurrence over ``(n_nodes, B)`` duration columns, so B draws flow
  through one structure as one computation — the DAG-engine analogue of
  :func:`repro.sim.lockstep.simulate_lockstep_batch`;
- a keyed structure cache (program-shape hash → :class:`StaticDag`) lets
  sweeps that vary only delays/noise skip graph construction entirely
  (see :func:`clear_dag_cache` / :func:`dag_cache_info`).

Completion times obey
``end(n) = max over predecessors p of (end(p) + edge_delay) + duration(n)``.
Both ``max`` and the two additions are exact per IEEE-754 value (``max``
selects an argument; the sums are the same two-operand additions the
original scalar sweep performed), so the per-level batched propagation is
**bitwise identical** to a per-draw scalar sweep — the property the
campaign runtime's content-addressed cache relies on.  The result is an
exact event-driven simulation of the program under the given network model
— the same modeling approach as LogGOPSim, which the paper uses as its
simulated comparator.

Timing extraction is columnar: :func:`simulate_dag` /
:func:`simulate_dag_batch` return dense per-(rank, step) timing matrices
(:class:`~repro.core.timing.RunTiming` /
:class:`~repro.core.timing.BatchedTiming`) without building a single
:class:`~repro.sim.trace.OpRecord`; only :func:`simulate` returns a full
:class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro import telemetry
from repro.core.timing import BatchedTiming, RunTiming
from repro.sim.mpi import DEFAULT_EAGER_LIMIT, Protocol, match_messages, select_protocol
from repro.sim.network import NetworkModel, UniformNetwork
from repro.sim.program import (
    LockstepConfig,
    OpKind,
    Program,
    build_lockstep_program,
    check_cells,
)
from repro.sim.topology import CommDomain, ProcessMapping
from repro.sim.trace import OpRecord, Trace

__all__ = [
    "EngineError",
    "SimConfig",
    "StaticDag",
    "build_dag",
    "clear_dag_cache",
    "dag_cache_info",
    "simulate",
    "simulate_dag",
    "simulate_dag_batch",
]


class EngineError(RuntimeError):
    """Propagation could not complete: the dependency graph has a cycle.

    A cycle in the program DAG means the communication pattern deadlocks
    (e.g. two ranks that each wait for the other's rendezvous transfer
    before posting their own).  The error carries enough structure for a
    campaign runner to report *where* the program wedged:

    Attributes
    ----------
    n_unprocessed:
        Number of DAG nodes whose dependencies never resolved.
    first_blocked_rank:
        The lowest-program-order rank owning an unprocessed node, or
        ``-1`` when only virtual (transfer/completion) nodes remain.
    """

    def __init__(self, message: str, *, n_unprocessed: int = 0,
                 first_blocked_rank: int = -1) -> None:
        super().__init__(message)
        self.n_unprocessed = int(n_unprocessed)
        self.first_blocked_rank = int(first_blocked_rank)


@dataclass(frozen=True)
class SimConfig:
    """Everything the engine needs besides the program itself.

    Parameters
    ----------
    network:
        Transfer-time model.
    mapping:
        Rank placement, used to classify each message's
        :class:`~repro.sim.topology.CommDomain`.  When omitted, every pair
        of distinct ranks is treated as inter-node (the "one process per
        node" configuration of Figs. 4, 5 and 7).
    eager_limit:
        Protocol switch point in bytes (used when ``protocol`` is AUTO).
    protocol:
        Force eager or rendezvous for *all* messages, or AUTO for the
        size-based rule.
    """

    network: NetworkModel = field(default_factory=UniformNetwork)
    mapping: ProcessMapping | None = None
    eager_limit: int = DEFAULT_EAGER_LIMIT
    protocol: Protocol = Protocol.AUTO

    def domain(self, a: int, b: int) -> CommDomain:
        if self.mapping is not None:
            return self.mapping.domain(a, b)
        return CommDomain.SELF if a == b else CommDomain.INTER_NODE


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` index ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = starts - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(shifts, counts) + np.arange(total, dtype=np.int64)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; a sort and a mask, several times faster
    than the hash table ``np.unique`` uses for integers."""
    v = np.sort(values)
    return v[np.concatenate(([True], v[1:] != v[:-1]))] if v.size else v


@dataclass
class StaticDag:
    """The delay-independent structure of one program's dependency DAG.

    Built once per (program shape, config) by :func:`build_dag`; per-draw
    execution durations are injected at propagation time.  All
    structural state is held in flat NumPy arrays:

    - ``succ_indptr``/``succ_index`` — CSR successor lists: node ``u``'s
      successors are ``succ_index[succ_indptr[u]:succ_indptr[u+1]]``;
    - ``edge_delay`` — per-edge delay slot, aligned with ``succ_index``
      (flight times of eager arrival edges; 0 elsewhere);
    - ``level_order``/``level_ptr`` — a topological level schedule: the
      nodes of level ``L`` are
      ``level_order[level_ptr[L]:level_ptr[L+1]]`` and depend only on
      nodes of earlier levels;
    - ``base_duration`` — structure-derived node durations (send/recv
      overheads, transfer flight times); execution-phase (``COMP``) slots
      hold 0 and are filled per draw.

    The remaining arrays map DAG nodes back to program coordinates for
    columnar timing extraction (which (rank, step) cell a ``COMP`` or
    ``WAITALL`` node belongs to) and for trace records.
    """

    n_ranks: int
    n_steps: int
    # -- CSR structure -------------------------------------------------
    succ_indptr: np.ndarray  # [n_nodes + 1] int64
    succ_index: np.ndarray  # [n_edges] int64
    edge_delay: np.ndarray  # [n_edges] float64, CSR order
    base_duration: np.ndarray  # [n_nodes] float64 (COMP slots are 0)
    prog_pred: np.ndarray  # [n_nodes] int64, -1 for chain heads / virtual
    # -- topological level schedule -------------------------------------
    level_order: np.ndarray  # [n_nodes] int64 node permutation
    level_ptr: np.ndarray  # [n_levels + 1] int64
    # level-major edge schedule (a permutation of the CSR edges)
    edge_perm: np.ndarray  # [n_edges] int64 CSR positions, level order
    edge_src_lv: np.ndarray  # [n_edges] int64
    edge_dst_lv: np.ndarray  # [n_edges] int64
    # -- program coordinates --------------------------------------------
    comp_node: np.ndarray  # [n_comp] int64, program order
    comp_rank: np.ndarray  # [n_comp] int64
    comp_step: np.ndarray  # [n_comp] int64 (may be out of matrix range)
    comp_op_idx: np.ndarray  # [n_comp] int64 op position within its rank
    wait_node: np.ndarray  # [n_wait] int64, program order
    wait_rank: np.ndarray  # [n_wait] int64
    wait_step: np.ndarray  # [n_wait] int64
    rank_node_ids: tuple  # per rank: int64 array aligned with program ops

    # -- derived (computed in __post_init__) ----------------------------
    #: exactly one COMP + one WAITALL per (rank, step) cell — the shape
    #: whose Waitall entry is one number per cell (``post_end``)
    lockstep_shaped: bool = field(init=False, repr=False)
    _edge_delay_lv: np.ndarray = field(init=False, repr=False)
    _comp_in: np.ndarray = field(init=False, repr=False)  # step-in-range mask
    _wait_in: np.ndarray = field(init=False, repr=False)
    _no_comp: np.ndarray = field(init=False, repr=False)  # [P, S] bool
    _no_wait: np.ndarray = field(init=False, repr=False)
    _comp_cells_unique: bool = field(init=False, repr=False)
    _level_edge_ptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._edge_delay_lv = np.ascontiguousarray(
            self.edge_delay[self.edge_perm])[:, None]
        self._comp_in = (0 <= self.comp_step) & (self.comp_step < self.n_steps)
        self._wait_in = (0 <= self.wait_step) & (self.wait_step < self.n_steps)
        self._no_comp = np.ones((self.n_ranks, self.n_steps), dtype=bool)
        self._no_comp[self.comp_rank[self._comp_in],
                      self.comp_step[self._comp_in]] = False
        self._no_wait = np.ones((self.n_ranks, self.n_steps), dtype=bool)
        self._no_wait[self.wait_rank[self._wait_in],
                      self.wait_step[self._wait_in]] = False
        # Exactly one COMP and one WAITALL per (rank, step) cell?  Only
        # then does each cell have one Waitall entry time.
        n_cells = self.n_ranks * self.n_steps
        comp_counts = np.bincount(
            self.comp_rank[self._comp_in] * self.n_steps
            + self.comp_step[self._comp_in], minlength=n_cells)
        wait_counts = np.bincount(
            self.wait_rank[self._wait_in] * self.n_steps
            + self.wait_step[self._wait_in], minlength=n_cells)
        self._comp_cells_unique = bool(np.all(comp_counts <= 1))
        self.lockstep_shaped = bool(
            np.all(self._comp_in) and np.all(self._wait_in)
            and self._comp_cells_unique and np.all(comp_counts == 1)
            and np.all(wait_counts == 1)
        )
        # Per-level edge ranges: level L's outgoing edges are the CSR rows
        # of its nodes, concatenated in level order (== edge_perm ranges).
        row_counts = self.succ_indptr[1:] - self.succ_indptr[:-1]
        level_edge_counts = np.add.reduceat(
            np.concatenate((row_counts[self.level_order], [0])),
            self.level_ptr[:-1],
        ) if self.n_levels else np.empty(0, dtype=np.int64)
        self._level_edge_ptr = np.concatenate(
            ([0], np.cumsum(level_edge_counts))).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.succ_indptr.shape[0] - 1)

    @property
    def n_edges(self) -> int:
        return int(self.succ_index.shape[0])

    @property
    def n_levels(self) -> int:
        return int(self.level_ptr.shape[0] - 1)

    # ------------------------------------------------------------------
    # duration assembly
    # ------------------------------------------------------------------
    def durations_for(self, program: Program) -> np.ndarray:
        """Per-node durations with ``program``'s COMP phases filled in.

        ``program`` must have the same shape as the one this structure
        was built from (same operation schedule; only durations differ).
        """
        dur = self.base_duration.copy()
        if self.comp_node.size:
            ops = program.ops
            dur[self.comp_node] = [
                ops[r][j].duration for r, j in zip(self.comp_rank.tolist(),
                                                   self.comp_op_idx.tolist())
            ]
        return dur

    def durations_from_exec(self, exec_times: np.ndarray) -> np.ndarray:
        """Per-node durations from a dense ``(..., P, S)`` execution matrix.

        Valid for lockstep-shaped programs (one ``COMP`` per rank and
        step); leading axes become batch axes of the returned
        ``(..., n_nodes)`` array.
        """
        exec_times = np.asarray(exec_times, dtype=float)
        if exec_times.shape[-2:] != (self.n_ranks, self.n_steps):
            raise ValueError(
                f"exec_times shape {exec_times.shape} does not end in "
                f"({self.n_ranks}, {self.n_steps})"
            )
        if not np.all(self._comp_in):
            raise ValueError(
                "program has COMP phases outside the step grid; use "
                "durations_for(program) instead"
            )
        if not self._comp_cells_unique:
            raise ValueError(
                "program has several COMP phases in one (rank, step) cell — "
                "a dense exec-time matrix cannot address them individually; "
                "use durations_for(program) instead"
            )
        lead = exec_times.shape[:-2]
        dur = np.broadcast_to(self.base_duration, (*lead, self.n_nodes)).copy()
        dur[..., self.comp_node] = exec_times[..., self.comp_rank, self.comp_step]
        return dur

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate_cols(self, dur_cols: np.ndarray
                        ) -> "tuple[np.ndarray, np.ndarray]":
        """Topological sweep in ``(n_nodes, B)`` layout; returns
        ``(ready, end)``.

        Every column is bitwise identical to a scalar sweep of that
        column.  ``ready[u]`` is the time node ``u``'s dependencies
        resolved (the record *start* time of non-WAITALL operations);
        ``end[u]`` is ``ready[u] + duration[u]``.
        """
        n, b = dur_cols.shape
        delay_lv = self._edge_delay_lv
        ready = np.zeros((n, b))
        end = np.empty((n, b))
        level_ptr, edge_ptr = self.level_ptr, self._level_edge_ptr
        order, src_lv, dst_lv = self.level_order, self.edge_src_lv, self.edge_dst_lv
        with telemetry.span("engine.dag.propagate", batch=b,
                            n_levels=self.n_levels, n_nodes=n):
            for lv in range(self.n_levels):
                nodes = order[level_ptr[lv]:level_ptr[lv + 1]]
                end[nodes] = ready[nodes] + dur_cols[nodes]
                e0, e1 = edge_ptr[lv], edge_ptr[lv + 1]
                if e1 > e0:
                    np.maximum.at(
                        ready, dst_lv[e0:e1], end[src_lv[e0:e1]] + delay_lv[e0:e1]
                    )
        return ready, end

    # ------------------------------------------------------------------
    # columnar timing extraction
    # ------------------------------------------------------------------
    def _timing_cols(self, ready: np.ndarray, end: np.ndarray) -> dict:
        """Dense ``(B, P, S)`` matrices from per-node ``(n_nodes, B)`` times.

        Returns the :class:`~repro.core.timing.BatchedTiming` matrices
        with exactly the semantics of :class:`~repro.sim.trace.Trace`'s
        matrix methods (max/min reduction over same-cell records, NaN
        where a cell has no record, idle summed over a cell's Waitalls in
        program order).  ``post_end`` holds each cell's WAITALL record
        start, and is ``None`` unless the program is lockstep-shaped.
        """
        p, s, b = self.n_ranks, self.n_steps, end.shape[1]
        cn = self.comp_node[self._comp_in]
        cr = self.comp_rank[self._comp_in]
        cs = self.comp_step[self._comp_in]
        wn = self.wait_node[self._wait_in]
        wr = self.wait_rank[self._wait_in]
        ws = self.wait_step[self._wait_in]

        exec_end = np.full((p, s, b), -np.inf)
        np.maximum.at(exec_end, (cr, cs), end[cn])
        exec_end[self._no_comp] = np.nan

        exec_start = np.full((p, s, b), np.inf)
        np.minimum.at(exec_start, (cr, cs), ready[cn])
        exec_start[self._no_comp] = np.nan

        completion = np.full((p, s, b), -np.inf)
        np.maximum.at(completion, (wr, ws), end[wn])
        completion[self._no_wait] = np.nan

        # A WAITALL's record start is its local-chain readiness: the end of
        # its program predecessor (0 at a chain head), not ``ready`` —
        # cross-rank request edges must not shift the wait's start.
        pred = self.prog_pred[wn]
        wait_start = np.where((pred >= 0)[:, None],
                              end[np.maximum(pred, 0)], 0.0)
        idle = np.zeros((p, s, b))
        np.add.at(idle, (wr, ws), end[wn] - wait_start)
        post_end = None
        if self.lockstep_shaped:
            post_end = np.empty((p, s, b))
            post_end[wr, ws] = wait_start

        to_batch = lambda m: np.ascontiguousarray(np.moveaxis(m, -1, 0))
        return {"exec_start": to_batch(exec_start),
                "exec_end": to_batch(exec_end),
                "completion": to_batch(completion), "idle": to_batch(idle),
                "post_end": None if post_end is None else to_batch(post_end)}


def _levels(indptr: np.ndarray, succ: np.ndarray, op_rank: np.ndarray
            ) -> "tuple[np.ndarray, np.ndarray]":
    """Kahn level schedule over CSR rows, each level sorted by node id;
    raises :class:`EngineError` on a cycle.  Returns ``(level_order,
    level_ptr)``."""
    n = indptr.size - 1
    indeg = np.bincount(succ, minlength=n)
    ptr, succ = indptr.tolist(), succ.tolist()
    frontier = np.flatnonzero(indeg == 0).tolist()
    indeg = indeg.tolist()
    order: list[int] = []
    level_ptr = [0]
    while frontier:
        order += frontier
        level_ptr.append(len(order))
        ready = []
        for u in frontier:
            for v in succ[ptr[u]:ptr[u + 1]]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        ready.sort()
        frontier = ready
    if len(order) != n:
        first = next(u for u, k in enumerate(indeg) if k)
        first_blocked = int(op_rank[first]) if first < op_rank.size else -1
        raise EngineError(
            f"dependency cycle in program DAG: processed {len(order)} of {n} nodes "
            f"({n - len(order)} unresolved, first blocked rank {first_blocked}) — "
            "this indicates a deadlocking communication pattern",
            n_unprocessed=n - len(order),
            first_blocked_rank=first_blocked,
        )
    return np.array(order, dtype=np.int64), np.array(level_ptr, dtype=np.int64)


def _coupling_edges(rank: np.ndarray, peer: np.ndarray, step: np.ndarray,
                    local: np.ndarray, waits: np.ndarray, send: np.ndarray,
                    transfer: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(src, dst)`` of the progress-coupling edges, in match order.

    ``send`` holds the ISEND op of each rendezvous match and ``transfer``
    its transfer node.  When a pair exchanges rendezvous messages both
    ways in one step, each of its transfers also waits for the
    posting-complete node (the op before the step's last WAITALL) of
    every same-step rendezvous partner of either endpoint.
    """
    if not send.size:
        return send, transfer
    # The anchor of (rank, step) precedes its last WAITALL; a WAITALL at a
    # chain head anchors nothing.
    w = waits[local[waits] > 0]
    anchor = dict(zip(zip(rank[w].tolist(), step[w].tolist()), (w - 1).tolist()))
    msgs = list(zip(rank[send].tolist(), peer[send].tolist(),
                    step[send].tolist()))
    # partner_anchors[r, st]: the anchors of r's rendezvous partners in st.
    partner_anchors: "defaultdict[tuple[int, int], set[int]]" = defaultdict(set)
    for a, b, st in msgs:
        if (b, st) in anchor:
            partner_anchors[a, st].add(anchor[b, st])
        if (a, st) in anchor:
            partner_anchors[b, st].add(anchor[a, st])
    both_ways = set(msgs)
    src: list[int] = []
    dst: list[int] = []
    for (a, b, st), node in zip(msgs, transfer.tolist()):
        if a != b and (b, a, st) in both_ways:
            coupled = partner_anchors[a, st] | partner_anchors[b, st]
            src += coupled
            dst += [node] * len(coupled)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _dag_from_shape(n_steps: int, shape: tuple, config: SimConfig) -> StaticDag:
    """Freeze one program shape's dependency DAG (uncached).

    ``shape`` holds one tuple per rank of ``(kind, peer, size, tag, step)``
    per operation, the structure-cache key's program part.  Node ``g`` is
    the ``g``-th operation in rank-major program order; one virtual node
    per matched message follows, in the order the matches complete.  The
    edges are listed as chain edges, then each match's four protocol
    edges, then the progress-coupling edges; a stable sort by source
    turns that list into CSR rows that keep it.
    """
    n_ranks = len(shape)
    counts = np.fromiter(map(len, shape), dtype=np.int64, count=n_ranks)
    n_ops = int(counts.sum())
    kind, peer, size, tag, step = np.fromiter(
        chain.from_iterable(chain.from_iterable(shape)), dtype=np.int64,
        count=5 * n_ops).reshape(n_ops, 5).T
    ops = np.arange(n_ops, dtype=np.int64)
    rank = np.repeat(np.arange(n_ranks, dtype=np.int64), counts)
    local = ops - np.repeat(np.cumsum(counts) - counts, counts)
    is_send = kind == OpKind.ISEND
    sends = np.flatnonzero(is_send)
    reqs = np.flatnonzero(is_send | (kind == OpKind.IRECV))
    waits = np.flatnonzero(kind == OpKind.WAITALL)

    # Send overheads, one domain per distinct (rank, peer), looked up in
    # first-use order so that a failing lookup names the op a walk would.
    width = int(peer.max(initial=0)) + 1
    pair_code = rank[sends] * width + peer[sends]
    pairs = _distinct(pair_code)
    pair_of_send = np.searchsorted(pairs, pair_code)
    domains: dict[int, CommDomain] = {}
    send_overhead = np.empty(pairs.size)
    for i in dict.fromkeys(pair_of_send.tolist()):
        domains[i] = config.domain(*divmod(int(pairs[i]), width))
        send_overhead[i] = config.network.send_overhead(domains[i])

    # Each request completes at its rank's next WAITALL.
    wait_of = np.empty(n_ops, dtype=np.int64)
    wait_of[reqs] = np.append(waits, n_ops)[np.searchsorted(waits, reqs)]
    uncovered = reqs[np.append(rank, -1)[wait_of[reqs]] != rank[reqs]]
    if uncovered.size:
        r = int(rank[uncovered[0]])
        raise ValueError(
            f"rank {r} ends with {int(np.count_nonzero(rank[uncovered] == r))} "
            "requests not covered by a WAITALL"
        )

    on_send = is_send[reqs]
    send_pos, recv_pos = match_messages(
        np.where(on_send, rank[reqs], peer[reqs]),
        np.where(on_send, peer[reqs], rank[reqs]), tag[reqs], on_send)
    send, recv = reqs[send_pos], reqs[recv_pos]
    n_match = send.size
    virtual = n_ops + np.arange(n_match, dtype=np.int64)

    # Protocol, flight time and node duration per distinct (pair, size).
    sizes = _distinct(size[send])
    combo_code = (pair_of_send[np.searchsorted(sends, send)] * sizes.size
                  + np.searchsorted(sizes, size[send]))
    combos = _distinct(combo_code)
    combo_of = np.searchsorted(combos, combo_code)
    flight = np.empty(combos.size)
    node_duration = np.empty(combos.size)
    rendezvous = np.empty(combos.size, dtype=bool)
    for i, combo in enumerate(combos.tolist()):
        pair, size_idx = divmod(combo, sizes.size)
        nbytes, domain = int(sizes[size_idx]), domains[pair]
        proto = select_protocol(nbytes, config.eager_limit, config.protocol)
        flight[i] = t_flight = config.network.transfer_time(nbytes, domain)
        o_recv = config.network.recv_overhead(domain)
        rendezvous[i] = proto != Protocol.EAGER
        node_duration[i] = t_flight + o_recv if rendezvous[i] else o_recv
    flight, rendezvous = flight[combo_of], rendezvous[combo_of]

    # Protocol edges, four per match.  Eager: ISEND -> its WAITALL, ISEND
    # -> completion node (flight), IRECV -> completion, completion -> the
    # recv's WAITALL.  Rendezvous: both requests -> transfer node -> both
    # WAITALLs.
    ws, wr = wait_of[send], wait_of[recv]
    rdv = rendezvous[:, None]
    wire_src = np.where(rdv, np.stack((send, recv, virtual, virtual), axis=1),
                        np.stack((send, send, recv, virtual), axis=1))
    wire_dst = np.where(rdv, np.stack((virtual, virtual, ws, wr), axis=1),
                        np.stack((ws, virtual, virtual, wr), axis=1))
    wire_delay = np.zeros((n_match, 4))
    wire_delay[:, 1] = np.where(rendezvous, 0.0, flight)
    couple_src, couple_dst = _coupling_edges(
        rank, peer, step, local, waits, send[rendezvous], virtual[rendezvous])

    chained = np.flatnonzero(local > 0)
    src = np.concatenate((chained - 1, wire_src.ravel(), couple_src))
    by_src = np.argsort(src, kind="stable")
    n = n_ops + n_match
    succ = np.concatenate((chained, wire_dst.ravel(), couple_dst))[by_src]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    level_order, level_ptr = _levels(indptr, succ, rank)
    rows = np.diff(indptr)[level_order]
    edge_perm = _concat_ranges(indptr[level_order], rows)

    base_duration = np.zeros(n)
    base_duration[sends] = send_overhead[pair_of_send]
    base_duration[n_ops:] = node_duration[combo_of]
    comps = np.flatnonzero(kind == OpKind.COMP)
    return StaticDag(
        n_ranks=n_ranks,
        n_steps=n_steps,
        succ_indptr=indptr,
        succ_index=succ,
        edge_delay=np.concatenate((np.zeros(chained.size), wire_delay.ravel(),
                                   np.zeros(couple_src.size)))[by_src],
        base_duration=base_duration,
        prog_pred=np.concatenate((np.where(local > 0, ops - 1, -1),
                                  np.full(n_match, -1, dtype=np.int64))),
        level_order=level_order,
        level_ptr=level_ptr,
        edge_perm=edge_perm,
        edge_src_lv=np.repeat(level_order, rows),
        edge_dst_lv=succ[edge_perm],
        comp_node=comps,
        comp_rank=rank[comps],
        comp_step=step[comps],
        comp_op_idx=local[comps],
        wait_node=waits,
        wait_rank=rank[waits],
        wait_step=step[waits],
        rank_node_ids=tuple(np.split(ops, np.cumsum(counts)[:-1])),
    )


# ----------------------------------------------------------------------
# structure cache
# ----------------------------------------------------------------------

_DAG_CACHE: "OrderedDict[tuple, StaticDag]" = OrderedDict()
_DAG_CACHE_MAX = 16
_DAG_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _program_shape_key(program: Program) -> tuple:
    """Hashable program shape: every structural field, no COMP durations."""
    return (
        program.n_steps,
        tuple(
            tuple((int(op.kind), op.peer, op.size, op.tag, op.step)
                  for op in rank_ops)
            for rank_ops in program.ops
        ),
    )


def _config_key(config: SimConfig) -> tuple:
    # dataclass reprs are deterministic and cover every field that feeds
    # edge construction (per-domain flights/overheads, placement).
    return (config.protocol, config.eager_limit,
            type(config.network).__name__, repr(config.network),
            repr(config.mapping))


def build_dag(program: Program, config: "SimConfig | None" = None,
              cache: bool = True) -> StaticDag:
    """Compile a program + config into a :class:`StaticDag` (cached).

    The cache key is the program's *shape* (operation kinds, peers, sizes,
    tags, steps — everything except COMP durations) plus the config's
    network/mapping/protocol parameters, so a delay campaign's draws all
    hit one entry.  See CONTRIBUTING.md for when the cache must be
    invalidated (:func:`clear_dag_cache`).
    """
    if config is None:
        config = SimConfig()
    shape = _program_shape_key(program)
    if cache:
        key = (shape, _config_key(config))
        dag = _DAG_CACHE.get(key)
        if dag is not None:
            _DAG_CACHE.move_to_end(key)
            _DAG_CACHE_STATS["hits"] += 1
            telemetry.count("dag.cache.hits")
            return dag
        _DAG_CACHE_STATS["misses"] += 1
        telemetry.count("dag.cache.misses")
    with telemetry.span("engine.build_dag", cached=cache) as sp:
        dag = _dag_from_shape(*shape, config)
        sp.set(n_nodes=dag.n_nodes, n_edges=dag.n_edges,
               n_levels=dag.n_levels)
    if cache:
        _DAG_CACHE[key] = dag
        while len(_DAG_CACHE) > _DAG_CACHE_MAX:
            _DAG_CACHE.popitem(last=False)
            _DAG_CACHE_STATS["evictions"] += 1
            telemetry.count("dag.cache.evictions")
    return dag


def clear_dag_cache() -> None:
    """Drop every cached :class:`StaticDag` and reset the hit statistics."""
    _DAG_CACHE.clear()
    _DAG_CACHE_STATS.update(hits=0, misses=0, evictions=0)


def dag_cache_info() -> dict:
    """Cache observability: size/occupancy plus the always-on hit, miss,
    and eviction counters (mirrored into telemetry as ``dag.cache.*``
    when a recorder is enabled)."""
    return {"size": len(_DAG_CACHE), "max_size": _DAG_CACHE_MAX,
            **_DAG_CACHE_STATS}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def _dag_meta(program_meta: dict, config: SimConfig) -> dict:
    return {**program_meta, "engine": "dag", "protocol": config.protocol.value,
            "eager_limit": config.eager_limit}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def simulate(program: Program, config: SimConfig | None = None) -> Trace:
    """Run one program to completion and return its full trace.

    The simulation is deterministic: all randomness (noise, delays) is baked
    into the program's ``COMP`` durations at construction time.  The DAG
    structure is resolved through the build cache, so repeated calls with
    same-shaped programs (a delay campaign's draws) skip graph
    construction and only re-propagate the weights.

    Raises
    ------
    ValueError
        If the program contains unmatched sends/receives.
    EngineError
        If the communication pattern deadlocks (dependency cycle).
    """
    if config is None:
        config = SimConfig()
    dag = build_dag(program, config)
    ready, end = dag._propagate_cols(dag.durations_for(program)[:, None])
    ready, end = ready[:, 0].tolist(), end[:, 0].tolist()
    prog_pred = dag.prog_pred.tolist()

    records: list[OpRecord] = []
    for rank, (rank_ops, node_ids) in enumerate(zip(program.ops, dag.rank_node_ids)):
        for op, node in zip(rank_ops, node_ids.tolist()):
            if op.kind == OpKind.WAITALL:
                pred = prog_pred[node]
                start = end[pred] if pred >= 0 else 0.0
            else:
                start = ready[node]
            # positional: keyword parsing costs a fifth of the record
            records.append(OpRecord(rank, op.step, op.kind, start, end[node],
                                    op.peer, op.size))

    return Trace(
        n_ranks=program.n_ranks,
        n_steps=program.n_steps,
        records=records,
        meta=_dag_meta(program.meta, config),
    )


def simulate_dag(program: Program, config: SimConfig | None = None) -> RunTiming:
    """Run one program and return dense timing matrices (no records).

    The columnar fast path of the DAG engine: identical numbers to
    :func:`simulate` (``exec_end`` is bitwise equal to
    ``trace.exec_end_matrix()``, ``post_end`` to the WAITALL record
    starts, and so on) without materializing a single
    :class:`~repro.sim.trace.OpRecord`.  ``program`` and ``config`` are
    as in :func:`simulate`.
    """
    if config is None:
        config = SimConfig()
    dag = build_dag(program, config)
    ready, end = dag._propagate_cols(dag.durations_for(program)[:, None])
    return BatchedTiming(**dag._timing_cols(ready, end),
                         meta=_dag_meta(program.meta, config))[0]


def simulate_dag_batch(cfg: LockstepConfig, exec_times: np.ndarray,
                       config: SimConfig | None = None) -> BatchedTiming:
    """Simulate B lockstep-program draws as one batched DAG propagation.

    The DAG-engine analogue of
    :func:`repro.sim.lockstep.simulate_lockstep_batch`: the program
    structure is built (or fetched from the structure cache) once and the
    B duration vectors flow through it as a single ``(n_nodes, B)``
    sweep.

    Parameters
    ----------
    cfg:
        Shared experiment parameters (ranks, steps, pattern, message
        size).  ``cfg.delays``/``cfg.noise``/``cfg.seed`` are *not*
        consulted — all per-run variation must already be baked into
        ``exec_times``.
    exec_times:
        ``[n_batch, n_ranks, n_steps]`` execution durations, one matrix
        per run, each finite and non-negative.
    config:
        Network/placement/protocol configuration shared by all runs.

    Returns
    -------
    BatchedTiming
        ``[n_batch, n_ranks, n_steps]`` timing matrices whose slices are
        bitwise identical to the corresponding per-draw runs.
    """
    if config is None:
        config = SimConfig()
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.ndim != 3 or exec_times.shape[1:] != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != "
            f"(n_batch, {cfg.n_ranks}, {cfg.n_steps})"
        )
    if exec_times.shape[0] < 1:
        raise ValueError("batch must contain at least one run")
    check_cells("exec_times", exec_times)

    program = build_lockstep_program(cfg, exec_times[0])
    dag = build_dag(program, config)
    durations = dag.durations_from_exec(exec_times)
    ready, end = dag._propagate_cols(
        np.ascontiguousarray(durations.reshape(-1, dag.n_nodes).T))
    meta = _dag_meta(program.meta, config)
    meta["n_batch"] = int(exec_times.shape[0])
    return BatchedTiming(**dag._timing_cols(ready, end), meta=meta)
