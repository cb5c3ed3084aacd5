"""Batched, hierarchy-aware vectorized engine for the lockstep pattern.

For the bulk-synchronous programs built by
:func:`repro.sim.program.build_lockstep_program`, the per-step completion
times obey a simple recurrence over ranks that can be evaluated with
:mod:`numpy` in O(N·d) per step instead of walking a DAG.  This makes runs
like the 100-rank × 10⁴-step LBM timeline (Fig. 2) tractable.

Two generalizations widen the fast path beyond the original flat-network
engine:

- **hierarchy** — a :class:`~repro.sim.topology.ProcessMapping` plus a
  per-domain :class:`~repro.sim.network.NetworkModel` give every message
  its own flight time and overheads depending on where the two endpoints
  live (intra-socket / inter-socket / inter-node, Sec. II-B).  Because the
  lockstep pattern only ever connects rank ``i`` to ``i ± k``, the
  per-message parameters collapse to one ``[n_ranks]`` array per neighbor
  offset, and the recurrence stays fully vectorized.
- **batching** — :func:`simulate_lockstep_batch` accepts a
  ``[B, n_ranks, n_steps]`` stack of execution-time matrices (e.g. B draws
  of a random delay campaign) and simulates all B runs as one
  ``(B, n_ranks)``-shaped recurrence.  Every operation is elementwise
  along the batch axis, so each slice of the result is **bit-identical**
  to the corresponding unbatched run — the property the campaign runtime's
  content-addressed cache relies on (see ``tests/properties/``).

The recurrence mirrors the DAG engine exactly (see
``tests/properties/test_engine_equivalence.py`` and
``tests/properties/test_hierarchy_equivalence.py`` for the machine-checked
contract):

- ``exec_end[i] = c_prev[i] + exec_time[i, k]``
- sends are posted back-to-back in pattern order, the *p*-th send ending
  after the cumulative send overheads of sends ``1..p``
- eager receive completion: ``max(sender's send end + flight, exec_end[i])
  + o_recv``
- rendezvous transfer completion: ``max(sender's send end, exec_end[i])
  + flight + o_recv`` — and it blocks *both* sides' Waitall
- ``c[i] = max(post_end[i], all request completions)``

A run comes back as a :class:`~repro.core.timing.RunTiming` (B runs as a
:class:`~repro.core.timing.BatchedTiming`) whose ``idle`` is
``completion - post_end``.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.timing import BatchedTiming, RunTiming
from repro.sim.mpi import Protocol, select_protocol
from repro.sim.network import NetworkModel, UniformNetwork
from repro.sim.program import (
    CommPattern,
    Direction,
    LockstepConfig,
    build_exec_times,
    check_cells,
)
from repro.sim.topology import CommDomain, ProcessMapping

__all__ = ["simulate_lockstep", "simulate_lockstep_batch"]


def _partners(n_ranks: int, offset: int, periodic: bool) -> "tuple[np.ndarray, np.ndarray | bool]":
    """Each rank's partner at ``offset`` as a gather index, and where it exists.

    A rank whose partner falls off an open chain gathers itself; the
    returned mask is False there, and every use of the gather masks it
    out, as the ``-inf`` it stands for would.  A ring has every partner.
    """
    target = np.arange(n_ranks) + offset
    if periodic:
        return target % n_ranks, True
    exists = (target >= 0) & (target < n_ranks)
    return np.where(exists, target, np.arange(n_ranks)), exists


def _where(mask: "np.ndarray | bool") -> "np.ndarray | bool":
    """``mask`` as a ufunc ``where=`` argument: True when it selects all."""
    return True if np.all(mask) else mask


def _send_positions(pattern: CommPattern, n_ranks: int) -> dict[int, np.ndarray]:
    """Per-offset 1-based send position for every rank (NaN where absent).

    Sends are posted in the order :meth:`CommPattern.send_targets` returns
    them; at open-chain boundaries missing partners shift later positions
    forward, which this mirrors exactly.
    """
    offsets: list[int] = []
    for k in range(1, pattern.distance + 1):
        if pattern.direction == Direction.BIDIRECTIONAL:
            offsets.extend((+k, -k))
        else:
            offsets.append(+k)
    pos: dict[int, np.ndarray] = {o: np.full(n_ranks, np.nan) for o in offsets}
    for rank in range(n_ranks):
        p = 0
        seen: set[int] = set()
        for off in offsets:
            tgt = rank + off
            if pattern.periodic:
                tgt %= n_ranks
            elif not 0 <= tgt < n_ranks:
                continue
            if tgt == rank or tgt in seen:
                continue  # aliased partner on a small periodic ring
            seen.add(tgt)
            p += 1
            pos[off][rank] = p
    return pos


def _offset_domains(
    mapping: ProcessMapping, offset: int, periodic: bool
) -> np.ndarray:
    """``CommDomain`` of the (rank, rank+offset) pair for every rank.

    Ranks whose partner falls off an open chain (or aliases to the rank
    itself) get ``SELF`` — a zero-cost placeholder; those entries are
    masked out of the recurrence anyway.
    """
    n = mapping.n_ranks
    doms = np.full(n, int(CommDomain.SELF), dtype=np.int64)
    for rank in range(n):
        partner = rank + offset
        if periodic:
            partner %= n
        elif not 0 <= partner < n:
            continue
        if partner == rank:
            continue
        doms[rank] = int(mapping.domain(rank, partner))
    return doms


def _link_params(
    network: NetworkModel,
    msg_size: int,
    domain: CommDomain,
    mapping: "ProcessMapping | None",
    offsets: "list[int]",
    periodic: bool,
) -> dict:
    """Per-offset message parameters ``offset -> (flight, o_send, o_recv)``.

    Uniform runs (no mapping) get scalars — bit-identical to the original
    flat-network engine.  Hierarchical runs get ``[n_ranks]`` arrays
    resolved through ``mapping.domain``; communication domains are
    symmetric, so the same array serves rank ``i`` as sender towards
    ``i+offset`` and as receiver from ``i+offset``.
    """
    if mapping is None:
        flight = network.transfer_time(msg_size, domain)
        o_send = network.send_overhead(domain)
        o_recv = network.recv_overhead(domain)
        return {off: (flight, o_send, o_recv) for off in offsets}
    flight_lut = np.array(
        [network.transfer_time(msg_size, d) for d in CommDomain]
    )
    o_send_lut = np.array([network.send_overhead(d) for d in CommDomain])
    o_recv_lut = np.array([network.recv_overhead(d) for d in CommDomain])
    params = {}
    for off in offsets:
        doms = _offset_domains(mapping, off, periodic)
        params[off] = (flight_lut[doms], o_send_lut[doms], o_recv_lut[doms])
    return params


def _simulate_core(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel,
    domain: CommDomain,
    proto: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Run the lockstep recurrence for ``exec_times`` of shape (..., P, S).

    Returns ``(exec_start, exec_end, post_end, completion)`` with the same
    shape as ``exec_times``.  All per-step state has shape ``(..., P)``;
    every operation is elementwise along leading (batch) axes, which makes
    batched slices bit-identical to unbatched runs.
    """
    if telemetry.enabled():
        batch = int(np.prod(exec_times.shape[:-2], dtype=np.int64))
        with telemetry.span("engine.lockstep.simulate", batch=batch,
                            n_ranks=cfg.n_ranks, n_steps=cfg.n_steps):
            return _simulate_core_inner(cfg, exec_times, network, domain,
                                        proto, mapping)
    return _simulate_core_inner(cfg, exec_times, network, domain,
                                proto, mapping)


def _simulate_core_inner(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel,
    domain: CommDomain,
    proto: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    n = cfg.n_ranks
    pattern = cfg.pattern

    spos = _send_positions(pattern, n)
    recv_offsets = [-o for o in spos]
    offsets = sorted(set(spos) | set(recv_offsets))
    link = _link_params(
        network, cfg.msg_size, domain, mapping, offsets, pattern.periodic,
    )
    partners = {o: _partners(n, o, pattern.periodic) for o in offsets}

    # Cumulative send-overhead through each rank's p-th send, per offset,
    # plus the total posting overhead (exec end -> Waitall entry).
    send_cum: dict[int, np.ndarray] = {}
    if mapping is None:
        o_send = link[next(iter(spos))][1] if spos else 0.0
        n_sends = np.zeros(n)
        for off, pos in spos.items():
            n_sends += np.isfinite(pos)
            send_cum[off] = pos * o_send
        total_send_ov = n_sends * o_send
    else:
        running = np.zeros(n)
        for off, pos in spos.items():  # insertion order == posting order
            has = np.isfinite(pos)
            running = running + np.where(has, link[off][1], 0.0)
            send_cum[off] = np.where(has, running, np.nan)
        total_send_ov = running

    # Per offset, once per run: where a message exists (the partner is on
    # the chain and the sender posts that send), and the sender's
    # cumulative send overhead.  With finite timings neither changes from
    # step to step.  The overhead is zero where no message exists, which
    # keeps the masked-out arithmetic finite.
    def messages(offset: int, cum: np.ndarray) -> tuple:
        has = partners[offset][1] & np.isfinite(cum)
        return offset, np.where(has, cum, 0.0), _where(has)

    # Messages (i+o -> i) for each receive offset o, and (i -> i+o) for
    # each send offset o; the cumulative overhead is the sender's.
    incoming = [messages(o, send_cum[-o][partners[o][0]]) for o in recv_offsets]
    outgoing = [messages(o, send_cum[o]) for o in spos]
    exists = {o: _where(partners[o][1]) for o in spos}
    eager = proto == Protocol.EAGER
    coupled = not eager and pattern.direction == Direction.BIDIRECTIONAL
    gathered = recv_offsets if eager else offsets

    lead = exec_times.shape[:-2]
    exec_start = np.zeros_like(exec_times)
    exec_end = np.zeros_like(exec_times)
    post_end = np.zeros_like(exec_times)
    completion = np.zeros_like(exec_times)

    c_prev = np.zeros((*lead, n))
    for k in range(cfg.n_steps):
        e_end = c_prev + exec_times[..., k]
        p_end = e_end + total_send_ov
        cand = p_end.copy()
        # Each partner's exec end, one gather per offset.
        partner_end = {o: e_end[..., partners[o][0]] for o in gathered}

        for o, sender_cum, has in incoming:
            flight, _, o_recv = link[o]  # message (i+o -> i), indexed at i
            send_end = partner_end[o] + sender_cum
            if eager:
                c_in = np.maximum(send_end + flight, e_end) + o_recv
            else:
                c_in = np.maximum(send_end, e_end) + flight + o_recv
            np.maximum(cand, c_in, out=cand, where=has)

        if not eager:
            # Outgoing transfers also block the sender's Waitall.
            for o, own_cum, has in outgoing:
                flight, _, o_recv = link[o]  # message (i -> i+o), indexed at i
                c_out = (
                    np.maximum(e_end + own_cum, partner_end[o]) + flight + o_recv
                )
                np.maximum(cand, c_out, out=cand, where=has)

        if coupled:
            # Progress coupling (σ = 2 of Eq. 2): each pair's transfers
            # also wait for the posting-complete times of both endpoints'
            # rendezvous partners — mirrors the DAG engine's coupling
            # edges.  relief[i] = max over i's partners p of post_end[p].
            relief = np.full((*lead, n), -np.inf)
            for o in spos:
                np.maximum(relief, p_end[..., partners[o][0]], out=relief,
                           where=exists[o])
            for o in spos:
                flight, _, o_recv = link[o]
                pair_relief = (
                    np.maximum(relief, relief[..., partners[o][0]])
                    + flight + o_recv
                )
                np.maximum(cand, pair_relief, out=cand, where=exists[o])

        exec_start[..., k] = c_prev
        exec_end[..., k] = e_end
        post_end[..., k] = p_end
        completion[..., k] = cand
        c_prev = cand

    # Every completion feeds the next step, so an overflow anywhere leaves
    # inf (or NaN) in the last one.  The masks above hold only for finite
    # timings, so such a run raises instead of returning them.
    if not np.isfinite(c_prev).all():
        raise ValueError("lockstep timings overflow float64")
    return exec_start, exec_end, post_end, completion


def _result_meta(
    cfg: LockstepConfig,
    proto: Protocol,
    network: NetworkModel,
    domain: CommDomain,
    mapping: "ProcessMapping | None",
) -> dict:
    meta = {
        "t_exec": cfg.t_exec,
        "msg_size": cfg.msg_size,
        "pattern": cfg.pattern,
        "protocol": proto.value,
        "noise_mean": cfg.noise.mean(),
        "delays": cfg.delays,
        "seed": cfg.seed,
    }
    if mapping is None:
        meta["flight"] = network.transfer_time(cfg.msg_size, domain)
        meta["o_send"] = network.send_overhead(domain)
        meta["o_recv"] = network.recv_overhead(domain)
    else:
        meta["hierarchical"] = True
        meta["ppn"] = mapping.ppn
    return meta


def _resolve(
    cfg: LockstepConfig,
    network: "NetworkModel | None",
    eager_limit: "int | None",
    protocol: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[NetworkModel, Protocol]":
    if network is None:
        network = UniformNetwork()
    if mapping is not None and mapping.n_ranks != cfg.n_ranks:
        raise ValueError(
            f"mapping places {mapping.n_ranks} ranks, config has {cfg.n_ranks}"
        )
    from repro.sim.mpi import DEFAULT_EAGER_LIMIT

    limit = DEFAULT_EAGER_LIMIT if eager_limit is None else eager_limit
    return network, select_protocol(cfg.msg_size, limit, protocol)


def simulate_lockstep(
    cfg: LockstepConfig,
    exec_times: np.ndarray | None = None,
    network: NetworkModel | None = None,
    domain: CommDomain = CommDomain.INTER_NODE,
    protocol: Protocol = Protocol.AUTO,
    eager_limit: int | None = None,
    rng: np.random.Generator | None = None,
    mapping: ProcessMapping | None = None,
) -> RunTiming:
    """Simulate a lockstep program, vectorized over ranks.

    Parameters
    ----------
    cfg:
        The experiment parameters (ranks, steps, pattern, noise, delays).
    exec_times:
        Optional pre-built ``[n_ranks, n_steps]`` execution durations; built
        from ``cfg`` (with its seed) when omitted.  They must be finite and
        non-negative; another cell raises ``ValueError``, as does a run
        whose timings overflow float64.
    network:
        Transfer-time model.  Defaults to
        :class:`~repro.sim.network.UniformNetwork`.
    domain:
        The single communication domain of every message when no
        ``mapping`` is given (the flat-network contract).  Ignored when
        ``mapping`` is set.
    protocol, eager_limit:
        Protocol forcing / switch point, as in the DAG engine.
    mapping:
        Optional hierarchical rank placement.  When given, each message's
        flight time and overheads are resolved per rank pair through
        ``mapping.domain`` against the (per-domain) ``network`` — the
        same classification the DAG engine applies.
    """
    network, proto = _resolve(cfg, network, eager_limit, protocol, mapping)
    if exec_times is None:
        exec_times = build_exec_times(cfg, rng)
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.shape != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != ({cfg.n_ranks}, {cfg.n_steps})"
        )
    check_cells("exec_times", exec_times)

    exec_start, exec_end, post_end, completion = _simulate_core(
        cfg, exec_times, network, domain, proto, mapping
    )
    return RunTiming(
        exec_end=exec_end,
        completion=completion,
        idle=completion - post_end,
        meta=_result_meta(cfg, proto, network, domain, mapping),
        exec_start=exec_start,
        post_end=post_end,
    )


def simulate_lockstep_batch(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel | None = None,
    domain: CommDomain = CommDomain.INTER_NODE,
    protocol: Protocol = Protocol.AUTO,
    eager_limit: int | None = None,
    mapping: ProcessMapping | None = None,
) -> BatchedTiming:
    """Simulate B independent lockstep runs as one batched recurrence.

    Parameters
    ----------
    cfg:
        Shared experiment parameters (ranks, steps, pattern, message size).
        ``cfg.delays``/``cfg.noise``/``cfg.seed`` are *not* consulted — all
        per-run variation must already be baked into ``exec_times``.
    exec_times:
        ``[n_batch, n_ranks, n_steps]`` execution durations, one matrix per
        run (e.g. one per delay-campaign draw, each built from its own
        derived seed).  Finite and non-negative in every draw, as in
        :func:`simulate_lockstep`.
    network, domain, protocol, eager_limit, mapping:
        As in :func:`simulate_lockstep`; shared by all runs in the batch.

    Returns
    -------
    BatchedTiming
        ``[n_batch, n_ranks, n_steps]`` timing matrices whose slices are
        bit-identical to the corresponding unbatched runs.
    """
    network, proto = _resolve(cfg, network, eager_limit, protocol, mapping)
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.ndim != 3 or exec_times.shape[1:] != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != "
            f"(n_batch, {cfg.n_ranks}, {cfg.n_steps})"
        )
    if exec_times.shape[0] < 1:
        raise ValueError("batch must contain at least one run")
    check_cells("exec_times", exec_times)

    exec_start, exec_end, post_end, completion = _simulate_core(
        cfg, exec_times, network, domain, proto, mapping
    )
    meta = _result_meta(cfg, proto, network, domain, mapping)
    meta["n_batch"] = int(exec_times.shape[0])
    return BatchedTiming(
        exec_end=exec_end,
        completion=completion,
        idle=completion - post_end,
        meta=meta,
        exec_start=exec_start,
        post_end=post_end,
    )
