"""Property-based cross-simulator consistency.

The saturation simulator generalizes the lockstep engine: when the
contention model is inactive (per-core bandwidth binds, so phase durations
are fixed) and overheads are zeroed, its timing must coincide with the
lockstep engine run at the equivalent fixed phase length.  This pins the
two independent implementations against each other on their shared domain.
Where the socket bandwidth binds, no second engine exists; there each
phase's duration must lie between its single-core and fair-share bounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    UniformNetwork,
    simulate_lockstep,
)
from repro.sim.saturation import SaturationConfig, simulate_saturation
from repro.sim.topology import single_switch_mapping

B_CORE = 5e9


@st.composite
def scenarios(draw):
    n_ranks = draw(st.integers(min_value=3, max_value=12))
    n_steps = draw(st.integers(min_value=2, max_value=8))
    direction = draw(st.sampled_from(list(Direction)))
    periodic = draw(st.booleans())
    t_flight = draw(st.sampled_from([0.0, 1e-5, 2e-3]))
    rendezvous = draw(st.booleans())
    phase = draw(st.sampled_from([1e-3, 3e-3]))
    n_delays = draw(st.integers(min_value=0, max_value=2))
    delays = tuple(
        DelaySpec(
            rank=draw(st.integers(min_value=0, max_value=n_ranks - 1)),
            step=draw(st.integers(min_value=0, max_value=n_steps - 1)),
            duration=draw(st.sampled_from([2e-3, 10e-3])),
        )
        for _ in range(n_delays)
    )
    return n_ranks, n_steps, direction, periodic, t_flight, rendezvous, phase, delays


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_saturation_reduces_to_lockstep_without_contention(scenario):
    n_ranks, n_steps, direction, periodic, t_flight, rendezvous, phase, delays = scenario
    pattern = CommPattern(direction=direction, distance=1, periodic=periodic)

    # Saturation config whose socket bandwidth never binds: each rank
    # streams work at exactly b_core, so phases last `phase` seconds.
    sat = SaturationConfig(
        mapping=single_switch_mapping(n_ranks, ppn=1),
        n_steps=n_steps,
        work_bytes=B_CORE * phase,
        b_core=B_CORE,
        b_socket=1e15,
        pattern=pattern,
        t_flight=t_flight,
        o_post=0.0,
        rendezvous=rendezvous,
        delays=delays,
    )
    res_sat = simulate_saturation(sat)

    # Equivalent lockstep run: fixed phases, zero overheads, pure flight.
    lock = LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=phase, msg_size=1,
        pattern=pattern, delays=delays,
    )
    net = UniformNetwork(latency=t_flight, bandwidth=1e30, overhead=0.0)
    protocol = Protocol.RENDEZVOUS if rendezvous else Protocol.EAGER
    res_lock = simulate_lockstep(lock, network=net, protocol=protocol)

    np.testing.assert_allclose(
        res_sat.exec_end, res_lock.exec_end, rtol=0, atol=1e-9,
        err_msg=f"exec_end mismatch: {scenario}",
    )
    np.testing.assert_allclose(
        res_sat.completion, res_lock.completion, rtol=0, atol=1e-9,
        err_msg=f"completion mismatch: {scenario}",
    )


@st.composite
def contended_runs(draw):
    ppn = draw(st.integers(min_value=4, max_value=20))
    n_ranks = draw(st.integers(min_value=2, max_value=24))
    n_steps = draw(st.integers(min_value=1, max_value=12))
    work = draw(st.lists(st.sampled_from([0.0, 2e6, 1e7, 4e7]),
                         min_size=n_ranks * n_steps, max_size=n_ranks * n_steps))
    delays = tuple(
        DelaySpec(
            rank=draw(st.integers(min_value=0, max_value=n_ranks - 1)),
            step=draw(st.integers(min_value=0, max_value=n_steps - 1)),
            duration=draw(st.sampled_from([1e-3, 5e-3])),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return SaturationConfig(
        mapping=single_switch_mapping(n_ranks, ppn=ppn),
        n_steps=n_steps,
        work_bytes=np.reshape(work, (n_ranks, n_steps)),
        b_core=B_CORE,
        # Binds once a socket hosts more than 2, 3 or 8 ranks.
        b_socket=draw(st.sampled_from([1e10, 1.5e10, 4e10])),
        t_serial=draw(st.sampled_from([0.0, 1e-4])),
        delays=delays,
        pattern=CommPattern(direction=draw(st.sampled_from(list(Direction))),
                            distance=draw(st.integers(min_value=1, max_value=2)),
                            periodic=draw(st.booleans())),
        t_flight=draw(st.sampled_from([0.0, 5e-6, 1e-4])),
        o_post=draw(st.sampled_from([0.0, 1e-6])),
        rendezvous=draw(st.booleans()),
    )


@given(contended_runs())
@settings(max_examples=60, deadline=None)
def test_contended_phase_stays_between_core_and_fair_share_rate(cfg):
    """Each phase streams at no more than b_core and no less than the fair
    share of all k ranks on its socket, then adds its serial time."""
    res = simulate_saturation(cfg)
    work = cfg.work_matrix()
    serial = np.full(work.shape, cfg.t_serial)
    for spec in cfg.delays:
        serial[spec.rank, spec.step] += spec.duration
    sockets = [cfg.mapping.socket_of(r) for r in range(cfg.n_ranks)]
    k = np.bincount(sockets)[sockets]
    slowest = np.minimum(cfg.b_core, cfg.b_socket / k)[:, None]
    duration = res.exec_end - res.exec_start
    assert np.all(duration >= (work / cfg.b_core + serial) * (1 - 1e-12)), cfg
    assert np.all(duration <= (work / slowest + serial) * (1 + 1e-12)), cfg
