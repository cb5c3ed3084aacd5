"""Property-based tests of idle-wave phenomenology.

Machine-checked versions of the paper's qualitative claims, quantified over
randomly drawn configurations:

- eager waves never propagate against the message direction,
- noise-free waves do not decay (amplitude conserved hop to hop),
- the wave front's arrival steps are non-decreasing in hop distance,
- total idle time of a delayed run is at least the injected delay times
  the number of affected neighbors (energy conservation lower bound).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wave_front
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    Protocol,
    simulate_lockstep,
)

T = 3e-3


@st.composite
def delayed_configs(draw):
    n_ranks = draw(st.integers(min_value=6, max_value=20))
    source = draw(st.integers(min_value=1, max_value=n_ranks - 2))
    phases = draw(st.sampled_from([2.0, 4.5, 8.0]))
    direction = draw(st.sampled_from(list(Direction)))
    periodic = draw(st.booleans())
    n_steps = draw(st.integers(min_value=n_ranks, max_value=n_ranks + 10))
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=T,
        msg_size=8192,
        pattern=CommPattern(direction=direction, distance=1, periodic=periodic),
        delays=(DelaySpec(rank=source, step=0, duration=phases * T),),
    )
    return cfg, source, phases


@given(delayed_configs())
@settings(max_examples=40, deadline=None)
def test_eager_unidirectional_never_propagates_backwards(scenario):
    cfg, source, _ = scenario
    if cfg.pattern.direction != Direction.UNIDIRECTIONAL:
        return
    run = simulate_lockstep(cfg, protocol=Protocol.EAGER)
    idle = run.idle
    below = np.arange(cfg.n_ranks) < source
    if cfg.pattern.periodic:
        return  # the wave wraps around and legitimately reaches lower ranks
    assert idle[below].max() < 0.1 * T


@given(delayed_configs())
@settings(max_examples=40, deadline=None)
def test_noise_free_wave_amplitude_conserved(scenario):
    cfg, source, phases = scenario
    run = simulate_lockstep(cfg)
    front = wave_front(run, source, +1, periodic=cfg.pattern.periodic)
    if front.reach < 2:
        return
    np.testing.assert_allclose(front.amplitudes, phases * T, rtol=0.02)


@given(delayed_configs())
@settings(max_examples=40, deadline=None)
def test_wave_front_steps_nondecreasing(scenario):
    cfg, source, _ = scenario
    run = simulate_lockstep(cfg)
    for direction in (+1, -1):
        front = wave_front(run, source, direction, periodic=cfg.pattern.periodic)
        if front.reach >= 2:
            assert (np.diff(front.arrival_steps) >= 0).all()
            assert (np.diff(front.arrival_times) >= -1e-12).all()


@given(delayed_configs())
@settings(max_examples=40, deadline=None)
def test_total_idle_at_least_one_delay_worth(scenario):
    """At least the direct neighbor of the delayed rank idles for ~the delay."""
    cfg, source, phases = scenario
    run = simulate_lockstep(cfg)
    assert run.idle.sum() >= phases * T * 0.9
