"""Property-based structural invariants of simulated runs.

These hold for *every* admissible configuration:

- traces validate (no overlap, monotone, finite),
- per-rank completion times are strictly increasing over steps,
- adding a delay never makes any completion time earlier (monotonicity of
  the max-plus dynamics),
- removing all noise and delays yields the lockstep baseline,
- runs are deterministic given the seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    ExponentialNoise,
    LockstepConfig,
    Protocol,
    simulate_lockstep,
)

T = 3e-3


@st.composite
def configs(draw, with_noise=True):
    n_ranks = draw(st.integers(min_value=3, max_value=16))
    n_steps = draw(st.integers(min_value=2, max_value=12))
    direction = draw(st.sampled_from(list(Direction)))
    periodic = draw(st.booleans())
    distance = draw(st.integers(min_value=1, max_value=min(2, (n_ranks - 1) // 2)))
    noise_mean = draw(st.sampled_from([0.0, 2e-4])) if with_noise else 0.0
    seed = draw(st.integers(min_value=0, max_value=1000))
    return LockstepConfig(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=T,
        msg_size=8192,
        pattern=CommPattern(direction=direction, distance=distance, periodic=periodic),
        noise=ExponentialNoise(noise_mean),
        seed=seed,
    )


@given(configs())
@settings(max_examples=50, deadline=None)
def test_completion_strictly_increasing_per_rank(cfg):
    res = simulate_lockstep(cfg)
    assert (np.diff(res.completion, axis=1) > 0).all()


@given(configs())
@settings(max_examples=50, deadline=None)
def test_phase_ordering_within_step(cfg):
    res = simulate_lockstep(cfg)
    assert (res.exec_end >= res.exec_start).all()
    assert (res.post_end >= res.exec_end).all()
    assert (res.completion >= res.post_end - 1e-15).all()


@given(configs(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_deterministic_given_seed(cfg, _unused):
    a = simulate_lockstep(cfg)
    b = simulate_lockstep(cfg)
    np.testing.assert_array_equal(a.completion, b.completion)


@given(configs(with_noise=False), st.data())
@settings(max_examples=50, deadline=None)
def test_delay_injection_is_monotone(cfg, data):
    """Adding a delay can only push completions later, never earlier."""
    base = simulate_lockstep(cfg)
    rank = data.draw(st.integers(min_value=0, max_value=cfg.n_ranks - 1))
    step = data.draw(st.integers(min_value=0, max_value=cfg.n_steps - 1))
    cfg_d = LockstepConfig(
        n_ranks=cfg.n_ranks, n_steps=cfg.n_steps, t_exec=cfg.t_exec,
        msg_size=cfg.msg_size, pattern=cfg.pattern, noise=cfg.noise,
        seed=cfg.seed,
        delays=(DelaySpec(rank=rank, step=step, duration=5 * T),),
    )
    delayed = simulate_lockstep(cfg_d)
    assert (delayed.completion >= base.completion - 1e-15).all()
    # The delayed rank's *execution* end is pushed by the full delay (its
    # Waitall may grow by less: the delay absorbs the previous wait slack).
    assert delayed.exec_end[rank, step] >= base.exec_end[rank, step] + 5 * T - 1e-12


@given(configs(with_noise=False))
@settings(max_examples=40, deadline=None)
def test_noise_free_run_has_negligible_idle(cfg):
    """Perfect balance -> only microsecond-scale communication waits."""
    res = simulate_lockstep(cfg)
    assert res.idle.max() < 0.05 * T


@given(configs())
@settings(max_examples=40, deadline=None)
def test_rendezvous_never_faster_than_eager(cfg):
    """Extra synchronization cannot reduce the total runtime."""
    eager = simulate_lockstep(cfg, protocol=Protocol.EAGER)
    rdv = simulate_lockstep(cfg, protocol=Protocol.RENDEZVOUS)
    assert rdv.total_runtime() >= eager.total_runtime() - 1e-15
