"""Integration tests: the Fig. 6 multi-wave interaction scenarios."""

import pytest

from repro.core import find_waves, resync_step, superposition_defect
from repro.experiments.fig6_interaction import (
    BASE_DELAY,
    N_RANKS,
    SCENARIOS,
    make_config,
)
from repro.sim import LockstepConfig, simulate_lockstep


def run_scenario(name, seed=0):
    return simulate_lockstep(make_config(name, seed=seed))


class TestEqualDelays:
    def test_injected_on_every_socket(self):
        cfg = make_config("equal")
        assert len(cfg.delays) == 10
        assert all(spec.duration == pytest.approx(BASE_DELAY) for spec in cfg.delays)

    def test_cancellation_after_five_hops(self):
        """Paper: 'for equal delays we observe the expected cancellation
        after five hops' (socket size 10, injection at local rank 5)."""
        run = run_scenario("equal")
        step = resync_step(run)
        assert step is not None
        assert step <= 7  # five hops plus delay width slack


class TestHalfDelays:
    def test_partial_cancellation_takes_longer(self):
        equal = resync_step(run_scenario("equal"))
        half = resync_step(run_scenario("half"))
        assert half is not None and equal is not None
        assert half > equal

    def test_surviving_waves_are_the_long_ones(self):
        run = run_scenario("half")
        idle = run.idle
        # Between steps 6 and `resync`, only remnants of the full-length
        # delays survive; their amplitude is ~half the base delay.
        mid = idle[:, 6:10]
        assert 0.3 * BASE_DELAY < mid.max() <= 0.6 * BASE_DELAY


class TestRandomDelays:
    def test_longest_waves_survive_to_program_end(self):
        run = run_scenario("random")
        assert resync_step(run) is None  # still active at step 20

    def test_different_seeds_different_outcomes(self):
        a = run_scenario("random", seed=0).total_runtime()
        b = run_scenario("random", seed=1).total_runtime()
        assert a != b


class TestNonlinearity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_superposition_defect_negative(self, scenario):
        cfg = make_config(scenario)
        combined = simulate_lockstep(cfg)
        singles = []
        for spec in cfg.delays:
            single = LockstepConfig(
                n_ranks=cfg.n_ranks, n_steps=cfg.n_steps, t_exec=cfg.t_exec,
                msg_size=cfg.msg_size, pattern=cfg.pattern, delays=(spec,),
                seed=cfg.seed,
            )
            singles.append(simulate_lockstep(single))
        baseline_cfg = LockstepConfig(
            n_ranks=cfg.n_ranks, n_steps=cfg.n_steps, t_exec=cfg.t_exec,
            msg_size=cfg.msg_size, pattern=cfg.pattern, delays=(), seed=cfg.seed,
        )
        # Measured against the quiet run, whose waits the singles count
        # len(singles) - 1 times more than the combined run.
        defect = superposition_defect(combined, singles) + (
            (len(singles) - 1) * simulate_lockstep(baseline_cfg).total_idle())
        assert defect < -1.0  # rank-seconds of destroyed idleness

    def test_ten_waves_detected_initially(self):
        run = run_scenario("equal")
        waves = find_waves(run)
        # Ten injections -> ten disjoint wave regions (they merge pairwise
        # as they cancel, but each pair collides simultaneously).
        assert len(waves) == 10
        covered = set()
        for w in waves:
            covered.update(rank for rank, _ in w.cells)
        assert len(covered) > N_RANKS // 2
