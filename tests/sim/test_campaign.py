"""Unit tests for random delay campaigns."""

import numpy as np
import pytest

from repro.sim.campaign import DelayCampaign

T = 3e-3


def draw_task(rate, duration_low, duration_high, n_ranks, n_steps, seed=0):
    """Campaign task: one schedule as plain lists.  Pool workers are
    forked from this process, so they resolve it by this module's name."""
    specs = DelayCampaign(rate=rate, duration_low=duration_low,
                          duration_high=duration_high).draw(
                              n_ranks, n_steps, seed)
    return {"ranks": [s.rank for s in specs],
            "steps": [s.step for s in specs],
            "durations": [s.duration for s in specs]}


class TestDelayCampaign:
    def campaign(self, rate=0.05):
        return DelayCampaign(rate=rate, duration_low=2 * T, duration_high=8 * T)

    def test_draw_within_bounds(self):
        rng = np.random.default_rng(0)
        specs = self.campaign().draw(40, 30, rng)
        assert specs
        for spec in specs:
            assert 0 <= spec.rank < 40
            assert 0 <= spec.step < 30
            assert spec.duration >= 2 * T

    def test_expected_count_tracks_draws(self):
        rng = np.random.default_rng(1)
        campaign = self.campaign(rate=0.05)
        counts = [len(campaign.draw(40, 30, rng)) for _ in range(30)]
        expected = campaign.expected_count(40, 30)
        # Merged multi-arrival cells make the draw count <= Poisson count.
        assert np.mean(counts) == pytest.approx(expected, rel=0.15)

    def test_expected_injected_time(self):
        campaign = self.campaign(rate=0.01)
        assert campaign.expected_injected_time(100, 20) == pytest.approx(
            0.01 * 100 * 20 * 5 * T
        )

    def test_zero_rate_injects_nothing(self):
        rng = np.random.default_rng(2)
        campaign = DelayCampaign(rate=0.0, duration_low=T, duration_high=T)
        assert campaign.draw(10, 10, rng) == ()

    def test_at_most_one_spec_per_cell(self):
        rng = np.random.default_rng(3)
        specs = self.campaign(rate=2.0).draw(5, 5, rng)  # heavy multi-arrivals
        cells = [(s.rank, s.step) for s in specs]
        assert len(cells) == len(set(cells))

    def test_multi_arrivals_merge_durations(self):
        rng = np.random.default_rng(4)
        specs = DelayCampaign(rate=5.0, duration_low=T, duration_high=T).draw(2, 2, rng)
        # With rate 5 per cell and fixed duration T, merged cells exceed T.
        assert max(s.duration for s in specs) > 1.5 * T

    def test_deterministic_given_rng(self):
        a = self.campaign().draw(20, 20, np.random.default_rng(9))
        b = self.campaign().draw(20, 20, np.random.default_rng(9))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayCampaign(rate=-1, duration_low=0, duration_high=1)
        with pytest.raises(ValueError):
            DelayCampaign(rate=1, duration_low=2, duration_high=1)
        with pytest.raises(ValueError):
            self.campaign().draw(0, 5, np.random.default_rng(0))

    def test_rejects_non_generator_non_int(self):
        with pytest.raises(TypeError, match="Generator or an integer seed"):
            self.campaign().draw(10, 10, rng="not-a-seed")


class TestIntegerSeedDraws:
    def campaign(self, rate=0.05):
        return DelayCampaign(rate=rate, duration_low=2 * T, duration_high=8 * T)

    def test_int_seed_matches_generator(self):
        campaign = self.campaign()
        assert campaign.draw(20, 20, 9) == campaign.draw(
            20, 20, np.random.default_rng(9)
        )

    def test_numpy_integer_seed_accepted(self):
        campaign = self.campaign()
        assert campaign.draw(20, 20, np.int64(9)) == campaign.draw(20, 20, 9)

    def test_distinct_seeds_distinct_schedules(self):
        campaign = self.campaign()
        assert campaign.draw(20, 20, 1) != campaign.draw(20, 20, 2)

    def test_n_merge_deterministic_across_processes(self):
        """Multi-arrival merge must be bit-identical in a worker process.

        rate=5 forces n>1 Poisson arrivals per cell, so the merged-sum
        path (``rng.uniform(..., size=n).sum()``) is exercised, not just
        single draws.  The campaign runtime executes the same draw in a
        process-pool worker; parent and worker schedules must agree
        exactly, including the merged durations.
        """
        from repro.runtime import RunSpec, run_campaign

        params = {"rate": 5.0, "duration_low": T, "duration_high": 2 * T,
                  "n_ranks": 3, "n_steps": 3}
        seed = 1234
        local = DelayCampaign(rate=5.0, duration_low=T,
                              duration_high=2 * T).draw(3, 3, seed)
        assert local and max(
            s.duration for s in local) > 2 * T  # merged cells present

        # Two tasks so the pool backend actually engages (a single
        # pending task is executed in-process as an optimization).
        specs = [
            RunSpec(fn=f"{__name__}:draw_task",
                    params=params, seed=seed, index=0),
            RunSpec(fn=f"{__name__}:draw_task",
                    params=params, seed=seed + 1, index=1),
        ]
        campaign = run_campaign(specs, jobs=2).raise_failures()
        remote = campaign.values()[0]
        assert remote["ranks"] == [s.rank for s in local]
        assert remote["steps"] == [s.step for s in local]
        assert remote["durations"] == [s.duration for s in local]
