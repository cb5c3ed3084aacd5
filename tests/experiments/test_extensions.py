"""Shape tests for the three Sec.-VII extension experiments."""

import pytest

from repro.experiments import RuntimeOptions, run_experiment


class TestExtCollectives:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext_collectives", fast=True)

    def test_synchronizing_collectives_reach_everyone_in_one_step(self, result):
        for name in ("barrier", "allreduce_recdoub", "allreduce_ring"):
            assert result.data[name]["reach_one_step"] == 15, name

    def test_tree_bcast_spreads_less(self, result):
        assert result.data["bcast_tree"]["reach_one_step"] < 15

    def test_full_delay_enters_runtime(self, result):
        from repro.experiments.ext_collectives import DELAY

        for name, d in result.data.items():
            assert d["excess"] == pytest.approx(DELAY, rel=0.05), name


class TestExtHybrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext_hybrid", fast=True)

    def test_effective_noise_grows_with_group_size(self, result):
        noises = [result.data[t]["effective_noise"] for t in sorted(result.data)]
        assert all(b > a for a, b in zip(noises, noises[1:]))

    def test_skew_shrinks_with_group_size(self, result):
        skews = [result.data[t]["skew"] for t in sorted(result.data)]
        assert skews[-1] < skews[0]

    def test_wave_survival_bounded_by_ring(self, result):
        for threads, d in result.data.items():
            n_ranks = 64 // threads
            assert d["survival_hops"] <= n_ranks - 1


class TestExtCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext_campaign", fast=True)

    def test_marginal_cost_falls_with_rate(self, result):
        rates = sorted(result.data)
        ratios = [result.data[r]["cost_ratio"] for r in rates]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_sparse_campaign_costs_nearly_full(self, result):
        sparse = result.data[min(result.data)]
        assert sparse["cost_ratio"] > 0.8

    def test_dense_campaign_heavily_absorbed(self, result):
        dense = result.data[max(result.data)]
        assert dense["cost_ratio"] < 0.5

    def test_warm_store_rerun_is_bit_identical(self, result, tmp_path):
        """A second run on one store simulates nothing and changes no bit."""
        opts = RuntimeOptions(jobs=1, cache_dir=tmp_path / "store")
        cold = run_experiment("ext_campaign", fast=True, runtime=opts)
        warm = run_experiment("ext_campaign", fast=True, runtime=opts)
        assert warm.data == cold.data == result.data
        assert any("0 simulated" in note and "0 from cache" not in note
                   for note in warm.notes)


class TestExtMembound:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext_membound", fast=True)

    def test_core_bound_excess_is_full_delay(self, result):
        assert result.data["core-bound (scalable)"]["excess_fraction"] == pytest.approx(
            1.0, rel=0.02
        )

    def test_memory_bound_absorbs_part_of_the_delay(self, result):
        frac = result.data["memory-bound (saturated)"]["excess_fraction"]
        assert frac < 0.85

    def test_ranks_behind_wave_speed_up(self, result):
        mb = result.data["memory-bound (saturated)"]
        assert mb["fastest_phase"] < 0.8 * mb["base_phase"]
