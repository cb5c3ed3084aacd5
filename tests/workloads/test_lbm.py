"""Unit tests for the Fig. 2 LBM workload accounting."""

import pytest

from repro.cluster import EMMY
from repro.workloads.lbm import LbmWorkload, lbm_saturation_config


class TestLbmWorkload:
    def test_paper_scale(self):
        w = LbmWorkload()
        assert w.working_set_bytes > 8e9  # "more than 8 GB"
        assert w.cells_per_rank == pytest.approx(302**3 / 100)

    def test_halo_bytes(self):
        w = LbmWorkload()
        assert w.halo_bytes == pytest.approx(302 * 302 * 5 * 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            LbmWorkload(n_ranks=1)
        with pytest.raises(ValueError):
            LbmWorkload(domain=(50, 302, 302), n_ranks=100)


class TestSaturationBridge:
    def test_configuration_matches_paper(self):
        cfg = lbm_saturation_config(EMMY.with_nodes(8), n_steps=10)
        assert cfg.n_ranks == 100
        assert cfg.mapping.node_of(cfg.mapping.n_ranks - 1) == 4  # 5 node(s) used
        assert cfg.rendezvous
        assert cfg.pattern.periodic
