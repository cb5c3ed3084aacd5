"""Unit tests for the STREAM triad workload."""

import numpy as np
import pytest

from repro.cluster import EMMY
from repro.workloads.stream import TriadWorkload, triad_kernel, triad_saturation_config


class TestTriadKernel:
    def test_computes_triad(self):
        b = np.arange(100, dtype=float)
        c = np.ones(100)
        a = np.zeros(100)
        triad_kernel(a, b, c, s=2.0)
        np.testing.assert_allclose(a, b + 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            triad_kernel(np.zeros(3), np.zeros(4), np.zeros(3), 1.0)


class TestTriadWorkload:
    def test_paper_defaults(self):
        w = TriadWorkload()
        assert w.v_mem == pytest.approx(1.2e9)  # the paper's 1.2 GB
        assert w.flops_per_iteration == pytest.approx(1e8)  # 2 * 5e7

    def test_work_split_evenly(self):
        w = TriadWorkload()
        assert w.work_per_rank(100) == pytest.approx(w.v_mem / 100)

    def test_performance(self):
        w = TriadWorkload()
        assert w.performance(0.1) == pytest.approx(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TriadWorkload(n_elements=0)
        with pytest.raises(ValueError):
            TriadWorkload().work_per_rank(0)
        with pytest.raises(ValueError):
            TriadWorkload().performance(0.0)


class TestSaturationConfigBridge:
    def test_full_socket_configuration(self):
        cfg = triad_saturation_config(EMMY.with_nodes(8), n_sockets=2, n_steps=5)
        assert cfg.n_ranks == 20
        assert cfg.rendezvous  # 2 MB messages
        assert cfg.pattern.periodic

    def test_ppn_one_configuration(self):
        cfg = triad_saturation_config(EMMY.with_nodes(8), n_sockets=4, ppn=1, n_steps=5)
        assert cfg.n_ranks == 4
        assert cfg.mapping.node_of(cfg.mapping.n_ranks - 1) == 3  # 4 node(s) used

    def test_explicit_n_ranks(self):
        cfg = triad_saturation_config(
            EMMY.with_nodes(8), n_sockets=1, ppn=6, n_ranks=6, n_steps=5
        )
        assert cfg.n_ranks == 6

    def test_work_scales_inversely_with_ranks(self):
        c20 = triad_saturation_config(EMMY.with_nodes(8), n_sockets=2, n_steps=5)
        c40 = triad_saturation_config(EMMY.with_nodes(8), n_sockets=4, n_steps=5)
        w20 = np.asarray(c20.work_bytes)
        w40 = np.asarray(c40.work_bytes)
        assert float(w20) == pytest.approx(2 * float(w40))

    def test_too_few_ranks_rejected(self):
        with pytest.raises(ValueError, match=">= 2 ranks"):
            triad_saturation_config(EMMY.with_nodes(8), n_sockets=1, ppn=1, n_steps=5)
