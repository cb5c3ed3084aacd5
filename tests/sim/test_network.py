"""Unit tests for the transfer-time models."""

import pytest

from repro.sim.network import HockneyModel, UniformNetwork
from repro.sim.topology import CommDomain


class TestUniformNetwork:
    def test_transfer_time_is_latency_plus_bandwidth_term(self):
        net = UniformNetwork(latency=1e-6, bandwidth=1e9, overhead=0.0)
        assert net.transfer_time(1000, CommDomain.INTER_NODE) == pytest.approx(2e-6)

    def test_self_domain_is_free(self):
        net = UniformNetwork()
        assert net.transfer_time(8192, CommDomain.SELF) == 0.0
        assert net.send_overhead(CommDomain.SELF) == 0.0

    def test_all_domains_equal(self):
        net = UniformNetwork()
        times = [
            net.transfer_time(8192, d)
            for d in (CommDomain.INTRA_SOCKET, CommDomain.INTER_SOCKET, CommDomain.INTER_NODE)
        ]
        assert len(set(times)) == 1

    def test_total_pingpong_includes_overheads(self):
        net = UniformNetwork(latency=1e-6, bandwidth=1e9, overhead=5e-7)
        expected = 5e-7 + (1e-6 + 1000 / 1e9) + 5e-7
        assert net.total_pingpong_time(1000, CommDomain.INTER_NODE) == pytest.approx(expected)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UniformNetwork().transfer_time(-1, CommDomain.INTER_NODE)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            UniformNetwork(latency=-1)
        with pytest.raises(ValueError):
            UniformNetwork(bandwidth=0)


class TestHockneyModel:
    def test_domains_have_distinct_costs(self):
        net = HockneyModel()
        t_intra = net.transfer_time(8192, CommDomain.INTRA_SOCKET)
        t_inter = net.transfer_time(8192, CommDomain.INTER_NODE)
        assert t_intra < t_inter

    def test_monotone_in_size(self):
        net = HockneyModel()
        sizes = [0, 100, 10_000, 1_000_000]
        times = [net.transfer_time(s, CommDomain.INTER_NODE) for s in sizes]
        assert times == sorted(times)
        assert times[0] > 0  # latency floor

    def test_missing_domain_raises(self):
        net = HockneyModel(latency={CommDomain.INTER_NODE: 1e-6})
        with pytest.raises(KeyError, match="latency"):
            net.transfer_time(8, CommDomain.INTRA_SOCKET)
