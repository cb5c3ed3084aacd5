"""Unit tests for machine topology and rank placement."""

import pytest

from repro.sim.topology import (
    CommDomain,
    MachineTopology,
    ProcessMapping,
    single_switch_mapping,
)


class TestMachineTopology:
    def test_defaults_are_dual_socket_ten_core(self):
        topo = MachineTopology()
        assert topo.cores_per_node == 20
        assert topo.total_cores == 20

    def test_total_cores_scales_with_nodes(self):
        topo = MachineTopology(cores_per_socket=10, sockets_per_node=2, n_nodes=5)
        assert topo.total_cores == 100

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cores_per_socket", 0),
            ("sockets_per_node", 0),
            ("n_nodes", 0),
            ("smt", 0),
        ],
    )
    def test_rejects_non_positive_dimensions(self, field, value):
        with pytest.raises(ValueError):
            MachineTopology(**{field: value})


class TestProcessMapping:
    def topo(self, n_nodes=4):
        return MachineTopology(cores_per_socket=10, sockets_per_node=2, n_nodes=n_nodes)

    def test_node_of_blocks_ranks_by_ppn(self):
        m = ProcessMapping(self.topo(), n_ranks=40, ppn=20)
        assert m.node_of(0) == 0
        assert m.node_of(19) == 0
        assert m.node_of(20) == 1

    def test_default_ppn_fills_all_cores(self):
        m = ProcessMapping(self.topo(), n_ranks=40)
        assert m.ppn == 20

    def test_socket_blocks_within_node(self):
        m = ProcessMapping(self.topo(), n_ranks=40, ppn=20)
        # first 10 local ranks on socket 0, next 10 on socket 1
        assert m.socket_of(0) == 0
        assert m.socket_of(9) == 0
        assert m.socket_of(10) == 1
        assert m.socket_of(20) == 2  # node 1, socket 0 -> global socket 2

    def test_ranks_on_socket_inverse_of_socket_of(self):
        m = ProcessMapping(self.topo(), n_ranks=40, ppn=20)
        for s in range(m.n_sockets_used()):
            for r in m.ranks_on_socket(s):
                assert m.socket_of(r) == s

    def test_domain_classification(self):
        m = ProcessMapping(self.topo(), n_ranks=40, ppn=20)
        assert m.domain(3, 3) == CommDomain.SELF
        assert m.domain(0, 5) == CommDomain.INTRA_SOCKET
        assert m.domain(0, 15) == CommDomain.INTER_SOCKET
        assert m.domain(0, 25) == CommDomain.INTER_NODE

    def test_domain_is_symmetric(self):
        m = ProcessMapping(self.topo(), n_ranks=40, ppn=20)
        for a, b in [(0, 5), (0, 15), (0, 25), (19, 20)]:
            assert m.domain(a, b) == m.domain(b, a)

    def test_ppn_one_gives_one_rank_per_node(self):
        m = ProcessMapping(self.topo(), n_ranks=4, ppn=1)
        assert [m.node_of(r) for r in range(4)] == [0, 1, 2, 3]
        assert m.domain(0, 1) == CommDomain.INTER_NODE

    def test_partial_socket_fill(self):
        # 12 ranks per node -> 6 per socket
        m = ProcessMapping(self.topo(), n_ranks=24, ppn=12)
        assert m.ranks_per_socket() == 6
        assert m.socket_of(5) == 0
        assert m.socket_of(6) == 1
        assert m.socket_of(12) == 2

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError, match="need"):
            ProcessMapping(self.topo(n_nodes=1), n_ranks=40, ppn=20)

    def test_ppn_above_hw_threads_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ProcessMapping(self.topo(), n_ranks=10, ppn=50)

    def test_out_of_range_rank_raises(self):
        m = ProcessMapping(self.topo(), n_ranks=10, ppn=10)
        with pytest.raises(IndexError):
            m.node_of(10)
        with pytest.raises(IndexError):
            m.domain(0, 10)

    def test_n_sockets_and_nodes_used(self):
        m = ProcessMapping(self.topo(), n_ranks=25, ppn=20)
        assert m.n_nodes_used() == 2
        assert m.n_sockets_used() == 3  # 20 ranks fill node 0; 5 on node 1 socket 0


class TestSingleSwitchMapping:
    def test_allocates_just_enough_nodes(self):
        m = single_switch_mapping(100, ppn=20)
        assert m.topology.n_nodes == 5
        assert m.n_ranks == 100

    def test_rounds_up_nodes(self):
        m = single_switch_mapping(21, ppn=20)
        assert m.topology.n_nodes == 2

    def test_custom_shape(self):
        m = single_switch_mapping(8, ppn=2, cores_per_socket=1, sockets_per_node=2)
        assert m.topology.n_nodes == 4
        assert m.domain(0, 1) == CommDomain.INTER_SOCKET
