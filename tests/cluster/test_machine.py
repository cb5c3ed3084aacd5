"""Unit tests for machine specifications."""

import pytest

from repro.cluster.machine import CpuSpec, MachineSpec
from repro.sim.network import UniformNetwork
from repro.sim.noise import NoNoise
from repro.sim.topology import MachineTopology


def make_spec(**kw):
    base = dict(
        name="test",
        topology=MachineTopology(cores_per_socket=10, sockets_per_node=2, n_nodes=4),
        network=UniformNetwork(),
        cpu=CpuSpec(name="IVB", clock_hz=2.2e9, vdivpd_cycles=28),
        b_core=6.5e9,
        b_socket=40e9,
        natural_noise=NoNoise(),
    )
    base.update(kw)
    return MachineSpec(**base)


class TestCpuSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpuSpec(name="x", clock_hz=0)
        with pytest.raises(ValueError):
            CpuSpec(name="x", vdivpd_cycles=0)


class TestMachineSpec:
    def test_mapping_default_fills_cores(self):
        m = make_spec().mapping(40)
        assert m.ppn == 20
        assert m.node_of(m.n_ranks - 1) == 1  # 2 node(s) used

    def test_mapping_ppn_one(self):
        m = make_spec().mapping(4, ppn=1)
        assert m.node_of(m.n_ranks - 1) == 3  # 4 node(s) used

    def test_with_nodes(self):
        spec = make_spec().with_nodes(100)
        assert spec.topology.n_nodes == 100
        assert spec.name == "test"

    def test_b_core_above_socket_rejected(self):
        with pytest.raises(ValueError):
            make_spec(b_core=50e9, b_socket=40e9)
