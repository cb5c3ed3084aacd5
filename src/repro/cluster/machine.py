"""Machine specifications: everything the experiments need about a cluster.

A :class:`MachineSpec` bundles the topology shape, network characteristics,
memory-bandwidth figures, CPU microarchitectural constants (for the divide
workload), and the calibrated *natural noise* models (Fig. 3) of one
cluster.  The two presets in :mod:`repro.cluster.presets` describe the
paper's systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.network import NetworkModel
from repro.sim.noise import NoiseModel
from repro.sim.topology import MachineTopology, ProcessMapping

__all__ = ["CpuSpec", "MachineSpec"]


@dataclass(frozen=True)
class CpuSpec:
    """Microarchitectural constants of one CPU model.

    Parameters
    ----------
    name:
        Marketing/microarchitecture name.
    clock_hz:
        Fixed core clock (the paper pins 2.2 GHz on both systems).
    vdivpd_cycles:
        Reciprocal throughput of the AVX ``vdivpd`` instruction in clock
        cycles (28 on Ivy Bridge, 16 on Broadwell — Sec. III-B), the basis
        of the compute-bound divide workload.
    """

    name: str
    clock_hz: float = 2.2e9
    vdivpd_cycles: int = 28

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be > 0, got {self.clock_hz}")
        if self.vdivpd_cycles < 1:
            raise ValueError(f"vdivpd_cycles must be >= 1, got {self.vdivpd_cycles}")


@dataclass(frozen=True)
class MachineSpec:
    """A complete cluster description.

    Parameters
    ----------
    name:
        Cluster name ("Emmy", "Meggie", ...).
    topology:
        Node/socket/core shape.
    network:
        Transfer-time model with per-domain parameters.
    cpu:
        CPU constants.
    b_core:
        Single-core sustainable memory bandwidth (bytes/s).
    b_socket:
        Saturated per-socket memory bandwidth (bytes/s).
    natural_noise:
        Calibrated model of the system's own fine-grained noise in the
        *operational* SMT configuration (Fig. 3; SMT on for Emmy, off for
        Meggie).
    noise_smt_on / noise_smt_off:
        Noise models for both SMT configurations, for the Fig. 3 scan.
    interconnect:
        Human-readable fabric name.
    """

    name: str
    topology: MachineTopology
    network: NetworkModel
    cpu: CpuSpec
    b_core: float
    b_socket: float
    natural_noise: NoiseModel
    noise_smt_on: NoiseModel | None = None
    noise_smt_off: NoiseModel | None = None
    interconnect: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.b_core <= 0 or self.b_socket <= 0:
            raise ValueError("b_core and b_socket must be > 0")
        if self.b_core > self.b_socket:
            raise ValueError(
                f"b_core ({self.b_core}) cannot exceed b_socket ({self.b_socket})"
            )

    # ------------------------------------------------------------------
    def mapping(self, n_ranks: int, ppn: int | None = None) -> ProcessMapping:
        """Place ``n_ranks`` ranks on this machine (compact, block-wise).

        ``ppn`` defaults to all physical cores per node, matching the
        paper's fully-populated runs; pass ``ppn=1`` for the one-process-
        per-node configurations of Figs. 4, 5 and 7.
        """
        return ProcessMapping(
            topology=self.topology,
            n_ranks=n_ranks,
            ppn=ppn if ppn is not None else self.topology.cores_per_node,
        )

    def with_nodes(self, n_nodes: int) -> "MachineSpec":
        """A copy of this spec restricted/extended to ``n_nodes`` nodes."""
        return replace(self, topology=replace(self.topology, n_nodes=n_nodes))
