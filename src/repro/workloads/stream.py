"""The MPI STREAM triad workload (Fig. 1).

The paper's motivating experiment: a pure-MPI McCalpin STREAM triad
``A(:) = B(:) + s*C(:)`` in a strong-scaling setup — an overall working set
of 1.2 GB (5·10⁷ double elements across three arrays) split evenly over the
ranks, with a 2 MB ring exchange to both neighbors after every traversal.

This module provides the actual kernel (for node-level fidelity checks),
the traffic/flop accounting, and the bridge to the saturation simulator
that reproduces the desynchronization-induced overlap of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.sim.program import CommPattern, Direction
from repro.sim.saturation import SaturationConfig
from repro.sim.topology import CommDomain

__all__ = ["TriadWorkload", "triad_kernel", "triad_saturation_config"]


def triad_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, s: float) -> None:
    """One STREAM triad sweep ``a[:] = b[:] + s * c[:]`` (in place)."""
    if not (a.shape == b.shape == c.shape):
        raise ValueError(f"array shapes differ: {a.shape}, {b.shape}, {c.shape}")
    np.multiply(c, s, out=a)
    a += b


@dataclass(frozen=True)
class TriadWorkload:
    """Strong-scaling MPI STREAM triad accounting.

    Parameters (defaults = the paper's Fig. 1 setup)
    ----------
    n_elements:
        Total elements per array across all ranks (5·10⁷).
    v_net:
        Bytes exchanged with each ring neighbor per iteration (2 MB).
    bytes_per_element:
        Memory traffic per element: 24 B for 2 loads + 1 store, 32 B with
        write-allocate.  The paper's Eq. 1 uses the 3-array working set
        V_mem = 24 B × n, so that is the default.
    """

    n_elements: int = 50_000_000
    v_net: int = 2_000_000
    bytes_per_element: int = 24

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if self.v_net < 0:
            raise ValueError(f"v_net must be >= 0, got {self.v_net}")
        if self.bytes_per_element < 8:
            raise ValueError(
                f"bytes_per_element must be >= 8, got {self.bytes_per_element}"
            )

    @property
    def v_mem(self) -> float:
        """Total working-set traffic per iteration in bytes."""
        return float(self.n_elements) * self.bytes_per_element

    @property
    def flops_per_iteration(self) -> float:
        """Total flops of one triad sweep (one mul + one add per element)."""
        return 2.0 * self.n_elements

    def work_per_rank(self, n_ranks: int) -> float:
        """Bytes each rank streams per iteration (even split)."""
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        return self.v_mem / n_ranks

    def performance(self, time_per_iteration: float) -> float:
        """Flop/s given the measured/simulated seconds per iteration."""
        if time_per_iteration <= 0:
            raise ValueError(
                f"time_per_iteration must be > 0, got {time_per_iteration}"
            )
        return self.flops_per_iteration / time_per_iteration


def triad_saturation_config(
    machine: MachineSpec,
    n_sockets: int,
    ppn: int | None = None,
    n_steps: int = 50,
    workload: TriadWorkload | None = None,
    n_ranks: int | None = None,
    seed: int = 0,
) -> SaturationConfig:
    """Build the saturation-simulator configuration for Fig. 1.

    Parameters
    ----------
    machine:
        Machine spec (Fig. 1 uses Emmy).
    n_sockets:
        Number of sockets in the strong-scaling scan (x-axis of Fig. 1a).
    ppn:
        Processes per node; default fills every physical core (PPN=20).
        ``ppn=1`` gives the Fig. 1(c) configuration.
    n_steps:
        Compute-communicate iterations to simulate.
    n_ranks:
        Explicit rank count; overrides the ``n_sockets × ranks-per-socket``
        default (used for the Fig. 1(b) node-level closeup, where a node is
        only partially populated).
    """
    if workload is None:
        workload = TriadWorkload()
    if n_sockets < 1:
        raise ValueError(f"n_sockets must be >= 1, got {n_sockets}")
    topo = machine.topology
    if ppn is None:
        ppn = topo.cores_per_node
    if n_ranks is None:
        ranks_per_socket = max(1, ppn // topo.sockets_per_node)
        n_ranks = n_sockets * ranks_per_socket
    if n_ranks < 2:
        raise ValueError(
            "triad ring exchange needs >= 2 ranks; increase n_sockets or ppn"
        )
    mapping = machine.mapping(n_ranks, ppn=ppn)

    # Ring exchange with both neighbors (closed ring => periodic).
    pattern = CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True)
    t_flight = machine.network.transfer_time(workload.v_net, CommDomain.INTER_NODE)

    return SaturationConfig(
        mapping=mapping,
        n_steps=n_steps,
        work_bytes=workload.work_per_rank(n_ranks),
        b_core=machine.b_core,
        b_socket=machine.b_socket,
        t_serial=0.0,
        noise=machine.natural_noise,
        pattern=pattern,
        t_flight=t_flight,
        o_post=machine.network.send_overhead(CommDomain.INTER_NODE),
        rendezvous=True,  # 2 MB messages are far beyond any eager limit
        seed=seed,
    )
