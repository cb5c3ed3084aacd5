"""Hierarchical machine topology and rank-to-hardware mapping.

Clusters of dual-socket multicore nodes expose a hierarchy — core, socket
(= contention domain for memory bandwidth), node, network — and the
communication characteristics between two MPI ranks depend on where the two
ranks live relative to each other in that hierarchy (Sec. II-B of the
paper).  This module provides:

- :class:`MachineTopology` — the static shape of the machine,
- :class:`CommDomain` — the classification of a rank pair,
- :class:`ProcessMapping` — block-wise placement of ``n`` MPI ranks onto the
  machine with ``ppn`` processes per node, mirroring the compact pinning the
  paper uses ("process-core affinity was enforced").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = ["CommDomain", "MachineTopology", "ProcessMapping"]


class CommDomain(IntEnum):
    """Classification of the communication path between two ranks.

    The numeric order is meaningful: larger values cross more hierarchy
    levels and are (on every real machine) slower.
    """

    SELF = 0
    INTRA_SOCKET = 1
    INTER_SOCKET = 2
    INTER_NODE = 3


@dataclass(frozen=True)
class MachineTopology:
    """Static shape of a homogeneous cluster.

    Parameters
    ----------
    cores_per_socket:
        Physical cores on one socket (contention domain).
    sockets_per_node:
        Sockets per compute node.
    n_nodes:
        Number of compute nodes available.
    smt:
        Hardware threads per physical core.  The paper's systems have
        ``smt=2``; whether SMT is *used* is a property of the machine
        configuration (see :mod:`repro.cluster`), not of the topology.
    """

    cores_per_socket: int = 10
    sockets_per_node: int = 2
    n_nodes: int = 1
    smt: int = 1

    def __post_init__(self) -> None:
        if self.cores_per_socket < 1:
            raise ValueError(f"cores_per_socket must be >= 1, got {self.cores_per_socket}")
        if self.sockets_per_node < 1:
            raise ValueError(f"sockets_per_node must be >= 1, got {self.sockets_per_node}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.smt < 1:
            raise ValueError(f"smt must be >= 1, got {self.smt}")

    @property
    def cores_per_node(self) -> int:
        """Physical cores on one node."""
        return self.cores_per_socket * self.sockets_per_node

    @property
    def total_cores(self) -> int:
        """Physical cores in the whole machine."""
        return self.cores_per_node * self.n_nodes


@dataclass(frozen=True)
class ProcessMapping:
    """Block-wise placement of MPI ranks onto a :class:`MachineTopology`.

    Ranks fill nodes in order; within a node they fill sockets in order,
    one rank per physical core.  ``ppn`` (processes per node) may be smaller
    than the number of cores per node, in which case the ranks of one node
    are distributed round-robin over its sockets *in blocks*, i.e. the first
    ``ppn // sockets_per_node`` ranks of a node land on socket 0, and so on.
    With ``ppn=1`` each rank has a full node to itself (the configuration of
    Figs. 4, 5 and 7 — "one process per node").

    Parameters
    ----------
    topology:
        The machine shape.
    n_ranks:
        Number of MPI ranks to place.
    ppn:
        Processes per node.  Defaults to the number of physical cores per
        node (compact filling).
    """

    topology: MachineTopology
    n_ranks: int
    ppn: int = 0  # 0 means "cores per node"

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        ppn = self.ppn or self.topology.cores_per_node
        if ppn < 1:
            raise ValueError(f"ppn must be >= 1, got {ppn}")
        if ppn > self.topology.cores_per_node * self.topology.smt:
            raise ValueError(
                f"ppn={ppn} exceeds hardware threads per node "
                f"({self.topology.cores_per_node * self.topology.smt})"
            )
        needed_nodes = -(-self.n_ranks // ppn)  # ceil division
        if needed_nodes > self.topology.n_nodes:
            raise ValueError(
                f"{self.n_ranks} ranks at ppn={ppn} need {needed_nodes} nodes, "
                f"machine has {self.topology.n_nodes}"
            )
        object.__setattr__(self, "ppn", ppn)

    # ------------------------------------------------------------------
    # placement queries
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.ppn

    def local_rank(self, rank: int) -> int:
        """Rank index within its node (0 .. ppn-1)."""
        self._check_rank(rank)
        return rank % self.ppn

    def socket_of(self, rank: int) -> int:
        """Global socket index hosting ``rank``.

        Within a node, local ranks fill sockets in contiguous blocks of
        ``ceil(ppn / sockets_per_node)``.
        """
        self._check_rank(rank)
        spn = self.topology.sockets_per_node
        per_socket = -(-self.ppn // spn)  # ceil
        local_socket = min(self.local_rank(rank) // per_socket, spn - 1)
        return self.node_of(rank) * spn + local_socket

    def ranks_per_socket(self) -> int:
        """Number of ranks placed on each (fully occupied) socket."""
        spn = self.topology.sockets_per_node
        return -(-self.ppn // spn)

    def n_sockets_used(self) -> int:
        """Number of distinct sockets that host at least one rank."""
        return self.socket_of(self.n_ranks - 1) + 1

    def n_nodes_used(self) -> int:
        """Number of distinct nodes that host at least one rank."""
        return self.node_of(self.n_ranks - 1) + 1

    def ranks_on_socket(self, socket: int) -> list[int]:
        """All ranks hosted on global socket index ``socket``."""
        return [r for r in range(self.n_ranks) if self.socket_of(r) == socket]

    def domain(self, a: int, b: int) -> CommDomain:
        """Classify the communication path between ranks ``a`` and ``b``."""
        self._check_rank(a)
        self._check_rank(b)
        if a == b:
            return CommDomain.SELF
        if self.node_of(a) != self.node_of(b):
            return CommDomain.INTER_NODE
        if self.socket_of(a) != self.socket_of(b):
            return CommDomain.INTER_SOCKET
        return CommDomain.INTRA_SOCKET

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.n_ranks})")


def single_switch_mapping(n_ranks: int, ppn: int, *, cores_per_socket: int = 10,
                          sockets_per_node: int = 2, smt: int = 1) -> ProcessMapping:
    """Convenience: a mapping on just enough identical nodes behind one switch.

    Mirrors the paper's setup where "multi-node experiments were run on a
    homogeneous set of nodes connected to a single leaf switch".
    """
    n_nodes = -(-n_ranks // ppn)
    topo = MachineTopology(
        cores_per_socket=cores_per_socket,
        sockets_per_node=sockets_per_node,
        n_nodes=n_nodes,
        smt=smt,
    )
    return ProcessMapping(topology=topo, n_ranks=n_ranks, ppn=ppn)
