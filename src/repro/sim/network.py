"""Point-to-point transfer-time models.

The paper's propagation-speed model (Eq. 2) treats the communication time
``T_comm`` of one message as an opaque quantity: "it does not matter here
what T_comm is composed of, be it latency, overhead, transfer time, etc.".
The simulator therefore only needs a function ``transfer_time(size, domain)``
and we provide the classic first-principles choice,
:class:`HockneyModel` — ``T = L + size / B`` (latency + bandwidth), the
model the paper's modified LogGOPSim uses — plus :class:`UniformNetwork`,
its one-domain special case.

Each model holds per-:class:`~repro.sim.topology.CommDomain` parameters so
that intra-socket, inter-socket, and inter-node messages can have different
characteristics (Sec. II-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.sim.topology import CommDomain

__all__ = ["NetworkModel", "HockneyModel", "UniformNetwork"]


class NetworkModel(ABC):
    """Interface: wall-clock cost of moving one message between two ranks."""

    @abstractmethod
    def transfer_time(self, size_bytes: int, domain: CommDomain) -> float:
        """Seconds to move ``size_bytes`` across ``domain`` (flight time)."""

    @abstractmethod
    def send_overhead(self, domain: CommDomain) -> float:
        """CPU-side overhead of posting a send (seconds)."""

    @abstractmethod
    def recv_overhead(self, domain: CommDomain) -> float:
        """CPU-side overhead of completing a receive (seconds)."""

    def total_pingpong_time(self, size_bytes: int, domain: CommDomain) -> float:
        """End-to-end one-way message cost including overheads."""
        return (
            self.send_overhead(domain)
            + self.transfer_time(size_bytes, domain)
            + self.recv_overhead(domain)
        )


def _domain_value(table: dict[CommDomain, float], domain: CommDomain, name: str) -> float:
    if domain == CommDomain.SELF:
        return 0.0
    try:
        return table[domain]
    except KeyError:
        raise KeyError(f"no {name} configured for domain {domain.name}") from None


@dataclass(frozen=True)
class HockneyModel(NetworkModel):
    """Latency/bandwidth model ``T = L + size / B`` per communication domain.

    Parameters
    ----------
    latency:
        Seconds of startup latency per domain.
    bandwidth:
        Asymptotic bandwidth in bytes/second per domain.
    overhead:
        CPU overhead per message (used for both send and recv posting).
    """

    latency: dict[CommDomain, float] = field(
        default_factory=lambda: {
            CommDomain.INTRA_SOCKET: 3e-7,
            CommDomain.INTER_SOCKET: 6e-7,
            CommDomain.INTER_NODE: 1.5e-6,
        }
    )
    bandwidth: dict[CommDomain, float] = field(
        default_factory=lambda: {
            CommDomain.INTRA_SOCKET: 8e9,
            CommDomain.INTER_SOCKET: 5e9,
            CommDomain.INTER_NODE: 3e9,
        }
    )
    overhead: float = 5e-7

    def transfer_time(self, size_bytes: int, domain: CommDomain) -> float:
        if size_bytes < 0:
            raise ValueError(f"message size must be >= 0, got {size_bytes}")
        if domain == CommDomain.SELF:
            return 0.0
        lat = _domain_value(self.latency, domain, "latency")
        bw = _domain_value(self.bandwidth, domain, "bandwidth")
        return lat + size_bytes / bw

    def send_overhead(self, domain: CommDomain) -> float:
        return 0.0 if domain == CommDomain.SELF else self.overhead

    def recv_overhead(self, domain: CommDomain) -> float:
        return 0.0 if domain == CommDomain.SELF else self.overhead


@dataclass(frozen=True)
class UniformNetwork(NetworkModel):
    """A network where every domain behaves identically.

    Useful for controlled experiments ("flat network infrastructure",
    Sec. VII) and for validating the analytic speed model, where a single
    well-defined ``T_comm`` is required.
    """

    latency: float = 1.5e-6
    bandwidth: float = 3e9
    overhead: float = 5e-7

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.overhead < 0:
            raise ValueError(f"overhead must be >= 0, got {self.overhead}")

    def transfer_time(self, size_bytes: int, domain: CommDomain) -> float:
        if size_bytes < 0:
            raise ValueError(f"message size must be >= 0, got {size_bytes}")
        if domain == CommDomain.SELF:
            return 0.0
        return self.latency + size_bytes / self.bandwidth

    def send_overhead(self, domain: CommDomain) -> float:
        return 0.0 if domain == CommDomain.SELF else self.overhead

    def recv_overhead(self, domain: CommDomain) -> float:
        return 0.0 if domain == CommDomain.SELF else self.overhead
