"""Lattice-Boltzmann (D3Q19, SRT) workload — the Fig. 2 application.

:class:`LbmWorkload` is the traffic accounting of the paper's production
run (302³ cells, 100 ranks on five nodes, 1-D domain decomposition along
the outer axis with periodic boundaries, ≥30 % communication share), and
:func:`lbm_saturation_config` bridges it to the saturation simulator for
the Fig. 2 timeline study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import MachineSpec
from repro.sim.program import CommPattern, Direction
from repro.sim.saturation import SaturationConfig
from repro.sim.topology import CommDomain

__all__ = ["LbmWorkload", "lbm_saturation_config"]


@dataclass(frozen=True)
class LbmWorkload:
    """Traffic accounting of the paper's LBM production run.

    Parameters (defaults = Fig. 2 setup)
    ----------
    domain:
        Global lattice including the boundary layer (302³).
    n_ranks:
        MPI ranks (100 = five Emmy nodes fully populated).
    bytes_per_cell_update:
        Memory traffic per cell per time step.  A D3Q19 two-grid update
        reads and writes 19 populations: 2 × 19 × 8 = 304 B (+write-
        allocate on the stores for a real machine).
    exchange_populations:
        Populations crossing a face per boundary cell (5 of 19 leave
        through a face in D3Q19).
    """

    domain: tuple[int, int, int] = (302, 302, 302)
    n_ranks: int = 100
    bytes_per_cell_update: int = 304
    exchange_populations: int = 5

    def __post_init__(self) -> None:
        if len(self.domain) != 3 or min(self.domain) < 1:
            raise ValueError(f"domain must be 3-D positive, got {self.domain}")
        if self.n_ranks < 2:
            raise ValueError(f"n_ranks must be >= 2, got {self.n_ranks}")
        if self.domain[0] < self.n_ranks:
            raise ValueError(
                f"outer dimension {self.domain[0]} smaller than n_ranks {self.n_ranks}"
            )

    @property
    def cells_per_rank(self) -> float:
        """Lattice cells per rank (1-D decomposition along the outer axis)."""
        nx, ny, nz = self.domain
        return nx * ny * nz / self.n_ranks

    @property
    def work_bytes_per_rank(self) -> float:
        """Memory traffic per rank per time step."""
        return self.cells_per_rank * self.bytes_per_cell_update

    @property
    def halo_bytes(self) -> float:
        """Bytes exchanged with *each* neighbor per time step."""
        _, ny, nz = self.domain
        return ny * nz * self.exchange_populations * 8.0

    @property
    def working_set_bytes(self) -> float:
        """Total distribution storage (the paper quotes > 8 GB)."""
        nx, ny, nz = self.domain
        return nx * ny * nz * 19 * 8.0 * 2  # two grids


def lbm_saturation_config(
    machine: MachineSpec,
    workload: LbmWorkload | None = None,
    n_steps: int = 500,
    seed: int = 0,
) -> SaturationConfig:
    """Saturation-simulator configuration for the Fig. 2 timeline study."""
    if workload is None:
        workload = LbmWorkload()
    mapping = machine.mapping(workload.n_ranks)
    pattern = CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True)
    halo = int(workload.halo_bytes)
    t_flight = machine.network.transfer_time(halo, CommDomain.INTER_NODE)
    return SaturationConfig(
        mapping=mapping,
        n_steps=n_steps,
        work_bytes=workload.work_bytes_per_rank,
        b_core=machine.b_core,
        b_socket=machine.b_socket,
        t_serial=0.0,
        noise=machine.natural_noise,
        pattern=pattern,
        t_flight=t_flight,
        o_post=machine.network.send_overhead(CommDomain.INTER_NODE),
        rendezvous=True,  # multi-MB halos
        seed=seed,
    )
