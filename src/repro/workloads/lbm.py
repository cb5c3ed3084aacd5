"""Lattice-Boltzmann (D3Q19, SRT) workload — the Fig. 2 application.

Two layers:

1. :class:`LbmKernel` — an actual, runnable D3Q19 single-relaxation-time
   (BGK) lattice-Boltzmann solver on a small lattice, used for fidelity
   checks (mass conservation, equilibrium stability) and as a genuine
   example application.
2. :class:`LbmWorkload` + :func:`lbm_saturation_config` — the traffic/flop
   accounting of the paper's production run (302³ cells, 100 ranks on five
   nodes, 1-D domain decomposition along the outer axis with periodic
   boundaries, ≥30 % communication share) bridged to the saturation
   simulator for the Fig. 2 timeline study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.sim.program import CommPattern, Direction
from repro.sim.saturation import SaturationConfig
from repro.sim.topology import CommDomain

__all__ = ["D3Q19", "LbmKernel", "LbmWorkload", "lbm_saturation_config"]


class D3Q19:
    """The D3Q19 velocity set: 1 rest + 6 face + 12 edge directions."""

    #: Discrete velocities, shape (19, 3).
    C = np.array(
        [
            (0, 0, 0),
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
            (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
            (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
            (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
        ],
        dtype=np.int64,
    )

    #: Quadrature weights: 1/3 rest, 1/18 face, 1/36 edge.
    W = np.array([1 / 3] + [1 / 18] * 6 + [1 / 36] * 12)

    Q = 19

    @classmethod
    def opposite(cls) -> np.ndarray:
        """Index of the opposite direction for each velocity (bounce-back)."""
        opp = np.empty(cls.Q, dtype=np.int64)
        for i, c in enumerate(cls.C):
            matches = np.nonzero((cls.C == -c).all(axis=1))[0]
            opp[i] = matches[0]
        return opp


class LbmKernel:
    """A runnable D3Q19-SRT (BGK) solver on a periodic box.

    Collision: ``f_i <- f_i - (f_i - f_i^eq)/tau``; streaming via
    ``np.roll``.  Intended for small lattices (validation and examples),
    not production CFD.

    Parameters
    ----------
    shape:
        Lattice dimensions (nx, ny, nz).
    tau:
        BGK relaxation time (> 0.5 for stability).
    """

    def __init__(self, shape: tuple[int, int, int], tau: float = 0.8) -> None:
        if len(shape) != 3 or min(shape) < 2:
            raise ValueError(f"shape must be 3-D with each dim >= 2, got {shape}")
        if tau <= 0.5:
            raise ValueError(f"tau must be > 0.5 for stability, got {tau}")
        self.shape = tuple(int(s) for s in shape)
        self.tau = float(tau)
        self.f = np.empty((D3Q19.Q, *self.shape))
        self.reset()

    def reset(self, density: float = 1.0) -> None:
        """Initialize to uniform equilibrium at rest."""
        if density <= 0:
            raise ValueError(f"density must be > 0, got {density}")
        for i in range(D3Q19.Q):
            self.f[i] = D3Q19.W[i] * density

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------
    def density(self) -> np.ndarray:
        """Macroscopic density field ρ."""
        return self.f.sum(axis=0)

    def velocity(self) -> np.ndarray:
        """Macroscopic velocity field u, shape (3, nx, ny, nz)."""
        rho = self.density()
        mom = np.einsum("qd,qxyz->dxyz", D3Q19.C.astype(float), self.f)
        return mom / rho

    def total_mass(self) -> float:
        """Total mass — conserved exactly by collide+stream."""
        return float(self.f.sum())

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def equilibrium(self, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Second-order BGK equilibrium distributions."""
        cu = np.einsum("qd,dxyz->qxyz", D3Q19.C.astype(float), u)
        usq = (u**2).sum(axis=0)
        feq = np.empty_like(self.f)
        for i in range(D3Q19.Q):
            feq[i] = D3Q19.W[i] * rho * (1 + 3 * cu[i] + 4.5 * cu[i] ** 2 - 1.5 * usq)
        return feq

    def collide(self) -> None:
        """SRT/BGK collision step (in place)."""
        rho = self.density()
        u = self.velocity()
        feq = self.equilibrium(rho, u)
        self.f += (feq - self.f) / self.tau

    def stream(self) -> None:
        """Periodic streaming step (in place)."""
        for i in range(1, D3Q19.Q):
            cx, cy, cz = D3Q19.C[i]
            self.f[i] = np.roll(self.f[i], shift=(cx, cy, cz), axis=(0, 1, 2))

    def step(self, n: int = 1) -> None:
        """Advance ``n`` collide+stream time steps."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        for _ in range(n):
            self.collide()
            self.stream()

    def perturb(self, amplitude: float = 0.01, seed: int = 0) -> None:
        """Add a random density perturbation (to make dynamics nontrivial)."""
        rng = np.random.default_rng(seed)
        rho = 1.0 + amplitude * rng.standard_normal(self.shape)
        u = np.zeros((3, *self.shape))
        self.f = self.equilibrium(rho, u)


@dataclass(frozen=True)
class LbmWorkload:
    """Traffic/flop accounting of the paper's LBM production run.

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

    def flops_per_step(self, flops_per_cell: float = 200.0) -> float:
        """Approximate total flops per time step (collide dominates)."""
        nx, ny, nz = self.domain
        return nx * ny * nz * flops_per_cell


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
