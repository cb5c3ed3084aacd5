"""Scenario compilation: resolve a spec into runnable simulator objects.

:func:`compile_scenario` validates a :class:`~repro.scenarios.spec.ScenarioSpec`
against the machine presets (:mod:`repro.cluster.presets`), the workload
models (:mod:`repro.workloads`), and the noise/campaign generators
(:mod:`repro.sim.noise`, :mod:`repro.sim.campaign`), then picks the engine:

- the **vectorized lockstep engine** is the default for every declarative
  scenario — including hierarchical placement (``machine.ppn``), which it
  handles natively by resolving per-message flight times and overheads
  through the preset's topology (intra-node vs inter-node tiers);
- the **DAG engine** remains available as the independent reference
  (``engine="dag"``) and as the only engine for irregular programs built
  outside the scenario layer (collectives, custom operation schedules).
  Forced-DAG scenarios execute on the build-once/propagate-many
  :class:`~repro.sim.engine.StaticDag` path: campaign replicate blocks
  run as one batched propagation
  (:func:`~repro.sim.engine.simulate_dag_batch`) and per-draw runs share
  a cached structure, so even the reference engine sweeps at vectorized
  speed.  :meth:`CompiledScenario.sim_config` is the single definition of
  the :class:`~repro.sim.engine.SimConfig` every DAG execution path uses.

All failures raise :class:`~repro.scenarios.errors.ScenarioError` naming
the offending spec field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.machine import MachineSpec
from repro.cluster.presets import get_machine, noise_for_smt
from repro.scenarios.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec
from repro.sim.campaign import DelayCampaign
from repro.sim.delay import DelaySpec
from repro.sim.mpi import DEFAULT_EAGER_LIMIT, Protocol, select_protocol
from repro.sim.network import NetworkModel, UniformNetwork
from repro.sim.noise import (
    BimodalNoise,
    ExponentialNoise,
    GammaNoise,
    NoiseModel,
    NoNoise,
    UniformNoise,
)
from repro.sim.program import CommPattern, Direction, LockstepConfig
from repro.sim.topology import CommDomain, ProcessMapping

if TYPE_CHECKING:
    from repro.sim.engine import SimConfig

__all__ = ["CompiledScenario", "compile_scenario"]

ENGINES = ("auto", "lockstep", "dag")

_DEFAULT_MSG_SIZE = 8192


@dataclass(frozen=True)
class CompiledScenario:
    """A validated, fully resolved scenario, ready to execute.

    ``cfg`` carries the explicit delays only; campaign delays are drawn
    at run time from the run's seed (see :mod:`repro.scenarios.runner`).
    """

    spec: ScenarioSpec
    engine: str  # "lockstep" | "dag"
    cfg: LockstepConfig
    network: NetworkModel
    domain: CommDomain
    mapping: "ProcessMapping | None"
    machine: "MachineSpec | None"
    protocol: Protocol  # as requested (AUTO allowed)
    resolved_protocol: Protocol  # concrete eager/rendezvous for cfg.msg_size
    eager_limit: int
    noise: NoiseModel
    campaign: "DelayCampaign | None"
    threads: int

    @property
    def t_exec(self) -> float:
        return self.cfg.t_exec

    @property
    def t_comm(self) -> float:
        """One message's end-to-end time — the ``T_comm`` of Eq. 2."""
        return self.network.total_pingpong_time(self.cfg.msg_size, self.domain)

    def sim_config(self) -> SimConfig:
        """The DAG engine configuration for this scenario.

        Shared by every forced-DAG execution path (serial runs, batched
        replicate blocks, report timing tasks) so the structure-cache key
        — which includes the network/mapping/protocol configuration —
        is identical across them.
        """
        from repro.sim.engine import SimConfig

        return SimConfig(
            network=self.network,
            mapping=self.mapping,
            eager_limit=self.eager_limit,
            protocol=self.protocol,
        )


def _resolve_machine(spec: ScenarioSpec) -> "tuple[MachineSpec | None, UniformNetwork | None, CommDomain]":
    m = spec.machine
    domain = CommDomain[m.domain.upper()]
    if m.preset is not None:
        machine = get_machine(m.preset)
        # Collapse the preset's per-domain network onto the configured
        # domain: exact for Hockney (latency + size/bandwidth), which all
        # presets use.
        lat = machine.network.transfer_time(0, domain)
        probe = 1_000_000
        bw = probe / (machine.network.transfer_time(probe, domain) - lat)
        uniform = UniformNetwork(latency=lat, bandwidth=bw,
                                 overhead=machine.network.send_overhead(domain))
        return machine, uniform, domain
    overhead = m.overhead if m.overhead is not None else 5e-7
    return None, UniformNetwork(latency=m.latency, bandwidth=m.bandwidth,
                                overhead=overhead), domain


def _resolve_workload(spec: ScenarioSpec, machine: "MachineSpec | None") -> "tuple[float, int]":
    """Resolve (t_exec, default msg_size) from the workload section."""
    w = spec.workload
    total_cores = spec.n_ranks * w.threads
    if w.kind == "synthetic":
        return w.t_exec, _DEFAULT_MSG_SIZE
    if machine is None:
        raise ScenarioError(
            f"the {w.kind!r} workload derives its phase length from machine "
            "calibration; use a machine preset, not inline parameters",
            path="workload.kind", scenario=spec.name,
        )
    if w.kind == "divide":
        from repro.workloads.divide import DivideWorkload

        workload = DivideWorkload.for_duration(machine.cpu, w.t_exec)
        return workload.ideal_duration, _DEFAULT_MSG_SIZE
    if w.kind == "stream":
        from repro.workloads.stream import TriadWorkload

        triad = TriadWorkload(
            n_elements=w.n_elements if w.n_elements is not None else 50_000_000,
            v_net=w.v_net if w.v_net is not None else 2_000_000,
        )
        t_exec = triad.work_per_rank(total_cores) / machine.b_core
        return t_exec, triad.v_net
    from repro.workloads.lbm import LbmWorkload

    domain3 = w.lbm_domain if w.lbm_domain is not None else (302, 302, 302)
    if domain3[0] < total_cores:
        raise ScenarioError(
            f"LBM outer dimension {domain3[0]} is smaller than the "
            f"{total_cores} cores ({spec.n_ranks} ranks x {w.threads} "
            "threads) it must be decomposed over",
            path="workload.lbm_domain", scenario=spec.name,
        )
    lbm = LbmWorkload(domain=tuple(domain3), n_ranks=total_cores)
    t_exec = lbm.work_bytes_per_rank / machine.b_core
    return t_exec, int(lbm.halo_bytes)


def _resolve_noise(spec: ScenarioSpec, machine: "MachineSpec | None",
                   t_exec: float) -> NoiseModel:
    n = spec.noise
    if n.model == "none":
        return NoNoise()
    if n.model == "natural":
        if machine is None:
            raise ScenarioError(
                "'natural' noise is a machine calibration (Fig. 3); it "
                "needs a machine preset, not inline parameters",
                path="noise.model", scenario=spec.name,
            )
        return noise_for_smt(machine, spec.machine.smt)

    def mean(required: bool = True) -> "float | None":
        if n.mean_delay is not None:
            return n.mean_delay
        if n.level is not None:
            return n.level * t_exec
        if required:
            raise ScenarioError(
                f"the {n.model!r} noise model needs 'mean_delay' (seconds) "
                "or 'level' (relative E)",
                path="noise", scenario=spec.name,
            )
        return None

    if n.model == "exponential":
        return ExponentialNoise(mean_delay=mean())
    if n.model == "gamma":
        return GammaNoise(mean_delay=mean(),
                          shape_k=n.shape_k if n.shape_k is not None else 1.0)
    if n.model == "uniform":
        if n.high is None:
            raise ScenarioError("the 'uniform' noise model needs 'high'",
                                path="noise.high", scenario=spec.name)
        return UniformNoise(low=n.low if n.low is not None else 0.0, high=n.high)
    # bimodal — defaults are the Meggie SMT-off calibration (Fig. 3b)
    return BimodalNoise(
        base=ExponentialNoise(mean_delay=mean()),
        spike_delay=n.spike_delay if n.spike_delay is not None else 660e-6,
        spike_probability=(n.spike_probability
                           if n.spike_probability is not None else 0.008),
        spike_jitter=n.spike_jitter if n.spike_jitter is not None else 0.08,
    )


def compile_scenario(spec: ScenarioSpec, engine: str = "auto") -> CompiledScenario:
    """Validate and resolve a scenario (cheap: pure object construction).

    Parameters
    ----------
    spec:
        The declarative scenario.  A ``sweep`` block is ignored here —
        compilation targets the base point (sweeps expand via
        :mod:`repro.scenarios.sweep`).
    engine:
        ``auto`` dispatches to the lockstep engine (the default for every
        declarative scenario, hierarchical or flat); ``lockstep``/``dag``
        force one — ``dag`` runs the authoritative reference engine.
    """
    if engine not in ENGINES:
        raise ScenarioError(
            f"unknown engine {engine!r}; choose from {list(ENGINES)}"
        )

    machine, uniform_net, domain = _resolve_machine(spec)
    if spec.machine.smt is not None and spec.noise.model != "natural":
        raise ScenarioError(
            "'smt' selects the machine's natural-noise calibration, but "
            f"noise.model is {spec.noise.model!r} — it would be silently "
            "ignored; set noise.model = 'natural' or drop 'smt'",
            path="machine.smt", scenario=spec.name,
        )
    t_exec, default_msg = _resolve_workload(spec, machine)
    noise = _resolve_noise(spec, machine, t_exec)

    c = spec.comm
    msg_size = c.msg_size if c.msg_size is not None else default_msg
    eager_limit = (c.eager_limit if c.eager_limit is not None
                   else DEFAULT_EAGER_LIMIT)
    protocol = Protocol(c.protocol)
    resolved_protocol = select_protocol(msg_size, eager_limit, protocol)

    if c.distance >= spec.n_ranks:
        raise ScenarioError(
            f"communication distance {c.distance} needs at least "
            f"{c.distance + 1} ranks, got n_ranks = {spec.n_ranks}",
            path="comm.distance", scenario=spec.name,
        )
    pattern = CommPattern(
        direction=(Direction.BIDIRECTIONAL if c.direction == "bidirectional"
                   else Direction.UNIDIRECTIONAL),
        distance=c.distance,
        periodic=c.periodic,
    )

    delays = []
    for i, entry in enumerate(spec.delays):
        if entry.rank >= spec.n_ranks:
            raise ScenarioError(
                f"rank {entry.rank} is outside the {spec.n_ranks}-rank run",
                path=f"delays[{i}].rank", scenario=spec.name,
            )
        if entry.step >= spec.n_steps:
            raise ScenarioError(
                f"step {entry.step} is outside the {spec.n_steps}-step run",
                path=f"delays[{i}].step", scenario=spec.name,
            )
        delays.append(DelaySpec(rank=entry.rank, step=entry.step,
                                duration=entry.seconds(t_exec)))

    campaign = None
    if spec.campaign is not None:
        lo, hi = spec.campaign.bounds_seconds(t_exec)
        campaign = DelayCampaign(rate=spec.campaign.rate,
                                 duration_low=lo, duration_high=hi)

    if "wave_speed" in spec.outputs and not delays:
        raise ScenarioError(
            "the 'wave_speed' output fits the idle wave of an explicit "
            "delay; add at least one entry to 'delays'",
            path="outputs", scenario=spec.name,
        )

    mapping = None
    if spec.machine.ppn is not None:
        assert machine is not None  # enforced at parse time
        try:
            mapping = machine.mapping(spec.n_ranks, ppn=spec.machine.ppn)
        except ValueError as exc:
            raise ScenarioError(str(exc), path="machine.ppn",
                                scenario=spec.name) from exc

    # Hierarchical placement resolves against the preset's per-domain
    # network on both engines; flat scenarios keep the collapsed uniform
    # model (a single well-defined T_comm).
    network: NetworkModel
    if mapping is not None:
        network = machine.network
    else:
        network = uniform_net

    cfg = LockstepConfig(
        n_ranks=spec.n_ranks,
        n_steps=spec.n_steps,
        t_exec=t_exec,
        msg_size=msg_size,
        pattern=pattern,
        noise=noise,
        delays=tuple(delays),
        seed=spec.seed,
    )

    return CompiledScenario(
        spec=spec,
        engine="lockstep" if engine == "auto" else engine,
        cfg=cfg,
        network=network,
        domain=domain,
        mapping=mapping,
        machine=machine,
        protocol=protocol,
        resolved_protocol=resolved_protocol,
        eager_limit=eager_limit,
        noise=noise,
        campaign=campaign,
        threads=spec.workload.threads,
    )
