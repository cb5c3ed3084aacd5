"""Plain-data scenario specs: frozen dataclasses + strict dict parsing.

A :class:`ScenarioSpec` is the declarative description of one delay/noise
experiment: a machine (preset name or inline parameters), a workload, a
communication pattern/protocol, noise and delay-injection models, the
requested outputs, and an optional ``sweep`` block that turns the scenario
into a parameter grid.  Specs are frozen, hashable, and round-trip through
``to_dict``/``from_dict`` — the dict form is what travels through the
campaign runtime (:mod:`repro.runtime`) and what TOML/JSON files load into.

Parsing is *strict*: unknown keys, wrong types, and out-of-range values
are rejected with a :class:`~repro.scenarios.errors.ScenarioError` naming
the exact dotted path of the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.fields import StrictFields
from repro.scenarios.errors import ScenarioError

__all__ = [
    "MachineSection",
    "WorkloadSection",
    "CommSection",
    "NoiseSection",
    "DelayEntry",
    "CampaignSection",
    "SweepAxis",
    "SweepSection",
    "ScenarioSpec",
    "apply_overrides",
]

#: Recognized output requests (see :mod:`repro.scenarios.outputs`).
OUTPUT_KINDS = ("runtime", "timeline", "histogram", "desync", "wave_speed")

#: Machine presets resolvable via :func:`repro.cluster.presets.get_machine`.
MACHINE_PRESETS = ("emmy", "meggie", "simulated")

WORKLOAD_KINDS = ("synthetic", "divide", "stream", "lbm")
NOISE_MODELS = ("none", "natural", "exponential", "bimodal", "uniform", "gamma")
DIRECTIONS = {"unidirectional": "unidirectional", "uni": "unidirectional",
              "bidirectional": "bidirectional", "bi": "bidirectional"}
PROTOCOLS = ("auto", "eager", "rendezvous")
DOMAINS = ("intra_socket", "inter_socket", "inter_node")


def _check_choice(value: str, choices: Any, path: str, scenario: str) -> str:
    if value not in choices:
        raise ScenarioError(
            f"{value!r} is not one of {sorted(choices)}",
            path=path, scenario=scenario,
        )
    return value


def _check_positive(value: float, path: str, scenario: str,
                    allow_zero: bool = False) -> float:
    if value < 0 or (value == 0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise ScenarioError(f"must be {bound}, got {value}",
                            path=path, scenario=scenario)
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"must be finite, got {value}",
                            path=path, scenario=scenario)
    return value


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineSection:
    """Where the scenario runs: a calibrated preset or inline parameters.

    Exactly one of ``preset`` (``emmy``/``meggie``/``simulated``) or the
    inline pair ``latency``/``bandwidth`` must be given.  ``smt`` selects
    the preset's SMT-on/off noise calibration (default: the machine's
    operational configuration).  ``ppn`` places ranks hierarchically
    (processes per node) — that makes the network non-uniform, and the
    hierarchy-aware lockstep engine resolves each message's tier.
    """

    preset: "str | None" = "simulated"
    smt: "str | None" = None
    ppn: "int | None" = None
    domain: str = "inter_node"
    latency: "float | None" = None
    bandwidth: "float | None" = None
    overhead: "float | None" = None

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "MachineSection":
        f = StrictFields(data, "machine", ScenarioError, scenario)
        preset = f.take("preset", "str")
        smt = f.take("smt", "str")
        ppn = f.take("ppn", "int")
        domain = f.take("domain", "str", default="inter_node")
        latency = f.take("latency", "float")
        bandwidth = f.take("bandwidth", "float")
        overhead = f.take("overhead", "float")
        f.finish()

        inline = latency is not None or bandwidth is not None or overhead is not None
        if preset is None and not inline:
            preset = "simulated"
        if preset is not None and inline:
            raise ScenarioError(
                "give either 'preset' or inline network parameters "
                "(latency/bandwidth/overhead), not both",
                path="machine", scenario=scenario,
            )
        if preset is not None:
            _check_choice(preset.strip().lower(), MACHINE_PRESETS,
                          "machine.preset", scenario)
            preset = preset.strip().lower()
        else:
            if latency is None or bandwidth is None:
                raise ScenarioError(
                    "an inline machine needs both 'latency' and 'bandwidth'",
                    path="machine", scenario=scenario,
                )
            _check_positive(latency, "machine.latency", scenario, allow_zero=True)
            _check_positive(bandwidth, "machine.bandwidth", scenario)
            if overhead is not None:
                _check_positive(overhead, "machine.overhead", scenario,
                                allow_zero=True)
        if smt is not None:
            _check_choice(smt.strip().lower(), ("on", "off"),
                          "machine.smt", scenario)
            smt = smt.strip().lower()
            if preset is None:
                raise ScenarioError(
                    "'smt' selects a preset's noise calibration; it has no "
                    "meaning for an inline machine",
                    path="machine.smt", scenario=scenario,
                )
        if ppn is not None:
            _check_positive(ppn, "machine.ppn", scenario)
            if preset is None:
                raise ScenarioError(
                    "'ppn' (hierarchical placement) needs a preset machine "
                    "with a topology",
                    path="machine.ppn", scenario=scenario,
                )
        _check_choice(domain, DOMAINS, "machine.domain", scenario)
        return cls(preset=preset, smt=smt, ppn=ppn, domain=domain,
                   latency=latency, bandwidth=bandwidth, overhead=overhead)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.preset is not None:
            out["preset"] = self.preset
        for key in ("smt", "ppn", "latency", "bandwidth", "overhead"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.domain != "inter_node":
            out["domain"] = self.domain
        return out


@dataclass(frozen=True)
class WorkloadSection:
    """What each rank computes per step.

    ``synthetic`` takes ``t_exec`` at face value; ``divide`` quantizes it
    to the machine CPU's ``vdivpd`` chain (Sec. III-B); ``stream`` and
    ``lbm`` derive the phase length from the workload's per-rank memory
    traffic and the machine's core bandwidth.  ``threads`` > 1 models a
    hybrid MPI/OpenMP run: noise is drawn per thread and max-reduced per
    process (:mod:`repro.sim.hybrid`).
    """

    kind: str = "synthetic"
    t_exec: float = 3e-3
    threads: int = 1
    n_elements: "int | None" = None  # stream
    v_net: "int | None" = None  # stream
    lbm_domain: "tuple[int, int, int] | None" = None  # lbm

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "WorkloadSection":
        f = StrictFields(data, "workload", ScenarioError, scenario)
        kind = f.take("kind", "str", default="synthetic")
        t_exec = f.take("t_exec", "float", default=3e-3)
        threads = f.take("threads", "int", default=1)
        n_elements = f.take("n_elements", "int")
        v_net = f.take("v_net", "int")
        lbm_domain = f.take("lbm_domain", "list")
        f.finish()

        _check_choice(kind, WORKLOAD_KINDS, "workload.kind", scenario)
        _check_positive(t_exec, "workload.t_exec", scenario)
        _check_positive(threads, "workload.threads", scenario)
        if kind != "stream":
            for name, value in (("n_elements", n_elements), ("v_net", v_net)):
                if value is not None:
                    raise ScenarioError(
                        f"'{name}' only applies to the 'stream' workload, "
                        f"not {kind!r}",
                        path=f"workload.{name}", scenario=scenario,
                    )
        if kind != "lbm" and lbm_domain is not None:
            raise ScenarioError(
                f"'lbm_domain' only applies to the 'lbm' workload, not {kind!r}",
                path="workload.lbm_domain", scenario=scenario,
            )
        if n_elements is not None:
            _check_positive(n_elements, "workload.n_elements", scenario)
        if v_net is not None:
            _check_positive(v_net, "workload.v_net", scenario, allow_zero=True)
        if lbm_domain is not None:
            if len(lbm_domain) != 3 or not all(
                isinstance(x, int) and not isinstance(x, bool) and x >= 1
                for x in lbm_domain
            ):
                raise ScenarioError(
                    f"expected three positive ints [nx, ny, nz], got {lbm_domain!r}",
                    path="workload.lbm_domain", scenario=scenario,
                )
            lbm_domain = tuple(lbm_domain)
        return cls(kind=kind, t_exec=t_exec, threads=threads,
                   n_elements=n_elements, v_net=v_net, lbm_domain=lbm_domain)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "t_exec": self.t_exec}
        if self.threads != 1:
            out["threads"] = self.threads
        for key in ("n_elements", "v_net"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.lbm_domain is not None:
            out["lbm_domain"] = list(self.lbm_domain)
        return out


@dataclass(frozen=True)
class CommSection:
    """Communication pattern and MPI protocol of the bulk-synchronous loop."""

    direction: str = "unidirectional"
    distance: int = 1
    periodic: bool = False
    msg_size: "int | None" = None  # None -> workload default
    protocol: str = "auto"
    eager_limit: "int | None" = None

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "CommSection":
        f = StrictFields(data, "comm", ScenarioError, scenario)
        direction = f.take("direction", "str", default="unidirectional")
        distance = f.take("distance", "int", default=1)
        periodic = f.take("periodic", "bool", default=False)
        msg_size = f.take("msg_size", "int")
        protocol = f.take("protocol", "str", default="auto")
        eager_limit = f.take("eager_limit", "int")
        f.finish()

        _check_choice(direction, DIRECTIONS, "comm.direction", scenario)
        direction = DIRECTIONS[direction]
        _check_positive(distance, "comm.distance", scenario)
        _check_choice(protocol, PROTOCOLS, "comm.protocol", scenario)
        if msg_size is not None:
            _check_positive(msg_size, "comm.msg_size", scenario, allow_zero=True)
        if eager_limit is not None:
            _check_positive(eager_limit, "comm.eager_limit", scenario,
                            allow_zero=True)
        return cls(direction=direction, distance=distance, periodic=periodic,
                   msg_size=msg_size, protocol=protocol, eager_limit=eager_limit)

    def to_dict(self) -> dict:
        out: dict = {"direction": self.direction, "distance": self.distance,
                     "periodic": self.periodic, "protocol": self.protocol}
        if self.msg_size is not None:
            out["msg_size"] = self.msg_size
        if self.eager_limit is not None:
            out["eager_limit"] = self.eager_limit
        return out


@dataclass(frozen=True)
class NoiseSection:
    """Fine-grained noise model (Sec. I-A / Eq. 3 of the paper).

    ``natural`` uses the machine preset's Fig. 3 calibration (honouring
    ``machine.smt``); ``level`` expresses an exponential mean as the
    paper's relative noise level ``E`` (mean delay / t_exec) and is
    mutually exclusive with ``mean_delay``.
    """

    model: str = "none"
    mean_delay: "float | None" = None
    level: "float | None" = None
    low: "float | None" = None  # uniform
    high: "float | None" = None  # uniform
    shape_k: "float | None" = None  # gamma
    spike_delay: "float | None" = None  # bimodal
    spike_probability: "float | None" = None  # bimodal
    spike_jitter: "float | None" = None  # bimodal

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "NoiseSection":
        f = StrictFields(data, "noise", ScenarioError, scenario)
        model = f.take("model", "str", default="none")
        mean_delay = f.take("mean_delay", "float")
        level = f.take("level", "float")
        low = f.take("low", "float")
        high = f.take("high", "float")
        shape_k = f.take("shape_k", "float")
        spike_delay = f.take("spike_delay", "float")
        spike_probability = f.take("spike_probability", "float")
        spike_jitter = f.take("spike_jitter", "float")
        f.finish()

        _check_choice(model, NOISE_MODELS, "noise.model", scenario)
        allowed: dict[str, tuple[str, ...]] = {
            "none": (),
            "natural": (),
            "exponential": ("mean_delay", "level"),
            "gamma": ("mean_delay", "level", "shape_k"),
            "uniform": ("low", "high"),
            "bimodal": ("mean_delay", "level", "spike_delay",
                        "spike_probability", "spike_jitter"),
        }
        given = {k: v for k, v in (
            ("mean_delay", mean_delay), ("level", level), ("low", low),
            ("high", high), ("shape_k", shape_k), ("spike_delay", spike_delay),
            ("spike_probability", spike_probability),
            ("spike_jitter", spike_jitter),
        ) if v is not None}
        for key in given:
            if key not in allowed[model]:
                raise ScenarioError(
                    f"parameter does not apply to noise model {model!r} "
                    f"(allowed: {sorted(allowed[model]) or 'none'})",
                    path=f"noise.{key}", scenario=scenario,
                )
        if mean_delay is not None and level is not None:
            raise ScenarioError(
                "give either 'mean_delay' (seconds) or 'level' (relative E), "
                "not both",
                path="noise.mean_delay", scenario=scenario,
            )
        for key in ("mean_delay", "level", "low", "spike_delay",
                    "spike_jitter"):
            if given.get(key) is not None:
                _check_positive(given[key], f"noise.{key}", scenario,
                                allow_zero=True)
        if high is not None:
            _check_positive(high, "noise.high", scenario, allow_zero=True)
            if low is not None and high < low:
                raise ScenarioError(
                    f"must be >= noise.low ({low}), got {high}",
                    path="noise.high", scenario=scenario,
                )
        if shape_k is not None:
            _check_positive(shape_k, "noise.shape_k", scenario)
        if spike_probability is not None and not 0 <= spike_probability <= 1:
            raise ScenarioError(
                f"must be in [0, 1], got {spike_probability}",
                path="noise.spike_probability", scenario=scenario,
            )
        return cls(model=model, mean_delay=mean_delay, level=level, low=low,
                   high=high, shape_k=shape_k, spike_delay=spike_delay,
                   spike_probability=spike_probability,
                   spike_jitter=spike_jitter)

    def to_dict(self) -> dict:
        out: dict = {"model": self.model}
        for key in ("mean_delay", "level", "low", "high", "shape_k",
                    "spike_delay", "spike_probability", "spike_jitter"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class DelayEntry:
    """One explicit injected delay; duration in seconds or execution phases."""

    rank: int
    step: int = 0
    duration: "float | None" = None
    phases: "float | None" = None

    @classmethod
    def parse(cls, data: Any, path: str, scenario: str = "") -> "DelayEntry":
        f = StrictFields(data, path, ScenarioError, scenario)
        rank = f.take("rank", "int", required=True)
        step = f.take("step", "int", default=0)
        duration = f.take("duration", "float")
        phases = f.take("phases", "float")
        f.finish()
        if rank < 0:
            raise ScenarioError(f"rank must be >= 0, got {rank}",
                                path=f"{path}.rank", scenario=scenario)
        if step < 0:
            raise ScenarioError(f"step must be >= 0, got {step}",
                                path=f"{path}.step", scenario=scenario)
        if (duration is None) == (phases is None):
            raise ScenarioError(
                "give exactly one of 'duration' (seconds) or 'phases' "
                "(multiples of t_exec)",
                path=path, scenario=scenario,
            )
        if duration is not None:
            _check_positive(duration, f"{path}.duration", scenario)
        if phases is not None:
            _check_positive(phases, f"{path}.phases", scenario)
        return cls(rank=rank, step=step, duration=duration, phases=phases)

    def to_dict(self) -> dict:
        out: dict = {"rank": self.rank, "step": self.step}
        if self.duration is not None:
            out["duration"] = self.duration
        if self.phases is not None:
            out["phases"] = self.phases
        return out

    def seconds(self, t_exec: float) -> float:
        return self.duration if self.duration is not None else self.phases * t_exec


@dataclass(frozen=True)
class CampaignSection:
    """Sustained Poisson delay injection (:class:`repro.sim.campaign.DelayCampaign`).

    Durations are uniform in ``[duration_low, duration_high]`` seconds or
    ``[phases_low, phases_high]`` execution phases.
    """

    rate: float
    duration_low: "float | None" = None
    duration_high: "float | None" = None
    phases_low: "float | None" = None
    phases_high: "float | None" = None

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "CampaignSection":
        f = StrictFields(data, "campaign", ScenarioError, scenario)
        rate = f.take("rate", "float", required=True)
        duration_low = f.take("duration_low", "float")
        duration_high = f.take("duration_high", "float")
        phases_low = f.take("phases_low", "float")
        phases_high = f.take("phases_high", "float")
        f.finish()
        _check_positive(rate, "campaign.rate", scenario, allow_zero=True)
        in_seconds = duration_low is not None or duration_high is not None
        in_phases = phases_low is not None or phases_high is not None
        if in_seconds == in_phases:
            raise ScenarioError(
                "give the duration range either in seconds (duration_low/"
                "duration_high) or in execution phases (phases_low/"
                "phases_high)",
                path="campaign", scenario=scenario,
            )
        lo, hi, unit = (
            (duration_low, duration_high, "duration")
            if in_seconds else (phases_low, phases_high, "phases")
        )
        if lo is None or hi is None:
            raise ScenarioError(
                f"both '{unit}_low' and '{unit}_high' are required",
                path="campaign", scenario=scenario,
            )
        _check_positive(lo, f"campaign.{unit}_low", scenario, allow_zero=True)
        if hi < lo:
            raise ScenarioError(
                f"must be >= campaign.{unit}_low ({lo}), got {hi}",
                path=f"campaign.{unit}_high", scenario=scenario,
            )
        _check_positive(hi, f"campaign.{unit}_high", scenario, allow_zero=True)
        return cls(rate=rate, duration_low=duration_low,
                   duration_high=duration_high, phases_low=phases_low,
                   phases_high=phases_high)

    def to_dict(self) -> dict:
        out: dict = {"rate": self.rate}
        for key in ("duration_low", "duration_high", "phases_low",
                    "phases_high"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def bounds_seconds(self, t_exec: float) -> "tuple[float, float]":
        if self.duration_low is not None:
            return self.duration_low, self.duration_high
        return self.phases_low * t_exec, self.phases_high * t_exec


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted spec path and its values."""

    path: str
    values: tuple

    @classmethod
    def parse(cls, data: Any, where: str, scenario: str = "") -> "SweepAxis":
        f = StrictFields(data, where, ScenarioError, scenario)
        path = f.take("path", "str", required=True)
        values = f.take("values", "list", required=True)
        f.finish()
        if not values:
            raise ScenarioError("axis has no values",
                                path=f"{where}.values", scenario=scenario)
        return cls(path=path, values=tuple(values))

    def to_dict(self) -> dict:
        return {"path": self.path, "values": list(self.values)}


@dataclass(frozen=True)
class SweepSection:
    """Turns the scenario into a grid: axes × replicates."""

    axes: "tuple[SweepAxis, ...]" = ()
    replicates: int = 1

    @classmethod
    def parse(cls, data: Any, scenario: str = "") -> "SweepSection":
        f = StrictFields(data, "sweep", ScenarioError, scenario)
        raw_axes = f.take("axes", "list", default=[])
        replicates = f.take("replicates", "int", default=1)
        f.finish()
        _check_positive(replicates, "sweep.replicates", scenario)
        axes = tuple(
            SweepAxis.parse(axis, f"sweep.axes[{i}]", scenario)
            for i, axis in enumerate(raw_axes)
        )
        paths = [a.path for a in axes]
        dupes = {p for p in paths if paths.count(p) > 1}
        if dupes:
            raise ScenarioError(
                f"duplicate axis path(s): {sorted(dupes)}",
                path="sweep.axes", scenario=scenario,
            )
        if not axes and replicates == 1:
            raise ScenarioError(
                "a sweep needs at least one axis or replicates > 1",
                path="sweep", scenario=scenario,
            )
        return cls(axes=axes, replicates=replicates)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.axes:
            out["axes"] = [a.to_dict() for a in self.axes]
        if self.replicates != 1:
            out["replicates"] = self.replicates
        return out

    @property
    def size(self) -> int:
        n = self.replicates
        for axis in self.axes:
            n *= len(axis.values)
        return n


# ----------------------------------------------------------------------
# the scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment description."""

    name: str
    n_ranks: int
    n_steps: int
    description: str = ""
    seed: int = 0
    machine: MachineSection = field(default_factory=MachineSection)
    workload: WorkloadSection = field(default_factory=WorkloadSection)
    comm: CommSection = field(default_factory=CommSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    delays: "tuple[DelayEntry, ...]" = ()
    campaign: "CampaignSection | None" = None
    outputs: "tuple[str, ...]" = ("runtime",)
    sweep: "SweepSection | None" = None

    @classmethod
    def from_dict(cls, data: Any, name: "str | None" = None) -> "ScenarioSpec":
        """Parse and validate a plain-data scenario document.

        ``name`` overrides/supplies the scenario name (e.g. from the file
        stem) when the document has none.
        """
        scenario = name or (data.get("name", "") if isinstance(data, Mapping) else "")
        f = StrictFields(data, "", ScenarioError, scenario)
        doc_name = f.take("name", "str", default=name)
        description = f.take("description", "str", default="")
        n_ranks = f.take("n_ranks", "int", required=True)
        n_steps = f.take("n_steps", "int", required=True)
        seed = f.take("seed", "int", default=0)
        machine = MachineSection.parse(f.take("machine", "table"), scenario)
        workload = WorkloadSection.parse(f.take("workload", "table"), scenario)
        comm = CommSection.parse(f.take("comm", "table"), scenario)
        noise = NoiseSection.parse(f.take("noise", "table"), scenario)
        raw_delays = f.take("delays", "list", default=[])
        raw_campaign = f.take("campaign", "table")
        raw_outputs = f.take("outputs", "list", default=["runtime"])
        raw_sweep = f.take("sweep", "table")
        f.finish()

        if not doc_name:
            raise ScenarioError("scenario has no name (give 'name' in the "
                                "document or load it from a file)",
                                path="name")
        if n_ranks < 2:
            raise ScenarioError(f"must be >= 2, got {n_ranks}",
                                path="n_ranks", scenario=scenario)
        if n_steps < 1:
            raise ScenarioError(f"must be >= 1, got {n_steps}",
                                path="n_steps", scenario=scenario)
        if seed < 0:
            raise ScenarioError(f"must be >= 0, got {seed}",
                                path="seed", scenario=scenario)

        delays = tuple(
            DelayEntry.parse(entry, f"delays[{i}]", scenario)
            for i, entry in enumerate(raw_delays)
        )
        campaign = (CampaignSection.parse(raw_campaign, scenario)
                    if raw_campaign is not None else None)
        outputs = []
        for i, out in enumerate(raw_outputs):
            if not isinstance(out, str):
                raise ScenarioError(
                    f"expected str, got {type(out).__name__}",
                    path=f"outputs[{i}]", scenario=scenario,
                )
            _check_choice(out, OUTPUT_KINDS, f"outputs[{i}]", scenario)
            outputs.append(out)
        if not outputs:
            raise ScenarioError("at least one output is required",
                                path="outputs", scenario=scenario)
        sweep = SweepSection.parse(raw_sweep, scenario) if raw_sweep is not None else None

        return cls(
            name=doc_name, description=description, n_ranks=n_ranks,
            n_steps=n_steps, seed=seed, machine=machine, workload=workload,
            comm=comm, noise=noise, delays=delays, campaign=campaign,
            outputs=tuple(outputs), sweep=sweep,
        )

    def to_dict(self) -> dict:
        """Plain-data form; round-trips through :meth:`from_dict`."""
        out: dict = {
            "name": self.name,
            "n_ranks": self.n_ranks,
            "n_steps": self.n_steps,
        }
        if self.description:
            out["description"] = self.description
        if self.seed:
            out["seed"] = self.seed
        out["machine"] = self.machine.to_dict()
        out["workload"] = self.workload.to_dict()
        out["comm"] = self.comm.to_dict()
        out["noise"] = self.noise.to_dict()
        if self.delays:
            out["delays"] = [d.to_dict() for d in self.delays]
        if self.campaign is not None:
            out["campaign"] = self.campaign.to_dict()
        out["outputs"] = list(self.outputs)
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        return out

    def without_sweep(self) -> "ScenarioSpec":
        """This scenario's base point (the sweep block dropped)."""
        if self.sweep is None:
            return self
        from dataclasses import replace

        return replace(self, sweep=None)


# ----------------------------------------------------------------------
# sweep override application
# ----------------------------------------------------------------------
def apply_overrides(data: Mapping, overrides: "Mapping[str, Any]") -> dict:
    """Apply ``{dotted.path: value}`` overrides to a scenario document.

    Paths address nested tables (``campaign.rate``, ``workload.threads``);
    missing intermediate tables are created.  The resulting document still
    goes through :meth:`ScenarioSpec.from_dict`, so an axis targeting a
    nonexistent field fails there with the exact offending path.
    """
    out = _deep_copy(data)
    for path, value in overrides.items():
        parts = path.split(".")
        if not all(parts):
            raise ScenarioError(f"malformed override path {path!r}",
                                path="sweep.axes")
        node = out
        for i, part in enumerate(parts[:-1]):
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ScenarioError(
                    f"override path {path!r} descends into "
                    f"'{'.'.join(parts[: i + 1])}', which is not a table",
                    path="sweep.axes",
                )
            node = nxt
        node[parts[-1]] = value
    return out


def _deep_copy(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {k: _deep_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_copy(v) for v in value]
    return value
