"""repro — idle-wave propagation and decay on clusters.

A production-quality reproduction of Afzal, Hager, Wellein:
*"Propagation and Decay of Injected One-Off Delays on Clusters: A Case
Study"* (IEEE CLUSTER 2019, arXiv:1905.10603).

The package has five layers:

1. :mod:`repro.sim` — a discrete-event simulator of MPI point-to-point
   message passing on hierarchical clusters (the substrate; the paper used
   two real clusters plus LogGOPSim).
2. :mod:`repro.core` — the idle-wave analysis toolkit: detection, speed
   (Eq. 2), decay (Fig. 8), interaction (Fig. 6), elimination (Fig. 9).
3. :mod:`repro.models`, :mod:`repro.cluster`, :mod:`repro.workloads` —
   the paper's Eq. 1 runtime model, machine presets (Emmy/Meggie), and
   the paper's workloads (STREAM triad, LBM, vdivpd).
4. :mod:`repro.experiments` — one driver per paper figure, runnable via
   ``python -m repro`` or the ``repro-experiment`` script.
5. :mod:`repro.scenarios` — declarative scenarios: TOML/JSON specs
   compiled onto the simulator (``repro-experiment scenario run ...``),
   with sweeps executing through the campaign runtime
   (:mod:`repro.runtime`).

Quickstart::

    import repro

    cfg = repro.LockstepConfig(
        n_ranks=18, n_steps=20,
        delays=(repro.DelaySpec(rank=5, step=0, duration=4.5 * 3e-3),),
    )
    res = repro.simulate_lockstep(cfg)
    v = repro.measure_speed(res, source=5).speed
    print(f"idle wave speed: {v:.1f} ranks/s")
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(module: str, exports: "dict[str, tuple[str, ...]]"):
    """PEP 562 hooks that import a module's re-exports on first access.

    ``exports`` maps each defining module to the public names it
    provides, so every name is listed exactly once; a leading dot makes
    the module path relative to the package ``module`` (as in
    :func:`importlib.import_module`).  Returns ``(names, __getattr__,
    __dir__)``: the module builds its ``__all__`` from ``names`` and
    installs the hooks.  A resolved name is cached in the module's
    namespace, so later accesses skip the hook.  Any other attribute is
    tried as a submodule (``repro.sim.topology`` after ``import
    repro``); an ``ImportError`` raised inside an existing submodule
    propagates.
    """
    home = {name: source for source, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        source = home.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source, module), name)
            setattr(sys.modules[module], name, value)
            return value
        if not name.startswith("__"):  # not for probes such as __path__
            try:
                return importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{module}.{name}":
                    raise
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    def __dir__() -> "list[str]":
        return sorted({*vars(sys.modules[module]), *home})

    return sorted(home), __getattr__, __dir__


_names, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".core.decay": ("DecayMeasurement", "measure_decay"),
    ".core.elimination": ("EliminationPoint", "elimination_scan",
                          "excess_runtime", "runtime_spread"),
    ".core.idle_wave": ("WaveFront", "default_threshold", "wave_front"),
    ".core.interaction": ("Wave", "find_waves", "meeting_ranks",
                          "resync_step", "superposition_defect"),
    ".core.speed": ("SpeedMeasurement", "measure_speed", "sigma_factor",
                    "silent_speed", "silent_speed_for"),
    ".core.timing": ("RunTiming",),
    ".sim.delay": ("DelaySpec", "delays_at_local_rank", "random_delays"),
    ".sim.engine": ("SimConfig", "simulate"),
    ".sim.lockstep": ("LockstepResult", "simulate_lockstep"),
    ".sim.mpi": ("Protocol", "select_protocol"),
    ".sim.network": ("HockneyModel", "LogGPModel", "NetworkModel",
                     "UniformNetwork"),
    ".sim.noise": ("BimodalNoise", "ExponentialNoise", "GammaNoise",
                   "NoNoise", "NoiseModel", "TraceNoise", "UniformNoise"),
    ".sim.program": ("CommPattern", "Direction", "LockstepConfig", "Program",
                     "build_exec_times", "build_lockstep_program"),
    ".sim.saturation": ("SaturationConfig", "simulate_saturation"),
    ".sim.topology": ("CommDomain", "MachineTopology", "ProcessMapping"),
    ".sim.trace": ("OpRecord", "Trace"),
})
__all__ = ["__version__", *_names]
del _names
