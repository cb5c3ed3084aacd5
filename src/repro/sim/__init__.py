"""Discrete-event simulation substrate for message-passing programs.

This package provides everything needed to *simulate* the behaviour of an
MPI-parallel bulk-synchronous program on a cluster, which is the substrate
the paper's experiments run on:

- :mod:`repro.sim.topology` — hierarchical machine topology (cores, sockets,
  nodes) and the mapping of MPI ranks onto it.
- :mod:`repro.sim.network` — transfer-time models (Hockney, LogGP) with
  per-domain (intra-socket / inter-socket / inter-node) parameters.
- :mod:`repro.sim.noise` — fine-grained noise generators (exponential per
  Eq. 3 of the paper, bimodal, gamma, ...).
- :mod:`repro.sim.delay` — one-off injected delays (the "strong delays" whose
  propagation the paper studies).
- :mod:`repro.sim.program` — construction of bulk-synchronous per-rank
  operation sequences (compute / Isend / Irecv / Waitall).
- :mod:`repro.sim.mpi` — message-matching and protocol (eager/rendezvous)
  semantics.
- :mod:`repro.sim.engine` — the authoritative static-DAG discrete-event
  engine.
- :mod:`repro.sim.lockstep` — the batched, hierarchy-aware vectorized
  fast path for the standard lockstep pattern, validated against the DAG
  engine (golden traces + property tests).
- :mod:`repro.sim.saturation` — processor-sharing simulation of shared
  memory-bandwidth contention for data-bound workloads.
- :mod:`repro.sim.trace` — trace records and timing matrices consumed by the
  analysis layer in :mod:`repro.core`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".collectives": ("Collective", "CollectiveConfig",
                     "build_collective_program"),
    ".delay": ("DelaySpec", "delays_at_local_rank", "random_delays"),
    ".engine": ("BatchedDagResult", "DagResult", "EngineError", "SimConfig",
                "StaticDag", "build_dag", "clear_dag_cache", "dag_cache_info",
                "simulate", "simulate_dag", "simulate_dag_batch"),
    ".hybrid": ("HybridConfig", "hybrid_exec_times", "hybrid_lockstep_config"),
    ".lockstep": ("BatchedLockstepResult", "LockstepResult",
                  "simulate_lockstep", "simulate_lockstep_batch"),
    ".mpi": ("Protocol", "select_protocol"),
    ".network": ("HockneyModel", "LogGPModel", "NetworkModel",
                 "UniformNetwork"),
    ".noise": ("BimodalNoise", "ExponentialNoise", "GammaNoise", "NoNoise",
               "NoiseModel", "TraceNoise", "UniformNoise"),
    ".program": ("CommPattern", "Direction", "LockstepConfig", "Op", "OpKind",
                 "Program", "build_exec_times", "build_lockstep_program"),
    ".saturation": ("SaturationConfig", "simulate_saturation"),
    ".topology": ("CommDomain", "MachineTopology", "ProcessMapping"),
    ".trace": ("OpRecord", "Trace"),
})
