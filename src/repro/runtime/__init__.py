"""Parallel campaign runtime: sharded execution, seeding, result store.

The paper's statistical figures (Figs. 6-9, Sec. IV-B) rest on campaigns
of many independent simulation runs.  This package turns such campaigns
into first-class, schedulable work:

- :mod:`repro.runtime.spec` — :class:`RunSpec` / :class:`SweepSpec`,
  picklable and hashable declarations of a single run or a whole
  parameter grid, with a stable content hash per task.
- :mod:`repro.runtime.seeding` — deterministic per-task seed derivation
  from ``(base_seed, task_index)`` via :class:`numpy.random.SeedSequence`,
  so shards draw from provably disjoint streams regardless of execution
  order or backend.
- :mod:`repro.runtime.executor` — a serial backend and a
  ``concurrent.futures.ProcessPoolExecutor`` backend that shard tasks
  across cores, stream results back as they complete, and isolate
  per-task failures instead of killing the campaign (a dead worker ends
  it, and a rerun on the same store computes only what is missing).
- :mod:`repro.runtime.store` — a content-addressed on-disk result store
  (packed append-only shards with a sidecar index, keyed by the task
  hash) so repeated invocations skip already-computed runs.
- :mod:`repro.runtime.shards` — the packed shard backend: per-process
  append-only shard files, index recovery from self-describing entries,
  and array reconstruction from raw array segments.
- :mod:`repro.runtime.tasks` — importable reference simulation tasks
  shared by the experiment drivers and benchmarks, and templates for new
  campaign workloads.

Typical use::

    from repro.runtime import SweepSpec, run_campaign, ResultStore

    sweep = SweepSpec(
        fn="repro.runtime.tasks:lockstep_delay_task",
        base={"n_ranks": 50, "n_steps": 40, "t_exec": 3e-3,
              "msg_size": 8192, "rate": 0.01,
              "duration_low": 6e-3, "duration_high": 24e-3},
        axes=(("replicate", tuple(range(32))),),
        base_seed=0,
    )
    campaign = run_campaign(sweep.tasks(), jobs=4,
                            store=ResultStore("~/.cache/repro"))
    runtimes = [v["runtime"] for v in campaign.values()]
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".chaos": ("ChaosError", "ChaosSpec"),
    ".executor": ("CampaignResult", "TaskBatcher", "TaskError",
                  "TaskResult", "resolve_jobs", "run_campaign"),
    ".seeding": ("derive_seed", "seed_sequence"),
    ".spec": ("RunSpec", "SweepSpec", "canonical", "spec_key"),
    ".store": ("GcStats", "ResultStore", "StoreError"),
})
