"""Campaign execution: serial and process-pool backends, with task batching.

:func:`run_campaign` takes an ordered collection of
:class:`~repro.runtime.spec.RunSpec` tasks and executes the cache misses
on one of two backends:

- **serial** (``jobs=1``, the default): runs tasks in order in the
  current process — zero overhead, trivially debuggable.
- **process pool** (``jobs>1`` or ``jobs=0`` for CPU-count auto-detect):
  shards tasks across a ``concurrent.futures.ProcessPoolExecutor`` and
  streams results back *as they complete* (an ``on_result`` callback
  fires in completion order), while the returned campaign keeps task
  order.  The task and batcher modules are imported before the pool
  starts, so forked workers inherit them instead of importing them again.

An optional **batcher** lets a task family execute contiguous blocks of
compatible cache-missing tasks in one call (e.g. B delay-campaign draws
as a single batched engine invocation) instead of one call per task.
Batching is an execution detail: per-task results, cache keys, stored
values, and streaming callbacks are exactly those of unbatched execution
— a batcher that cannot honor that contract must not group the tasks.
The block becomes the unit of sharding; a failing block transparently
falls back to per-task execution, preserving failure isolation.

Because per-task seeds are baked into the specs before execution (see
:mod:`repro.runtime.seeding`), both backends produce bit-identical
results for the same campaign — sharding changes wall-clock time, never
values.

**Fault tolerance.**  A failing task never kills the campaign: the
exception (with its traceback, captured inside the worker) is recorded
on that task's :class:`TaskResult` and every other shard proceeds.  A
raised exception is final: every task is a pure function of its spec
and baked-in seed, so running it again would raise again.  The one
fault that re-execution heals is a dead worker, which takes innocent
in-flight tasks down with it: a **broken pool is respawned** (segfault,
OOM kill, ``os._exit``), the in-flight tasks are re-enqueued and probed
*one at a time* on a fresh pool so a repeat death attributes the kill
to exactly one task, and a task that kills workers ``quarantine_after``
times is **quarantined** — recorded as a typed failure
(:attr:`TaskResult.quarantined`), never dispatched again — so one
poison task cannot wedge a campaign.

**Who writes a record.**  The process that computes a value writes it
to the store.  The serial backend computes, writes and keeps its values
in the calling process.  A pool worker gets the campaign's store once,
when the pool starts, appends each value it computes to its own shard,
and sends home only the task's status and duration; the parent's
:class:`TaskResult` reads that value back from the store when a consumer
asks for it.  So values cross the pool pipe only when there is no store,
and a cold pooled campaign is never held whole in the parent.  A worker
whose write fails sends the :class:`~repro.runtime.store.StoreError`
home, and :func:`run_campaign` raises it once the pool is shut down.

``KeyboardInterrupt`` / ``SystemExit`` in the calling process are *not*
treated as task failures: the pool is shut down deliberately (queued
futures cancelled, no waiting on running workers) and the exception
re-raised.  An interrupted campaign leaves no torn state behind: a
terminal ^C reaches the pool workers too, and an append it interrupts
is cut back to the previous entry
(:meth:`~repro.runtime.shards.PackedShards.append`), so a worker's
later appends stay readable.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import telemetry
from repro.runtime import chaos
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore, StoreError

__all__ = [
    "CampaignResult",
    "QUARANTINE_AFTER",
    "TaskBatcher",
    "TaskError",
    "TaskResult",
    "resolve_jobs",
    "run_campaign",
]

# Pending-future window per worker: enough to keep the pool saturated
# without materializing one future per task for huge sweeps.
_INFLIGHT_PER_JOB = 4

#: Default number of worker kills after which a task is quarantined.
#: The first kill is ambiguous (every in-flight task is a suspect);
#: subsequent kills happen in one-at-a-time probe isolation, so two
#: probe deaths on top of one group death is decisive.
QUARANTINE_AFTER = 3


class TaskError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_failures` when tasks failed."""


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one campaign task.

    A success has a :attr:`value`, a failure an ``error``; ``cached``
    marks results served from the store without execution.  ``duration``
    is the task's own wall-clock seconds (0 for cache hits); tasks
    executed inside a batched block report the block's wall clock
    divided evenly across its tasks, since the engine computes them as
    one inseparable call.  ``quarantined`` marks a task the executor
    refused to run again after it repeatedly killed workers.

    ``payload`` is the value when this process holds it.  A task a pool
    worker wrote to ``store`` holds none: :attr:`value` reads its record
    on each access instead.
    """

    spec: RunSpec
    payload: "Mapping | None" = None
    error: "str | None" = None
    cached: bool = False
    duration: float = 0.0
    quarantined: bool = False
    store: "ResultStore | None" = field(default=None, repr=False,
                                        compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def value(self) -> "Mapping | None":
        """The task's value; a worker-stored one is read from the store.

        A record that can no longer be read (a gc or a torn shard since
        the worker wrote it) is recomputed alone and written again.
        """
        if self.store is None or not self.ok:
            return self.payload
        value = self.store.get(self.spec.key)
        if value is None:
            value = run_campaign([self.spec], store=self.store) \
                .raise_failures().results[0].payload
        return value

    @property
    def index(self) -> int:
        return self.spec.index


@dataclass(frozen=True)
class CampaignResult:
    """All task outcomes of one campaign, in task (spec) order.

    ``n_retried`` counts re-dispatches of tasks a worker death took
    down; ``n_pool_respawns`` the times a broken pool was replaced.
    Both are 0 for serial runs.
    """

    results: "tuple[TaskResult, ...]"
    jobs: int = 1
    elapsed: float = 0.0
    n_retried: int = 0
    n_pool_respawns: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def values(self) -> "list[Mapping]":
        """Values of the successful tasks, in task order (worker-stored
        ones are read from the store here)."""
        return [r.value for r in self.results if r.ok]

    @property
    def failures(self) -> "tuple[TaskResult, ...]":
        return tuple(r for r in self.results if not r.ok)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.results if r.ok and not r.cached)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    def raise_failures(self) -> "CampaignResult":
        """Raise :class:`TaskError` if any task failed; else return self."""
        if self.failures:
            first = self.failures[0]
            raise TaskError(
                f"{len(self.failures)}/{len(self.results)} campaign tasks "
                f"failed; first failure (task {first.index}, {first.spec.fn}):\n"
                f"{first.error}"
            )
        return self


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``--jobs`` value: ``None``/1 → serial, <=0 → CPU count."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


@dataclass(frozen=True)
class TaskBatcher:
    """Strategy interface: execute blocks of compatible tasks in one call.

    :meth:`plan` groups neighbouring tasks whose :meth:`_signature` keys
    are equal and not ``None`` into blocks of at most ``max_block``
    tasks, which bounds the arrays a batched call stacks.  A subclass
    supplies only the key and :meth:`execute`; the base key is always
    ``None``, so the base batches nothing.

    Implementations must be picklable (blocks are sharded to worker
    processes whole) and must honor the batching contract: the values
    returned by :meth:`execute` for a block are exactly — bit for bit —
    the values the tasks would produce when called one by one.  Their
    module should import what :meth:`execute` runs at module top: the
    pool imports it before forking, so workers inherit that code.
    See :class:`repro.scenarios.batch.ScenarioTaskBatcher` and
    :class:`repro.reports.tasks.ReportTaskBatcher`.
    """

    max_block: int = 64

    def plan(self, specs: "Sequence[RunSpec]") -> "list[list[int]]":
        """Partition ``specs`` into ordered blocks of batchable tasks.

        Returns a list of index blocks covering ``range(len(specs))``
        exactly once, in order.  Singleton blocks run through the normal
        per-task path.
        """
        blocks: "list[list[int]]" = []
        current: "list[int]" = []
        current_sig: "tuple | None" = None
        for i, spec in enumerate(specs):
            sig = self._signature(spec)
            if (sig is not None and sig == current_sig
                    and len(current) < self.max_block):
                current.append(i)
            else:
                if current:
                    blocks.append(current)
                current, current_sig = [i], sig
        if current:
            blocks.append(current)
        return blocks

    @staticmethod
    def _signature(spec: RunSpec) -> "tuple | None":
        """Batch-compatibility key of one task; ``None`` never batches."""
        return None

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one multi-task block; returns one value per spec, in order."""
        raise NotImplementedError


def _execute(spec: RunSpec, attempt: int = 0) -> "tuple[str, Any, float]":
    """Worker entry point: run one task, capturing any exception.

    Returns ``("ok", value, duration)`` or ``("error", traceback_text,
    duration)`` so that failures — including ones whose exception types
    would not survive pickling — travel back to the parent as plain
    data.  The duration comes from an always-timed ``executor.task``
    telemetry span around the task code itself, so pool queue wait
    never inflates it.  ``attempt`` is the number of workers this task
    has already killed; it only keys chaos injection, so a bounded
    injected abort heals under pool respawn.  ``KeyboardInterrupt`` and
    ``SystemExit`` propagate: in the serial backend they must abort the
    campaign, and in a worker the pool machinery reports them anyway.
    """
    status, payload = "ok", None
    telemetry.emit("task.start", index=spec.index)
    with telemetry.timed_span("executor.task", fn=spec.fn) as sp:
        try:
            if chaos.active() is not None:
                chaos.maybe_inject(spec.key, attempt)
            payload = spec.call()
        except Exception:  # noqa: BLE001 — isolation is the whole point
            status, payload = "error", traceback.format_exc()
            telemetry.count("executor.task_failures")
    return status, payload, sp.duration


def _execute_block(
    unit: "tuple[RunSpec, ...]", batcher: TaskBatcher,
) -> "list[tuple[str, Any, float]]":
    """Run one batched block; one outcome per task.

    A block that raises falls back to per-task execution, so a
    batch-infrastructure failure degrades to exactly the isolation
    semantics of unbatched execution — with a :class:`RuntimeWarning`
    naming the cause, since per-task execution may succeed and would
    otherwise hide the batcher defect entirely.
    ``KeyboardInterrupt``/``SystemExit`` propagate as in :func:`_execute`.
    """
    failure = None
    values: "list | None" = None
    with telemetry.timed_span("executor.block", n_tasks=len(unit)) as sp:
        try:
            if chaos.active() is not None:
                chaos.maybe_inject_block([spec.key for spec in unit])
            values = batcher.execute(unit)
        except Exception:  # noqa: BLE001 — degrade to per-task isolation
            failure = (
                f"batched execution of a {len(unit)}-task block failed; "
                f"falling back to per-task execution:\n{traceback.format_exc()}"
            )
    if failure is None and values is not None and len(values) != len(unit):
        failure = (
            f"batcher contract violation: {len(values)} values returned for "
            f"a {len(unit)}-task block; falling back to per-task execution"
        )
    if failure is not None:
        warnings.warn(failure, RuntimeWarning, stacklevel=3)
        telemetry.count("executor.batch_fallbacks")
        # The failed block emitted no per-task events (it never started
        # any task individually), so the fallback's task.start stream
        # counts each task exactly once.
        telemetry.emit("block.fallback", n_tasks=len(unit))
        return [_execute(spec) for spec in unit]
    telemetry.observe("executor.block_size", len(unit))
    per_task = sp.duration / len(unit)
    return [("ok", value, per_task) for value in values]


#: The store a pool worker writes its records to: set in every worker by
#: the pool initializer (``None`` for a storeless campaign), never read
#: by the serial backend.
_worker_store: "ResultStore | None" = None


def _init_worker(store: "ResultStore | None") -> None:
    """Pool initializer: hand the worker its campaign's store, once.

    The store object lives as long as the worker, so each worker
    appends to one shard of its own across all the units it runs.
    """
    global _worker_store
    _worker_store = store


def _store_outcomes(
    unit: "tuple[RunSpec, ...]", outcomes: "list[tuple]", store: ResultStore,
) -> "list[tuple]":
    """Write a unit's values to ``store`` where they were computed.

    A written task comes home as ``("stored", None, duration)``.  A
    write that fails raises :class:`StoreError` (full disk, unwritable
    ``shards/``) out of the unit, and the parent re-raises it.
    """
    stored = []
    for spec, (status, payload, duration) in zip(unit, outcomes):
        if status == "ok" and isinstance(payload, Mapping):
            store.put(spec.key, payload, spec=spec.describe())
            status, payload = "stored", None
        stored.append((status, payload, duration))
    return stored


def _execute_unit(
    unit: "tuple[RunSpec, ...]",
    batcher: "TaskBatcher | None",
    own: bool = False,
    submit_t: "float | None" = None,
    attempt: int = 0,
    store: "ResultStore | None" = None,
) -> "tuple[list[tuple], dict | None]":
    """Run one unit (a single task or a batched block) plus its telemetry.

    Returns ``(outcomes, snapshot)``.  With ``own`` — the pool backend
    passes ``telemetry.enabled()`` of the parent — this process records
    into a fresh recorder of its own, marked as inside the parent's run,
    and ships its snapshot home through the result channel: the unit's
    spans, counters, lifecycle events, and a closing resource sample of
    the worker (:func:`repro.obs.health.sample_resources`) as the
    ``worker.rss_bytes`` / ``worker.cpu_s`` histograms.  ``enable()``
    here also discards the stale recorder a fork-started worker inherits
    from an observed parent.  The serial backend records straight into
    the caller's recorder and gets ``None`` for the snapshot (serial runs
    sample no worker health).  ``submit_t`` is the parent's
    ``perf_counter()`` at submission: ``perf_counter`` is system-wide
    monotonic on Linux, so the difference is the unit's pool queue wait.
    ``attempt`` is handed to :func:`_execute` for a single-task unit; a
    multi-task block only ever runs on its first dispatch.  With a
    ``store`` (pool workers only) the values are written there before
    the snapshot closes (see :func:`_store_outcomes`), so the writes'
    telemetry travels home with the unit.
    """
    if own:
        telemetry.enable().mark_in_run()
    try:
        if submit_t is not None:
            telemetry.observe("executor.queue_wait_s",
                              max(0.0, time.perf_counter() - submit_t))
        if len(unit) == 1 or batcher is None:
            outcomes = [_execute(spec, attempt) for spec in unit]
        else:
            outcomes = _execute_block(unit, batcher)
        if store is not None:
            outcomes = _store_outcomes(unit, outcomes, store)
        if own:
            from repro.obs.health import sample_resources

            health = sample_resources()
            telemetry.observe("worker.rss_bytes", health["rss_bytes"])
            telemetry.observe("worker.cpu_s", health["cpu_s"])
    finally:
        # Workers are reused across units: always release an owned
        # recorder, or an aborting unit would leave it live (and
        # growing) for every later unit this process executes.
        snap = telemetry.disable().snapshot() if own else None
    return outcomes, snap


def _execute_in_worker(
    unit: "tuple[RunSpec, ...]",
    batcher: "TaskBatcher | None",
    own: bool,
    submit_t: float,
    attempt: int,
) -> "tuple[list[tuple], dict | None]":
    """Pool entry point: :func:`_execute_unit` into the worker's store."""
    return _execute_unit(unit, batcher, own, submit_t, attempt,
                         store=_worker_store)


def _plan_units(
    pending: "Sequence[tuple[int, RunSpec]]", batcher: "TaskBatcher | None"
) -> "list[tuple[tuple[int, RunSpec], ...]]":
    """Group the pending (position, spec) pairs into execution units."""
    if batcher is None or len(pending) <= 1:
        return [(entry,) for entry in pending]
    blocks = batcher.plan([spec for _, spec in pending])
    covered = sorted(i for block in blocks for i in block)
    if covered != list(range(len(pending))):
        raise ValueError(
            f"batcher plan must partition all {len(pending)} pending tasks "
            "exactly once"
        )
    return [tuple(pending[i] for i in block) for block in blocks]


def _as_task_result(spec: RunSpec, status: str, payload: Any,
                    duration: float,
                    store: "ResultStore | None" = None) -> TaskResult:
    if status == "stored":
        return TaskResult(spec=spec, duration=duration, store=store)
    if status == "ok":
        if not isinstance(payload, Mapping):
            return TaskResult(
                spec=spec,
                error=(
                    f"task returned {type(payload).__name__}, expected a "
                    "mapping of named result fields"
                ),
                duration=duration,
            )
        return TaskResult(spec=spec, payload=payload, duration=duration)
    return TaskResult(spec=spec, error=str(payload), duration=duration)


def _emit_dispatch(unit: "tuple[tuple[int, RunSpec], ...]") -> None:
    """Publish a unit's submission: one ``task.submit`` per task, plus a
    ``block.dispatch`` header for multi-task blocks."""
    if not telemetry.enabled():
        return
    if len(unit) > 1:
        telemetry.emit("block.dispatch", n_tasks=len(unit),
                       first=unit[0][1].index)
    for _, spec in unit:
        telemetry.emit("task.submit", index=spec.index)


def run_campaign(
    specs: "Iterable[RunSpec]",
    *,
    jobs: "int | None" = 1,
    store: "ResultStore | None" = None,
    on_result: "Callable[[TaskResult], None] | None" = None,
    batcher: "TaskBatcher | None" = None,
    watchdog: "Any | None" = None,
    quarantine_after: int = QUARANTINE_AFTER,
) -> CampaignResult:
    """Execute a campaign of tasks, sharded, cached, and optionally batched.

    Parameters
    ----------
    specs:
        The tasks, typically ``SweepSpec.tasks()``.  Order defines the
        order of :attr:`CampaignResult.results`.
    jobs:
        Parallelism: 1 (default) runs serially in-process, N>1 shards
        over N worker processes, 0 auto-detects the CPU count.
    store:
        Optional :class:`~repro.runtime.store.ResultStore`.  Hits skip
        execution entirely; fresh results are persisted by the process
        that computed them (see the module docstring).  A write that
        fails raises :class:`~repro.runtime.store.StoreError`.
    on_result:
        Streaming callback, invoked in completion order (cache hits
        first) from the calling process.
    batcher:
        Optional :class:`TaskBatcher` that groups contiguous compatible
        cache misses into blocks executed by one call each.  Results,
        cache addressing, and failure semantics are unchanged — batching
        only reduces per-task invocation overhead.
    watchdog:
        Optional :class:`repro.obs.health.StallWatchdog` for the pool
        backend.  When the run is observed (telemetry enabled) and none
        is given, a default watchdog is installed; pass one to tune its
        thresholds (tests inject aggressive ones).  Serial runs never
        use it — stall detection is pool-only by the determinism
        contract.  A stall is a warning: the unit is left to finish.
    quarantine_after:
        Worker kills after which a task is quarantined instead of
        re-probed (see the module docstring).

    Returns
    -------
    CampaignResult
        Per-task outcomes in task order.  Failed tasks carry their
        worker traceback instead of a value; they never abort siblings.
    """
    if quarantine_after < 1:
        raise ValueError(
            f"quarantine_after must be >= 1, got {quarantine_after}")
    specs = tuple(specs)
    jobs = resolve_jobs(jobs)
    slots: "list[TaskResult | None]" = [None] * len(specs)

    def finish(pos: int, result: TaskResult) -> None:
        slots[pos] = result
        if store is not None and result.payload is not None \
                and not result.cached:
            store.put(result.spec.key, result.payload,
                      spec=result.spec.describe())
        # Terminal lifecycle events carry only the task index: payloads
        # with durations or tracebacks would break the event-identity
        # determinism contract (repro.telemetry.recorder).
        if result.cached:
            telemetry.emit("task.cache_hit", index=result.index)
        elif result.ok:
            telemetry.emit("task.done", index=result.index)
        else:
            telemetry.emit("task.failed", index=result.index)
        if on_result is not None:
            on_result(result)

    # A campaign is always *inside* a run: mark the recorder so task
    # code that would own a run lifecycle at top level (run_scenario
    # inside scenario_task) stays silent — even when run_campaign is
    # driven directly without an enclosing runner.
    rec = telemetry.current_recorder()
    if rec is not None:
        rec.mark_in_run()
    n_retried = n_respawns = 0
    try:
        # ``elapsed`` is the span's wall clock — the same two perf_counter
        # reads the pre-telemetry bookkeeping made, recorded only if a
        # profiling run is live.
        with telemetry.timed_span("campaign.run", n_tasks=len(specs),
                                  jobs=jobs) as campaign_span:
            pending: "list[tuple[int, RunSpec]]" = []
            for pos, spec in enumerate(specs):
                cached = store.get(spec.key) if store is not None else None
                if cached is not None:
                    telemetry.count("campaign.cache.hits")
                    finish(pos, TaskResult(spec=spec, payload=cached,
                                           cached=True))
                else:
                    if store is not None:
                        telemetry.count("campaign.cache.misses")
                    pending.append((pos, spec))

            units = _plan_units(pending, batcher)
            if jobs == 1 or len(units) <= 1:
                for unit in units:
                    _emit_dispatch(unit)
                    outcomes, _ = _execute_unit(
                        tuple(spec for _, spec in unit), batcher)
                    for (pos, spec), outcome in zip(unit, outcomes):
                        finish(pos, _as_task_result(spec, *outcome))
            else:
                n_retried, n_respawns = _run_pool(
                    units, jobs, batcher, finish, watchdog, quarantine_after,
                    store)
    finally:
        if rec is not None:
            rec.unmark_in_run()

    return CampaignResult(
        results=tuple(slots),
        jobs=jobs,
        elapsed=campaign_span.duration,
        n_retried=n_retried,
        n_pool_respawns=n_respawns,
    )


def _import_task_code(
    units: "Sequence[tuple[tuple[int, RunSpec], ...]]",
    batcher: "TaskBatcher | None",
) -> None:
    """Import every task function's module and the batcher's module
    before the pool forks, so each worker inherits them instead of
    importing (and compiling) them again.

    Task modules import what they execute at module top, so this covers
    the engines too.  A module that fails to import is left to fail
    again inside its tasks, isolated as a task failure.
    """
    modules = {spec.fn.partition(":")[0] for unit in units for _, spec in unit}
    if batcher is not None:
        modules.add(type(batcher).__module__)
    for name in sorted(modules):
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 — reported by the task itself
            pass


class _PoolBroke(Exception):
    """Internal: a worker died hard; ``units`` are the crash suspects."""

    def __init__(self, units: "list[tuple]") -> None:
        super().__init__("worker pool broke")
        self.units = units


def _run_pool(
    units: "Sequence[tuple[tuple[int, RunSpec], ...]]",
    jobs: int,
    batcher: "TaskBatcher | None",
    finish: "Callable[[int, TaskResult], None]",
    watchdog: "Any | None" = None,
    quarantine_after: int = QUARANTINE_AFTER,
    store: "ResultStore | None" = None,
) -> "tuple[int, int]":
    """Shard execution units over a process pool, streaming completions.

    A unit is one task or one batched block; blocks travel to a worker
    whole.  A multi-task block whose future dies with the pool intact
    (result unpicklable) is re-enqueued as singleton units so only the
    task that actually fails is lost — the same per-task isolation as
    unbatched execution.

    Every pool (the first and each respawn) hands its workers ``store``
    to write their values to; a unit whose writes failed ends the
    campaign with its :class:`~repro.runtime.store.StoreError`, raised
    once the running units have finished and the pool has shut down.

    A **broken pool** (a worker killed by the OS or ``os._exit``
    mid-task) is survived by respawning: the generation's in-flight
    units become crash suspects, a fresh pool is started
    (``pool.respawn`` event), and the suspects are re-dispatched as
    singletons *one at a time* — probe isolation — so a repeat death is
    attributed to exactly one task.  Each re-dispatch emits
    ``task.retry`` and runs with its worker-death count as the attempt
    (see :func:`_execute`).  A task whose crash count reaches
    ``quarantine_after`` is quarantined: finished as a typed failure
    (``task.quarantined`` event, :attr:`TaskResult.quarantined`) and
    never submitted again.  Submit errors never propagate out of here:
    if the pool cannot even be (re)started, the remaining tasks are
    recorded as failures and the campaign result stays complete.  Every
    position sits in exactly one place until it finishes — pending,
    probe, block re-runs, or in flight — so each finishes once.

    When the run is observed, each returned unit's snapshot (spans,
    events, and the worker's health histograms) is merged into the live
    recorder, and between completions a
    :class:`~repro.obs.health.StallWatchdog` scans the in-flight table,
    emitting ``task.stall`` for units out far longer than the EWMA task
    duration.  A stall is a warning: the unit keeps running.

    ``KeyboardInterrupt``/``SystemExit`` shut the pool down deliberately
    — queued futures cancelled, running workers not waited for — and
    re-raise, so an interrupt never leaves the campaign wedged on dead
    futures.

    Returns ``(n_retried, n_respawns)`` — the recovery economics
    :func:`run_campaign` folds into the campaign result.
    """
    _import_task_code(units, batcher)
    max_workers = min(jobs, len(units))
    window = max_workers * _INFLIGHT_PER_JOB
    pending: "deque" = deque(units)
    probe: "deque" = deque()  # crash suspects, probed one at a time
    crashes: "dict[int, int]" = {}  # position -> worker kills survived
    n_retried = n_respawns = 0
    own = telemetry.enabled()
    if watchdog is None and own:
        from repro.obs.health import StallWatchdog

        watchdog = StallWatchdog()
    telemetry.gauge("executor.jobs", max_workers)

    def apply_unit(unit, outcomes, snap) -> None:
        """Fold one returned unit in: its snapshot, then its results."""
        # Worker spans land under the live campaign.run span with their
        # counters/histograms summed in, and worker lifecycle events are
        # re-sequenced onto the recorder.  A died block's events never
        # came back, so its re-run singletons are the only events its
        # tasks produce.
        telemetry.merge_snapshot(snap)
        if watchdog is not None:
            for outcome in outcomes:
                watchdog.note_duration(outcome[2])
        for (pos, spec), outcome in zip(unit, outcomes):
            finish(pos, _as_task_result(spec, *outcome, store=store))

    def fail_unit(unit, note: str) -> None:
        telemetry.count("executor.not_attempted", len(unit))
        for pos, spec in unit:
            finish(pos, _as_task_result(spec, "error", note, 0.0))

    def fail_remaining(note: str) -> None:
        while probe:
            fail_unit(probe.popleft(), note)
        while pending:
            fail_unit(pending.popleft(), note)

    def absorb_crash(suspect_units) -> None:
        """Sort a broken generation's casualties into probe vs quarantine."""
        nonlocal n_retried
        for unit in suspect_units:
            for entry in unit:
                pos, spec = entry
                n = crashes[pos] = crashes.get(pos, 0) + 1
                if n >= quarantine_after:
                    telemetry.count("executor.quarantined")
                    telemetry.emit("task.quarantined", index=spec.index)
                    finish(pos, TaskResult(
                        spec=spec, quarantined=True,
                        error=(f"quarantined after killing its worker "
                               f"{n} time(s); not retried again"),
                    ))
                else:
                    n_retried += 1
                    telemetry.count("executor.task_redispatches")
                    telemetry.emit("task.retry", index=spec.index, attempt=n)
                    probe.append((entry,))

    while pending or probe:
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers,
                                       initializer=_init_worker,
                                       initargs=(store,))
        except OSError as exc:  # resources exhausted: give up cleanly
            fail_remaining(f"task not attempted: cannot start a worker "
                           f"pool: {exc}")
            break
        in_flight: dict = {}
        block_retries: "deque" = deque()  # healthy-pool singleton re-runs

        def submit_unit(unit) -> None:
            spec_block = tuple(spec for _, spec in unit)
            _emit_dispatch(unit)
            submit_t = time.perf_counter()
            # Probe units are singletons; a multi-task block never holds
            # a position that killed a worker, so its attempt is 0.
            attempt = crashes.get(unit[0][0], 0)
            try:
                future = pool.submit(_execute_in_worker, spec_block,
                                     batcher, own, submit_t, attempt)
            except BrokenProcessPool:
                raise _PoolBroke([unit] + [u for u, _ in in_flight.values()])
            except Exception:  # shutdown races, unpicklable spec
                fail_unit(unit, "task not attempted: submit failed\n"
                          + traceback.format_exc())
                return
            in_flight[future] = (unit, submit_t)

        def refill() -> None:
            # Probe isolation: while crash suspects are queued, run them
            # strictly one at a time with nothing else in flight.  (Loop:
            # a suspect whose submit failed leaves nothing in flight.)
            if probe:
                while probe and not in_flight and not block_retries:
                    submit_unit(probe.popleft())
                return
            while len(in_flight) < window:
                if block_retries:
                    unit = block_retries.popleft()
                elif pending:
                    unit = pending.popleft()
                else:
                    break
                submit_unit(unit)

        try:
            refill()
            while in_flight:
                timeout = watchdog.poll_s if watchdog is not None else None
                done, _ = wait(in_flight, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if watchdog is not None:
                    watchdog.scan(in_flight)
                for future in done:
                    unit, _submit_t = in_flight.pop(future)
                    if watchdog is not None:
                        watchdog.forget(future)
                    try:
                        outcomes, snap = future.result()
                    except BrokenProcessPool:
                        raise _PoolBroke(
                            [unit] + [u for u, _ in in_flight.values()])
                    except StoreError:  # a worker's write failed
                        raise
                    except Exception:  # result unpicklable, pool intact
                        if len(unit) > 1:
                            # Don't fail the whole block for one bad task:
                            # retry its tasks individually (at most once
                            # each) — loudly, or a systematic batcher defect
                            # would hide behind green per-task retries at
                            # ~2x the work.
                            warnings.warn(
                                f"batched block of {len(unit)} tasks failed "
                                "to return from its worker; retrying per "
                                "task:\n" + traceback.format_exc(),
                                RuntimeWarning, stacklevel=2,
                            )
                            telemetry.count("executor.block_retries")
                            block_retries.extend((entry,) for entry in unit)
                            continue
                        outcomes, snap = [("error", traceback.format_exc(),
                                           0.0)], None
                    apply_unit(unit, outcomes, snap)
                refill()
        except _PoolBroke as broke:
            n_respawns += 1
            telemetry.count("executor.pool_respawns")
            pool.shutdown(wait=False, cancel_futures=True)
            # Units queued for healthy-pool re-runs were never submitted
            # to the broken pool: they go back to pending, not to probe.
            while block_retries:
                pending.appendleft(block_retries.pop())
            absorb_crash(broke.units)
            if pending or probe:
                warnings.warn(
                    f"worker pool broke ({len(broke.units)} unit(s) in "
                    "flight); respawning and re-dispatching the suspects "
                    "one at a time", RuntimeWarning, stacklevel=2)
                telemetry.emit("pool.respawn")
            continue
        except StoreError:
            # A worker could not write: queue nothing more, and return
            # only once no worker is left appending to the store.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        except BaseException:
            # ^C / SystemExit / unexpected error: deliberate shutdown —
            # cancel everything queued, do not wait on running workers,
            # and let the exception propagate.  A worker still running
            # cuts an append that a ^C interrupts back to the previous
            # entry, so nothing is torn.
            for future in in_flight:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return n_retried, n_respawns
