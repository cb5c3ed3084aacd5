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
  order.

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
on that task's :class:`TaskResult` and every other shard proceeds.  On
top of that isolation sit three recovery layers:

- a :class:`~repro.runtime.retry.RetryPolicy` re-executes soft task
  failures (raised exceptions) with deterministic exponential backoff —
  inside the worker, so retries never block the parent's completion
  loop, and with results bit-identical to a first-attempt success;
- a **broken pool is respawned**: when a worker dies hard (segfault,
  OOM kill, ``os._exit``), the in-flight tasks are re-enqueued and
  probed *one at a time* on a fresh pool so a repeat death attributes
  the kill to exactly one task; a task that kills workers
  ``quarantine_after`` times is **quarantined** — recorded as a typed
  failure (:attr:`TaskResult.quarantined`), never retried again — so
  one poison task cannot wedge a campaign;
- ``stall_action="retry"`` gives the stall watchdog teeth: a stalled
  unit's future is abandoned and its tasks re-dispatched per task (the
  first completion wins; the zombie's late result is discarded).

``KeyboardInterrupt`` / ``SystemExit`` in the calling process are *not*
treated as task failures: the pool is shut down deliberately (queued
futures cancelled, no waiting on running workers) and the exception
re-raised, so an interrupted campaign leaves no torn state behind —
results are only ever persisted from the parent's completion loop.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import telemetry
from repro.runtime import chaos
from repro.runtime.retry import RetryPolicy
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore

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

_NO_RETRIES = (0, 0.0)  # retry_info of an un-retried outcome


class TaskError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_failures` when tasks failed."""


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one campaign task.

    Exactly one of ``value`` (success) and ``error`` (failure) is set;
    ``cached`` marks results served from the store without execution.
    ``duration`` is the task's own wall-clock seconds (0 for cache hits);
    tasks executed inside a batched block report the block's wall clock
    divided evenly across its tasks, since the engine computes them as
    one inseparable call.  ``retries`` counts the soft re-executions the
    final dispatch of this task consumed, ``wasted_s`` the wall clock
    its failed attempts burned, and ``quarantined`` marks a task the
    executor refused to run again after it repeatedly killed workers.
    """

    spec: RunSpec
    value: "Mapping | None" = None
    error: "str | None" = None
    cached: bool = False
    duration: float = 0.0
    retries: int = 0
    wasted_s: float = 0.0
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def index(self) -> int:
        return self.spec.index


@dataclass(frozen=True)
class CampaignResult:
    """All task outcomes of one campaign, in task (spec) order.

    ``n_redispatched`` counts parent-side re-dispatches (tasks re-run
    after a worker death or an abandoned stall); ``n_pool_respawns`` the
    times a broken pool was replaced.  Both are 0 for serial runs.
    """

    results: "tuple[TaskResult, ...]"
    jobs: int = 1
    elapsed: float = 0.0
    n_redispatched: int = 0
    n_pool_respawns: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def values(self) -> "list[Mapping]":
        """Values of the successful tasks, in task order."""
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
    def n_retried(self) -> int:
        """Total re-executions: worker-side soft retries + re-dispatches."""
        return self.n_redispatched + sum(r.retries for r in self.results)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    @property
    def retry_wasted_s(self) -> float:
        """Wall-clock seconds burned by failed attempts that were retried."""
        return sum(r.wasted_s for r in self.results)

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


class TaskBatcher:
    """Strategy interface: execute blocks of compatible tasks in one call.

    Implementations must be picklable (blocks are sharded to worker
    processes whole) and must honor the batching contract: the values
    returned by :meth:`execute` for a block are exactly — bit for bit —
    the values the tasks would produce when called one by one.

    See :class:`repro.scenarios.batch.ScenarioTaskBatcher` for the
    canonical implementation (batched lockstep-engine execution of
    scenario replicate blocks).
    """

    def plan(self, specs: "Sequence[RunSpec]") -> "list[list[int]]":
        """Partition ``specs`` into ordered blocks of batchable tasks.

        Returns a list of index blocks covering ``range(len(specs))``
        exactly once, in order.  Singleton blocks run through the normal
        per-task path.  The default plan batches nothing.
        """
        return [[i] for i in range(len(specs))]

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one multi-task block; returns one value per spec, in order."""
        raise NotImplementedError


def _execute(spec: RunSpec,
             retry: "RetryPolicy | None" = None
             ) -> "tuple[str, Any, float, tuple[int, float]]":
    """Worker entry point: run one task, capturing any exception.

    Returns ``("ok", value, duration, retry_info)`` or ``("error",
    traceback_text, duration, retry_info)`` so that failures — including
    ones whose exception types would not survive pickling — travel back
    to the parent as plain data; ``retry_info`` is ``(retries_used,
    wasted_s)``.  The duration comes from an always-timed
    ``executor.task`` telemetry span around the task code itself, so
    pool queue wait never inflates it.  With a :class:`RetryPolicy`,
    soft failures are re-executed in place — ``task.retry`` is emitted,
    the deterministic backoff is slept, and the task reruns with its
    unchanged spec (same baked-in seed), so a retried success is
    bit-identical to a first-attempt one.  ``KeyboardInterrupt`` and
    ``SystemExit`` propagate: in the serial backend they must abort the
    campaign, and in a worker the pool machinery reports them anyway.
    """
    attempt = 0
    wasted = 0.0
    while True:
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
        if status == "ok" or retry is None \
                or not retry.should_retry(attempt + 1):
            return status, payload, sp.duration, (attempt, wasted)
        attempt += 1
        wasted += sp.duration
        telemetry.count("executor.task_retries")
        telemetry.observe("executor.retry_wasted_s", sp.duration)
        telemetry.emit("task.retry", index=spec.index, attempt=attempt)
        retry.sleep(spec, attempt)


def _execute_block(
    unit: "tuple[RunSpec, ...]", batcher: TaskBatcher,
    retry: "RetryPolicy | None" = None,
) -> "list[tuple[str, Any, float, tuple[int, float]]]":
    """Run one batched block; one outcome per task.

    A block that raises falls back to per-task execution, so a
    batch-infrastructure failure degrades to exactly the isolation
    semantics of unbatched execution — with a :class:`RuntimeWarning`
    naming the cause, since per-task execution may succeed and would
    otherwise hide the batcher defect entirely.  The retry policy rides
    the fallback path: blocks themselves are never retried (the
    per-task fallback already re-executes their tasks), but each
    fallen-back task gets the full per-task retry budget.
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
        return [_execute(spec, retry) for spec in unit]
    telemetry.observe("executor.block_size", len(unit))
    per_task = sp.duration / len(unit)
    return [("ok", value, per_task, _NO_RETRIES) for value in values]


def _execute_unit(
    unit: "tuple[RunSpec, ...]",
    batcher: "TaskBatcher | None",
    own: bool = False,
    submit_t: "float | None" = None,
    retry: "RetryPolicy | None" = None,
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
    ``retry`` applies the per-task retry policy inside this process (see
    :func:`_execute`), so backoff sleeps occupy the worker, never the
    parent's completion loop.
    """
    if own:
        telemetry.enable().mark_in_run()
    try:
        if submit_t is not None:
            telemetry.observe("executor.queue_wait_s",
                              max(0.0, time.perf_counter() - submit_t))
        if len(unit) == 1 or batcher is None:
            outcomes = [_execute(spec, retry) for spec in unit]
        else:
            outcomes = _execute_block(unit, batcher, retry)
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
                    retry_info: "tuple[int, float]" = _NO_RETRIES
                    ) -> TaskResult:
    retries, wasted_s = retry_info
    if status == "ok":
        if not isinstance(payload, Mapping):
            return TaskResult(
                spec=spec,
                error=(
                    f"task returned {type(payload).__name__}, expected a "
                    "mapping of named result fields"
                ),
                duration=duration, retries=retries, wasted_s=wasted_s,
            )
        return TaskResult(spec=spec, value=payload, duration=duration,
                          retries=retries, wasted_s=wasted_s)
    return TaskResult(spec=spec, error=str(payload), duration=duration,
                      retries=retries, wasted_s=wasted_s)


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
    retry: "RetryPolicy | None" = None,
    stall_action: str = "warn",
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
        execution entirely; fresh results are persisted on completion.
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
        contract.
    retry:
        Optional :class:`~repro.runtime.retry.RetryPolicy`: soft task
        failures are re-executed with deterministic backoff (in the
        worker, for the pool backend).  ``None`` disables retrying.
    stall_action:
        ``"warn"`` (default) leaves ``task.stall`` a warning; ``"retry"``
        abandons a stalled unit's future and re-dispatches its tasks per
        task (pool backend only — first completion wins).
    quarantine_after:
        Worker kills after which a task is quarantined instead of
        re-probed (see the module docstring).

    Returns
    -------
    CampaignResult
        Per-task outcomes in task order.  Failed tasks carry their
        worker traceback instead of a value; they never abort siblings.
    """
    if stall_action not in ("warn", "retry"):
        raise ValueError(
            f"stall_action must be 'warn' or 'retry', got {stall_action!r}")
    if quarantine_after < 1:
        raise ValueError(
            f"quarantine_after must be >= 1, got {quarantine_after}")
    specs = tuple(specs)
    jobs = resolve_jobs(jobs)
    slots: "list[TaskResult | None]" = [None] * len(specs)

    def finish(pos: int, result: TaskResult) -> None:
        if slots[pos] is not None:
            # A re-dispatched task's abandoned first future can still
            # come home; whichever completion lands first is the task's
            # one result — the straggler is discarded.
            return
        slots[pos] = result
        if store is not None and result.ok and not result.cached:
            store.put(result.spec.key, result.value, spec=result.spec.describe())
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
    pool_stats = {"respawns": 0, "redispatched": 0}
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
                    finish(pos, TaskResult(spec=spec, value=cached,
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
                        tuple(spec for _, spec in unit), batcher, retry=retry)
                    for (pos, spec), outcome in zip(unit, outcomes):
                        finish(pos, _as_task_result(spec, *outcome))
            else:
                pool_stats = _run_pool(units, jobs, batcher, finish,
                                       watchdog, retry, stall_action,
                                       quarantine_after)
    finally:
        if rec is not None:
            rec.unmark_in_run()

    return CampaignResult(
        results=tuple(slots),
        jobs=jobs,
        elapsed=campaign_span.duration,
        n_redispatched=pool_stats["redispatched"],
        n_pool_respawns=pool_stats["respawns"],
    )


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
    retry: "RetryPolicy | None" = None,
    stall_action: str = "warn",
    quarantine_after: int = QUARANTINE_AFTER,
) -> dict:
    """Shard execution units over a process pool, streaming completions.

    A unit is one task or one batched block; blocks travel to a worker
    whole.  A multi-task block whose future dies with the pool intact
    (result unpicklable) is re-enqueued as singleton units so only the
    task that actually fails is lost — the same per-task isolation as
    unbatched execution.

    A **broken pool** (a worker killed by the OS or ``os._exit``
    mid-task) is survived by respawning: the generation's in-flight
    units become crash suspects, a fresh pool is started
    (``pool.respawn`` event), and the suspects are re-dispatched as
    singletons *one at a time* — probe isolation — so a repeat death is
    attributed to exactly one task.  A task whose crash count reaches
    ``quarantine_after`` is quarantined: finished as a typed failure
    (``task.quarantined`` event, :attr:`TaskResult.quarantined`) and
    never submitted again.  Submit errors never propagate out of here:
    if the pool cannot even be (re)started, the remaining tasks are
    recorded as failures and the campaign result stays complete.

    When the run is observed, each returned unit's snapshot (spans,
    events, and the worker's health histograms) is merged into the live
    recorder, and between completions a
    :class:`~repro.obs.health.StallWatchdog` scans the in-flight table,
    emitting ``task.stall`` for units out far longer than the EWMA task
    duration.  With ``stall_action="retry"`` a flagged unit's future is
    abandoned and its tasks are re-dispatched per task — *first
    completion wins*: if the abandoned zombie comes home before the
    re-dispatch, its results are applied and the re-dispatch is dropped
    at submit time (and vice versa, via the ``finish`` slot guard), so a
    watchdog misfire costs duplicated work, never a wrong or missing
    result.  A worker left running an abandoned unit at campaign end is
    not waited for.

    ``KeyboardInterrupt``/``SystemExit`` shut the pool down deliberately
    — queued futures cancelled, running workers not waited for — and
    re-raise, so an interrupt never leaves the campaign wedged on dead
    futures.

    Returns ``{"respawns": ..., "redispatched": ...}`` — the recovery
    economics :func:`run_campaign` folds into the campaign result.
    """
    max_workers = min(jobs, len(units))
    window = max_workers * _INFLIGHT_PER_JOB
    pending: "deque" = deque(units)
    probe: "deque" = deque()  # crash suspects, probed one at a time
    crashes: "dict[int, int]" = {}  # position -> worker kills survived
    redispatches: "dict[int, int]" = {}  # position -> re-dispatch count
    stats = {"respawns": 0, "redispatched": 0}
    own = telemetry.enabled()
    if watchdog is None and own:
        from repro.obs.health import StallWatchdog

        watchdog = StallWatchdog()
    telemetry.gauge("executor.jobs", max_workers)

    # Positions already finished in this pool run (including by a zombie
    # whose unit was abandoned): re-dispatches of them are dropped at
    # submit time, so an always-stalling task cannot livelock the loop.
    completed: "set[int]" = set()

    def finish_pos(pos: int, result: TaskResult) -> None:
        completed.add(pos)
        finish(pos, result)

    def apply_unit(unit, outcomes, snap) -> None:
        """Fold one returned unit in: its snapshot, then its results."""
        # Worker spans land under the live campaign.run span with their
        # counters/histograms summed in, and worker lifecycle events are
        # re-sequenced onto the recorder.  A died block's events never
        # came back, so its retried singletons are the only events its
        # tasks produce.
        telemetry.merge_snapshot(snap)
        if watchdog is not None:
            for outcome in outcomes:
                watchdog.note_duration(outcome[2])
        for (pos, spec), outcome in zip(unit, outcomes):
            finish_pos(pos, _as_task_result(spec, *outcome))

    def fail_unit(unit, note: str) -> None:
        telemetry.count("executor.not_attempted", len(unit))
        for pos, spec in unit:
            finish_pos(pos, _as_task_result(spec, "error", note, 0.0))

    def fail_remaining(note: str) -> None:
        while probe:
            fail_unit(probe.popleft(), note)
        while pending:
            fail_unit(pending.popleft(), note)

    def note_redispatch(entry) -> None:
        """Count one task's parent-side re-dispatch and emit task.retry."""
        pos, spec = entry
        n = redispatches[pos] = redispatches.get(pos, 0) + 1
        stats["redispatched"] += 1
        telemetry.count("executor.task_redispatches")
        telemetry.emit("task.retry", index=spec.index, attempt=n)

    def absorb_crash(suspect_units) -> None:
        """Sort a broken generation's casualties into probe vs quarantine."""
        for unit in suspect_units:
            for entry in unit:
                pos, spec = entry
                n = crashes[pos] = crashes.get(pos, 0) + 1
                if n >= quarantine_after:
                    telemetry.count("executor.quarantined")
                    telemetry.emit("task.quarantined", index=spec.index)
                    finish_pos(pos, TaskResult(
                        spec=spec, quarantined=True,
                        error=(f"quarantined after killing its worker "
                               f"{n} time(s); not retried again"),
                    ))
                else:
                    note_redispatch(entry)
                    probe.append((entry,))

    while pending or probe:
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except OSError as exc:  # resources exhausted: give up cleanly
            fail_remaining(f"task not attempted: cannot start a worker "
                           f"pool: {exc}")
            break
        in_flight: dict = {}
        abandoned: dict = {}  # zombie future -> its unit (race still open)
        block_retries: "deque" = deque()  # healthy-pool singleton re-runs

        def submit_unit(unit) -> None:
            # A zombie may have finished some (or all) of these tasks
            # since they were queued: only dispatch what is still open.
            unit = tuple(e for e in unit if e[0] not in completed)
            if not unit:
                return
            spec_block = tuple(spec for _, spec in unit)
            _emit_dispatch(unit)
            submit_t = time.perf_counter()
            try:
                future = pool.submit(_execute_unit, spec_block, batcher,
                                     own, submit_t, retry)
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
            # a suspect already finished by a zombie submits nothing.)
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
            # Keep the generation alive while real futures are out — and
            # while abandoned zombies might still win races that queued
            # work would otherwise re-run.  (Zombies with no remaining
            # work are not waited for: shutdown below skips them.)
            while in_flight or (abandoned
                                and (pending or probe or block_retries)):
                timeout = watchdog.poll_s if watchdog is not None else None
                done, _ = wait(set(in_flight) | set(abandoned),
                               timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if watchdog is not None:
                    flagged = watchdog.scan_flagged(in_flight)
                    if stall_action == "retry":
                        for token in flagged:
                            unit, _sub = in_flight.pop(token)
                            abandoned[token] = unit
                            watchdog.forget(token)
                            telemetry.count("executor.stall_abandons",
                                            len(unit))
                            for entry in unit:
                                note_redispatch(entry)
                            for entry in reversed(unit):
                                pending.appendleft((entry,))
                for future in done:
                    if future in abandoned:
                        # The zombie came home: first completion wins.
                        # Apply whatever it finished (the slot guard
                        # drops anything its re-dispatch already won);
                        # a zombie that errored is simply forgotten —
                        # its re-dispatch owns recovery.
                        zombie_unit = abandoned.pop(future)
                        try:
                            returned = future.result()
                        except Exception:
                            continue
                        apply_unit(zombie_unit, *returned)
                        continue
                    if future not in in_flight:
                        continue
                    unit, _submit_t = in_flight.pop(future)
                    if watchdog is not None:
                        watchdog.forget(future)
                    try:
                        outcomes, snap = future.result()
                    except BrokenProcessPool:
                        raise _PoolBroke(
                            [unit] + [u for u, _ in in_flight.values()])
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
                                           0.0, _NO_RETRIES)], None
                    apply_unit(unit, outcomes, snap)
                refill()
        except _PoolBroke as broke:
            stats["respawns"] += 1
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
        except BaseException:
            # ^C / SystemExit / unexpected error: deliberate shutdown —
            # cancel everything queued, do not wait on running workers,
            # and let the exception propagate.  Results are only written
            # by finish() in this process, so nothing is torn.
            for future in in_flight:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            # Abandoned zombies may still be running; don't wait on them.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
    return stats
