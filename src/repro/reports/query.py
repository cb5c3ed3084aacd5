"""Store query layer: a report's campaign values, one record at a time.

A report names a scenario sweep; the sweep expands into content-addressed
tasks (:mod:`repro.runtime.spec`), and :class:`CampaignStream` delivers
their values in spec order.  When every task is cached, each record is
read from the store only when the consumer reaches it: the engine is
provably never touched, and the execution path (the executor, the task
modules, ``multiprocessing``) is not even imported.  On a miss the whole
campaign goes through :func:`repro.runtime.executor.run_campaign`, which
serves its hits from the store (one read each, ``task.cache_hit`` in
spec order) and executes the rest, inheriting ``--jobs`` sharding, block
batching, and deterministic seeding.

**Streaming** keeps a report's memory flat: the consumer
(:func:`repro.reports.runner.run_report`) copies each value into its
grid point's ``(B, P, S)`` stack as it arrives and drops it, so a report
over a huge sweep holds one grid point's stack and one record at a time.
That holds for a fully-cached sweep and for a cold pooled one alike:
pool workers write the records they compute, and each
:class:`~repro.runtime.executor.TaskResult` reads its record back only
when the stream reaches it.  A serial (``jobs=1``) run computes its
values in this process and holds them until they are yielded.  Store
reads copy each record's arrays into a fresh buffer, so nothing else
keeps a record alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro import telemetry
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore

__all__ = ["CampaignStream", "stream_campaign"]


@dataclass
class CampaignStream:
    """A campaign's values, delivered one at a time in spec order.

    Iterating yields each task's value.  On the fully-cached path the
    stream is *lazy*: a record is read when the consumer reaches it, and
    nothing here retains it afterwards.  Any cache miss first runs the
    whole campaign through :func:`~repro.runtime.executor.run_campaign`,
    which reads each hit once and executes only the misses — batched into
    :class:`~repro.reports.tasks.ReportTaskBatcher` blocks with ``batch``
    — and then yields its values in spec order; a value a pool worker
    stored is read when the consumer reaches it.  Any task failure
    raises :class:`~repro.runtime.executor.TaskError`.

    ``n_loaded`` / ``n_executed`` are running counts; they are complete
    once the iteration is exhausted.
    """

    specs: "tuple[RunSpec, ...]"
    store: "ResultStore | None" = None
    jobs: int = 1
    batch: bool = True
    n_loaded: int = field(default=0, init=False)
    n_executed: int = field(default=0, init=False)

    @property
    def n_tasks(self) -> int:
        return len(self.specs)

    def _fully_cached(self) -> bool:
        if self.store is None:
            return False
        return all(spec.key in self.store for spec in self.specs)

    def __iter__(self) -> "Iterator[Mapping]":
        if not self._fully_cached():
            yield from self._run_campaign()
            return
        publish = telemetry.enabled()
        for spec in self.specs:
            value = self.store.get(spec.key)
            if value is None:
                # The presence probe raced a gc/teardown: recompute just
                # this task through the executor.
                from repro.runtime.executor import run_campaign

                campaign = run_campaign([spec], jobs=1, store=self.store)
                campaign.raise_failures()
                value = campaign.results[0].value
                self.n_executed += 1
            else:
                self.n_loaded += 1
                if publish:
                    telemetry.emit("task.cache_hit", index=spec.index)
            yield value

    def _run_campaign(self) -> "Iterator[Mapping]":
        from repro.runtime.executor import run_campaign

        batcher = None
        if self.batch:
            from repro.reports.tasks import ReportTaskBatcher

            batcher = ReportTaskBatcher()
        campaign = run_campaign(self.specs, jobs=self.jobs, store=self.store,
                                batcher=batcher)
        campaign.raise_failures()
        self.n_loaded = campaign.n_cached
        self.n_executed = campaign.n_executed
        for result in campaign:
            yield result.value


def stream_campaign(
    specs: "Sequence[RunSpec]",
    store: "ResultStore | None" = None,
    jobs: int = 1,
    batch: bool = True,
) -> CampaignStream:
    """A :class:`CampaignStream` over the campaign's tasks."""
    return CampaignStream(specs=tuple(specs), store=store, jobs=jobs,
                          batch=batch)
