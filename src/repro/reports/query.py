"""Store query layer: a report's campaign records, stacked per grid point.

A report names a scenario sweep; the sweep expands into content-addressed
tasks (:mod:`repro.runtime.spec`), and :class:`CampaignStream` reads
their records in spec order into one ``(B, n_ranks, n_steps)`` stack per
grid point.  When every task is cached, each record is read from the
store only when the consumer reaches its point: the engine is provably
never touched, and the execution path (the executor, the task modules,
``multiprocessing``) is not even imported.  On a miss the whole campaign
goes through :func:`repro.runtime.executor.run_campaign`, which serves
its hits from the store (one read each, ``task.cache_hit`` in spec
order) and executes the rest, inheriting ``--jobs`` sharding, block
batching, and deterministic seeding.

**Streaming** keeps a report's memory flat: the consumer
(:func:`repro.reports.runner.run_report`) asks for one point's stack at
a time and drops it before asking for the next, so a report over a huge
sweep holds one grid point's stack at a time, and only the matrices its
kernels read.  A stored record is read with
:meth:`ResultStore.get(key, into=rows) <repro.runtime.store.ResultStore.get>`,
each wanted array straight from the shard into its row of the stack: no
record buffer, no second copy, and an array the report does not read is
never read.  That holds for a fully-cached sweep and for a cold pooled
one alike, whose pool workers write the records they compute.  A serial
(``jobs=1``) run computes its values in this process, holds them until
their point is stacked, and copies them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore

__all__ = ["CampaignStream", "stream_campaign"]


def _land(b: int, value: Mapping, rows: "Mapping[str, np.ndarray]") -> None:
    """Put record ``b``'s matrices into its ``rows``.

    A matrix the store read straight into its row is the row itself;
    any other (a value held in memory, or a stored array that could not
    land as-is) is checked and copied in.
    """
    for name, row in rows.items():
        try:
            matrix = value[name]
        except KeyError:
            raise KeyError(
                f"timing record is missing the {name!r} matrix; "
                f"got fields {sorted(value)}") from None
        if matrix is row:
            continue
        matrix = np.asarray(matrix)
        if matrix.shape != row.shape:
            raise ValueError(
                f"timing record {b} has a {name} matrix of shape "
                f"{matrix.shape}, expected {row.shape}")
        row[...] = matrix


@dataclass
class CampaignStream:
    """A campaign's records, stacked one grid point at a time in spec order.

    :meth:`stacks` yields each point's stack.  On the fully-cached path
    the stream is *lazy*: a point's records are read when the consumer
    asks for its stack, and nothing here retains the stack afterwards.
    Any cache miss first runs the whole campaign through
    :func:`~repro.runtime.executor.run_campaign`, which reads each hit
    once and executes only the misses — batched into
    :class:`~repro.reports.tasks.ReportTaskBatcher` blocks — and then
    stacks its values in spec order; a value a pool worker stored is
    read when its point is stacked.  Any task failure raises
    :class:`~repro.runtime.executor.TaskError`.

    ``n_loaded`` / ``n_executed`` are running counts; they are complete
    once the last stack is read.
    """

    specs: "tuple[RunSpec, ...]"
    store: "ResultStore | None" = None
    jobs: int = 1
    n_loaded: int = field(default=0, init=False)
    n_executed: int = field(default=0, init=False)

    @property
    def n_tasks(self) -> int:
        return len(self.specs)

    def _fully_cached(self) -> bool:
        if self.store is None:
            return False
        return all(spec.key in self.store for spec in self.specs)

    def stacks(self, reads: "Sequence[str]",
               shapes: "Iterable[tuple[int, int, int]]",
               ) -> "Iterator[dict[str, np.ndarray]]":
        """Each grid point's stack of the matrices ``reads`` names.

        ``shapes`` gives each point's ``(B, n_ranks, n_steps)``; the
        point's B tasks, next in spec order, fill rows 0..B-1 of one
        float64 array per name.
        """
        tasks = self._tasks()
        for shape in shapes:
            # Stacked in a call of its own, so this frame keeps no
            # point's stack alive while the consumer holds it.
            yield self._stack(tasks, reads, shape)

    def _stack(self, tasks, reads, shape) -> "dict[str, np.ndarray]":
        stack = {name: np.empty(shape) for name in reads}
        for b in range(shape[0]):
            spec, value, loads = next(tasks)
            rows = {name: matrix[b] for name, matrix in stack.items()}
            if value is None:
                value = self._get(spec, rows, loads)
            _land(b, value, rows)
        return stack

    def _tasks(self) -> "Iterator[tuple[RunSpec, Mapping | None, bool]]":
        """Each task in spec order: its spec, its value when this process
        holds it (else it is read from the store), and whether that read
        counts as a load from the store (the fully-cached path).

        A cache miss runs the whole campaign here, before the first
        point's stack is allocated.
        """
        if self._fully_cached():
            return ((spec, None, True) for spec in self.specs)
        from repro.reports.tasks import ReportTaskBatcher
        from repro.runtime.executor import run_campaign

        campaign = run_campaign(self.specs, jobs=self.jobs, store=self.store,
                                batcher=ReportTaskBatcher())
        campaign.raise_failures()
        self.n_loaded = campaign.n_cached
        self.n_executed = campaign.n_executed
        # A task a pool worker stored holds no payload here.
        return ((result.spec, result.payload, False) for result in campaign)

    def _get(self, spec: RunSpec, rows: "Mapping[str, np.ndarray]",
             loads: bool) -> Mapping:
        """``spec``'s stored record, its arrays read into ``rows``."""
        value = self.store.get(spec.key, into=rows)
        if value is None:
            # Gone since the presence probe or the worker's write (a gc,
            # a torn shard): recompute just this task.
            from repro.runtime.executor import run_campaign

            campaign = run_campaign([spec], jobs=1, store=self.store)
            value = campaign.raise_failures().results[0].payload
            self.n_executed += loads
        elif loads:
            self.n_loaded += 1
            telemetry.emit("task.cache_hit", index=spec.index)
        return value


def stream_campaign(
    specs: "Sequence[RunSpec]",
    store: "ResultStore | None" = None,
    jobs: int = 1,
) -> CampaignStream:
    """A :class:`CampaignStream` over the campaign's tasks."""
    return CampaignStream(specs=tuple(specs), store=store, jobs=jobs)
