"""Store query layer: resolve a report's campaign against cached results.

A report names a scenario sweep; the sweep expands into content-addressed
tasks (:mod:`repro.runtime.spec`), and this module answers the question
*"which of those results are already on disk?"* without constructing an
executor.  When every task is cached, :func:`fetch_campaign` returns
the values straight from the store — the engine is provably never
touched (the execution path is not even imported).  On a miss it falls
back to dispatching the remaining work through
:func:`repro.runtime.executor.run_campaign`, inheriting ``--jobs``
sharding, block batching, and deterministic seeding.

**Streaming** keeps a fully-cached report's memory flat:
:func:`stream_campaign` yields the campaign's values in fixed-size
blocks, loading each block only when the consumer reaches it, so a
report over a huge sweep holds one grid point's draws in memory at a
time instead of materializing all of them
(:func:`repro.reports.runner.run_report` consumes it per point).  Store
reads copy each record's arrays into a fresh buffer, so a block's
memory is released as soon as the consumer drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro import telemetry
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore

__all__ = ["CampaignFetch", "CampaignStream", "fetch_campaign",
           "load_cached", "stream_campaign"]


@dataclass(frozen=True)
class CampaignFetch:
    """The values of one campaign's tasks, with their provenance.

    ``values`` is in task (spec) order; ``n_loaded`` counts results
    served from the store, ``n_executed`` those freshly simulated.
    """

    values: "tuple[Mapping, ...]"
    n_loaded: int
    n_executed: int

    @property
    def n_tasks(self) -> int:
        return len(self.values)


def load_cached(
    store: "ResultStore | None", specs: "Sequence[RunSpec]",
) -> "tuple[list[Mapping | None], list[RunSpec]]":
    """Look every task up by its content hash; no execution, ever.

    Returns ``(values, missing)``: ``values`` has one entry per task in
    order (``None`` on a miss), ``missing`` lists the specs that need
    dispatching.  With no store, everything is missing.
    """
    if store is None:
        return [None] * len(specs), list(specs)
    values: "list[Mapping | None]" = [store.get(spec.key) for spec in specs]
    missing = [spec for spec, value in zip(specs, values) if value is None]
    return values, missing


def fetch_campaign(
    specs: "Sequence[RunSpec]",
    store: "ResultStore | None" = None,
    jobs: int = 1,
    batcher=None,
    retry=None,
    stall_action: str = "warn",
) -> CampaignFetch:
    """All task values, from the store where possible, executed otherwise.

    The fully-cached path never imports the executor: a report over an
    already-run sweep performs zero engine invocations by construction.
    Cache misses dispatch the *whole* campaign through
    :func:`~repro.runtime.executor.run_campaign` (hits are still served
    from the store inside it); any task failure raises
    :class:`~repro.runtime.executor.TaskError`.
    """
    specs = tuple(specs)
    values, missing = load_cached(store, specs)
    if not missing:
        # The fully-cached path bypasses run_campaign (and its event
        # emission), so publish the hits here — a warm report still
        # streams one terminal event per task.
        if telemetry.enabled():
            for spec in specs:
                telemetry.emit("task.cache_hit", index=spec.index)
        return CampaignFetch(values=tuple(values), n_loaded=len(specs),
                             n_executed=0)

    from repro.runtime.executor import run_campaign

    campaign = run_campaign(specs, jobs=jobs, store=store, batcher=batcher,
                            retry=retry, stall_action=stall_action)
    campaign.raise_failures()
    return CampaignFetch(
        values=tuple(result.value for result in campaign),
        n_loaded=campaign.n_cached,
        n_executed=campaign.n_executed,
    )


@dataclass
class CampaignStream:
    """A campaign's values, deliverable block by block.

    On the fully-cached path the stream is *lazy*: each block's records
    are loaded only when the consumer reaches it, and nothing retains
    them afterwards — peak memory is one block, however large the
    sweep.  Any cache miss degrades to one eager :func:`fetch_campaign`
    over the whole spec list (execution has to materialize those values
    anyway), after which blocks are served as slices.

    ``n_loaded`` / ``n_executed`` are running counts; they are complete
    once :meth:`blocks` is exhausted.
    """

    specs: "tuple[RunSpec, ...]"
    store: "ResultStore | None" = None
    jobs: int = 1
    batcher: object = None
    retry: object = None
    stall_action: str = "warn"
    n_loaded: int = field(default=0, init=False)
    n_executed: int = field(default=0, init=False)

    @property
    def n_tasks(self) -> int:
        return len(self.specs)

    def _fully_cached(self) -> bool:
        if self.store is None:
            return False
        return all(spec.key in self.store for spec in self.specs)

    def blocks(self, size: int) -> "Iterator[tuple[Mapping, ...]]":
        """Yield the values in consecutive blocks of ``size`` tasks."""
        if size <= 0:
            raise ValueError(f"block size must be positive, got {size}")
        if not self._fully_cached():
            fetch = fetch_campaign(self.specs, store=self.store,
                                   jobs=self.jobs, batcher=self.batcher,
                                   retry=self.retry,
                                   stall_action=self.stall_action)
            self.n_loaded = fetch.n_loaded
            self.n_executed = fetch.n_executed
            for start in range(0, len(self.specs), size):
                yield fetch.values[start:start + size]
            return
        publish = telemetry.enabled()
        for start in range(0, len(self.specs), size):
            block = []
            for spec in self.specs[start:start + size]:
                value = self.store.get(spec.key)
                if value is None:
                    # The presence probe raced a gc/teardown: recompute
                    # just this task through the executor.
                    from repro.runtime.executor import run_campaign

                    campaign = run_campaign([spec], jobs=1, store=self.store,
                                            retry=self.retry)
                    campaign.raise_failures()
                    value = campaign.results[0].value
                    self.n_executed += 1
                else:
                    self.n_loaded += 1
                    if publish:
                        telemetry.emit("task.cache_hit", index=spec.index)
                block.append(value)
            yield tuple(block)


def stream_campaign(
    specs: "Sequence[RunSpec]",
    store: "ResultStore | None" = None,
    jobs: int = 1,
    batcher=None,
    retry=None,
    stall_action: str = "warn",
) -> CampaignStream:
    """A :class:`CampaignStream` over the campaign's tasks.

    The streaming counterpart of :func:`fetch_campaign`: same dispatch
    and failure semantics (including the forwarded
    :class:`~repro.runtime.retry.RetryPolicy`), but a fully-cached sweep
    is read lazily in blocks instead of being materialized whole.
    """
    return CampaignStream(specs=tuple(specs), store=store, jobs=jobs,
                          batcher=batcher, retry=retry,
                          stall_action=stall_action)
