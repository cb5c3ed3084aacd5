"""Shared experiment infrastructure.

Every paper figure has a driver module exposing ``run(fast=..., seed=...)
-> ExperimentResult``.  Results carry printable text tables (the paper's
rows/series) plus the raw data dictionaries the tests and benches assert
against.

Campaign-style drivers (many independent simulation runs) additionally
accept ``runtime: RuntimeOptions`` and execute their runs through the
parallel campaign runtime (:mod:`repro.runtime`): sharded across worker
processes and cached in a content-addressed on-disk result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.store import ResultStore

__all__ = ["ExperimentResult", "RuntimeOptions"]


@dataclass(frozen=True)
class RuntimeOptions:
    """How a campaign experiment should execute its runs.

    Attributes
    ----------
    jobs:
        Worker processes: 1 (default) runs serially in-process, N>1
        shards over a process pool, 0 auto-detects the CPU count.
    store:
        The content-addressed :class:`~repro.runtime.store.ResultStore`,
        or ``None`` to recompute everything in memory.
    """

    jobs: int = 1
    store: "ResultStore | None" = None


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    Attributes
    ----------
    name:
        Experiment id ("fig4", "eq2", ...).
    title:
        One-line description (matches the paper's figure caption theme).
    tables:
        Ordered mapping of section title -> pre-rendered text table/diagram.
    data:
        Raw values for programmatic checks (tests, benches, EXPERIMENTS.md).
    notes:
        Free-form observations (e.g. paper-vs-measured comparisons).
    """

    name: str
    title: str
    tables: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full printable report of the experiment."""
        parts = [f"=== {self.name}: {self.title} ==="]
        for section, table in self.tables.items():
            parts.append(f"\n--- {section} ---")
            parts.append(table)
        if self.notes:
            parts.append("\nNotes:")
            for n in self.notes:
                parts.append(f"  * {n}")
        return "\n".join(parts)
