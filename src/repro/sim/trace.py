"""Trace records and timing matrices.

The simulator emits a :class:`Trace` — a flat list of :class:`OpRecord`
entries (one per executed operation) plus metadata.  The analysis layer in
:mod:`repro.core` works almost exclusively on three dense matrices derived
from the trace:

- ``exec_end_matrix[rank, step]`` — wall-clock time at which the execution
  phase of a step finished,
- ``completion_matrix[rank, step]`` — wall-clock time at which the step's
  ``Waitall`` returned (the rank is ready for the next step),
- ``idle_matrix[rank, step]`` — time spent inside the wait, i.e. the red
  bars of Figs. 4–7 and 9 ("sum of communication time and communication
  delays").

This mirrors what a real MPI trace collector (the paper uses Intel Trace
Analyzer and Collector with ``MPI_Wait`` timing) would deliver.  The
analyses read these matrices as a :class:`~repro.core.timing.RunTiming`
(:meth:`~repro.core.timing.RunTiming.from_trace`); the columnar engines
return one without building any records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.program import OpKind

__all__ = ["OpRecord", "Trace"]


@dataclass(slots=True, frozen=True)
class OpRecord:
    """One executed operation on one rank.

    ``start``/``end`` are wall-clock seconds.  For a ``WAITALL`` record,
    ``start`` is when the rank entered the wait (all local work done) and
    ``end`` when the last outstanding request completed — their difference
    is the idle/communication time of that step.
    """

    rank: int
    step: int
    kind: OpKind
    start: float
    end: float
    peer: int = -1
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """Complete record of one simulated program run."""

    n_ranks: int
    n_steps: int
    records: list[OpRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")

    # ------------------------------------------------------------------
    # dense matrices
    # ------------------------------------------------------------------
    def _matrix(self, kind: OpKind, attr: str, reduce: str = "last") -> np.ndarray:
        """Dense per-(rank, step) matrix of one attribute.

        ``reduce`` handles steps with multiple records of the same kind
        (e.g. the per-round Waitalls of a collective): "last" keeps the
        final value, "max"/"min" reduce, "sum" accumulates durations.
        """
        out = np.full((self.n_ranks, self.n_steps), np.nan)
        for r in self.records:
            if r.kind != kind or not 0 <= r.step < self.n_steps:
                continue
            val = getattr(r, attr)
            cur = out[r.rank, r.step]
            if np.isnan(cur) or reduce == "last":
                out[r.rank, r.step] = val
            elif reduce == "max":
                out[r.rank, r.step] = max(cur, val)
            elif reduce == "min":
                out[r.rank, r.step] = min(cur, val)
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown reduce {reduce!r}")
        return out

    def exec_end_matrix(self) -> np.ndarray:
        """``[rank, step]`` wall-clock end of the (last) execution phase."""
        return self._matrix(OpKind.COMP, "end", reduce="max")

    def exec_start_matrix(self) -> np.ndarray:
        """``[rank, step]`` wall-clock start of the (first) execution phase."""
        return self._matrix(OpKind.COMP, "start", reduce="min")

    def completion_matrix(self) -> np.ndarray:
        """``[rank, step]`` wall-clock end of the step's last Waitall."""
        return self._matrix(OpKind.WAITALL, "end", reduce="max")

    def idle_matrix(self) -> np.ndarray:
        """``[rank, step]`` seconds spent inside the step's Waitall(s).

        Steps with several Waitalls (collective rounds) accumulate.
        """
        out = np.zeros((self.n_ranks, self.n_steps))
        for r in self.records:
            if r.kind == OpKind.WAITALL and 0 <= r.step < self.n_steps:
                out[r.rank, r.step] += r.end - r.start
        return out

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def total_runtime(self) -> float:
        """Wall-clock time from 0 to the last completed operation."""
        if not self.records:
            return 0.0
        return max(r.end for r in self.records)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Invariants: per-rank records do not overlap in time, times are
        non-negative and finite, every record has ``end >= start``, and
        ranks/steps are in range.
        """
        for r in self.records:
            if not 0 <= r.rank < self.n_ranks:
                raise ValueError(f"record with out-of-range rank {r.rank}")
            if r.end < r.start:
                raise ValueError(
                    f"record with end < start on rank {r.rank} step {r.step}: "
                    f"{r.start} .. {r.end}"
                )
            if r.start < 0 or not np.isfinite(r.end):
                raise ValueError(
                    f"record with invalid times on rank {r.rank} step {r.step}: "
                    f"{r.start} .. {r.end}"
                )
        for rank in range(self.n_ranks):
            recs = sorted((r for r in self.records if r.rank == rank),
                          key=lambda r: (r.start, r.end))
            for a, b in zip(recs, recs[1:]):
                if b.start < a.end - 1e-12:
                    raise ValueError(
                        f"overlapping records on rank {rank}: "
                        f"[{a.start}, {a.end}] ({a.kind.name} step {a.step}) vs "
                        f"[{b.start}, {b.end}] ({b.kind.name} step {b.step})"
                    )
