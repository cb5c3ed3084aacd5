"""Unified timing view over traces and fast-engine results.

Every analysis in :mod:`repro.core` and :mod:`repro.analysis` consumes
three dense matrices (``exec_end``, ``completion``, ``idle``).
:class:`RunTiming` adapts one run -- the DAG engine's
:class:`~repro.sim.trace.Trace` or the fast engines'
:class:`~repro.sim.lockstep.LockstepResult` -- to that shape;
:class:`BatchedTiming` stacks B runs as ``(B, P, S)`` matrices.

Each analysis is written once, over a :class:`BatchedTiming`, with no
per-draw Python loop; its single-run name calls it on
:meth:`RunTiming.batch`, a one-draw view that copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.sim.engine import DagResult
    from repro.sim.lockstep import BatchedLockstepResult, LockstepResult
    from repro.sim.trace import Trace

__all__ = ["BatchedTiming", "RunTiming"]

#: The array fields a timing record must provide, in stacking order.
TIMING_FIELDS = ("exec_end", "completion", "idle")


@dataclass
class RunTiming:
    """Dense per-(rank, step) timing of one simulated run.

    Attributes
    ----------
    exec_end:
        Wall-clock end of each execution phase, ``[n_ranks, n_steps]``.
    completion:
        Wall-clock end of each step's Waitall.
    idle:
        Seconds spent inside each step's Waitall (the red bars of the
        paper's timeline figures).
    meta:
        Propagated run metadata (t_exec, pattern, protocol, ...).
    """

    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.exec_end.shape != self.completion.shape or self.exec_end.shape != self.idle.shape:
            raise ValueError(
                f"matrix shapes differ: exec_end {self.exec_end.shape}, "
                f"completion {self.completion.shape}, idle {self.idle.shape}"
            )
        if self.exec_end.ndim != 2:
            raise ValueError(f"expected 2-D matrices, got {self.exec_end.ndim}-D")

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[1]

    @property
    def t_exec(self) -> float | None:
        """Nominal execution-phase length, if the run recorded it."""
        return self.meta.get("t_exec")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "RunTiming":
        completion = trace.completion_matrix()
        idle = trace.idle_matrix()
        return cls(
            exec_end=trace.exec_end_matrix(),
            completion=completion,
            idle=idle,
            meta=dict(trace.meta),
        )

    @classmethod
    def from_lockstep(cls, result: LockstepResult) -> "RunTiming":
        return cls(
            exec_end=result.exec_end.copy(),
            completion=result.completion.copy(),
            idle=result.idle_matrix(),
            meta=dict(result.meta),
        )

    @classmethod
    def from_dag(cls, result: DagResult) -> "RunTiming":
        """Adopt a columnar DAG-engine result — no trace records involved.

        Bitwise identical to ``from_trace(simulate(...))`` for the same
        program: the dense matrices are extracted straight from the
        propagated node times.
        """
        return cls(
            exec_end=result.exec_end.copy(),
            completion=result.completion.copy(),
            idle=result.idle.copy(),
            meta=dict(result.meta),
        )

    @classmethod
    def of(cls, run: "Trace | LockstepResult | DagResult | RunTiming") -> "RunTiming":
        """Coerce any supported run representation to a :class:`RunTiming`."""
        if isinstance(run, RunTiming):
            return run
        from repro.sim.engine import DagResult
        from repro.sim.lockstep import LockstepResult
        from repro.sim.trace import Trace

        if isinstance(run, Trace):
            return cls.from_trace(run)
        if isinstance(run, LockstepResult):
            return cls.from_lockstep(run)
        if isinstance(run, DagResult):
            return cls.from_dag(run)
        raise TypeError(f"cannot derive timing from {type(run).__name__}")

    def batch(self) -> "BatchedTiming":
        """This run as a one-draw :class:`BatchedTiming` sharing its arrays.

        The matrices are ``[None]`` views, so the batched analyses run on
        a single run without copying it.
        """
        return BatchedTiming(
            exec_end=self.exec_end[None],
            completion=self.completion[None],
            idle=self.idle[None],
            meta=self.meta,
        )

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def total_runtime(self) -> float:
        """Wall-clock completion time of the whole run."""
        return float(np.nanmax(self.completion))

    def wait_start(self) -> np.ndarray:
        """``[rank, step]`` time each rank entered its Waitall."""
        return self.completion - self.idle

    def total_idle(self) -> float:
        """Sum of all wait durations (rank-seconds of idleness)."""
        return float(np.nansum(self.idle))

    def idle_by_rank(self) -> np.ndarray:
        """Per-rank sum of idle time across steps."""
        return np.nansum(self.idle, axis=1)


@dataclass
class BatchedTiming:
    """Dense timing of B independent runs, ``[n_batch, n_ranks, n_steps]``.

    The batched analyses (and the report kernels built on them) take one
    of these and work on all draws at once.  Slicing (``batch[b]``)
    yields run ``b`` as an ordinary :class:`RunTiming` (views into the
    stack).
    """

    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)
    #: Scratch space for analyses that share intermediate results (e.g. the
    #: wave front the speed and decay kernels both need).  Treat the
    #: timing arrays as immutable once analyses have run.
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        shapes = {self.exec_end.shape, self.completion.shape, self.idle.shape}
        if len(shapes) != 1:
            raise ValueError(f"matrix shapes differ: {sorted(shapes)}")
        if self.exec_end.ndim != 3:
            raise ValueError(
                f"expected (n_batch, n_ranks, n_steps) matrices, "
                f"got {self.exec_end.ndim}-D"
            )

    @property
    def n_batch(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[1]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[2]

    @property
    def t_exec(self) -> "float | None":
        """Nominal execution-phase length, if recorded."""
        return self.meta.get("t_exec")

    def __getitem__(self, b: int) -> RunTiming:
        if not -self.n_batch <= b < self.n_batch:
            raise IndexError(f"batch index {b} out of range [0, {self.n_batch})")
        return RunTiming(
            exec_end=self.exec_end[b],
            completion=self.completion[b],
            idle=self.idle[b],
            meta=dict(self.meta),
        )

    def total_runtimes(self) -> np.ndarray:
        """Per-run wall-clock completion, shape ``[n_batch]``."""
        return np.nanmax(self.completion, axis=(1, 2))

    def sorted_idle(self) -> "tuple[np.ndarray, np.ndarray]":
        """Each draw's idle cells sorted ascending (NaNs last) + finite counts.

        One sort serves every percentile the analyses need (the default
        threshold's p90 over all finite cells, the idle histogram's p95
        over the positive suffix), so it is memoized on the batch.
        """
        cached = self._cache.get("sorted_idle")
        if cached is None:
            flat = self.idle.reshape(self.n_batch, -1)
            cached = (np.sort(flat, axis=1),
                      np.count_nonzero(np.isfinite(flat), axis=1))
            self._cache["sorted_idle"] = cached
        return cached

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_lockstep_batch(cls, result: BatchedLockstepResult) -> "BatchedTiming":
        """Adopt a batched engine result (idle derived as in ``RunTiming``)."""
        return cls(
            exec_end=result.exec_end.copy(),
            completion=result.completion.copy(),
            idle=result.idle_matrix(),
            meta=dict(result.meta),
        )

    @classmethod
    def from_records(cls, records: "Iterable[Mapping]", n: int,
                     meta: "dict | None" = None) -> "BatchedTiming":
        """Fold the next ``n`` store records into one batch, one at a time.

        Records are ``{"exec_end", "completion", "idle"}`` dicts, the
        shape :func:`repro.reports.tasks.scenario_timing_task` persists
        and cached campaign results come back in.  The three ``(n, P,
        S)`` matrices are allocated when the first record arrives and
        each record is copied in as it comes, so a streamed point's
        records are never all alive at once and no stacking copy is
        made.  Exactly ``n`` records are taken from ``records``.
        """
        if n < 1:
            raise ValueError("need at least one timing record to stack")
        arrays: "dict[str, np.ndarray]" = {}
        count = 0
        for b, rec in zip(range(n), records):
            try:
                rows = [np.asarray(rec[name]) for name in TIMING_FIELDS]
            except KeyError as exc:
                raise KeyError(
                    f"timing record is missing the {exc.args[0]!r} matrix; "
                    f"got fields {sorted(rec)}"
                ) from exc
            if not arrays:
                shape = rows[0].shape
                arrays = {name: np.empty((n, *shape), dtype=float)
                          for name in TIMING_FIELDS}
            for name, row in zip(TIMING_FIELDS, rows):
                if row.shape != shape:
                    raise ValueError(
                        f"timing record {b} has a {name} matrix of shape "
                        f"{row.shape}, expected {shape}")
                arrays[name][b] = row
            count = b + 1
        if count < n:
            raise ValueError(f"need {n} timing records to stack, got {count}")
        return cls(**arrays, meta=dict(meta or {}))
