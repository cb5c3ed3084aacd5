"""Unified timing view over traces and fast-engine results.

Every analysis in :mod:`repro.core` consumes three dense matrices
(``exec_end``, ``completion``, ``idle``); this module adapts both the DAG
engine's :class:`~repro.sim.trace.Trace` and the fast engines'
:class:`~repro.sim.lockstep.LockstepResult` to that common shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.sim.engine import DagResult
    from repro.sim.lockstep import LockstepResult
    from repro.sim.trace import Trace

__all__ = ["RunTiming"]


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

    def idle_by_step(self) -> np.ndarray:
        """Per-step sum of idle time across ranks."""
        return np.nansum(self.idle, axis=0)

    def idle_by_rank(self) -> np.ndarray:
        """Per-rank sum of idle time across steps."""
        return np.nansum(self.idle, axis=1)
