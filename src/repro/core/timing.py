"""Dense per-(rank, step) timing of simulated runs.

Every engine returns a run as the matrices an MPI trace gives per rank
and step: execution start and end, Waitall entry and completion, and the
idle time inside the Waitall.  :class:`RunTiming` holds one run and
:class:`BatchedTiming` stacks B runs as ``(B, P, S)`` matrices.  The
lockstep, saturation and DAG engines return them directly; a full
:class:`~repro.sim.trace.Trace` from :func:`repro.sim.engine.simulate`
converts once through :meth:`RunTiming.from_trace`.

Each analysis is written once, over a :class:`BatchedTiming`, with no
per-draw Python loop; its single-run name calls it on
:meth:`RunTiming.batch`, a one-draw view that copies nothing.  A report
stacks only the matrices its kernels read, so a batch may leave any of
them out and takes its shape from those it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.sim.trace import Trace

__all__ = ["BatchedTiming", "RunTiming"]

#: The matrices a timing record stores, in stacking order.
TIMING_FIELDS = ("exec_end", "completion", "idle")
#: Every matrix field; the last two may be ``None`` (see :class:`RunTiming`).
_MATRICES = TIMING_FIELDS + ("exec_start", "post_end")


def _shape(timing: "RunTiming | BatchedTiming") -> "tuple[int, ...]":
    """The shape of the first matrix ``timing`` holds."""
    for name in _MATRICES:
        matrix = getattr(timing, name)
        if matrix is not None:
            return matrix.shape
    raise ValueError("a timing must hold at least one matrix")


def _check_matrices(timing: "RunTiming | BatchedTiming", ndim: int) -> None:
    shapes = {name: getattr(timing, name).shape for name in _MATRICES
              if getattr(timing, name) is not None}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"matrix shapes differ: {shapes}")
    got = len(_shape(timing))
    if got != ndim:
        raise ValueError(f"expected {ndim}-D matrices, got {got}-D")


def _index(timing: "RunTiming | BatchedTiming", index) -> dict:
    """``timing``'s matrices indexed by ``index`` (``None`` stays ``None``)."""
    return {name: None if getattr(timing, name) is None
            else getattr(timing, name)[index] for name in _MATRICES}


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
        Seconds spent inside each step's Waitall(s) (the red bars of the
        paper's timeline figures).
    meta:
        Propagated run metadata (t_exec, pattern, protocol, ...).
    exec_start:
        Wall-clock start of each execution phase; ``None`` for a store
        record or a trace.
    post_end:
        Wall-clock entry into each step's Waitall (all sends posted);
        ``None`` for a store record, a trace, or a DAG run with several
        Waitalls in one cell.
    """

    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)
    exec_start: "np.ndarray | None" = None
    post_end: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        _check_matrices(self, 2)

    @property
    def n_ranks(self) -> int:
        return _shape(self)[0]

    @property
    def n_steps(self) -> int:
        return _shape(self)[1]

    @property
    def t_exec(self) -> float | None:
        """Nominal execution-phase length, if the run recorded it."""
        return self.meta.get("t_exec")

    @classmethod
    def from_trace(cls, trace: Trace) -> "RunTiming":
        """The dense matrices of a full record stream."""
        return cls(
            exec_end=trace.exec_end_matrix(),
            completion=trace.completion_matrix(),
            idle=trace.idle_matrix(),
            meta=dict(trace.meta),
        )

    def to_trace(self) -> Trace:
        """COMP + WAITALL records rebuilt from the matrices.

        The per-message ISEND/IRECV records are not represented; use
        :func:`repro.sim.engine.simulate` when a complete record stream
        is needed.

        Raises
        ------
        ValueError
            If the run has no ``post_end`` (or ``exec_start``): it is not
            lockstep-shaped, or its source did not record them.
        """
        if self.post_end is None or self.exec_start is None:
            raise ValueError(
                "run is not lockstep-shaped (one COMP + one WAITALL per rank "
                "and step, with recorded starts); use simulate() for a full "
                "record stream"
            )
        from repro.sim.program import OpKind
        from repro.sim.trace import OpRecord, Trace

        records = []
        for rank in range(self.n_ranks):
            for step in range(self.n_steps):
                records.append(OpRecord(
                    rank, step, OpKind.COMP, float(self.exec_start[rank, step]),
                    float(self.exec_end[rank, step])))
                records.append(OpRecord(
                    rank, step, OpKind.WAITALL, float(self.post_end[rank, step]),
                    float(self.completion[rank, step])))
        return Trace(n_ranks=self.n_ranks, n_steps=self.n_steps,
                     records=records, meta=dict(self.meta))

    def batch(self) -> "BatchedTiming":
        """This run as a one-draw :class:`BatchedTiming` sharing its arrays.

        The matrices are ``[None]`` views, so the batched analyses run on
        a single run without copying it.
        """
        return BatchedTiming(**_index(self, None), meta=self.meta)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def total_runtime(self) -> float:
        """Wall-clock completion time of the whole run (0 for no steps)."""
        return float(np.nanmax(self.completion)) if self.completion.size else 0.0

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

    The fields are :class:`RunTiming`'s with a leading batch axis.  The
    batched analyses (and the report kernels built on them) take one of
    these and work on all draws at once.  Slicing (``batch[b]``) yields
    run ``b`` as an ordinary :class:`RunTiming` (views into the stack).

    Any matrix may be ``None``: a report's stack holds only the matrices
    its kernels declare they read, and the shape is that of whichever
    matrices are present.
    """

    exec_end: "np.ndarray | None" = None
    completion: "np.ndarray | None" = None
    idle: "np.ndarray | None" = None
    meta: dict = field(default_factory=dict)
    exec_start: "np.ndarray | None" = None
    post_end: "np.ndarray | None" = None
    #: Scratch space for analyses that share intermediate results (e.g. the
    #: wave front the speed and decay kernels both need).  Treat the
    #: timing arrays as immutable once analyses have run.
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _check_matrices(self, 3)

    @property
    def n_batch(self) -> int:
        return _shape(self)[0]

    @property
    def n_ranks(self) -> int:
        return _shape(self)[1]

    @property
    def n_steps(self) -> int:
        return _shape(self)[2]

    @property
    def t_exec(self) -> "float | None":
        """Nominal execution-phase length, if recorded."""
        return self.meta.get("t_exec")

    def __getitem__(self, b: int) -> RunTiming:
        if not -self.n_batch <= b < self.n_batch:
            raise IndexError(f"batch index {b} out of range [0, {self.n_batch})")
        return RunTiming(**_index(self, b), meta=dict(self.meta))

    def total_runtimes(self) -> np.ndarray:
        """Per-run wall-clock completion, shape ``[n_batch]`` (0 for no steps)."""
        if not self.completion.size:
            return np.zeros(self.n_batch)
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
