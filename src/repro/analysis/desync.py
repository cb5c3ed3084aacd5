"""Desynchronization metrics.

The motivating experiments (Figs. 1 and 2) revolve around how far a
bulk-synchronous program drifts from lockstep.  This module quantifies
that drift from the timing matrices of a batch of runs:

- :func:`batched_skew_spread` — peak-to-peak completion skew per step
  (the amplitude of the Fig. 2 pattern),
- :func:`batched_desync_onset` — the step at which the spread first
  exceeds a fraction of the phase length (when the instability "switches
  on"),
- :func:`batched_overlap_efficiency` — how much of the communication time
  is hidden behind computation, the quantity that desynchronization
  improves and the naive nonoverlapping model (Eq. 1) assumes to be zero.

:func:`skew_spread`, :func:`desync_onset` and :func:`overlap_efficiency`
are their one-run forms.
"""

from __future__ import annotations

import numpy as np

from repro.core.timing import BatchedTiming, RunTiming

__all__ = ["batched_desync_onset", "batched_overlap_efficiency",
           "batched_skew_spread", "desync_onset", "overlap_efficiency",
           "skew_spread"]


def batched_skew_spread(batch: BatchedTiming) -> np.ndarray:
    """Per-draw, per-step peak-to-peak spread of completion times, ``[B, S]``.

    Zero for a perfectly synchronized run; the Fig. 2 amplitude when the
    desynchronization pattern has developed.
    """
    return np.ptp(batch.completion, axis=1)


def batched_desync_onset(batch: BatchedTiming,
                         fraction: float = 0.5) -> np.ndarray:
    """First step whose skew spread exceeds ``fraction × T_exec``, ``[B]``.

    ``NaN`` for a draw that never desynchronizes that far.  Uses the
    recorded nominal phase length; falls back to each draw's median
    execution duration.
    """
    if fraction <= 0:
        raise ValueError(f"fraction must be > 0, got {fraction}")
    t_exec = batch.t_exec
    if t_exec:
        t_exec_b = np.full(batch.n_batch, float(t_exec))
    else:
        durations = np.diff(batch.completion, axis=2)
        t_exec_b = (np.median(durations.reshape(batch.n_batch, -1), axis=1)
                    if durations.size else np.zeros(batch.n_batch))
    if np.any(t_exec_b <= 0):
        raise ValueError("cannot determine the nominal phase length")
    if not batch.n_steps:
        return np.full(batch.n_batch, np.nan)
    hits = batched_skew_spread(batch) > fraction * t_exec_b[:, None]
    return np.where(hits.any(axis=1),
                    np.argmax(hits, axis=1).astype(float), np.nan)


def batched_overlap_efficiency(batch: BatchedTiming) -> np.ndarray:
    """Fraction of the nonoverlapping time budget each draw saved, ``[B]``.

    ``1 - runtime / (sum of max exec per step + sum of max wait per step)``:
    0 means the run is as slow as the fully serialized exec+comm model;
    positive values mean computation and communication (of *different
    ranks*) overlapped — the automatic-overlap effect of Fig. 1.  ``NaN``
    for a draw with no time budget.
    """
    if not batch.n_steps:
        return np.full(batch.n_batch, np.nan)
    # exec duration = exec_end - previous completion (0 before step 0);
    # computed in place to avoid materializing an exec_start matrix.
    exec_durations = batch.exec_end.copy()
    exec_durations[:, :, 1:] -= batch.completion[:, :, :-1]
    serial_budget = (exec_durations.max(axis=1).sum(axis=1)
                     + batch.idle.max(axis=1).sum(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(serial_budget > 0,
                        1.0 - batch.total_runtimes() / serial_budget, np.nan)


def skew_spread(run: RunTiming) -> np.ndarray:
    """One run's :func:`batched_skew_spread`, ``[S]``."""
    return batched_skew_spread(run.batch())[0]


def desync_onset(run: RunTiming, fraction: float = 0.5) -> int | None:
    """One run's :func:`batched_desync_onset`; ``None`` if it never
    desynchronizes that far."""
    onset = batched_desync_onset(run.batch(), fraction)[0]
    return None if np.isnan(onset) else int(onset)


def overlap_efficiency(run: RunTiming) -> float:
    """One run's :func:`batched_overlap_efficiency`; raises ``ValueError``
    for a run with no time budget to compare against."""
    overlap = batched_overlap_efficiency(run.batch())[0]
    if np.isnan(overlap):
        raise ValueError("run has no time budget to compare against")
    return float(overlap)
