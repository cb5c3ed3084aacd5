"""Idle-wave detection.

An *idle wave* (Sec. IV) is the travelling disturbance seeded by a one-off
delay: each rank in turn spends a long time in ``MPI_Waitall`` because its
neighbor's message is late.  This module turns the dense idle matrices of
a batch of runs into structured objects:

- :func:`batched_default_threshold` — a per-draw cut separating genuine
  wave idle time from background communication/noise jitter,
- :func:`batched_wave_front` — each draw's per-hop arrival time/step and
  amplitude of the wave's leading edge, measured outward from the
  injection rank.

:func:`default_threshold` and :func:`wave_front` are their one-run forms:
the same functions called on :meth:`~repro.core.timing.RunTiming.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timing import BatchedTiming, RunTiming

__all__ = [
    "BatchedWaveFront",
    "WaveFront",
    "batched_default_threshold",
    "batched_wave_front",
    "default_threshold",
    "masked_linear_fit",
    "row_percentile",
    "wave_front",
]


@dataclass(frozen=True)
class WaveFront:
    """The leading edge of an idle wave, indexed by hop distance.

    Attributes
    ----------
    source:
        Rank where the delay was injected.
    hops:
        Hop distances (1, 2, ...) at which the wave was detected,
        in increasing order, contiguous from 1.
    ranks:
        The rank at each hop (depends on direction and periodicity).
    arrival_times:
        Wall-clock start of the wave's idle period at each hop.
    arrival_steps:
        Bulk-synchronous step index of the arrival at each hop.
    amplitudes:
        Idle duration (seconds) of the wave at each hop — the quantity
        whose per-hop decrease is the decay rate of Sec. V.
    """

    source: int
    hops: np.ndarray
    ranks: np.ndarray
    arrival_times: np.ndarray
    arrival_steps: np.ndarray
    amplitudes: np.ndarray

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def reach(self) -> int:
        """Number of hops the wave survived."""
        return int(self.hops[-1]) if len(self.hops) else 0


@dataclass
class BatchedWaveFront:
    """Leading edges of B idle waves, hop-indexed with per-draw validity.

    Arrays are ``[B, H]`` with ``H`` the walk limit; entries at hop index
    ``h`` are meaningful only where ``h < n_hops[b]`` (each draw's front
    is a contiguous prefix: the walk stops at the first rank showing no
    above-threshold idle period).  ``ranks[h]`` is the rank at hop index
    ``h`` for every draw; past the end of an open chain it is out of
    range, and no front reaches it.  ``front[b]`` is draw ``b``'s
    :class:`WaveFront`.
    """

    source: int
    ranks: np.ndarray  # int, [H]
    arrival_steps: np.ndarray  # int, [B, H]
    arrival_times: np.ndarray  # float, [B, H]
    amplitudes: np.ndarray  # float, [B, H]
    n_hops: np.ndarray  # int, [B]

    @property
    def n_batch(self) -> int:
        return self.arrival_steps.shape[0]

    @property
    def limit(self) -> int:
        return self.arrival_steps.shape[1]

    def valid(self) -> np.ndarray:
        """Boolean ``[B, H]`` mask of meaningful entries."""
        return np.arange(self.limit)[None, :] < self.n_hops[:, None]

    def __getitem__(self, b: int) -> WaveFront:
        n = int(self.n_hops[b])
        return WaveFront(
            source=self.source,
            hops=np.arange(1, n + 1),
            ranks=self.ranks[:n],
            arrival_times=self.arrival_times[b, :n],
            arrival_steps=self.arrival_steps[b, :n],
            amplitudes=self.amplitudes[b, :n],
        )


def row_percentile(sorted_rows: np.ndarray, counts: np.ndarray,
                   q: float, start: "np.ndarray | int" = 0) -> np.ndarray:
    """Per-row linear-interpolated percentile over ``counts[r]`` entries of
    each pre-sorted row, beginning at offset ``start[r]``.

    Replicates :func:`numpy.percentile`'s default linear interpolation
    arithmetic exactly (including its ``t >= 0.5`` lerp flip), but costs
    one gather instead of a per-row partition — ``np.nanpercentile`` over
    a ``(B, P, S)`` stack is the single hottest operation in the kernel
    path.  The offset lets one ascending sort serve several sub-ranges
    (e.g. all finite cells vs. the strictly-positive suffix).  Rows with
    ``counts == 0`` yield ``NaN``.
    """
    n_rows = sorted_rows.shape[0]
    empty = counts == 0
    pos = (q / 100.0) * (np.maximum(counts, 1) - 1)
    lo = np.floor(pos).astype(np.intp)
    hi = np.ceil(pos).astype(np.intp)
    rows = np.arange(n_rows)
    # Clamp for rows with counts == 0 (their offset may point one past
    # the end); their gathered values are overwritten with NaN below.
    last = sorted_rows.shape[1] - 1
    a = sorted_rows[rows, np.minimum(start + lo, last)]
    b = sorted_rows[rows, np.minimum(start + hi, last)]
    t = pos - lo
    diff = b - a
    out = a + diff * t
    flip = t >= 0.5
    out[flip] = b[flip] - diff[flip] * (1.0 - t[flip])
    out[empty] = np.nan
    return out


def batched_default_threshold(batch: BatchedTiming,
                              factor: float = 0.5) -> np.ndarray:
    """Per-draw idle-duration cut separating wave idleness from jitter, ``[B]``.

    Two regimes are combined:

    - ``factor * t_exec`` when the runs record their nominal phase length
      (a wave by construction idles for a sizable fraction of a phase),
      with a fallback of ``10 x`` the draw's median positive idle time;
    - for runs dominated by a *large* idle wave (max idle >> phase
      length, e.g. the 90 ms delays of Fig. 8), the cut additionally
      scales with the wave amplitude (5 % of the maximum idle), so that
      exponential noise excursions above the phase-based cut cannot
      masquerade as the wave front.
    """
    idle = batch.idle
    n_batch = batch.n_batch
    t_exec = batch.t_exec
    if t_exec:
        base = np.full(n_batch, factor * float(t_exec))
    elif idle[0].size == 0:
        return np.zeros(n_batch)
    else:
        # Median of each draw's positive idle times; draws without any
        # positive idle get 0.  The inner where keeps all-NaN rows out of
        # nanmedian.
        any_positive = np.any(idle > 0, axis=(1, 2))
        positive = np.where(idle > 0, idle, np.nan).reshape(n_batch, -1)
        med = np.nanmedian(
            np.where(any_positive[:, None], positive, 0.0), axis=1)
        base = 10.0 * np.where(any_positive, med, 0.0)
    if idle[0].size == 0:
        return base
    # Three competing demands, combined as a max:
    # - `base`: a wave idles for a sizable fraction of a phase;
    # - 5 % of the dominant amplitude: for very long delays (e.g. the 90 ms
    #   waves of Fig. 8) exponential-noise excursions can exceed `base`, so
    #   the cut must scale with the wave;
    # - twice the 90th idle percentile: regular communication waits (long
    #   message flights, pipeline-fill transients) put a floor under many
    #   cells that can exceed `base`.  Clipped to a quarter of the dominant
    #   amplitude so that wide waves (> 10 % of cells) cannot push the cut
    #   above themselves.
    max_idle = np.nanmax(idle, axis=(1, 2))
    # nanpercentile semantics (ignore NaN cells) via one sort + gather.
    sorted_rows, finite = batch.sorted_idle()
    p90 = row_percentile(sorted_rows, finite, 90.0)
    background = np.minimum(2.0 * p90, 0.25 * max_idle)
    return np.maximum(np.maximum(base, 0.05 * max_idle), background)


def default_threshold(timing: RunTiming, factor: float = 0.5) -> float:
    """One run's :func:`batched_default_threshold`."""
    return float(batched_default_threshold(timing.batch(), factor)[0])


def batched_wave_front(
    batch: BatchedTiming,
    source: int,
    direction: int = +1,
    threshold: "np.ndarray | float | None" = None,
    periodic: "bool | None" = None,
    max_hops: "int | None" = None,
) -> BatchedWaveFront:
    """Trace every draw's idle-wave leading edge in one batched walk.

    Walks outward rank by rank in ``direction`` (+1 towards higher ranks,
    -1 towards lower).  At each hop the wave's *arrival* is the first
    above-threshold idle period on that rank at or after the previous
    arrival step (the front cannot move backwards in step index); a
    draw's walk stops at the first rank showing no such period (the wave
    has decayed or run out), after one full traversal on a periodic
    chain, or after ``max_hops``.  The loop runs over *hops*; at each hop
    all B draws advance together with array operations over ``[B, S]``
    slices.

    ``threshold`` is a per-draw ``[B]`` cut or one cut for all draws;
    by default :func:`batched_default_threshold`, memoized on the batch
    together with the front, which the speed and decay kernels share.
    ``periodic=None`` reads whether the chain wraps around from the
    communication-pattern metadata, else False.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    n_batch, n_ranks, n_steps = batch.exec_end.shape
    if not 0 <= source < n_ranks:
        raise IndexError(f"source rank {source} out of range [0, {n_ranks})")
    if periodic is None:
        pattern = batch.meta.get("pattern")
        periodic = bool(getattr(pattern, "periodic", False))
    cache_key = None
    if threshold is None:
        cache_key = ("wave_front", source, direction, periodic, max_hops)
        cached = batch._cache.get(cache_key)
        if cached is not None:
            return cached
        threshold = batch._cache.get("default_threshold")
        if threshold is None:
            threshold = batched_default_threshold(batch)
            batch._cache["default_threshold"] = threshold
    threshold = np.broadcast_to(np.asarray(threshold, dtype=float), (n_batch,))

    limit = n_ranks - 1 if periodic else n_ranks
    if max_hops is not None:
        limit = min(limit, max_hops)
    limit = max(limit, 0) if n_steps else 0  # a run without steps has no front
    ranks = source + direction * np.arange(1, limit + 1)
    if periodic:
        ranks %= n_ranks
    in_range = (ranks >= 0) & (ranks < n_ranks)  # a prefix: open chains end

    # walked[b, h]: draw b's arrival step at hop h, n_steps where it has
    # none.  A stopped walk keeps prev = n_steps and so finds nothing again.
    steps_idx = np.arange(n_steps)
    cut = threshold[:, None]
    walked = np.full((n_batch, limit), n_steps)
    prev = np.zeros((n_batch, 1), dtype=int)
    rows = np.arange(n_batch)
    for col, rank in enumerate(ranks[in_range].tolist()):
        ok = (batch.idle[:, rank, :] > cut) & (steps_idx >= prev)
        k = ok.argmax(axis=1)  # the first True, or 0 where there is none
        has = ok[rows, k]
        if not has.any():
            break
        prev[:, 0] = np.where(has, k, n_steps)
        walked[:, col] = prev[:, 0]

    valid = walked < n_steps
    cells = (rows[:, None], np.where(in_range, ranks, 0),
             np.minimum(walked, n_steps - 1))
    amplitudes = batch.idle[cells]
    front = BatchedWaveFront(
        source=source,
        ranks=ranks,
        arrival_steps=np.where(valid, walked, 0),
        # Arrival time: when the rank entered its Waitall.
        arrival_times=np.where(valid, batch.completion[cells] - amplitudes,
                               np.nan),
        amplitudes=np.where(valid, amplitudes, np.nan),
        n_hops=valid.sum(axis=1),
    )
    if cache_key is not None:
        batch._cache[cache_key] = front
    return front


def wave_front(
    run: RunTiming,
    source: int,
    direction: int = +1,
    threshold: float | None = None,
    periodic: bool | None = None,
    max_hops: int | None = None,
) -> WaveFront:
    """Trace the leading edge of the idle wave emanating from ``source``.

    One run's :func:`batched_wave_front`.

    Parameters
    ----------
    run:
        The run's timing.
    source:
        Injection rank (hop 0; not itself part of the front).
    direction:
        +1 or -1 along the rank chain.
    threshold:
        Idle-duration cut; defaults to :func:`default_threshold`.
    periodic:
        Whether the chain wraps around.  Read from the run's communication
        pattern metadata when available, else False.
    max_hops:
        Stop after this many hops even if the wave continues.
    """
    return batched_wave_front(run.batch(), source, direction,
                              threshold, periodic, max_hops)[0]


def masked_linear_fit(x: np.ndarray, y: np.ndarray,
                      mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row least-squares ``(slope, intercept)`` of ``y`` on ``x``.

    Closed-form simple linear regression over the masked entries of each
    row, vectorized over rows; rows with fewer than two usable points or
    zero x-variance yield ``NaN``.
    """
    w = mask.astype(float)
    n = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        xm = np.where(n > 0, (w * np.where(mask, x, 0.0)).sum(axis=1) / n, 0.0)
        ym = np.where(n > 0, (w * np.where(mask, y, 0.0)).sum(axis=1) / n, 0.0)
        dx = np.where(mask, x - xm[:, None], 0.0)
        dy = np.where(mask, y - ym[:, None], 0.0)
        var = (w * dx * dx).sum(axis=1)
        cov = (w * dx * dy).sum(axis=1)
        slope = np.where((n >= 2) & (var > 0), cov / var, np.nan)
    return slope, ym - slope * xm
