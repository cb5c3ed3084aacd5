"""Worker health: resource sampling and the parent-side stall watchdog.

Long campaigns die in two undramatic ways: a worker quietly balloons
its RSS until the OOM killer takes it, or one task wedges and the pool
looks "busy" forever.  Both are invisible to the lifecycle events,
which only fire when something *completes*.  This module makes liveness
itself observable:

- :func:`sample_resources` reads the calling process's RSS and CPU time
  from ``/proc`` (falling back to :func:`resource.getrusage` where
  ``/proc`` is unavailable).  An observed pool worker samples itself at
  the end of every execution unit and records the sample into its own
  recorder as the ``worker.rss_bytes`` / ``worker.cpu_s`` histograms;
  they travel home in the unit's telemetry snapshot and sum into the
  parent's.  The run
  ledger reads ``n_heartbeats`` (the histogram count: one sample per
  returned unit) and ``worker_rss_peak_bytes`` (its max) from them.
- :class:`StallWatchdog` watches the parent's in-flight table between
  pool completions.  It keeps an EWMA of observed task durations and
  flags any unit that has been out for more than ``multiple`` times
  that average (never less than ``min_stall_s``), emitting one
  ``task.stall`` event per affected task index.  Stalls are surfaced by
  the progress renderer (``N stalled!``) and counted into the run
  ledger record (``n_stalls``).

**Determinism note.**  Health samples and ``task.stall`` are *pool-only*
and driven by wall-clock behavior; serial runs record neither, so the
``--jobs 1`` identity-stream contract (:mod:`repro.telemetry.recorder`)
holds bit-for-bit.  A watchdog can misfire on a genuinely slow (not
hung) task — so a stall event is only ever a *warning*: the flagged
unit keeps running, and the executor's failure isolation already
bounds the damage of a truly dead worker.  Re-dispatching a stalled
task would not help: tasks are deterministic, and a running pool call
cannot be cancelled, so the copy would redo the same work beside it.
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping

from repro import telemetry

__all__ = ["StallWatchdog", "sample_resources"]

#: EWMA smoothing for observed task durations — matches the progress
#: renderer's completion-gap smoothing: recent tasks dominate, history
#: decays in ~10 completions.
_EWMA_ALPHA = 0.3


def _proc_rss_bytes() -> "int | None":
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024  # kB -> bytes
    except (OSError, ValueError, IndexError):
        return None
    return None


def _proc_cpu_s() -> "float | None":
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # utime + stime are fields 14/15 (1-based) of /proc/[pid]/stat;
        # after stripping "pid (comm)" they sit at offsets 11/12.
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def sample_resources() -> dict:
    """One plain-data health sample of the calling process.

    ``{"pid": ..., "rss_bytes": ..., "cpu_s": ...}`` — RSS and CPU from
    ``/proc`` where available, else :func:`resource.getrusage`
    (``ru_maxrss`` is a peak, not current, but the honest portable
    fallback).  Never raises: a platform with neither source reports
    zeros rather than breaking the result channel.
    """
    rss = _proc_rss_bytes()
    cpu = _proc_cpu_s()
    if rss is None or cpu is None:
        try:
            import resource

            ru = resource.getrusage(resource.RUSAGE_SELF)
            if rss is None:
                rss = int(ru.ru_maxrss) * 1024  # kB on Linux
            if cpu is None:
                cpu = float(ru.ru_utime + ru.ru_stime)
        except (ImportError, ValueError, OSError):
            pass
    return {"pid": os.getpid(), "rss_bytes": int(rss or 0),
            "cpu_s": float(cpu or 0.0)}


class StallWatchdog:
    """Flags in-flight pool units that outlive the typical task by far.

    Parameters
    ----------
    multiple:
        How many EWMA task durations a unit may be out before it is
        considered stalled (per task of the unit, since a batched block
        legitimately takes ``n_tasks`` times longer than one task).
    min_stall_s:
        Absolute floor for the stall threshold — also the threshold
        used before any completion has seeded the EWMA.  Keeps a noisy
        first completion from flagging a healthy warm-up.
    poll_s:
        How often the executor's completion loop wakes up to
        :meth:`scan` when futures are in flight.
    """

    def __init__(self, multiple: float = 4.0, min_stall_s: float = 5.0,
                 poll_s: float = 0.25) -> None:
        if multiple <= 0 or min_stall_s <= 0 or poll_s <= 0:
            raise ValueError("StallWatchdog thresholds must be positive")
        self.multiple = float(multiple)
        self.min_stall_s = float(min_stall_s)
        self.poll_s = float(poll_s)
        self.ewma_s: "float | None" = None
        self.n_stalled = 0
        self._flagged: "set[int]" = set()

    def note_duration(self, duration_s: float) -> None:
        """Feed one completed task's duration into the EWMA."""
        if duration_s < 0:
            return
        if self.ewma_s is None:
            self.ewma_s = float(duration_s)
        else:
            self.ewma_s = (_EWMA_ALPHA * float(duration_s)
                           + (1.0 - _EWMA_ALPHA) * self.ewma_s)

    def threshold_s(self, n_tasks: int = 1) -> float:
        """Age beyond which an ``n_tasks``-task unit counts as stalled."""
        if self.ewma_s is None:
            return self.min_stall_s
        return max(self.min_stall_s,
                   self.multiple * self.ewma_s * max(1, n_tasks))

    def scan(self, in_flight: "Mapping[Any, tuple]",
             now: "float | None" = None) -> "list[int]":
        """Check the in-flight table; emit ``task.stall`` for new stalls.

        ``in_flight`` maps a future (any hashable token) to ``(unit,
        submit_t)`` where ``unit`` is the executor's tuple of ``(pos,
        spec)`` pairs and ``submit_t`` its ``perf_counter`` submission
        time.  Each unit is flagged at most once; returns the task
        indexes newly flagged on this scan.
        """
        if now is None:
            now = time.perf_counter()
        stalled: "list[int]" = []
        for token, (unit, submit_t) in in_flight.items():
            key = id(token)
            if key in self._flagged \
                    or now - submit_t <= self.threshold_s(len(unit)):
                continue
            self._flagged.add(key)
            for _pos, spec in unit:
                self.n_stalled += 1
                stalled.append(spec.index)
                telemetry.emit("task.stall", index=spec.index)
        return stalled

    def forget(self, token: Any) -> None:
        """Drop a completed future's flag (it came back after all)."""
        self._flagged.discard(id(token))
