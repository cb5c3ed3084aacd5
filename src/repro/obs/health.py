"""Worker health: resource samples of pool workers.

A worker that quietly balloons its RSS until the OOM killer takes it is
invisible to the lifecycle events, which only fire when something
*completes*.  :func:`sample_resources` reads the calling process's RSS
and CPU time from ``/proc`` (falling back to :func:`resource.getrusage`
where ``/proc`` is unavailable).  An observed pool worker samples itself
at the end of every execution unit and records the sample into its own
recorder as the ``worker.rss_bytes`` / ``worker.cpu_s`` histograms; they
travel home in the unit's telemetry snapshot and sum into the parent's.
The run ledger reads ``n_heartbeats`` (the histogram count: one sample
per returned unit) and ``worker_rss_peak_bytes`` (its max) from them.

Health samples are *pool-only*: serial runs record none, so the
``--jobs 1`` identity-stream contract (:mod:`repro.telemetry.recorder`)
holds bit-for-bit.
"""

from __future__ import annotations

import os

__all__ = ["sample_resources"]


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
