"""TTY progress rendering: one live line driven by lifecycle events.

:class:`ProgressRenderer` subscribes to the run's telemetry recorder
and keeps a single ``\\r``-rewritten line on ``stderr`` up to date with
task counts, throughput, cache-hit rate, and an ETA derived from an
exponentially weighted moving average of completion gaps.  It is a pure
*consumer*: it never touches run state, so attaching or detaching it
cannot change results (the same purity contract telemetry holds).

Rendering is throttled (default 10 Hz) so a 10k-task sweep of
sub-millisecond cache hits does not spend its time writing to the
terminal; the final state is always flushed by :meth:`finish`.
"""

from __future__ import annotations

import sys
import time

__all__ = ["ProgressRenderer", "format_eta"]

#: EWMA smoothing factor for completion gaps: recent completions
#: dominate (batched blocks complete in bursts), old history decays in
#: ~10 completions.
_EWMA_ALPHA = 0.3


def format_eta(seconds: float) -> str:
    """Compact ETA: ``42s``, ``3m10s``, ``1h02m``."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressRenderer:
    """Single-line live progress over a run's lifecycle events.

    Parameters
    ----------
    stream:
        Output stream (default ``sys.stderr`` — progress must never
        contaminate a piped stdout).
    interval:
        Minimum seconds between repaints; 0 repaints on every event
        (used by tests and the overhead benchmark's worst case).
    """

    def __init__(self, stream=None, interval: float = 0.1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.label = "run"
        self.total: "int | None" = None
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.stalled = 0
        self.retried = 0
        self.quarantined = 0
        self.phase: "str | None" = None
        self._t0 = time.perf_counter()
        self._last_paint = 0.0
        self._last_completion: "float | None" = None
        self._gap_ewma: "float | None" = None
        self._last_len = 0

    # -- event feed ---------------------------------------------------

    def handle(self, event: tuple) -> None:
        """Recorder subscriber entry point."""
        _, name, _, _, data = event
        data = data or {}
        if name == "run.start":
            kind = data.get("kind", "run")
            run_name = data.get("name")
            self.label = f"{kind} {run_name}" if run_name else kind
            if data.get("n_tasks") is not None:
                self.total = int(data["n_tasks"])
            self._t0 = time.perf_counter()
        elif name in ("task.done", "task.failed", "task.cache_hit"):
            self.done += 1
            if name == "task.cache_hit":
                self.cached += 1
            elif name == "task.failed":
                self.failed += 1
            else:
                self._note_completion()
        elif name == "task.stall":
            self.stalled += 1
        elif name == "task.retry":
            self.retried += 1
        elif name == "task.quarantined":
            self.quarantined += 1
        elif name == "report.phase":
            self.phase = data.get("phase")
        elif name == "run.finish":
            return  # the session calls finish() after detaching us
        self._maybe_render()

    def _note_completion(self) -> None:
        now = time.perf_counter()
        if self._last_completion is not None:
            gap = now - self._last_completion
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma = (_EWMA_ALPHA * gap
                                  + (1.0 - _EWMA_ALPHA) * self._gap_ewma)
        self._last_completion = now

    # -- painting -----------------------------------------------------

    def _line(self) -> str:
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        parts = [self.label]
        if self.total:
            pct = 100.0 * self.done / self.total
            parts.append(f"{self.done}/{self.total} ({pct:.0f}%)")
        else:
            parts.append(f"{self.done} done")
        parts.append(f"{self.done / elapsed:.1f} task/s")
        if self.done:
            parts.append(f"cache {100.0 * self.cached / self.done:.0f}%")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.stalled:
            parts.append(f"{self.stalled} stalled!")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined!")
        if self.phase:
            parts.append(f"phase={self.phase}")
        eta = self._eta()
        if eta is not None:
            parts.append(f"eta {format_eta(eta)}")
        return "  ".join(parts)

    def _eta(self) -> "float | None":
        """Remaining seconds from the completion-gap EWMA, if estimable."""
        if not self.total or self.done >= self.total:
            return None
        remaining = self.total - self.done
        if self._gap_ewma is not None:
            return self._gap_ewma * remaining
        if self.done:  # single data point: fall back to mean throughput
            elapsed = time.perf_counter() - self._t0
            return elapsed / self.done * remaining
        return None

    def _maybe_render(self) -> None:
        now = time.perf_counter()
        if now - self._last_paint < self.interval:
            return
        self._last_paint = now
        self._paint(self._line())

    def _paint(self, line: str) -> None:
        pad = " " * max(0, self._last_len - len(line))
        self.stream.write(f"\r{line}{pad}")
        self.stream.flush()
        self._last_len = len(line)

    def clear(self) -> None:
        """Erase the in-progress line without terminating it.

        Called before anything that must not share the line — a
        traceback about to be printed, a ``KeyboardInterrupt`` unwind —
        so diagnostics never concatenate onto half-painted progress.
        Safe to call repeatedly or when nothing was ever painted.
        """
        if self._last_len:
            self.stream.write("\r" + " " * self._last_len + "\r")
            self.stream.flush()
            self._last_len = 0

    def finish(self) -> None:
        """Paint the final state and terminate the line with a newline.

        The last progress line stays in the scrollback (totals, cache
        rate, failures) and — the hygiene contract — the cursor never
        ends mid-line: whatever prints next (exit summary, shell prompt)
        starts on a fresh line.  A renderer that saw no events writes
        nothing.
        """
        if not self._last_len and not self.done and not self.stalled:
            return
        self._paint(self._line())
        self.stream.write("\n")
        self.stream.flush()
        self._last_len = 0
