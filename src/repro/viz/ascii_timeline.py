"""ASCII rendering of rank/time diagrams (the paper's Figs. 4–7, 9).

Terminal-friendly reproduction of the timeline figures: one text row per
rank, wall-clock time quantized into character columns, with

- ``.`` execution (the figures' white),
- ``D`` injected delay (blue),
- ``#`` idle / communication delay (red),
- `` `` (space) time before the rank's first/after its last activity.

The renderers take a run's :class:`~repro.core.timing.RunTiming`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.timeline import IntervalKind, full_timeline
from repro.core.timing import RunTiming

__all__ = ["render_timeline", "render_idle_heatmap"]

_GLYPHS = {
    IntervalKind.EXEC: ".",
    IntervalKind.DELAY: "D",
    IntervalKind.IDLE: "#",
}

# Paint precedence: idle over delay over exec when intervals share a column.
_PRECEDENCE = {IntervalKind.EXEC: 0, IntervalKind.DELAY: 1, IntervalKind.IDLE: 2}


def render_timeline(
    timing: RunTiming,
    width: int = 100,
    base_exec: float | None = None,
    rank_labels: bool = True,
) -> str:
    """Render the full rank/time diagram as a multi-line string.

    Parameters
    ----------
    timing:
        The run to draw.
    width:
        Character columns spanning the total runtime.
    base_exec:
        Nominal phase length used to split EXEC vs DELAY (see
        :func:`repro.analysis.timeline.rank_timeline`).
    rank_labels:
        Prefix each row with the rank number.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    total = timing.total_runtime()
    if total <= 0:
        raise ValueError("run has zero duration; nothing to render")
    scale = width / total

    lines: list[str] = []
    label_w = len(str(timing.n_ranks - 1)) if rank_labels else 0
    timelines = full_timeline(timing, base_exec=base_exec)
    for rank in range(timing.n_ranks - 1, -1, -1):  # rank 0 at the bottom, like the figures
        row = [" "] * width
        precedence = [-1] * width
        for iv in timelines[rank]:
            c0 = int(iv.start * scale)
            c1 = max(c0 + 1, int(np.ceil(iv.end * scale)))
            for c in range(c0, min(c1, width)):
                p = _PRECEDENCE[iv.kind]
                if p > precedence[c]:
                    precedence[c] = p
                    row[c] = _GLYPHS[iv.kind]
        prefix = f"{rank:>{label_w}} |" if rank_labels else "|"
        lines.append(prefix + "".join(row))
    footer = (" " * (label_w + 1) if rank_labels else "") + "+" + "-" * (width - 1)
    time_lbl = (" " * (label_w + 1) if rank_labels else "") + f"0{'':>{width - 12}}{total * 1e3:8.2f} ms"
    lines.append(footer)
    lines.append(time_lbl)
    return "\n".join(lines)


def render_idle_heatmap(timing: RunTiming, threshold: float | None = None) -> str:
    """Step-quantized idle map: one character per (rank, step).

    ``#`` marks steps whose Waitall exceeded ``threshold`` (default: the
    analysis layer's wave threshold), ``+`` above half the threshold,
    ``.`` quiet.  Rows are ranks (top = highest), columns are steps —
    a compact view of wave propagation in step space.
    """
    if threshold is None:
        from repro.core.idle_wave import default_threshold

        threshold = default_threshold(timing)
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    lines = []
    label_w = len(str(timing.n_ranks - 1))
    for rank in range(timing.n_ranks - 1, -1, -1):
        chars = []
        for step in range(timing.n_steps):
            idle = timing.idle[rank, step]
            if idle > threshold:
                chars.append("#")
            elif idle > 0.5 * threshold:
                chars.append("+")
            else:
                chars.append(".")
        lines.append(f"{rank:>{label_w}} |" + "".join(chars))
    lines.append(" " * (label_w + 1) + "+" + "-" * max(0, timing.n_steps - 1))
    lines.append(" " * (label_w + 2) + f"steps 0..{timing.n_steps - 1}")
    return "\n".join(lines)
