"""ASCII rendering of noise histograms (the Fig. 3 panels in a terminal)."""

from __future__ import annotations

import numpy as np

from repro.analysis.histogram import NoiseHistogram

__all__ = ["render_histogram"]


def render_histogram(
    hist: NoiseHistogram,
    max_rows: int = 20,
    unit: float = 1e-6,
    unit_label: str = "µs",
) -> str:
    """Render a histogram as horizontal bars, at most 60 characters wide.

    Bars are scaled by log10(count+1) — noise histograms span orders of
    magnitude (the paper plots them on log axes).

    Parameters
    ----------
    hist:
        The binned noise distribution.
    max_rows:
        At most this many rows; bins are re-grouped if there are more, and
        trailing all-empty bins are dropped.
    unit / unit_label:
        Scale for the bin labels (default µs).
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")

    counts = hist.counts
    edges = hist.bin_edges
    # Drop trailing empty bins.
    nonzero = np.nonzero(counts)[0]
    if nonzero.size:
        counts = counts[: nonzero[-1] + 1]
        edges = edges[: nonzero[-1] + 2]
    # Re-group to at most max_rows.
    if len(counts) > max_rows:
        group = -(-len(counts) // max_rows)
        grouped = [counts[i : i + group].sum() for i in range(0, len(counts), group)]
        new_edges = [edges[i] for i in range(0, len(counts), group)] + [edges[-1]]
        counts = np.asarray(grouped)
        edges = np.asarray(new_edges)

    values = np.log10(counts + 1.0)
    peak = values.max() if values.size else 1.0
    if peak == 0:
        peak = 1.0

    label_w = max(
        len(f"{edges[i] / unit:.1f}-{edges[i + 1] / unit:.1f}")
        for i in range(len(counts))
    )
    lines = [f"{'bin [' + unit_label + ']':>{label_w}} | count (log-scaled bars)"]
    for i, count in enumerate(counts):
        label = f"{edges[i] / unit:.1f}-{edges[i + 1] / unit:.1f}"
        bar = "#" * int(round(values[i] / peak * 60))
        lines.append(f"{label:>{label_w}} |{bar} {int(count)}")
    lines.append(
        f"{'':>{label_w}}  n={hist.n_samples}, mean={hist.mean / unit:.2f} "
        f"{unit_label}, max={hist.maximum / unit:.1f} {unit_label}"
    )
    return "\n".join(lines)
