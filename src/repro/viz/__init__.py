"""Terminal visualization: ASCII timelines, histograms, and text tables."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".ascii_histogram": ("render_histogram",),
    ".ascii_timeline": ("render_idle_heatmap", "render_timeline"),
    ".tables": ("format_series", "format_table"),
})
