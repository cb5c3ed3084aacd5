"""Workloads: the paper's benchmarks as runnable kernels + traffic models."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".divide": ("DivideWorkload",),
    ".lbm": ("LbmWorkload", "lbm_saturation_config"),
    ".stream": ("TriadWorkload", "triad_kernel", "triad_saturation_config"),
})
