"""Analytic performance models.

The paper frames idle waves as a violation of simple white-box models
(Sec. I-A).  :mod:`repro.models.hockney` holds the one the experiments
plot as "model vs. measurement": the paper's Eq. 1, the optimistic
nonoverlapping runtime of the MPI STREAM triad (Fig. 1).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".hockney": ("triad_strong_scaling_model",),
})
