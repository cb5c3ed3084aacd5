"""Analytic performance models.

The paper frames idle waves as a violation of simple white-box models
(Sec. I-A); this package implements those models so the experiments can
plot "model vs. measurement" exactly as the paper does:

- :mod:`repro.models.roofline` — the Roofline model for loop performance,
- :mod:`repro.models.ecm` — a simplified Execution-Cache-Memory model,
- :mod:`repro.models.hockney` — the Hockney communication model and the
  paper's Eq. 1 (nonoverlapping execution + communication runtime),
- :mod:`repro.models.loggops` — LogP/LogGP/LogGOPS parameter sets
  (the modeling language of the LogGOPSim comparator).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".ecm": ("ECMModel",),
    ".hockney": ("HockneyCommModel", "nonoverlap_runtime",
                 "triad_strong_scaling_model"),
    ".loggops": ("LogGOPSParams", "LogGPParams", "LogPParams"),
    ".roofline": ("RooflineModel",),
})
