"""Multi-run statistics.

The paper reports medians with min/max whiskers over repeated runs
(Fig. 1's performance whiskers, Fig. 8's 15-run decay statistics).
:class:`RunStatistics` standardizes that reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["RunStatistics"]


@dataclass(frozen=True)
class RunStatistics:
    """Median / min / max / mean / std over repeated measurements."""

    median: float
    minimum: float
    maximum: float
    mean: float
    std: float
    n: int

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "RunStatistics":
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("need at least one sample")
        return cls(
            median=float(np.median(arr)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            n=arr.size,
        )
