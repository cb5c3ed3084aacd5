"""Metric kernels: batched ``(B, P, S)`` timing → per-draw metrics.

Each kernel extracts one family of derived quantities — the numbers the
paper actually reports (wave speed via the Eq. 2 fit, decay rate β̄,
desynchronization indices, idle-histogram and spatial-Fourier summaries)
— from a :class:`~repro.core.timing.BatchedTiming` stack in one
vectorized pass.  The arithmetic lives in the batched analyses of
:mod:`repro.core` and :mod:`repro.analysis`, whose single-run names
(``measure_speed``, ``measure_decay``, ``desync_onset``, ...) are their
one-draw calls; a kernel adapts one of them to the registry.  There is
**no per-draw Python loop** (the wave-front walk loops over *hops*,
never over draws), which is what makes report extraction over a 64-draw
campaign several times faster than calling the single-run functions draw
by draw (``benchmarks/bench_reports.py`` asserts ≥ 5x).

Draws where a single-run function would raise (no measurable wave, fewer
hops than the fit needs) yield ``NaN`` instead, so one dead draw cannot
abort a whole campaign's report.  The desync and Fourier kernels import
their analysis in the kernel body, so a report that runs neither loads
no :mod:`repro.analysis` module.

Kernels register themselves in a module-level registry; report specs
resolve metric names against it (see CONTRIBUTING.md for how to add one).
Each kernel declares the timing matrices it reads (``reads``): a report
stacks only the union of its kernels' reads, so a kernel sees ``None``
for any matrix it did not declare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.decay import front_decay
from repro.core.idle_wave import batched_wave_front, row_percentile
from repro.core.speed import fit_front_speed, silent_speed_for
from repro.core.timing import TIMING_FIELDS, BatchedTiming
from repro.reports.errors import ReportError
from repro.scenarios.compiler import CompiledScenario

__all__ = [
    "MetricContext",
    "MetricKernel",
    "get_kernel",
    "kernel_names",
    "register_kernel",
]


# ----------------------------------------------------------------------
# context + registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricContext:
    """What a kernel may know about the runs besides their timing.

    ``compiled`` is the grid point's compiled scenario: pattern,
    protocol, network, and delay placement — everything the runs of one
    batch share.  Kernels must treat it as read-only.
    """

    compiled: CompiledScenario

    @property
    def source(self) -> int:
        """Injection rank of the first explicit delay."""
        if not self.compiled.cfg.delays:
            raise ReportError(
                "metric needs an injected delay to trace a wave from, but "
                f"scenario {self.compiled.spec.name!r} declares none"
            )
        return self.compiled.cfg.delays[0].rank

    @property
    def periodic(self) -> bool:
        return bool(self.compiled.cfg.pattern.periodic)


@dataclass(frozen=True)
class MetricKernel:
    """One registered metric: a vectorized extraction function plus schema.

    Attributes
    ----------
    name:
        Registry key report specs refer to.
    fields:
        Names of the per-draw quantities the kernel returns, in order.
    reads:
        The timing matrices (of ``exec_end``, ``completion`` and
        ``idle``) the kernel reads.  A report stacks only the matrices
        its kernels read, so ``fn`` sees ``None`` for any other.
    fn:
        ``fn(batch, ctx, **params) -> {field: ndarray[B]}``.
    params:
        Recognized keyword parameters (anything else is rejected at
        report-compile time, naming the offending spec path).
    needs_delay:
        Whether the kernel requires at least one explicit injected delay
        (wave-tracing kernels); checked at compile time per grid point.
    check:
        Optional ``check(params, compiled) -> str | None`` validating
        parameter *values* against one grid point's compiled scenario at
        report-compile time (so a bad value fails `report validate`, not
        a dispatched sweep).  Return an error message, or ``None`` if ok.
    doc:
        One-line description for ``report list`` and the docs.
    """

    name: str
    fields: "tuple[str, ...]"
    reads: "tuple[str, ...]"
    fn: Callable
    params: "tuple[str, ...]" = ()
    needs_delay: bool = False
    check: "Callable | None" = None
    doc: str = ""

    def compute(self, batch: BatchedTiming, ctx: MetricContext,
                **params) -> "dict[str, np.ndarray]":
        """Run the kernel; validates output shape against the schema."""
        out = self.fn(batch, ctx, **params)
        missing = [f for f in self.fields if f not in out]
        if missing:  # pragma: no cover - registry misuse
            raise RuntimeError(f"kernel {self.name!r} omitted fields {missing}")
        return {name: np.asarray(out[name], dtype=float) for name in self.fields}


_REGISTRY: "dict[str, MetricKernel]" = {}


def register_kernel(name: str, fields: "tuple[str, ...]",
                    reads: "tuple[str, ...]",
                    params: "tuple[str, ...]" = (),
                    needs_delay: bool = False,
                    check: "Callable | None" = None, doc: str = ""):
    """Decorator: add a vectorized metric kernel to the registry."""
    unknown = sorted(set(reads) - set(TIMING_FIELDS))
    if unknown or not reads:
        raise ValueError(
            f"metric kernel {name!r} must read some of {TIMING_FIELDS}, "
            f"got reads={tuple(reads)!r}")

    def wrap(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"metric kernel {name!r} is already registered")
        _REGISTRY[name] = MetricKernel(
            name=name, fields=tuple(fields), reads=tuple(reads), fn=fn,
            params=tuple(params),
            needs_delay=needs_delay, check=check,
            doc=doc or (fn.__doc__ or "").split("\n")[0],
        )
        return fn

    return wrap


def _is_int(value) -> bool:
    """An int that is not a bool (``True == 1`` would pass otherwise)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_direction(params: dict) -> "str | None":
    direction = params.get("direction", +1)
    if not (_is_int(direction) and direction in (+1, -1)):
        return f"direction must be +1 or -1, got {direction!r}"
    return None


def _check_wave_speed(params: dict, compiled) -> "str | None":
    bad = _check_direction(params)
    if bad:
        return bad
    min_hops = params.get("min_hops", 2)
    if not (_is_int(min_hops) and min_hops >= 1):
        return f"min_hops must be an int >= 1, got {min_hops!r}"
    max_hops = params.get("max_hops")
    if max_hops is not None and not (_is_int(max_hops) and max_hops >= 1):
        return f"max_hops must be an int >= 1, got {max_hops!r}"
    return None


def _check_decay(params: dict, compiled) -> "str | None":
    return _check_direction(params)


def _check_desync(params: dict, compiled) -> "str | None":
    fraction = params.get("fraction", 0.5)
    if not (isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
            and fraction > 0):
        return f"fraction must be > 0, got {fraction!r}"
    return None


def _check_fourier(params: dict, compiled) -> "str | None":
    step = params.get("step", -1)
    n_steps = compiled.cfg.n_steps
    if not _is_int(step):
        return f"step must be an int, got {step!r}"
    if not -n_steps <= step < n_steps:
        return (f"step {step} out of range for the {n_steps}-step scenario "
                f"{compiled.spec.name!r}")
    return None


def kernel_names() -> "list[str]":
    """Sorted names of all registered metric kernels."""
    return sorted(_REGISTRY)


def get_kernel(name: str) -> MetricKernel:
    """Look up a kernel; raises :class:`ReportError` naming alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReportError(
            f"unknown metric {name!r}; registered kernels: {kernel_names()}"
        ) from None


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
@register_kernel(
    "runtime",
    fields=("total_runtime", "total_idle", "mean_idle_per_rank"),
    reads=("idle", "completion"),
    doc="Wall-clock runtime and aggregate idle time per draw.",
)
def _runtime_kernel(batch: BatchedTiming, ctx: MetricContext) -> dict:
    idle = batch.idle
    # nansum degenerates to sum (bitwise) when no NaN is present; the
    # engines never emit NaN, so skip nansum's masked copy on that path.
    has_nan = batch._cache.get("idle_has_nan")
    if has_nan is None:
        has_nan = bool(np.isnan(idle).any())
        batch._cache["idle_has_nan"] = has_nan
    sum_ = np.nansum if has_nan else np.sum
    idle_by_rank = sum_(idle, axis=2)  # [B, P]
    return {
        "total_runtime": batch.total_runtimes(),
        "total_idle": sum_(idle, axis=(1, 2)),
        "mean_idle_per_rank": idle_by_rank.mean(axis=1),
    }


@register_kernel(
    "wave_speed",
    fields=("measured_speed", "predicted_speed", "relative_error",
            "front_hops"),
    reads=("idle", "completion"),
    params=("direction", "min_hops", "max_hops"),
    needs_delay=True,
    check=_check_wave_speed,
    doc="Idle-wave speed: Eq. 2 prediction and batched front fit.",
)
def _wave_speed_kernel(batch: BatchedTiming, ctx: MetricContext,
                       direction: int = +1, min_hops: int = 2,
                       max_hops: "int | None" = None) -> dict:
    front = batched_wave_front(
        batch, ctx.source, direction=direction, periodic=ctx.periodic,
        max_hops=max_hops,
    )
    slope, _ = fit_front_speed(front, min_hops=min_hops)

    compiled = ctx.compiled
    predicted = silent_speed_for(
        compiled.cfg.pattern, compiled.resolved_protocol,
        compiled.t_exec, compiled.t_comm,
    )
    with np.errstate(invalid="ignore"):
        # NaN where measure_speed raises: too short a front, or a
        # non-positive fitted speed.
        speed = np.where((front.n_hops >= min_hops) & (slope > 0), slope,
                         np.nan)
        rel_err = np.abs(speed - predicted) / predicted
    return {
        "measured_speed": speed,
        "predicted_speed": np.full(batch.n_batch, predicted),
        "relative_error": rel_err,
        "front_hops": front.n_hops.astype(float),
    }


@register_kernel(
    "decay_rate",
    fields=("beta", "slope_beta", "initial_amplitude", "survival_hops"),
    reads=("idle", "completion"),
    params=("direction",),
    needs_delay=True,
    check=_check_decay,
    doc="Idle-wave decay rate β̄ (endpoint and slope estimators).",
)
def _decay_rate_kernel(batch: BatchedTiming, ctx: MetricContext,
                       direction: int = +1) -> dict:
    front = batched_wave_front(
        batch, ctx.source, direction=direction, periodic=ctx.periodic,
    )
    return front_decay(front)


@register_kernel(
    "desync",
    fields=("final_skew", "max_skew", "mean_skew", "desync_onset_step",
            "overlap_efficiency"),
    reads=("exec_end", "completion", "idle"),
    params=("fraction",),
    check=_check_desync,
    doc="Desynchronization indices: skew spread, onset, overlap efficiency.",
)
def _desync_kernel(batch: BatchedTiming, ctx: MetricContext,
                   fraction: float = 0.5) -> dict:
    from repro.analysis.desync import (
        batched_desync_onset,
        batched_overlap_efficiency,
        batched_skew_spread,
    )

    spread = batched_skew_spread(batch)  # [B, S]
    return {
        "final_skew": spread[:, -1],
        "max_skew": spread.max(axis=1),
        "mean_skew": spread.mean(axis=1),
        "desync_onset_step": batched_desync_onset(batch, fraction),
        "overlap_efficiency": batched_overlap_efficiency(batch),
    }


@register_kernel(
    "idle_histogram",
    fields=("n_idle_periods", "mean_idle", "max_idle", "p95_idle"),
    reads=("idle",),
    doc="Idle-period distribution summary per draw.",
)
def _idle_histogram_kernel(batch: BatchedTiming, ctx: MetricContext) -> dict:
    idle = batch.idle
    if idle[0].size == 0:
        zeros = np.zeros(batch.n_batch)
        return {"n_idle_periods": zeros, "mean_idle": zeros.copy(),
                "max_idle": zeros.copy(),
                "p95_idle": np.full(batch.n_batch, np.nan)}
    positive = idle > 0
    counts = positive.sum(axis=(1, 2))
    sums = np.where(positive, idle, 0.0).sum(axis=(1, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_idle = np.where(counts > 0, sums / counts, 0.0)
        # In the ascending sort the strictly-positive cells are the
        # suffix of the finite range: reuse the shared sort, offset past
        # the non-positive prefix.
        sorted_rows, finite = batch.sorted_idle()
        p95 = row_percentile(sorted_rows, counts, 95.0,
                             start=finite - counts)
    return {
        "n_idle_periods": counts.astype(float),
        "mean_idle": mean_idle,
        "max_idle": idle.max(axis=(1, 2)),
        "p95_idle": p95,
    }


@register_kernel(
    "fourier",
    fields=("dominant_mode", "dominant_wavelength", "mode_fraction"),
    reads=("completion",),
    params=("step",),
    check=_check_fourier,
    doc="Spatial Fourier summary of the per-rank skew profile at one step.",
)
def _fourier_kernel(batch: BatchedTiming, ctx: MetricContext,
                    step: int = -1) -> dict:
    from repro.analysis.fourier import batched_skew_power

    power = batched_skew_power(
        batch, step + batch.n_steps if step < 0 else step)  # [B, P//2 + 1]
    if power.shape[1] < 2:
        raise ValueError("spectrum has no nonzero wavenumber (need >= 2 ranks)")
    mode = 1 + np.argmax(power[:, 1:], axis=1)
    rows = np.arange(batch.n_batch)
    total = power[:, 1:].sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        fraction = np.where(total > 0, power[rows, mode] / total, 0.0)
    return {
        "dominant_mode": mode.astype(float),
        "dominant_wavelength": batch.n_ranks / mode,
        "mode_fraction": fraction,
    }
