"""EWMA trend analysis over the performance history.

For every ``(label, metric)`` series the latest observation is compared
against an exponentially weighted moving average of the *prior* ones —
the smoothed expectation given history — and flagged when it moved past
the threshold in the metric's bad direction.  EWMA rather than
last-vs-previous makes the gate robust to one noisy entry: a single
slow CI machine shifts the average by ``alpha``, not to itself.

Direction rules are purely name-based (the history is schema-free):

- ``*_s``, ``*_bytes``, ``phase.*``, ``n_failed`` —
  lower is better (time, memory, trouble);
- ``speedup``, ``*_speedup``, ``tasks_per_s`` — higher is better;
- anything else (hit rates, counts, sizes) is informational — workload
  shape, not performance health, so it is never failed on.

With a single prior record the EWMA is that record, so a label with one
committed floor (the benchmark gate's ``speedup`` floors) fails exactly
when its latest value is more than the threshold below the floor.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["analyze_history", "metric_direction"]

#: EWMA smoothing over prior observations (oldest first): the last few
#: entries dominate, ancient history decays away.
_EWMA_ALPHA = 0.3

#: Series whose values never exceed this are ignored entirely: at
#: sub-millisecond scale the signal is scheduler noise, and a 10x blip
#: on 0.0001s is not a regression worth failing CI over.
_MIN_SCALE = 1e-3


def metric_direction(name: str) -> "str | None":
    """``"lower"`` / ``"higher"`` is better, or ``None`` (informational)."""
    if name == "tasks_per_s":
        return "higher"
    if name == "speedup" or name.endswith("_speedup"):
        return "higher"
    if (name.endswith("_s") or name.endswith("_bytes")
            or name.startswith("phase.")
            or name == "n_failed"):
        return "lower"
    return None


def _ewma(values: "Sequence[float]") -> float:
    acc = float(values[0])
    for value in values[1:]:
        acc = _EWMA_ALPHA * float(value) + (1.0 - _EWMA_ALPHA) * acc
    return acc


def analyze_history(by_label: "Mapping[str, Sequence[Mapping]]",
                    threshold: float = 0.30) -> "list[dict]":
    """Compare each series' latest entry against the EWMA of its priors.

    ``by_label`` maps each label to its records, oldest first.  Returns
    one finding dict per directional metric that has at least two
    observations::

        {"label": ..., "metric": ..., "direction": "lower",
         "latest": 2.1, "ewma": 1.0, "ratio": 2.1,
         "status": "regression" | "improvement" | "ok"}

    ``ratio`` is always latest/ewma; ``status`` applies ``threshold`` in
    the metric's bad (regression) or good (improvement) direction.
    Labels with a single record yield nothing — there is no history to
    drift from yet.
    """
    if not 0.0 < threshold < 10.0:
        raise ValueError(f"threshold must be in (0, 10), got {threshold}")
    findings: "list[dict]" = []
    for label, records in by_label.items():
        if len(records) < 2:
            continue
        *prior, latest = records
        latest_metrics = latest.get("metrics", {})
        for metric in sorted(latest_metrics):
            direction = metric_direction(metric)
            if direction is None:
                continue
            history = [r["metrics"][metric] for r in prior
                       if metric in r.get("metrics", {})]
            if not history:
                continue
            ewma = _ewma(history)
            value = float(latest_metrics[metric])
            if max(abs(ewma), abs(value)) < _MIN_SCALE:
                continue
            if ewma <= 0:
                # A zero baseline (e.g. n_failed) has no meaningful
                # ratio; any positive latest value is the regression.
                ratio = float("inf") if value > 0 else 1.0
            else:
                ratio = value / ewma
            if direction == "lower":
                if ratio > 1.0 + threshold:
                    status = "regression"
                elif ratio < 1.0 - threshold:
                    status = "improvement"
                else:
                    status = "ok"
            else:
                if ratio < 1.0 - threshold:
                    status = "regression"
                elif ratio > 1.0 + threshold:
                    status = "improvement"
                else:
                    status = "ok"
            findings.append({
                "label": label, "metric": metric, "direction": direction,
                "latest": value, "ewma": ewma, "ratio": ratio,
                "status": status, "n_history": len(history),
            })
    return findings
