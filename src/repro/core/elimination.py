"""Idle-period elimination by noise (Sec. V-B, Fig. 9).

The practical punchline of the paper: on a sufficiently noisy system, the
*excess* runtime caused by a strong injected delay becomes unobservable —
the noise absorbs the idle wave.  The metric is

``excess(E) = runtime(delay, E) - runtime(no delay, E)``

evaluated with identical noise realizations (same seed), so the difference
isolates the delay's contribution.  At ``E = 0`` the excess equals the
injected delay; past the elimination threshold it drops to ~0 even though
the total runtime keeps growing with ``E``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.timing import RunTiming
from repro.sim.lockstep import simulate_lockstep
from repro.sim.program import LockstepConfig

__all__ = ["EliminationPoint", "excess_runtime", "elimination_scan", "runtime_spread"]


@dataclass(frozen=True)
class EliminationPoint:
    """Result of one noise level in an elimination scan."""

    E: float
    runtime_with_delay: float
    runtime_without_delay: float

    @property
    def excess(self) -> float:
        """Extra wall-clock seconds attributable to the injected delay."""
        return self.runtime_with_delay - self.runtime_without_delay

    def excess_fraction(self, delay: float) -> float:
        """Excess as a fraction of the injected delay (1 → fully visible)."""
        if delay <= 0:
            raise ValueError(f"delay must be > 0, got {delay}")
        return self.excess / delay


def excess_runtime(run_with: RunTiming, run_without: RunTiming) -> float:
    """Excess wall-clock runtime of a delayed run over its undelayed twin."""
    return run_with.total_runtime() - run_without.total_runtime()


def elimination_scan(
    base_cfg: LockstepConfig,
    noise_levels: "list[float] | np.ndarray",
    simulate=simulate_lockstep,
) -> list[EliminationPoint]:
    """Scan noise levels and measure the delay's runtime visibility.

    For every ``E`` in ``noise_levels`` two runs are performed with the
    *same* seed and the paper's exponential noise (Eq. 3): one with
    ``base_cfg``'s delays, one with the delays stripped.  The returned
    points expose the excess runtime — Fig. 9's orange bar.

    Parameters
    ----------
    base_cfg:
        Configuration including the injected delay(s).
    noise_levels:
        Values of ``E`` (mean relative delay per execution phase).
    simulate:
        ``LockstepConfig -> RunTiming`` entry point.  No caller passes
        it; it stays a default argument because perfbench's tracer test
        checks that tracing rebinds a function default.
    """
    if not base_cfg.delays:
        raise ValueError("base_cfg must include at least one injected delay")
    from repro.sim.noise import exponential_for_level

    points: list[EliminationPoint] = []
    for E in noise_levels:
        noise = exponential_for_level(float(E), base_cfg.t_exec)
        cfg_delay = replace(base_cfg, noise=noise)
        cfg_clean = replace(base_cfg, noise=noise, delays=())
        points.append(
            EliminationPoint(
                E=float(E),
                runtime_with_delay=simulate(cfg_delay).total_runtime(),
                runtime_without_delay=simulate(cfg_clean).total_runtime(),
            )
        )
    return points


def runtime_spread(
    base_cfg: LockstepConfig,
    E: float,
    n_runs: int = 8,
    seed0: int = 100,
) -> float:
    """Run-to-run standard deviation of the *undelayed* total runtime.

    The paper judges elimination from single runs, so an excess below the
    run-to-run spread is unobservable ("we observe no excess runtime").
    This measures that spread at noise level ``E`` of the paper's
    exponential noise over ``n_runs`` independent seeds.
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    from repro.sim.noise import exponential_for_level

    noise = exponential_for_level(float(E), base_cfg.t_exec)
    runtimes = []
    for r in range(n_runs):
        cfg = replace(base_cfg, noise=noise, delays=(), seed=seed0 + r)
        runtimes.append(simulate_lockstep(cfg).total_runtime())
    return float(np.std(runtimes, ddof=1))
