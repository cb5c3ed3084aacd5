"""Idle-wave analysis — the paper's primary contribution.

Given a simulated (or, in principle, measured) run of a bulk-synchronous
message-passing program, this package detects idle waves, measures their
propagation speed against the analytic model (Eq. 2), quantifies their
decay under noise (Fig. 8), analyzes wave interaction/cancellation
(Fig. 6), and evaluates when noise eliminates the runtime impact of a delay
entirely (Fig. 9).  Wave detection, speed and decay work on a
:class:`~repro.core.timing.BatchedTiming` of B runs at once; the
single-run functions call them on a one-draw view.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".decay": ("DecayMeasurement", "front_decay", "measure_decay"),
    ".elimination": ("EliminationPoint", "elimination_scan", "excess_runtime",
                     "runtime_spread"),
    ".idle_wave": ("BatchedWaveFront", "WaveFront", "batched_default_threshold",
                   "batched_wave_front", "default_threshold", "wave_front"),
    ".interaction": ("Wave", "find_waves", "meeting_ranks", "resync_step",
                     "superposition_defect"),
    ".speed": ("SpeedMeasurement", "fit_front_speed", "measure_speed",
               "sigma_factor", "silent_speed", "silent_speed_for"),
    ".timing": ("BatchedTiming", "RunTiming"),
})
