"""Analysis utilities shared by the experiments: histograms, statistics,
Fourier spectra of desync patterns, and timeline extraction."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".desync": ("desync_onset", "overlap_efficiency", "skew_spread"),
    ".fourier": ("SkewSpectrum", "dominant_wavelength", "skew_profile",
                 "skew_spectrum"),
    ".histogram": ("NoiseHistogram", "collect_noise_samples"),
    ".statistics": ("RunStatistics", "summarize", "sweep_statistics"),
    ".timeline": ("IntervalKind", "TimelineInterval", "full_timeline",
                  "rank_timeline", "snapshot_positions"),
})
