"""Declarative report pipeline: store-backed metric extraction + artifacts.

The scenario subsystem made *running* an experiment a data problem
(PR 2); the campaign runtime made it shardable and cacheable (PR 1); the
batched engine made replicate blocks one vectorized call (PR 3).  This
package closes the loop from "run a sweep" to "publishable numbers":

- :mod:`repro.reports.spec` — frozen plain-data :class:`ReportSpec`,
  TOML/JSON-loadable, naming scenarios, metrics, grouping, and artifacts;
- :mod:`repro.reports.kernels` — a registry of **metric kernels** (wave
  speed via the Eq. 2 fit, decay rate β̄, desync indices, idle-histogram
  and Fourier summaries): thin adapters over the batched analyses of
  :mod:`repro.core` and :mod:`repro.analysis`, operating on ``(B, P, S)``
  timing stacks with no per-draw Python loop;
- :mod:`repro.reports.query` — the store query layer: reports over an
  already-run sweep load every run by content hash and touch the engine
  **zero** times; misses fall back to the campaign runtime;
- :mod:`repro.reports.runner` / :mod:`~repro.reports.artifacts` — group,
  aggregate, render, and write CSV/JSON/NPZ/ascii artifacts;
- :mod:`repro.reports.registry` — TOML/JSON file loading and the bundled
  report specs under ``reports/data/`` (including the Fig. 7 speed and
  Fig. 8 decay-rate reproductions and a cross-scenario comparison).

Typical use::

    from repro.reports import compile_report, load_bundled_report, run_report
    from repro.runtime import ResultStore

    report = compile_report(load_bundled_report("campaign_rate_response"))
    result = run_report(report, store=ResultStore("~/.cache/repro"))
    print(result.render())
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".artifacts": ("write_artifacts",),
    ".compiler": ("CompiledReport", "ReportTarget", "ResolvedMetric",
                  "compile_report"),
    ".errors": ("ReportError",),
    ".kernels": ("MetricContext", "MetricKernel", "get_kernel",
                 "kernel_names", "register_kernel"),
    ".registry": ("bundled_report_names", "iter_bundled_reports",
                  "load_bundled_report", "load_report_file",
                  "parse_report_text", "resolve_report"),
    ".runner": ("ReportResult", "ReportRow", "run_report"),
    ".spec": ("ArtifactRequest", "MetricRequest", "ReportSpec"),
})
