"""Declarative scenarios: spec → compile → dispatch.

This package turns arbitrary delay/noise experiments into *data*: a
scenario file (TOML/JSON) names a machine, a workload, a communication
pattern, noise and delay-injection models, and the outputs to report —
and the pipeline does the rest:

- :mod:`repro.scenarios.spec` — frozen plain-data spec with strict,
  path-precise validation (:class:`ScenarioSpec` and its sections).
- :mod:`repro.scenarios.compiler` — resolution against the machine
  presets, workload models, and noise/campaign generators, plus engine
  dispatch: the batched hierarchy-aware lockstep engine by default
  (including ``machine.ppn`` placement), the DAG engine as the forced
  independent reference.
- :mod:`repro.scenarios.runner` — deterministic execution and output
  evaluation (:func:`run_scenario`, batched :func:`run_scenario_batch`).
- :mod:`repro.scenarios.sweep` — ``sweep:`` block expansion into
  :class:`repro.runtime.SweepSpec` grids: sharded, cached, bit-identical
  across worker counts.
- :mod:`repro.scenarios.batch` — the campaign-runtime seed-block
  batchers' base and the scenario batcher, which run contiguous
  replicate blocks as single batched-engine invocations.
- :mod:`repro.scenarios.registry` — TOML/JSON file loading and the
  bundled scenario files under ``scenarios/data/`` (the file format is
  :class:`repro.fields.SpecFiles`, shared with the report language).

Typical use::

    from repro.scenarios import load_bundled_scenario, run_scenario

    spec = load_bundled_scenario("fig4_single_delay")
    run = run_scenario(spec)
    print(run.render())
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".batch": ("ScenarioTaskBatcher",),
    ".compiler": ("CompiledScenario", "compile_scenario"),
    ".errors": ("ScenarioError",),
    ".registry": ("BUNDLED_SCENARIO_DIR", "bundled_scenario_names",
                  "load_bundled_scenario", "load_scenario_file",
                  "parse_scenario_text", "resolve_scenario"),
    ".runner": ("ScenarioRun", "run_scenario", "run_scenario_batch"),
    ".spec": ("CampaignSection", "CommSection", "DelayEntry", "MachineSection",
              "NoiseSection", "ScenarioSpec", "SweepAxis", "SweepSection",
              "WorkloadSection", "apply_overrides"),
    ".sweep": ("ScenarioSweepResult", "SweepPointSummary",
               "run_scenario_sweep", "scenario_sweep_spec"),
})
