"""Traced-run harness: time each layer from outside, through its public calls.

:class:`Tracer` wraps the public entry points of the simulator, scenario,
report, store and executor layers for the duration of a ``with`` block.
A function is patched wherever a caller bound it -- the defining module,
every ``repro`` module that did ``from ... import name`` (for example
``fig1_stream_scaling.simulate_saturation``) and every function default
argument holding it -- and all of those bindings are restored on exit,
including bindings made by modules imported while tracing.  Methods
(``ResultStore.get``/``put``, ``MetricKernel.compute``) are patched on
their class.  Nothing inside ``src/`` is changed.

Each wrapper times only the outermost call of its layer, so a layer
entry point calling another one of the same layer is not counted twice.
Worker processes of a ``--jobs N`` pool inherit the wrappers but their
counts stay in the worker: the parent sees only what runs in the parent.

:func:`layer_metrics` turns the collected counts into the benchmark's
per-layer metrics (:data:`PER_LAYER`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

__all__ = [
    "EXPERIMENT_IDS",
    "KERNELS",
    "PER_LAYER",
    "Tracer",
    "layer_metrics",
    "wrapped_bindings",
]

#: Registry order of ``repro.experiments.EXPERIMENTS`` (checked by the
#: self-tests); ``reproduce`` runs them sorted, like ``repro all``.
EXPERIMENT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "eq2", "fig8",
    "fig9", "ext_campaign", "ext_collectives", "ext_hybrid", "ext_membound",
)
KERNELS = ("runtime", "wave_speed", "decay_rate", "idle_histogram")

# The (end-to-end metric, workload) pairs each layer metric should move.
_REPRO = (("op_s", "reproduce"),)
_COLD = (("op_s", "campaign_cold"),)
_WARM = (("op_s", "report_warm"),)

#: (name, unit, better, moves) of every per-layer metric, in output
#: order; ``moves`` lists the (end-to-end metric, workload) pairs a
#: change in the layer metric should show up in.
PER_LAYER = (
    ("cli.import_s", "s", "lower", _WARM + _COLD),
    ("cli.import.experiments_s", "s", "lower", _WARM + _COLD),
    ("cli.import.reports_s", "s", "lower", _WARM + _COLD),
    ("cli.import.numpy_s", "s", "lower", _WARM + _COLD),
    *((f"experiments.{eid}_s", "s", "lower", _REPRO)
      for eid in EXPERIMENT_IDS),
    ("saturation.calls", "count", "lower", _REPRO),
    ("saturation.busy_s", "s", "lower", _REPRO),
    ("saturation.phases", "count", "lower", _REPRO),
    ("saturation.phases_per_s", "1/s", "higher", _REPRO),
    ("lockstep.calls", "count", "lower", _REPRO + _COLD),
    ("lockstep.busy_s", "s", "lower", _REPRO + _COLD),
    ("lockstep.cells", "count", "lower", _REPRO + _COLD),
    ("dag.calls", "count", "lower", _REPRO),
    ("dag.busy_s", "s", "lower", _REPRO),
    ("dag.build_s", "s", "lower", _REPRO),
    ("scenarios.compile_s", "s", "lower", _COLD),
    ("scenarios.prepare_s", "s", "lower", _COLD),
    ("reports.compile_s", "s", "lower", _WARM),
    *((f"reports.kernel.{k}_s", "s", "lower", _WARM) for k in KERNELS),
    ("store.puts", "count", "lower", _COLD),
    ("store.put_s", "s", "lower", _COLD),
    ("store.bytes_on_disk", "bytes", "lower", _COLD),
    ("store.gets", "count", "lower", _WARM),
    ("store.get_s", "s", "lower", _WARM),
    ("store.hit_ratio", "ratio", "higher", _WARM),
    ("executor.wall_s", "s", "lower", _COLD),
    ("executor.busy_s", "s", "lower", _COLD),
    ("executor.tasks", "count", "lower", _COLD),
    ("executor.failed", "count", "lower", _COLD),
    ("executor.retried", "count", "lower", _COLD),
    ("executor.overhead_s", "s", "lower", _COLD),
    # The harness's own cost: it moves no end-to-end metric.
    ("trace.overhead", "ratio", "lower", ()),
)

#: Modules imported before patching, so that every binding exists.
_PRELOAD = (
    "repro.cli",
    "repro.experiments",
    "repro.reports.cli",
    "repro.reports.compiler",
    "repro.reports.kernels",
    "repro.reports.runner",
    "repro.reports.tasks",
    "repro.runtime.executor",
    "repro.runtime.store",
    "repro.scenarios.compiler",
    "repro.scenarios.runner",
    "repro.sim.engine",
    "repro.sim.lockstep",
    "repro.sim.saturation",
)


def _saturation_work(args, kwargs, result) -> int:
    cfg = args[0] if args else kwargs["cfg"]
    return int(cfg.n_ranks * cfg.n_steps)


def _lockstep_work(args, kwargs, result) -> int:
    return int(result.completion.size)


def _campaign_work(args, kwargs, result) -> dict:
    busy = sum(r.duration for r in result.results)
    return {
        "tasks": len(result.results),
        "failed": len(result.failures),
        "retried": result.n_retried,
        "task_busy_s": busy,
        "busy_per_job_s": busy / max(result.jobs, 1),
    }


def _store_hit(args, kwargs, result) -> dict:
    return {"hits": int(result is not None)}


#: (layer key, module, attribute, work counter).  A counter returns an
#: int (added to the key's ``work``) or a dict of named extras.
FUNCTIONS = (
    ("saturation", "repro.sim.saturation", "simulate_saturation",
     _saturation_work),
    ("lockstep", "repro.sim.lockstep", "simulate_lockstep", _lockstep_work),
    ("lockstep", "repro.sim.lockstep", "simulate_lockstep_batch",
     _lockstep_work),
    ("dag", "repro.sim.engine", "simulate", None),
    ("dag", "repro.sim.engine", "simulate_dag", None),
    ("dag", "repro.sim.engine", "simulate_dag_batch", None),
    ("dag.build", "repro.sim.engine", "build_dag", None),
    ("scenarios.compile", "repro.scenarios.compiler", "compile_scenario",
     None),
    ("scenarios.prepare", "repro.scenarios.runner", "prepare_scenario_run",
     None),
    ("reports.compile", "repro.reports.compiler", "compile_report", None),
    ("executor", "repro.runtime.executor", "run_campaign", _campaign_work),
)

#: (layer key, module, class, method, work counter); the key
#: ``reports.kernel`` is refined by the kernel's registry name.
METHODS = (
    ("store.get", "repro.runtime.store", "ResultStore", "get", _store_hit),
    ("store.put", "repro.runtime.store", "ResultStore", "put", None),
    ("reports.kernel", "repro.reports.kernels", "MetricKernel", "compute",
     None),
)

_MARK = "__perfbench_original__"


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "repro" or name.startswith("repro."))]


def _functions_of(module) -> list:
    """Plain functions defined at module level or in a module's classes."""
    found = []
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                member = getattr(member, "__func__", member)
                if callable(member) and hasattr(member, "__defaults__"):
                    found.append(member)
        elif callable(value) and hasattr(value, "__defaults__"):
            found.append(value)
    return found


def wrapped_bindings() -> "list[str]":
    """Every ``repro`` binding that still holds a tracer wrapper."""
    left = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                left.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if hasattr(member, _MARK):
                        left.append(f"{module.__name__}.{name}.{attr}")
        for fn in _functions_of(module):
            if any(hasattr(d, _MARK) for d in fn.__defaults__ or ()):
                left.append(f"{fn.__module__}.{fn.__qualname__} (default)")
    return left


class Tracer:
    """Per-layer call counts and busy time, collected while installed.

    ``stats[key]`` holds ``calls``, ``busy_s``, ``work`` and any extras
    a work counter reports.  Use as a context manager; it is not
    re-entrant.
    """

    def __init__(self) -> None:
        self.stats: "dict[str, dict]" = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "work": 0})
        self._depth: "dict[str, int]" = defaultdict(int)
        self._undo: "list[tuple]" = []

    # -- wrapping -----------------------------------------------------

    def _record(self, key: str, elapsed: float, counter, args, kwargs,
                result) -> None:
        entry = self.stats[key]
        entry["calls"] += 1
        entry["busy_s"] += elapsed
        if counter is not None:
            work = counter(args, kwargs, result)
            if isinstance(work, dict):
                for name, value in work.items():
                    entry[name] = entry.get(name, 0) + value
            else:
                entry["work"] += work

    def _timed(self, key: str, fn, counter, keyed_by_self: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = f"{key}.{args[0].name}" if keyed_by_self else key
            if tracer._depth[k]:
                return fn(*args, **kwargs)
            tracer._depth[k] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._depth[k] -= 1
            tracer._record(k, elapsed, counter, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append(("attr", owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_function(self, original, wrapper) -> None:
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
            for fn in _functions_of(module):
                if fn.__defaults__ and any(d is original
                                           for d in fn.__defaults__):
                    self._undo.append(("defaults", fn, fn.__defaults__))
                    fn.__defaults__ = tuple(
                        wrapper if d is original else d
                        for d in fn.__defaults__)

    def __enter__(self) -> "Tracer":
        for name in _PRELOAD:
            importlib.import_module(name)
        try:
            for key, module, attr, counter in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                self._patch_function(original,
                                     self._timed(key, original, counter))
            for key, module, cls_name, attr, counter in METHODS:
                cls = getattr(sys.modules[module], cls_name)
                original = vars(cls)[attr]
                wrapper = self._timed(key, original, counter,
                                      keyed_by_self=key == "reports.kernel")
                self._set(cls, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            entry = self._undo.pop()
            if entry[0] == "attr":
                _, owner, name, value = entry
                setattr(owner, name, value)
            else:
                _, fn, defaults = entry
                fn.__defaults__ = defaults
        # Modules imported while tracing may have bound a wrapper.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if hasattr(value, _MARK):
                    setattr(module, name, getattr(value, _MARK))
            for fn in _functions_of(module):
                if any(hasattr(d, _MARK) for d in fn.__defaults__ or ()):
                    fn.__defaults__ = tuple(getattr(d, _MARK, d)
                                            for d in fn.__defaults__)

    def snapshot(self) -> "dict[str, dict]":
        """Plain-data copy of the collected counts."""
        return {key: dict(entry) for key, entry in self.stats.items()}


def _get(stats: dict, key: str, field: str = "busy_s") -> float:
    return stats.get(key, {}).get(field, 0)


def layer_metrics(
    host: dict,
    worker: dict,
    experiments: "dict[str, float]",
    cli: "dict[str, float]",
    bytes_on_disk: int,
    overhead: float,
) -> "dict[str, float]":
    """The per-layer metrics of one traced run, named as in :data:`PER_LAYER`.

    ``host`` are the counts of the pass whose parent process does the
    campaign bookkeeping (executor, store, reports); ``worker`` those of
    a pass that runs the simulation layers in the traced process itself
    (``--jobs 1``), which may be the same pass.
    """
    sat_busy = _get(worker, "saturation")
    store_put_s = _get(host, "store.put")
    gets = _get(host, "store.get", "calls")
    out = {
        **cli,
        **{f"experiments.{eid}_s": experiments.get(eid, 0.0)
           for eid in EXPERIMENT_IDS},
        "saturation.calls": _get(worker, "saturation", "calls"),
        "saturation.busy_s": sat_busy,
        "saturation.phases": _get(worker, "saturation", "work"),
        "saturation.phases_per_s": (_get(worker, "saturation", "work")
                                    / sat_busy if sat_busy else 0.0),
        "lockstep.calls": _get(worker, "lockstep", "calls"),
        "lockstep.busy_s": _get(worker, "lockstep"),
        "lockstep.cells": _get(worker, "lockstep", "work"),
        "dag.calls": _get(worker, "dag", "calls"),
        "dag.busy_s": _get(worker, "dag"),
        "dag.build_s": _get(worker, "dag.build"),
        "scenarios.compile_s": _get(worker, "scenarios.compile"),
        "scenarios.prepare_s": _get(worker, "scenarios.prepare"),
        "reports.compile_s": _get(host, "reports.compile"),
        **{f"reports.kernel.{k}_s": _get(host, f"reports.kernel.{k}")
           for k in KERNELS},
        "store.puts": _get(host, "store.put", "calls"),
        "store.put_s": store_put_s,
        "store.bytes_on_disk": bytes_on_disk,
        "store.gets": gets,
        "store.get_s": _get(host, "store.get"),
        "store.hit_ratio": (_get(host, "store.get", "hits") / gets
                            if gets else 0.0),
        "executor.wall_s": _get(host, "executor"),
        "executor.busy_s": _get(host, "executor", "task_busy_s"),
        "executor.tasks": _get(host, "executor", "tasks"),
        "executor.failed": _get(host, "executor", "failed"),
        "executor.retried": _get(host, "executor", "retried"),
        "executor.overhead_s": (
            _get(host, "executor") - _get(host, "executor", "busy_per_job_s")
            - store_put_s if _get(host, "executor", "calls") else 0.0),
        "trace.overhead": overhead,
    }
    return {name: out[name] for name, *_ in PER_LAYER}
