"""Which engine a driver runs on, and how often it converts a run, by count.

eq2 and fig4 are lockstep-shaped and run on the vectorized lockstep
engine, so they never reach the DAG build cache.  ext_collectives needs
the DAG engine for its irregular programs but reads only dense matrices,
so it builds no per-op record.  The analysis functions take a
``RunTiming``; fig5 converts each panel's trace to one exactly once.
"""

import pytest

import repro.sim.engine as engine
from repro.core.timing import RunTiming
from repro.experiments import run_experiment
from repro.sim.engine import clear_dag_cache, dag_cache_info


@pytest.mark.parametrize("name", ["eq2", "fig4"])
def test_lockstep_drivers_never_build_a_dag(name):
    clear_dag_cache()
    run_experiment(name, fast=True)
    info = dag_cache_info()
    assert info["hits"] + info["misses"] == 0, info


def test_ext_collectives_builds_no_op_record(monkeypatch):
    made = []

    class CountedRecord(engine.OpRecord):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "OpRecord", CountedRecord)
    run_experiment("ext_collectives", fast=True)
    assert len(made) == 0


@pytest.fixture
def from_trace_calls(monkeypatch):
    calls = []
    original = RunTiming.from_trace.__func__

    def counted(cls, trace):
        calls.append(trace)
        return original(cls, trace)

    monkeypatch.setattr(RunTiming, "from_trace", classmethod(counted))
    return calls


def test_fig5_converts_each_panel_once(from_trace_calls):
    result = run_experiment("fig5", fast=True)
    assert len(from_trace_calls) == len(result.data) == 8
    assert {id(t) for t in from_trace_calls} == \
        {id(panel["trace"]) for panel in result.data.values()}
