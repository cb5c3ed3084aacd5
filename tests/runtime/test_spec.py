"""Unit tests for RunSpec / SweepSpec and content hashing."""

import hashlib
import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.runtime import RunSpec, SweepSpec, canonical, derive_seed, \
    run_campaign, spec_key
from repro.runtime.spec import _json, _key_payload, _param_json


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical(0.25) == 0.25
        assert canonical("x") == "x"
        assert canonical(None) is None
        assert canonical(True) is True

    def test_numpy_scalars_become_python(self):
        assert canonical(np.int64(3)) == 3 and type(canonical(np.int64(3))) is int
        assert canonical(np.float64(0.5)) == 0.5
        assert canonical(np.bool_(True)) is True

    def test_sequences_and_mappings(self):
        assert canonical((1, 2)) == [1, 2]
        assert canonical({"b": 1, "a": (2,)}) == {"a": [2], "b": 1}

    def test_live_objects_rejected(self):
        with pytest.raises(TypeError, match="not canonicalizable"):
            canonical(np.arange(3))
        with pytest.raises(TypeError, match="not canonicalizable"):
            canonical(object())


class TestCanonicalErrorPaths:
    """Rejections must name the offending key/index path, not just the type."""

    def test_nested_mapping_value_names_path(self):
        with pytest.raises(TypeError, match=r"'cfg'\['delays'\]"):
            canonical({"cfg": {"delays": object()}})

    def test_nested_list_element_names_index(self):
        with pytest.raises(TypeError, match=r"params\['xs'\]\[1\]"):
            canonical({"xs": [1, np.arange(2)]}, path="params")

    def test_top_level_path_argument_used(self):
        with pytest.raises(TypeError, match="parameter rate"):
            canonical(object(), path="rate")

    def test_non_str_key_names_parent_path(self):
        with pytest.raises(TypeError, match=r"keys must be str.*'grid'"):
            canonical({"grid": {3: "x"}})

    def test_runspec_param_rejection_names_parameter(self):
        with pytest.raises(TypeError, match=r"table\['rows'\]\[0\]"):
            RunSpec(fn="m:f", params={"table": {"rows": [object()]}})


class TestRunSpec:
    def spec(self, **kw):
        defaults = dict(fn="executor_tasks:rng_probe_task",
                        params={"n": 3}, seed=7)
        defaults.update(kw)
        return RunSpec(**defaults)

    def test_requires_import_path(self):
        with pytest.raises(ValueError, match="module:function"):
            RunSpec(fn="not_a_path")

    def test_params_canonical_order(self):
        a = RunSpec(fn="m:f", params={"a": 1, "b": 2})
        b = RunSpec(fn="m:f", params={"b": 2, "a": 1})
        assert a.params == b.params
        assert spec_key(a) == spec_key(b)

    def test_key_depends_on_fn_params_seed_not_index(self):
        base = self.spec()
        assert spec_key(self.spec(index=5)) == spec_key(base)
        assert spec_key(self.spec(seed=8)) != spec_key(base)
        assert spec_key(self.spec(params={"n": 4})) != spec_key(base)
        assert spec_key(self.spec(fn="executor_tasks:failing_task")) != \
            spec_key(base)

    def test_key_stable_across_processes(self):
        # A literal regression anchor: the hash must never drift, or
        # every existing cache silently invalidates.
        spec = RunSpec(fn="m:f", params={"x": 1, "y": 0.5}, seed=3)
        assert spec.key == spec_key(spec)
        assert len(spec.key) == 32
        assert spec.key == RunSpec(fn="m:f", params={"y": 0.5, "x": 1},
                                   seed=3).key

    def test_picklable_and_hashable(self):
        spec = self.spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(self.spec())

    def test_call_executes_with_seed(self):
        value = self.spec().call()
        assert value["seed"] == 7
        assert len(value["draws"]) == 3

    def test_resolve_unknown_function(self):
        with pytest.raises(AttributeError, match="nope"):
            RunSpec(fn="repro.runtime.tasks:nope").resolve()

    def test_seed_param_collision_rejected(self):
        with pytest.raises(ValueError, match="may not contain 'seed'"):
            RunSpec(fn="m:f", params={"seed": 7}, seed=3)
        # Seedless specs may carry an explicit seed parameter.
        spec = RunSpec(fn="m:f", params={"seed": 7}, seed=None)
        assert spec.kwargs == {"seed": 7}


#: A report task's nested scenario document (the shape
#: ``scenario_timing_task`` specs carry).
_SCENARIO = {
    "n_ranks": 8, "n_steps": 10, "seed": 5,
    "machine": {"preset": "simulated"},
    "workload": {"kind": "synthetic", "t_exec": 3e-3},
    "comm": {"direction": "bidirectional", "distance": 1, "periodic": True},
    "noise": {"model": "exponential", "level": 0.02},
    "delays": [{"rank": 0, "step": 0, "duration": 90e-3}],
}


class TestLiteralKeys:
    """Cache addresses pinned to literal hashes.

    Any change to the hashed payload — its fields, separators, key
    order, or how a value is normalized — moves every address and
    silently turns every existing store cold.  These literals must never
    be edited to make a change pass.
    """

    @pytest.mark.parametrize("spec, key", [
        (RunSpec(fn="repro.reports.tasks:scenario_timing_task",
                 params={"scenario": _SCENARIO,
                         "overrides": {"noise.level": 0.05},
                         "replicate": 3, "engine": "lockstep"},
                 seed=123456789, index=3),
         "839ae8d1652ae01dd7bb65a202ec990a"),
        (RunSpec(fn="repro.runtime.tasks:rng_probe_task",
                 params={"n": 3, "sizes": [1, 2, 3]}, seed=0),
         "d385a3d43fe43ae0ff3144f87165f3e3"),
        (RunSpec(fn="m:f", params={"rate": 0.1}, seed=1),
         "9e12b570c9458dce0980fd3f66dc6d91"),
        (RunSpec(fn="m:f", params={"flag": True}, seed=2),
         "4cadbb0097be4a662d451fc685513d50"),
        (RunSpec(fn="m:f", params={"x": 1}),
         "2910d295e5097f7abb897a1a903096d1"),
        (RunSpec(fn="m:f", params={"x": 1}, seed=7),
         "79568d723f18e6155a0f9eb88d75cae1"),
        (RunSpec(fn="m:f", params={"x": 1}, seed=np.int64(7)),
         "79568d723f18e6155a0f9eb88d75cae1"),
    ], ids=["report-task", "list", "float", "bool", "none-seed", "int-seed",
            "numpy-seed"])
    def test_key_is_pinned(self, spec, key):
        assert spec_key(spec) == key
        assert spec.key == key


#: Plain JSON data: what a canonical parameter value can be.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)


def _dumped(fn, params, seed) -> str:
    """The hashed document, serialized whole."""
    return json.dumps({"fn": fn, "params": dict(params), "seed": seed},
                      sort_keys=True, separators=(",", ":"))


class TestSplicedKeys:
    """Key payloads are spliced from values serialized one at a time; the
    splice must be the whole document's ``json.dumps``, byte for byte."""

    @settings(max_examples=200)
    @given(fn=st.text(min_size=1, max_size=12),
           params=st.dictionaries(st.text(max_size=6), _JSON_VALUES,
                                  max_size=5),
           seed=st.none() | st.integers())
    def test_spliced_payload_is_the_dumped_document(self, fn, params, seed):
        pairs = sorted((k, canonical(v)) for k, v in params.items())
        spliced = _key_payload(
            _json(fn), [_param_json(k, v) for k, v in pairs], seed)
        assert spliced == _dumped(fn, pairs, seed)

    @settings(max_examples=60)
    @given(base=st.dictionaries(st.text(min_size=1, max_size=6),
                                _JSON_VALUES, max_size=4),
           axis=st.lists(_JSON_VALUES, min_size=1, max_size=3),
           base_seed=st.integers(0, 2**32), seeded=st.booleans())
    def test_sweep_task_keys_hash_the_dumped_document(self, base, axis,
                                                      base_seed, seeded):
        assume("ax" not in base and not (seeded and "seed" in base))
        sweep = SweepSpec(fn="m:f", base=base, axes=(("ax", tuple(axis)),),
                          base_seed=base_seed, seeded=seeded)
        for task in sweep.tasks():
            payload = _dumped(task.fn, task.params, task.seed)
            assert task.key == \
                hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
            assert task.key == spec_key(task)


class TestSweepSpec:
    def sweep(self, **kw):
        defaults = dict(
            fn="executor_tasks:rng_probe_task",
            base={"n": 2},
            axes=(("replicate", (0, 1, 2)),),
            base_seed=5,
        )
        defaults.update(kw)
        return SweepSpec(**defaults)

    def test_size_and_grid_order(self):
        sweep = self.sweep(axes=(("a", (1, 2)), ("b", ("x", "y", "z"))))
        assert sweep.size == 6
        points = [{k: t.kwargs[k] for k in "ab"} for t in sweep.tasks()]
        assert points[0] == {"a": 1, "b": "x"}
        assert points[1] == {"a": 1, "b": "y"}  # last axis fastest
        assert points[-1] == {"a": 2, "b": "z"}

    def test_tasks_carry_base_and_axis_params(self):
        tasks = self.sweep().tasks()
        assert len(tasks) == 3
        for i, task in enumerate(tasks):
            assert task.index == i
            assert task.kwargs == {"n": 2, "replicate": i}

    def test_per_task_seeds_derived_and_distinct(self):
        tasks = self.sweep().tasks()
        assert [t.seed for t in tasks] == [derive_seed(5, i) for i in range(3)]
        assert len({t.seed for t in tasks}) == 3

    def test_unseeded_sweep(self):
        tasks = self.sweep(seeded=False).tasks()
        assert all(t.seed is None for t in tasks)

    def test_base_seed_changes_every_key(self):
        a = {t.key for t in self.sweep(base_seed=1).tasks()}
        b = {t.key for t in self.sweep(base_seed=2).tasks()}
        assert not a & b

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.sweep(base={"replicate": 0})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            self.sweep(axes=(("replicate", ()),))

    def test_seed_parameter_in_seeded_sweep_rejected(self):
        with pytest.raises(ValueError, match="derived per task"):
            self.sweep(base={"seed": 1})
        # With seeded=False, 'seed' is an ordinary (even sweepable) param.
        tasks = self.sweep(seeded=False, base={},
                           axes=(("seed", (1, 2)),)).tasks()
        assert [t.kwargs["seed"] for t in tasks] == [1, 2]


def grid_points(sweep: SweepSpec) -> "list[dict]":
    """The sweep's grid points (axis-value dicts), last axis fastest."""
    names = [name for name, _ in sweep.axes]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(v for _, v in sweep.axes))]


class TestSweepExpansion:
    """``SweepSpec.tasks`` canonicalizes each base value once per
    expansion; its tasks must be exactly the specs built one by one."""

    def test_tasks_equal_runspecs_built_one_by_one(self, shipped_sweeps):
        assert any(sweep.size == 512 for _, sweep in shipped_sweeps)
        for label, sweep in shipped_sweeps:
            tasks = sweep.tasks()
            assert len(tasks) == sweep.size, label
            for i, (task, point) in enumerate(zip(tasks, grid_points(sweep))):
                seed = derive_seed(sweep.base_seed, i) if sweep.seeded \
                    else None
                one = RunSpec(sweep.fn, {**dict(sweep.base), **point},
                              seed, i)
                assert task == one, label
                assert task.params == one.params, label
                assert task.key == one.key, label
                assert task.describe() == one.describe(), label

    @pytest.mark.parametrize("batch", [True, False],
                             ids=["batched", "unbatched"])
    def test_serial_campaign_leaves_shared_params_untouched(self, batch):
        """The tasks of one sweep share their canonical base objects, so
        a task that mutated its parameters would leak into the next
        task."""
        from repro.reports.compiler import compile_report
        from repro.reports.registry import load_bundled_report
        from repro.reports.tasks import ReportTaskBatcher
        from repro.scenarios.batch import ScenarioTaskBatcher
        from repro.scenarios.registry import load_bundled_scenario
        from repro.scenarios.sweep import scenario_sweep_spec

        report = compile_report(load_bundled_report("campaign_rate_response"))
        sweeps = [
            (scenario_sweep_spec(load_bundled_scenario("campaign_rate_sweep")),
             ScenarioTaskBatcher()),
            (report.targets[0].sweep, ReportTaskBatcher()),
        ]
        for sweep, batcher in sweeps:
            tasks = sweep.tasks()
            assert tasks[0].kwargs["scenario"] is tasks[-1].kwargs["scenario"]
            run_campaign(tasks, jobs=1,
                         batcher=batcher if batch else None).raise_failures()
            assert [t.params for t in tasks] == \
                [t.params for t in sweep.tasks()]

    @pytest.mark.parametrize("where", ["base", "axis"])
    def test_uncanonicalizable_value_raises_the_same_error(self, where):
        bad = {"table": {"rows": [object()]}}
        if where == "base":
            sweep = SweepSpec(fn="m:f", base=bad, axes=(("r", (0, 1)),))
        else:
            sweep = SweepSpec(fn="m:f", axes=(("table", (bad["table"],)),))
        with pytest.raises(TypeError) as expanded:
            sweep.tasks()
        with pytest.raises(TypeError) as single:
            RunSpec("m:f", {**dict(sweep.base), **grid_points(sweep)[0]},
                    derive_seed(0, 0), 0)
        assert str(expanded.value) == str(single.value)
        assert "table['rows'][0]" in str(expanded.value)

    def test_invalid_fn_still_rejected(self):
        with pytest.raises(ValueError, match="import path"):
            SweepSpec(fn="no_colon", axes=(("r", (0,)),)).tasks()


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(3, 11) == derive_seed(3, 11)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(0, i) for i in range(200)}
        assert len(seeds) == 200
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)
