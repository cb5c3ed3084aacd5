"""Unit tests for RunSpec / SweepSpec and content hashing."""

import pickle

import numpy as np
import pytest

from repro.runtime import RunSpec, SweepSpec, canonical, derive_seed, spec_key


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
        points = sweep.points()
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
