"""Declarative task specs: one run, or a whole parameter sweep.

A :class:`RunSpec` is the unit of campaign work: a reference to a
top-level task function (as a ``"module.path:function"`` string, so the
spec pickles cheaply and resolves identically in any worker process),
its keyword parameters, and the task's derived seed.  Specs are frozen,
hashable, and canonically serializable; :func:`spec_key` turns one into
a stable content hash that the on-disk result store uses as its address.

A :class:`SweepSpec` declares a Cartesian grid of parameter values plus
replicate runs and expands into the ordered tuple of concrete
:class:`RunSpec` tasks, each with its own deterministic seed derived
from ``(base_seed, task_index)`` (see :mod:`repro.runtime.seeding`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.runtime.seeding import derive_seed

__all__ = ["RunSpec", "SweepSpec", "canonical", "hashable", "spec_key"]


def canonical(value: Any, path: str = "") -> Any:
    """Normalize a parameter value into a canonical JSON-able form.

    Scalars pass through (numpy scalars are converted to Python ones),
    sequences become lists, mappings become key-sorted dicts.  Anything
    else — live objects, arrays, generators — is rejected: task inputs
    must be plain data so that the content hash is stable across
    processes and sessions.

    ``path`` names the parameter being normalized; rejections anywhere in
    a nested value raise a :class:`TypeError` that spells out the full
    key/index path of the offending entry (e.g. ``config['delays'][2]``),
    not just its type.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                where = f" at {path}" if path else ""
                raise TypeError(
                    f"mapping keys must be str, got {key!r} "
                    f"({type(key).__name__}){where}"
                )
            out[key] = canonical(value[key], f"{path}[{key!r}]" if path else repr(key))
        return out
    if isinstance(value, (list, tuple)):
        return [
            canonical(v, f"{path}[{i}]" if path else f"[{i}]")
            for i, v in enumerate(value)
        ]
    where = f"parameter {path}" if path else "parameter"
    raise TypeError(
        f"{where} of type {type(value).__name__} is not canonicalizable; "
        "pass plain scalars / lists / dicts (e.g. refer to objects by name)"
    )


def hashable(value: Any, memo: "dict | None" = None) -> Any:
    """Canonical plain-data value → an equality-preserving hashable form.

    Task batchers key blocks by (subsets of) ``RunSpec.params``, whose
    values may be nested lists/dicts; this collapses them to nested
    tuples usable as dict keys.  The tag distinguishes mappings from
    sequences so ``{}`` and ``[]`` (equal-looking after conversion) can
    never be conflated.

    ``memo`` (``id -> (value, hashed)``, owned by the caller) converts
    each distinct object once: the tasks of one sweep share their
    canonical base values (:meth:`SweepSpec.tasks`), so a batch plan
    hashes a shared scenario document once, not once per task.
    """
    if memo is not None:
        hit = memo.get(id(value))
        if hit is None:
            # The entry keeps ``value`` alive, so its id is not reused.
            hit = memo[id(value)] = (value, hashable(value))
        return hit[1]
    if isinstance(value, Mapping):
        return ("map", tuple((k, hashable(v)) for k, v in sorted(value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(hashable(v) for v in value))
    return value


def _check_fn(fn: str) -> None:
    if ":" not in fn:
        raise ValueError(
            f"fn must be an import path 'module:function', got {fn!r}"
        )


@dataclass(frozen=True)
class RunSpec:
    """One campaign task: importable function + parameters + seed.

    Parameters
    ----------
    fn:
        Import path ``"package.module:function"`` of a *top-level*
        function.  String form keeps the spec picklable and lets worker
        processes resolve the callable themselves.
    params:
        Keyword arguments, stored as a sorted tuple of ``(name, value)``
        pairs of canonical plain data (see :func:`canonical`).
    seed:
        Derived per-task integer seed, or ``None`` for seedless tasks.
        Passed to the function as a ``seed=`` keyword when not ``None``;
        normalized like a parameter (a NumPy integer becomes an ``int``).
    index:
        Position of this task within its campaign.  Metadata only: it
        determines the seed at sweep-expansion time but does not enter
        the content hash (the seed already does).
    """

    fn: str
    params: tuple = ()
    seed: "int | None" = None
    index: int = 0

    def __post_init__(self) -> None:
        _check_fn(self.fn)
        if isinstance(self.params, Mapping):
            items = self.params.items()
        else:
            items = self.params
        norm = tuple(sorted((str(k), canonical(v, path=str(k))) for k, v in items))
        if self.seed is not None and any(k == "seed" for k, _ in norm):
            raise ValueError(
                "params may not contain 'seed' when the spec has a derived "
                "seed — it would be silently overwritten at call time"
            )
        object.__setattr__(self, "params", norm)
        object.__setattr__(self, "seed", canonical(self.seed, path="seed"))

    @classmethod
    def _canonical(cls, fn: str, params: tuple, seed: "int | None",
                   index: int, key: str) -> "RunSpec":
        """A spec from ``params`` that are already canonical ``(name,
        value)`` pairs sorted by name, and a plain ``int`` (or ``None``)
        seed: what ``__post_init__`` would store, without walking the
        values again, with its :attr:`key` already computed.
        :meth:`SweepSpec.tasks` builds its tasks here.
        """
        spec = object.__new__(cls)
        # ``key`` lands in the instance dict, where the cached property
        # would have put it.
        for name, value in (("fn", fn), ("params", params), ("seed", seed),
                            ("index", index), ("key", key)):
            object.__setattr__(spec, name, value)
        return spec

    @property
    def kwargs(self) -> dict:
        """Parameters as a keyword-argument dict (fresh copy)."""
        return {k: v for k, v in self.params}

    def resolve(self) -> Callable:
        """Import and return the task function."""
        module_name, _, func_name = self.fn.partition(":")
        module = importlib.import_module(module_name)
        try:
            func = getattr(module, func_name)
        except AttributeError as exc:
            raise AttributeError(f"{module_name} has no attribute {func_name!r}") from exc
        if not callable(func):
            raise TypeError(f"{self.fn} is not callable")
        return func

    def call(self) -> Any:
        """Execute the task in the current process."""
        kwargs = self.kwargs
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return self.resolve()(**kwargs)

    @functools.cached_property
    def key(self) -> str:
        """Stable content hash of ``(fn, params, seed)`` — the cache address.

        Computed once per spec: the frozen fields it hashes never change.
        """
        return spec_key(self)

    def describe(self) -> dict:
        """Plain-data description (what the store records next to results)."""
        return {"fn": self.fn, "params": dict(self.params), "seed": self.seed}


def _json(value: Any) -> str:
    """Deterministic JSON text (sorted keys, no spaces, repr-exact floats)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _param_json(name: str, value: Any) -> str:
    """One parameter's ``"name":value`` entry of the hashed payload."""
    return f"{_json(name)}:{_json(value)}"


def _key_payload(fn_json: str, params: "list[str]",
                 seed: "int | None") -> str:
    """The text :func:`spec_key` hashes, spliced from the function
    path's JSON text and each parameter's :func:`_param_json` text in
    name order.

    It is the text ``_json({"fn": fn, "params": {...}, "seed": seed})``
    gives: JSON text composes, so a value serialized on its own reads
    the same inside the document.
    """
    return (f'{{"fn":{fn_json},"params":{{{",".join(params)}}},'
            f'"seed":{_json(seed)}}}')


def _hash(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def spec_key(spec: RunSpec) -> str:
    """SHA-256 content hash of a task spec (hex, truncated to 32 chars).

    Depends only on the function path, canonicalized parameters, and the
    derived seed — not on the task's campaign position, the backend, or
    the process that computes it.  The hashed text is deterministic JSON
    (sorted keys, repr-exact floats) of the fields ``__post_init__``
    already normalized, so nothing is canonicalized twice.
    """
    return _hash(_key_payload(
        _json(spec.fn), [_param_json(k, v) for k, v in spec.params],
        spec.seed))


@dataclass(frozen=True)
class SweepSpec:
    """A Cartesian parameter grid of replicated, seeded campaign tasks.

    Parameters
    ----------
    fn:
        Import path of the task function (see :class:`RunSpec.fn`).
    base:
        Fixed keyword parameters shared by every task.
    axes:
        Ordered ``(name, values)`` pairs; the grid is the Cartesian
        product in declaration order, with the *last* axis varying
        fastest (like nested loops).
    base_seed:
        Campaign seed.  Task ``i`` of the expansion receives the derived
        seed ``derive_seed(base_seed, i)``; set ``seeded=False`` for
        deterministic task functions that take no seed.
    seeded:
        Whether tasks receive a derived ``seed`` parameter.
    """

    fn: str
    base: tuple = ()
    axes: tuple = ()
    base_seed: int = 0
    seeded: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.base, Mapping):
            base_items = tuple(sorted(self.base.items()))
        else:
            base_items = tuple(self.base)
        object.__setattr__(self, "base", base_items)
        axes = []
        for name, values in self.axes:
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            axes.append((str(name), values))
        object.__setattr__(self, "axes", tuple(axes))
        names = [k for k, _ in self.base] + [n for n, _ in self.axes]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate parameter names: {sorted(dupes)}")
        if self.seeded and "seed" in names:
            raise ValueError(
                "'seed' is derived per task in a seeded sweep; pass "
                "seeded=False to control it as an ordinary parameter"
            )

    @property
    def size(self) -> int:
        """Number of tasks the sweep expands to."""
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def tasks(self) -> "tuple[RunSpec, ...]":
        """Expand into concrete, deterministically seeded tasks.

        Equal, task for task, to ``RunSpec(fn, params, seed, index)``
        called with each point's parameters.  Each base and axis value
        is canonicalized, and serialized for the key, once per
        expansion, not once per task: the tasks share those canonical
        objects (task code must not mutate its parameters), and each
        task's key payload is spliced from their JSON texts.
        """
        _check_fn(self.fn)
        fn_json = _json(self.fn)
        # Each entry: a canonical (name, value) pair and its JSON text.
        base = [((name, value), _param_json(name, value)) for name, value
                in ((str(k), canonical(v, path=str(k))) for k, v in self.base)]
        axes = [[((name, value), _param_json(name, value)) for value
                 in (canonical(v, path=name) for v in values)]
                for name, values in self.axes]
        specs = []
        for i, point in enumerate(itertools.product(*axes)):
            entries = sorted([*base, *point], key=lambda e: e[0][0])
            seed = derive_seed(self.base_seed, i) if self.seeded else None
            key = _hash(_key_payload(fn_json, [t for _, t in entries], seed))
            specs.append(RunSpec._canonical(
                self.fn, tuple(p for p, _ in entries), seed, i, key))
        return tuple(specs)
