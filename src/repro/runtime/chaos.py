"""Deterministic worker deaths for the campaign runtime.

A dead worker ends a pooled campaign, and a rerun on the same store
computes only the tasks it lacks (:mod:`repro.runtime.executor`).  That
path runs only when a worker really dies, so this module kills workers
on purpose: a :class:`ChaosSpec` gives an abort rate, and whether a task
aborts is a pure function of the chaos seed and the task key.  A chaos
run is therefore exactly reproducible — the same tasks abort regardless
of job count or pool scheduling — which lets the tests assert that a
``--jobs 2`` sweep killed by injected deaths, then rerun without chaos
on its store, holds records byte-identical to a fault-free serial run.

Installation is process-global and travels two ways:

- :func:`install` sets the spec in-process (tests, serial runs);
- the :data:`ENV_VAR` environment variable carries a JSON-encoded spec
  into pool worker processes under any start method — workers load it
  lazily on their first injection check (:func:`active`).

An abort kills the hosting process via ``os._exit``.  Outside a
multiprocessing child it degrades to a raised :class:`ChaosError`, so a
serial run cannot take down the calling process.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterable

__all__ = ["ChaosError", "ChaosSpec", "ENV_VAR", "active", "install",
           "maybe_inject", "uninstall"]

#: Environment variable carrying a JSON-encoded :class:`ChaosSpec` into
#: worker processes (and CLI runs: ``REPRO_CHAOS='{"seed":7,...}'``).
ENV_VAR = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """The injected task failure — unmistakable in tracebacks and logs."""


@dataclass(frozen=True)
class ChaosSpec:
    """The abort rate and the seed that makes its injection deterministic."""

    seed: int = 0
    abort_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.abort_rate <= 1.0:
            raise ValueError(
                f"abort_rate must be in [0, 1], got {self.abort_rate}")

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"chaos spec must be a JSON object, got: {text!r}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown chaos spec fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        return cls(**data)

    def roll(self, task_key: str) -> float:
        """The uniform draw deciding whether the task aborts.

        A pure hash of ``(seed, task_key)`` mapped to ``[0, 1)`` — no RNG
        state, no process affinity: every process asking about the same
        task gets the same answer.
        """
        digest = hashlib.sha256(f"{self.seed}:{task_key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def aborts(self, task_key: str) -> bool:
        """Whether the task kills its worker."""
        return self.abort_rate > 0 and self.roll(task_key) < self.abort_rate


# Process-global installation.  ``_env_checked`` makes the common no-op
# path (no chaos anywhere) a single attribute test after the first call.
_spec: "ChaosSpec | None" = None
_env_checked = False


def install(spec: "ChaosSpec | None") -> None:
    """Install (or clear, with ``None``) the in-process chaos spec."""
    global _spec, _env_checked
    _spec = spec
    _env_checked = True


def uninstall() -> None:
    """Remove any installed spec and forget the env lookup."""
    global _spec, _env_checked
    _spec = None
    _env_checked = False


def active() -> "ChaosSpec | None":
    """The effective spec: installed one, else lazily loaded from env."""
    global _spec, _env_checked
    if not _env_checked:
        _env_checked = True
        text = os.environ.get(ENV_VAR)
        if text:
            _spec = ChaosSpec.from_json(text)
    return _spec


def _in_worker() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


def maybe_inject(task_keys: "Iterable[str]") -> None:
    """Abort a task or batched block if any of its tasks aborts.

    Called by the executor immediately before running a task or a
    block (no-op without a spec).  An abort hard-kills a worker
    process; in the parent process (serial backend) it degrades to a
    raised :class:`ChaosError` so chaos can never kill the campaign
    driver itself.
    """
    spec = active()
    if spec is None:
        return
    for key in task_keys:
        if spec.aborts(key):
            if _in_worker():
                os._exit(37)
            raise ChaosError(
                f"injected abort (degraded to exception outside a worker) "
                f"for task {key}")
