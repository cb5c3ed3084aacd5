"""Deterministic chaos injection for the campaign runtime.

The fault-tolerance machinery (pool respawn, quarantine, torn shard
recovery) is only trustworthy if it is *tested against real faults* —
workers that die mid-task, shard files with garbage tails.  This module
is the testing substrate: a :class:`ChaosSpec` describes fault rates,
and every injection decision is a pure function of the chaos seed and
what it is about (a task key and attempt, or a stored key), so a chaos
run is exactly reproducible — the same tasks fault on the same attempts
regardless of job count or pool scheduling.  That is what lets the
property tests assert that a ``--jobs 2`` sweep under injected worker
deaths produces store records byte-identical to a fault-free serial
run.

Installation is process-global and travels two ways:

- :func:`install` sets the spec in-process (tests, serial runs);
- the :data:`ENV_VAR` environment variable carries a JSON-encoded spec
  into pool worker processes under any start method — workers load it
  lazily on their first injection check (:func:`active`).

Fault kinds (both off by default):

- ``abort_rate`` — kill the hosting process via ``os._exit`` (a hard
  worker death: exercises broken-pool recovery).  Degrades to a raised
  :class:`ChaosError` outside a multiprocessing child, so a serial run
  cannot take down the calling process;
- ``torn_write_rate`` — after a successful packed-shard append, write a
  garbage partial record at the shard tail and retire the writer handle
  (simulating a writer killed mid-append; the committed record stays
  readable and recovery must scan around the torn tail).

An abort's ``attempt`` is the number of workers the task has already
killed, which the executor passes in.  ``max_faults_per_task`` bounds
injection per task: attempts at or above it always run clean, so a
bound below the executor's ``quarantine_after`` heals under respawn.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

__all__ = ["ChaosError", "ChaosSpec", "ENV_VAR", "active", "install",
           "maybe_inject", "maybe_inject_block", "torn_shard_write",
           "uninstall"]

#: Environment variable carrying a JSON-encoded :class:`ChaosSpec` into
#: worker processes (and CLI runs: ``REPRO_CHAOS='{"seed":7,...}'``).
ENV_VAR = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """The injected task failure — unmistakable in tracebacks and logs."""


@dataclass(frozen=True)
class ChaosSpec:
    """Fault rates and the seed that makes their injection deterministic."""

    seed: int = 0
    abort_rate: float = 0.0
    torn_write_rate: float = 0.0
    max_faults_per_task: int = 1

    def __post_init__(self) -> None:
        for name in ("abort_rate", "torn_write_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_faults_per_task < 0:
            raise ValueError("max_faults_per_task must be >= 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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

    def roll(self, kind: str, key: str, attempt: int) -> float:
        """The uniform draw deciding fault ``kind`` for one attempt.

        A pure hash of ``(seed, kind, key, attempt)`` mapped to ``[0, 1)``
        — no RNG state, no process affinity: every process asking about
        the same attempt gets the same answer.  ``key`` is a task key for
        an abort and a stored key for a torn write.
        """
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{key}:{attempt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def aborts(self, task_key: str, attempt: int) -> bool:
        """Whether this attempt of the task kills its worker."""
        return (attempt < self.max_faults_per_task and self.abort_rate > 0
                and self.roll("abort", task_key, attempt) < self.abort_rate)


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


def maybe_inject(task_key: str, attempt: int) -> None:
    """Abort this task attempt if the spec says so (no-op without one).

    Called by the executor immediately before running a task.  An abort
    hard-kills a worker process; in the parent process (serial backend)
    it degrades to a raised :class:`ChaosError` so chaos can never kill
    the campaign driver itself.
    """
    spec = active()
    if spec is None or not spec.aborts(task_key, attempt):
        return
    if _in_worker():
        os._exit(37)
    raise ChaosError(
        f"injected abort (degraded to exception outside a worker) "
        f"for task {task_key} attempt {attempt}")


def maybe_inject_block(task_keys: "list[str]") -> None:
    """Abort a batched block if any member task aborts on attempt 0.

    Batched blocks run through the engine in one call, so per-task
    injection cannot reach inside them; instead the whole block dies,
    which exercises exactly the production path: the pool respawns and
    probes the block's tasks as singletons, where per-task injection
    takes over.  A block only ever runs on its members' first dispatch.
    """
    for key in task_keys:
        maybe_inject(key, 0)


def torn_shard_write(key: str) -> bool:
    """Whether to tear the shard tail after ``key``'s entry committed.

    Decided per ``(seed, key)`` alone, so the same puts tear the same
    entries in every process and every run; the caller performs the
    actual tear.
    """
    spec = active()
    return (spec is not None and spec.torn_write_rate > 0
            and spec.roll("torn", key, 0) < spec.torn_write_rate)
