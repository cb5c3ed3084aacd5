"""Deterministic per-task seed derivation for campaign runs.

Campaigns fan out across processes, so per-run randomness must be fixed
by the *task description* alone — never by execution order, backend, or
worker identity.  Each task's stream is derived from ``(base_seed,
task_index)`` through :class:`numpy.random.SeedSequence`'s ``spawn_key``
mechanism, which guarantees streams that are both reproducible and
statistically independent (the same hashing construction used by
``SeedSequence.spawn``).

The derived value is collapsed to a single 64-bit integer seed so that a
task spec stays a plain, picklable, JSON-able record: the task function
re-expands it with :func:`numpy.random.default_rng`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "seed_sequence"]


def seed_sequence(base_seed: int, task_index: int) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` for one task of a campaign."""
    if task_index < 0:
        raise ValueError(f"task_index must be >= 0, got {task_index}")
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(task_index),))


def derive_seed(base_seed: int, task_index: int) -> int:
    """Collapse a task's seed sequence to one 64-bit integer seed.

    Deterministic in ``(base_seed, task_index)`` and distinct across
    task indices (collisions are as unlikely as 64-bit hash collisions).
    """
    return int(seed_sequence(base_seed, task_index).generate_state(1, np.uint64)[0])
