"""Campaign tasks that exercise the executor rather than the simulator.

A task is named by ``"module:function"`` path.  This directory is on
``sys.path`` while the suite runs, and pool workers inherit it, so a spec
names these as ``"executor_tasks:<function>"``.
"""

from __future__ import annotations

import os
import time

import numpy as np


def rng_probe_task(n: int = 4, replicate: int = 0, seed: int = 0) -> dict:
    """Return the first ``n`` uniform draws of the task's seed stream.

    A pure diagnostic: campaigns over this task expose exactly which
    random stream each task received, which the tests use to prove that
    per-task streams are deterministic and pairwise distinct.
    """
    rng = np.random.default_rng(seed)
    return {"seed": int(seed), "draws": [float(x) for x in rng.random(int(n))]}


def failing_task(message: str = "synthetic task failure", replicate: int = 0,
                 seed: int = 0) -> dict:
    """Raise — the stock task for exercising campaign failure isolation."""
    raise RuntimeError(f"{message} (seed={seed})")


def sleeping_task(duration_s: float = 0.1, replicate: int = 0,
                  seed: int = 0) -> dict:
    """Sleep for ``duration_s`` wall-clock seconds, then return it.

    The stock slow-but-healthy task: the watchdog tests mix one long
    sleeper into a pool of fast tasks to provoke a ``task.stall``
    warning without faking clocks or killing workers.
    """
    time.sleep(float(duration_s))
    return {"slept_s": float(duration_s), "replicate": int(replicate),
            "seed": int(seed)}


def hard_exit_task(code: int = 1, replicate: int = 0, seed: int = 0) -> dict:
    """Kill the hosting process outright (``os._exit`` — no cleanup).

    Simulates a worker dying mid-task (segfault, OOM kill) to exercise
    the executor's broken-pool handling.  Never run this serially: in
    the serial backend the hosting process is *your* process.
    """
    os._exit(int(code))
