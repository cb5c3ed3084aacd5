"""Seeded benchmark inputs: the experiment seed and the campaign TOML files.

``--seed`` alone determines every input.  It selects one of
:data:`N_VARIANTS` input variants, each of which has reference outputs
recorded in ``perfbench/reference/``; seeds that are congruent modulo
``N_VARIANTS`` therefore produce byte-identical inputs.  The program
receives only the generated files (and, for ``reproduce``, the
experiment seed), never the benchmark seed itself.

The campaign is the Fig. 7/8 setting: a 60-rank x 70-step periodic
bidirectional eager ring with one 90 ms delay on rank 0, exponential
noise swept over :data:`N_LEVELS` levels x :data:`N_REPLICATES`
replicates, reduced by a report with the ``runtime``, ``wave_speed``,
``decay_rate`` and ``idle_histogram`` kernels.
"""

from __future__ import annotations

import random
from pathlib import Path

__all__ = [
    "N_LEVELS",
    "N_REPLICATES",
    "N_TASKS",
    "N_VARIANTS",
    "REPORT_FILE",
    "SCENARIO_FILE",
    "campaign_params",
    "experiment_seed",
    "render_inputs",
    "variant",
    "write_inputs",
]

N_VARIANTS = 8
N_LEVELS = 4
N_REPLICATES = 128
N_TASKS = N_LEVELS * N_REPLICATES

SCENARIO_FILE = "perfbench_ring.toml"
REPORT_FILE = "perfbench_report.toml"


def variant(seed: int) -> int:
    """The input variant a benchmark seed selects."""
    return seed % N_VARIANTS


def experiment_seed(seed: int) -> int:
    """The ``seed=`` passed to every ``run_experiment`` call."""
    return variant(seed)


def campaign_params(seed: int) -> dict:
    """Noise levels and scenario base seed of the generated campaign."""
    rng = random.Random(variant(seed))
    levels = sorted(rng.sample(range(10, 121), N_LEVELS))
    return {
        "levels": [lvl / 1000 for lvl in levels],
        "scenario_seed": rng.randrange(2**31),
    }


def render_inputs(seed: int) -> "dict[str, str]":
    """File name -> TOML text of the scenario and report for ``seed``."""
    params = campaign_params(seed)
    levels = ", ".join(repr(lvl) for lvl in params["levels"])
    scenario = f"""\
description = "perfbench ring: one 90 ms delay under exponential noise"
n_ranks = 60
n_steps = 70
seed = {params["scenario_seed"]}
outputs = ["runtime"]

[machine]
preset = "simulated"

[workload]
kind = "synthetic"
t_exec = 3e-3

[comm]
direction = "bidirectional"
distance = 1
periodic = true
msg_size = 8192
protocol = "eager"

[noise]
model = "exponential"
level = {params["levels"][0]!r}

[[delays]]
rank = 0
step = 0
duration = 90e-3

[sweep]
replicates = {N_REPLICATES}

[[sweep.axes]]
path = "noise.level"
values = [{levels}]
"""
    report = f"""\
description = "perfbench: wave speed, decay and idle time vs. noise level"
scenario = "{SCENARIO_FILE}"
group_by = ["noise.level"]
aggregate = ["mean", "median", "p95"]

[[metrics]]
name = "runtime"

[[metrics]]
name = "wave_speed"

[[metrics]]
name = "decay_rate"

[[metrics]]
name = "idle_histogram"

[[artifacts]]
kind = "json"
"""
    return {SCENARIO_FILE: scenario, REPORT_FILE: report}


def write_inputs(seed: int, directory: "str | Path") -> Path:
    """Write the generated TOML files into ``directory``; returns it.

    The report names its scenario by a relative path, so the program
    must run with ``directory`` as its working directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in render_inputs(seed).items():
        (directory / name).write_text(text)
    return directory
