"""Shared fixtures and Hypothesis profiles for the repro test suite."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Deterministic property testing: the "ci" profile derandomizes Hypothesis
# (fixed example generation, no flaky shrink paths) so CI runs — and the
# coverage gate that rides on them — are reproducible.  Select it with
# HYPOTHESIS_PROFILE=ci; the default "dev" profile keeps randomized
# exploration for local runs.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

import repro
from repro.runtime.shards import _HEADER, SHARD_DIR, PackedShards
from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    LockstepConfig,
    SimConfig,
    UniformNetwork,
    build_lockstep_program,
    simulate,
    simulate_lockstep,
)

T_EXEC = 3e-3


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_cfg(
    n_ranks=12,
    n_steps=15,
    t_exec=T_EXEC,
    msg_size=8192,
    direction=Direction.UNIDIRECTIONAL,
    distance=1,
    periodic=False,
    delays=(),
    noise=None,
    seed=0,
):
    """Concise LockstepConfig factory used across the suite."""
    kwargs = dict(
        n_ranks=n_ranks,
        n_steps=n_steps,
        t_exec=t_exec,
        msg_size=msg_size,
        pattern=CommPattern(direction=direction, distance=distance, periodic=periodic),
        delays=tuple(delays),
        seed=seed,
    )
    if noise is not None:
        kwargs["noise"] = noise
    return LockstepConfig(**kwargs)


def delayed_cfg(**kw):
    """Config with the canonical mid-chain delay (5 phases at the middle rank)."""
    n_ranks = kw.pop("n_ranks", 12)
    t_exec = kw.pop("t_exec", T_EXEC)
    source = kw.pop("source", n_ranks // 2)
    phases = kw.pop("phases", 5.0)
    return make_cfg(
        n_ranks=n_ranks,
        t_exec=t_exec,
        delays=(DelaySpec(rank=source, step=0, duration=phases * t_exec),),
        **kw,
    )


def _store_record_bytes(root) -> "dict[str, bytes]":
    """Each stored key's exact shard-entry bytes (header, JSON record and
    array segment), found through the shard index.

    Asserts the store holds at least one record, so a byte-identity
    check built on it can never pass by comparing two empty maps.
    """
    shards = PackedShards(Path(root) / SHARD_DIR)
    records = {}
    for key in shards.keys():
        entry = shards.lookup(key)
        with open(shards.root / entry.shard, "rb") as fh:
            fh.seek(entry.offset)
            records[key] = fh.read(entry.end - entry.offset)
    assert records, f"no store records under {root}"
    return records


def _shard_record(root, key) -> dict:
    """The JSON record (value, array descriptors, spec) of ``key``'s entry."""
    raw = _store_record_bytes(root)[key]
    json_len = _HEADER.unpack_from(raw)[2]
    return json.loads(raw[_HEADER.size:_HEADER.size + json_len])


def _interrupt_store(root, n_keep: int) -> None:
    """Leave a single-writer store as a campaign killed after its first
    ``n_keep`` appends would: the shard is cut at that entry boundary and
    its sidecar index keeps only the lines of the surviving entries."""
    shards = PackedShards(Path(root) / SHARD_DIR)
    (path,) = shards.shard_paths()
    entries = list(shards.scan_shard(path))
    assert 0 <= n_keep < len(entries), (n_keep, len(entries))
    with open(path, "r+b") as fh:
        fh.truncate(entries[n_keep].offset)
    idx = path.with_name(path.name + ".idx")
    lines = idx.read_text().splitlines(keepends=True)
    idx.write_text("".join(lines[:n_keep]))


def _write_legacy_record(root, key, value=None, arrays=None) -> Path:
    """Write ``key`` the way the retired per-file layout did — a
    ``<key[:2]>/<key>.json`` record plus an ``.npz`` side-car for array
    fields — and return the record's path."""
    arrays = arrays or {}
    path = Path(root) / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if arrays:
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
    path.write_text(json.dumps(
        {"version": 1, "key": key, "value": value or {},
         "__arrays__": sorted(arrays)}, indent=1))
    return path


@pytest.fixture
def legacy_record():
    """``legacy_record(root, key, value, arrays)`` -> a per-file record."""
    return _write_legacy_record


@pytest.fixture
def store_record_bytes():
    """``store_record_bytes(root)`` -> ``{key: exact entry bytes}``, non-empty."""
    return _store_record_bytes


@pytest.fixture
def shard_record():
    """``shard_record(root, key)`` -> the key's JSON record from its shard."""
    return _shard_record


@pytest.fixture
def interrupt_store():
    """``interrupt_store(root, n_keep)``: keep only the first appends."""
    return _interrupt_store


#: A ring shaped like the benchmark's Fig. 7/8 campaign: 4 noise levels
#: x 128 replicates of a 60-rank x 70-step periodic ring.
BENCH_RING = """\
n_ranks = 60
n_steps = 70
seed = 11
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
level = 0.01

[[delays]]
rank = 0
step = 0
duration = 90e-3

[sweep]
replicates = 128

[[sweep.axes]]
path = "noise.level"
values = [0.01, 0.04, 0.08, 0.12]
"""


@pytest.fixture
def shipped_sweeps(tmp_path) -> "list[tuple[str, object]]":
    """``(label, SweepSpec)`` of every bundled scenario's sweep, every
    bundled report's target sweeps, and a report over
    :data:`BENCH_RING`."""
    from repro.reports.compiler import compile_report
    from repro.reports.registry import bundled_report_names, \
        load_bundled_report, parse_report_text
    from repro.scenarios.registry import bundled_scenario_names, \
        load_bundled_scenario
    from repro.scenarios.sweep import scenario_sweep_spec

    ring = tmp_path / "bench_ring.toml"
    ring.write_text(BENCH_RING)
    bench = parse_report_text(
        f'scenario = "{ring}"\n[[metrics]]\nname = "runtime"\n',
        name="bench_ring")
    scenarios = [load_bundled_scenario(n) for n in bundled_scenario_names()]
    sweeps = [(f"scenario {spec.name}", scenario_sweep_spec(spec))
              for spec in scenarios]
    reports = [load_bundled_report(n) for n in bundled_report_names()]
    for report in [*reports, bench]:
        for target in compile_report(report).targets:
            sweeps.append((f"report {report.name} / {target.scenario.name}",
                           target.sweep))
    return sweeps


def run_both_engines(cfg, network=None, protocol=repro.Protocol.AUTO, eager_limit=None):
    """Run the DAG and lockstep engines on identical inputs."""
    from repro.sim.mpi import DEFAULT_EAGER_LIMIT

    net = network or UniformNetwork()
    limit = DEFAULT_EAGER_LIMIT if eager_limit is None else eager_limit
    exec_times = repro.build_exec_times(cfg)
    trace = simulate(
        build_lockstep_program(cfg, exec_times),
        SimConfig(network=net, protocol=protocol, eager_limit=limit),
    )
    result = simulate_lockstep(
        cfg, exec_times=exec_times, network=net, protocol=protocol, eager_limit=limit
    )
    return trace, result
