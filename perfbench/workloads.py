"""The benchmark's operations and workloads.

Every operation runs in a fresh child process started from the single
benchmark process, one at a time (a closed loop with one client):

- *reproduce*: ``perfbench/child.py`` imports ``repro.experiments`` and
  calls ``run_experiment(id, fast=True, seed=S)`` for all 14 ids, with
  no store -- what ``repro all`` does;
- *cold report*: ``python3 -m repro report run <generated report>
  --jobs 2 --cache-dir <empty dir>`` -- every task executes and is
  written to the store;
- *warm report*: the same command on a store a cold report filled --
  every task is read back, none executes.

Each child's BLAS threads are pinned to 1, so ``--jobs 2`` keeps the load
at two cores.  Outputs are checked against the recorded references
(:mod:`perfbench.checks`); a failed or wrong operation is counted in the
:class:`Ledger` and the run goes on.

A workload repeats its operation for ``--seconds`` (:func:`timed`);
its traced variant (:func:`traced`) runs the operation under the
:class:`~perfbench.trace.Tracer` instead.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench.calibrate import Sampler
from perfbench.checks import compare_digest, compare_report, load_reference
from perfbench.inputs import (
    N_TASKS,
    REPORT_FILE,
    experiment_seed,
    variant,
    write_inputs,
)
from perfbench.trace import EXPERIMENT_IDS, layer_metrics

__all__ = ["JOBS", "WORKLOADS", "Bench", "Ledger", "closed_loop",
           "parse_importtime", "timed", "traced"]

JOBS = 2
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
OP_TIMEOUT_S = 120
SETUP_REPEATS = 5
FILL_REPEATS = 3
IMPORTTIME_REPEATS = 3

WORKLOADS = ("reproduce", "campaign_cold", "report_warm")


@dataclass
class Ledger:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)

    def record(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures.append(what)
        return ok

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    log: Path


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tree_size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """One benchmark run: the checkout, a work directory and a seed."""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.ledger = Ledger()
        self.env = {**os.environ, **BLAS_PINS,
                    "PYTHONPATH": str(root / "src")}
        self.inputs = write_inputs(seed, work / "inputs")
        self._serial = 0
        self._refs: "dict[str, dict]" = {}

    # -- plumbing -----------------------------------------------------

    def fresh(self, stem: str) -> Path:
        """A new, not yet existing path below the work directory."""
        self._serial += 1
        return self.work / f"{stem}{self._serial}"

    def reference(self, kind: str) -> dict:
        if kind not in self._refs:
            self._refs[kind] = load_reference(kind)[str(variant(self.seed))]
        return self._refs[kind]

    def spawn(self, argv: "list[str]", cwd: "Path | None" = None) -> Proc:
        """Run one child to completion in its own process group.

        Wall time spans start to reap; the resident-set peak covers the
        child and every descendant it waited for (its pool workers).
        """
        log = self.fresh("op").with_suffix(".log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd or self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True)
            timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left behind
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, log)

    def child(self, spec: dict, cwd: "Path | None" = None
              ) -> "tuple[Proc, dict | None]":
        path = self.fresh("spec").with_suffix(".json")
        out = path.with_suffix(".out.json")
        path.write_text(json.dumps(spec))
        proc = self.spawn([sys.executable, str(self.root / "perfbench" /
                                               "child.py"), str(path),
                           str(out)], cwd=cwd)
        result = json.loads(out.read_text()) if out.exists() else None
        return proc, result

    # -- operations ---------------------------------------------------

    def sampled(self, args: "list[str]", cwd: "Path | None" = None
                ) -> "tuple[Proc, dict]":
        """Run ``python3 -m``/``-c`` ``args`` pinned and sampled by
        ``perfbench/calibrate.py``; the result holds the wall and steady
        time of the work, interpreter start and exit excluded."""
        out = self.fresh("sampled").with_suffix(".json")
        proc = self.spawn([sys.executable, str(self.root / "perfbench" /
                                               "calibrate.py"), str(out),
                           *args], cwd=cwd)
        result = json.loads(out.read_text()) if out.exists() else {}
        return proc, result

    def import_probe(self, module: str) -> dict:
        """Wall and steady time of ``import module`` in a fresh
        interpreter."""
        proc, result = self.sampled(["-c", f"import {module}"])
        self.ledger.record(proc.rc == 0 and bool(result),
                           f"import {module}: exit {proc.rc}")
        return result

    def importtime(self) -> "dict[str, float]":
        """CLI import costs from ``-X importtime`` (cumulative seconds)."""
        proc = self.spawn([sys.executable, "-X", "importtime", "-c",
                           "import repro.cli, repro.reports.cli"])
        ok = self.ledger.record(proc.rc == 0, f"importtime: exit {proc.rc}")
        return parse_importtime(proc.log.read_text()) if ok else {}

    def reproduce(self, trace: bool = False) -> dict:
        """One ``repro all``-equivalent child; checks every experiment."""
        spec = {"mode": "reproduce", "seed": experiment_seed(self.seed),
                "trace": trace}
        proc, result = self.child(spec)
        op = {"wall_s": proc.wall_s, "rss_mb": proc.rss_mb, "calls": {},
              "steady": {}, "layers": {}}
        if proc.rc != 0 or result is None:
            self.ledger.record(False, f"reproduce: exit {proc.rc}",
                               n=len(EXPERIMENT_IDS))
            return op
        refs = self.reference("reproduce")
        for eid in EXPERIMENT_IDS:
            if eid in result["errors"]:
                self.ledger.record(False, f"{eid}: {result['errors'][eid]}")
            elif eid not in result["digests"]:
                self.ledger.record(False, f"{eid}: not registered")
            else:
                bad = compare_digest(refs[eid], result["digests"][eid])
                self.ledger.record(not bad,
                                   f"{eid}: wrong output at {bad[:3]}")
        if set(result["calls"]) == set(EXPERIMENT_IDS):
            op["calls"], op["steady"] = result["calls"], result["steady"]
        op["layers"] = result["layers"]
        return op

    def report(self, cache: Path, warm: bool, trace: bool = False,
               jobs: int = JOBS, sampled: bool = False) -> dict:
        """One ``report run`` on ``cache``; checks the JSON artifact.

        A cold run (``warm=False``) must execute every task, a warm one
        must serve every task from the store.  A ``sampled`` run goes
        through :meth:`sampled` and adds ``steady_s``; only a warm run,
        which starts no pool, may be pinned to one core so.
        """
        out = self.fresh("out")
        argv = ["report", "run", REPORT_FILE, "--jobs", str(jobs),
                "--cache-dir", str(cache), "--out", str(out)]
        if trace:
            proc, result = self.child({"mode": "cli", "argv": argv},
                                      cwd=self.inputs)
            layers = result["layers"] if result else {}
        elif sampled:
            proc, result = self.sampled(["-m", "repro", *argv],
                                        cwd=self.inputs)
            layers = {}
        else:
            proc = self.spawn([sys.executable, "-m", "repro", *argv],
                              cwd=self.inputs)
            result, layers = {}, {}
        what = f"{'warm' if warm else 'cold'} report"
        artifact = out / f"{Path(REPORT_FILE).stem}.json"
        if proc.rc != 0 or not artifact.exists():
            self.ledger.record(False, f"{what}: exit {proc.rc}")
        else:
            doc = json.loads(artifact.read_text())
            prov = doc["provenance"]
            executed = 0 if warm else N_TASKS
            bad = compare_report(self.reference("campaign"), doc)
            if (prov["n_tasks"], prov["n_executed"]) != (N_TASKS, executed):
                bad.append(f"provenance {prov}")
            self.ledger.record(not bad, f"{what}: wrong output at {bad[:3]}")
        shutil.rmtree(out, ignore_errors=True)
        op = {"wall_s": proc.wall_s, "rss_mb": proc.rss_mb, "layers": layers}
        if sampled and result:
            op.update(wall_s=result["wall_s"], steady_s=result["steady_s"])
        return op


def parse_importtime(text: str) -> "dict[str, float]":
    """Cumulative import seconds of the CLI and three of its parts.

    ``-X importtime`` lists modules children-first, indented by depth.
    A part's cost is the summed cumulative time of its outermost
    entries, so nested submodules are not counted twice.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    parts = {
        "cli.import_s": ("repro.cli",),
        "cli.import.experiments_s": ("repro.experiments",),
        "cli.import.reports_s": ("repro.reports",),
        "cli.import.numpy_s": ("numpy",),
    }
    costs = {}
    for metric, (prefix,) in parts.items():
        total, stack = 0.0, []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            match = name == prefix or name.startswith(prefix + ".")
            if match and not any(m for _, m in stack):
                total += cumulative
            stack.append((depth, match))
        costs[metric] = total
    return costs


def closed_loop(seconds: float, op: Callable[[], dict]) -> "list[dict]":
    """Start ``op`` back to back for as long as ``seconds`` have not passed.

    At least one operation always runs.
    """
    ops: "list[dict]" = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(op())
    return ops


def timed(bench: Bench, workload: str,
          seconds: float) -> "tuple[dict, dict]":
    """Samples of every end-to-end metric (``--trace 0``).

    The workload's operation runs in a closed loop for ``seconds``;
    ``op_s`` is the steady time (:mod:`perfbench.calibrate`) of each
    operation -- for ``reproduce`` the summed steady time of the 14
    experiment calls, for the report workloads that of the CLI
    invocation.  Work in one process (the experiments, imports, warm
    reports) is pinned to its core and sampled there; a cold report,
    whose parent and pool keep every core busy, is sampled from this
    process, whose probe runs on whichever core frees up first.
    Returns ``(samples, walls)``: ``walls`` holds the raw wall times
    behind ``op_s`` and ``setup_s``.
    """
    caches: "list[Path]" = []

    def cold_op() -> dict:
        # Keep only the newest store: report_warm reads the last fill.
        for old in caches:
            shutil.rmtree(old, ignore_errors=True)
        caches[:] = [bench.fresh("cache")]
        with Sampler() as sampler:
            op = bench.report(caches[0], warm=False)
        return {**op, "steady_s": op["wall_s"] * sampler.mean_speed()}

    def reproduce_op() -> dict:
        op = bench.reproduce()
        return {**op, "wall_s": sum(op["calls"].values()),
                "steady_s": sum(op["steady"].values())}

    if workload == "reproduce":
        setup = [bench.import_probe("repro.experiments")
                 for _ in range(SETUP_REPEATS)]
        ops = [op for op in closed_loop(seconds, reproduce_op) if op["calls"]]
    elif workload == "campaign_cold":
        setup = [bench.import_probe("repro.cli")
                 for _ in range(SETUP_REPEATS)]
        ops = closed_loop(seconds, cold_op)
    elif workload == "report_warm":
        # Set-up is filling the store the warm reports read.
        setup = [cold_op() for _ in range(FILL_REPEATS)]
        ops = closed_loop(seconds, lambda: bench.report(
            caches[0], warm=True, sampled=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    setup = [step for step in setup if "steady_s" in step]
    ops = [op for op in ops if "steady_s" in op]
    samples = {"op_s": [op["steady_s"] for op in ops],
               "setup_s": [step["steady_s"] for step in setup],
               "peak_rss_mb": [op["rss_mb"] for op in ops]}
    walls = {"op_s": [op["wall_s"] for op in ops],
             "setup_s": [step["wall_s"] for step in setup]}
    return samples, walls


def traced(bench: Bench, workload: str) -> "dict[str, float]":
    """Every per-layer metric of ``workload`` (``--trace 1``).

    The untraced operation runs first and sets the base of
    ``trace.overhead``.  Campaign workloads trace two passes: the
    ``--jobs 2`` pass supplies the layers that run in the CLI process
    (executor, store, reports), a ``--jobs 1`` pass on the same inputs
    those that run in pool workers otherwise (scenarios, simulators).
    """
    probes = [bench.importtime() for _ in range(IMPORTTIME_REPEATS)]
    probes = [p for p in probes if p]
    cli = {k: statistics.median(p[k] for p in probes) if probes else 0.0
           for k in parse_importtime("")}
    if workload == "reproduce":
        base = bench.reproduce()
        run = bench.reproduce(trace=True)
        base_s = sum(base["calls"].values())
        overhead = sum(run["calls"].values()) / base_s if base_s else 0.0
        return layer_metrics(run["layers"], run["layers"], run["calls"],
                             cli, 0, overhead)
    warm = workload == "report_warm"
    if workload not in ("campaign_cold", "report_warm"):
        raise ValueError(f"unknown workload {workload!r}")

    def store() -> Path:
        # A warm workload shares one filled store; cold passes start empty.
        return shared if warm else bench.fresh("cache")

    if warm:
        shared = bench.fresh("cache")
        bench.report(shared, warm=False)
    base = bench.report(store(), warm=warm)
    host_cache = store()
    host = bench.report(host_cache, warm=warm, trace=True)
    bytes_on_disk = _tree_size(host_cache)
    worker = bench.report(store(), warm=warm, trace=True, jobs=1)
    return layer_metrics(host["layers"], worker["layers"], {}, cli,
                         bytes_on_disk, host["wall_s"] / base["wall_s"])
