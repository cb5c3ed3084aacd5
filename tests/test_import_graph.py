"""The import graph: a subcommand imports only what it runs.

Every check runs in a fresh interpreter and inspects what it imported,
so it pins the import graph without timing anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose public names are re-exported lazily.
LAZY_PACKAGES = ("repro", "repro.sim", "repro.core", "repro.runtime",
                 "repro.scenarios", "repro.reports", "repro.analysis",
                 "repro.cluster", "repro.models", "repro.workloads",
                 "repro.viz")

REPORT = "campaign_rate_response"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_after(code: str) -> "tuple[str, set[str]]":
    """The output of ``code`` run in a fresh interpreter, and
    ``sys.modules`` after it."""
    proc = run_python(code + "\nimport json, sys\n"
                      "print(json.dumps(sorted(sys.modules)))")
    output, _, modules = proc.stdout.rstrip("\n").rpartition("\n")
    return output, set(json.loads(modules))


def loaded(modules: "set[str]", prefix: str) -> "list[str]":
    return sorted(m for m in modules
                  if m == prefix or m.startswith(prefix + "."))


def test_cli_import_loads_no_subcommand_code():
    _, modules = modules_after("import repro.cli")
    for name in ("numpy", "repro.experiments", "repro.sim", "repro.core",
                 "repro.runtime"):
        assert not loaded(modules, name), name


def test_warm_report_run_loads_no_execution_path(tmp_path):
    cache = tmp_path / "cache"
    cli = "from repro.cli import main\n"
    run_python(cli + f"assert main(['report', 'run', {REPORT!r}, "
               f"'--cache-dir', {str(cache)!r}]) == 0")
    output, modules = modules_after(
        cli + f"assert main(['report', 'run', {REPORT!r}, "
        f"'--cache-dir', {str(cache)!r}, '--out', {str(tmp_path)!r}]) == 0")
    assert "12 from store, 0 executed" in output
    # The report runs only the runtime and idle_histogram kernels; the
    # desync and Fourier kernels import repro.analysis in their bodies.
    for name in ("repro.experiments", "repro.sim.engine",
                 "repro.sim.saturation", "repro.sim.lockstep",
                 "repro.sim.trace", "repro.runtime.executor",
                 "repro.reports.tasks", "repro.analysis", "multiprocessing"):
        assert not loaded(modules, name), name


def test_experiments_import_loads_no_spec_code():
    """The drivers call the analyses in ``repro.core`` directly, not
    through the report kernels and their scenario/spec-file imports."""
    _, modules = modules_after("import repro.experiments")
    for name in ("repro.reports", "repro.scenarios", "repro.fields"):
        assert not loaded(modules, name), name


def test_lazy_exports_resolve():
    proc = run_python(f"""
import importlib, json
import repro
problems = []
if not callable(repro.sim.topology.single_switch_mapping):
    problems.append("repro.sim.topology")
for name in {LAZY_PACKAGES!r}:
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    for attr in pkg.__all__:
        try:
            getattr(pkg, attr)
        except AttributeError as exc:
            problems.append(f"{{name}}.{{attr}}: {{exc}}")
        if attr not in listed:
            problems.append(f"{{name}}.{{attr}} not in dir()")
    star = {{}}
    exec(f"from {{name}} import *", star)
    missing = set(pkg.__all__) - set(star)
    if missing:
        problems.append(f"{{name}}: * misses {{sorted(missing)}}")
print(json.dumps(problems))
""")
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_unknown_attribute_is_an_attribute_error():
    proc = run_python("""
import repro.sim
try:
    repro.sim.no_such_name
except AttributeError as exc:
    print(exc)
""")
    assert "has no attribute 'no_such_name'" in proc.stdout


@pytest.fixture
def broken_submodule(tmp_path):
    """A package whose submodule raises ImportError while importing."""
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro import _lazy_exports\n"
        "__all__, __getattr__, __dir__ = _lazy_exports(__name__, {})\n")
    (pkg / "broken.py").write_text("import no_such_dependency\n")
    return tmp_path


def test_import_error_inside_a_submodule_propagates(broken_submodule):
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{broken_submodule}")
    proc = subprocess.run(
        [sys.executable, "-c", "import lazypkg; lazypkg.broken"], env=env,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "No module named 'no_such_dependency'" in proc.stderr


@pytest.mark.parametrize("flags", [[], ["--no-batch"]],
                         ids=["batched", "unbatched"])
def test_pool_workers_import_no_repro_module(tmp_path, flags):
    """A cold ``--jobs 2`` report imports its task code before the pool
    forks: no worker imports a ``repro`` module of its own."""
    log = tmp_path / "worker-imports.log"
    run_python(f"""
import os, sys

class WorkerImports:
    # Consulted only for modules not yet in sys.modules.
    def find_spec(self, name, path=None, target=None):
        if name == "repro" or name.startswith("repro."):
            with open({str(log)!r}, "a") as fh:
                fh.write(name + "\\n")
        return None

def in_worker():
    with open({str(log)!r}, "a") as fh:
        fh.write("<fork>\\n")
    sys.meta_path.insert(0, WorkerImports())

os.register_at_fork(after_in_child=in_worker)
from repro.cli import main
assert main(["report", "run", {REPORT!r}, "--jobs", "2", *{flags!r},
             "--cache-dir", {str(tmp_path / "cache")!r}]) == 0
""")
    lines = log.read_text().splitlines()
    assert "<fork>" in lines  # the pool did start
    assert [line for line in lines if line != "<fork>"] == []
