"""One benchmark operation inside a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json``, with the
checkout's ``src`` on ``PYTHONPATH``.  ``SPEC`` selects a mode:

- ``{"mode": "reproduce", "seed": S, "trace": bool}`` imports
  ``repro.experiments`` and runs every registered experiment once
  (``fast=True``, sorted like ``repro all``), recording each call's wall
  time, its steady time (:mod:`perfbench.calibrate`; the process is
  pinned to its core and sampled) and a digest of its data
  (:func:`perfbench.checks.digest`);
- ``{"mode": "cli", "argv": [...]}`` calls ``repro.cli.main(argv)``
  in-process under a :class:`perfbench.trace.Tracer` (untraced CLI
  operations run ``python3 -m repro`` directly instead).

``OUT`` receives the timings, digests or exit code, and the tracer's
counts.  An exception inside one experiment is recorded for that
experiment and the others still run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import Sampler, pin_to_current_core  # noqa: E402
from perfbench.checks import digest  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def _check_source() -> None:
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not {src}")


def _reproduce(spec: dict) -> dict:
    import repro.experiments as experiments

    _check_source()

    calls, steady_calls, digests, errors = {}, {}, {}, {}
    tracer = Tracer() if spec.get("trace") else contextlib.nullcontext()
    pin_to_current_core()
    with Sampler() as sampler, tracer:
        for eid in sorted(experiments.EXPERIMENTS):
            t0 = time.perf_counter()
            try:
                result = experiments.run_experiment(eid, fast=True,
                                                    seed=spec["seed"])
            except Exception:  # noqa: BLE001 — reported, siblings still run
                result = None
                errors[eid] = traceback.format_exc()
            t1 = time.perf_counter()
            calls[eid] = t1 - t0
            steady_calls[eid] = sampler.steady(t0, t1)
            if result is not None:
                digests[eid] = digest(result.data)
    return {
        "calls": calls,
        "steady": steady_calls,
        "digests": digests,
        "errors": errors,
        "layers": tracer.snapshot() if spec.get("trace") else {},
    }


def _cli(spec: dict) -> dict:
    from repro.cli import main

    _check_source()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        try:
            rc = main(list(spec["argv"]))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
    return {"rc": rc, "wall_s": wall, "layers": tracer.snapshot()}


def main(argv: "list[str]") -> int:
    spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    handler = {"reproduce": _reproduce, "cli": _cli}[spec["mode"]]
    result = handler(spec)
    Path(out_path).write_text(json.dumps(result))
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
