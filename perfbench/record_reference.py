"""Record the reference outputs the benchmark checks against.

Run from the root of a source checkout, on the commit whose outputs are
to be the reference::

    python3 perfbench/record_reference.py

For every input variant (:data:`perfbench.inputs.N_VARIANTS`) this writes
the digests of all 14 experiments to ``perfbench/reference/reproduce.json``
and the generated report's JSON artifact to
``perfbench/reference/campaign.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import REFERENCE_DIR  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    N_VARIANTS,
    REPORT_FILE,
    experiment_seed,
)
from perfbench.workloads import JOBS, Bench  # noqa: E402


def record_variant(bench: Bench) -> "tuple[dict, dict]":
    proc, result = bench.child({"mode": "reproduce", "trace": False,
                                "seed": experiment_seed(bench.seed)})
    if proc.rc != 0 or result is None or result["errors"]:
        raise SystemExit(f"reproduce failed (exit {proc.rc}): "
                         f"{proc.log.read_text()[-2000:]}")
    out, cache = bench.fresh("out"), bench.fresh("cache")
    proc = bench.spawn([sys.executable, "-m", "repro", "report", "run",
                        REPORT_FILE, "--jobs", str(JOBS), "--cache-dir",
                        str(cache), "--out", str(out)], cwd=bench.inputs)
    if proc.rc != 0:
        raise SystemExit(f"report failed (exit {proc.rc}): "
                         f"{proc.log.read_text()[-2000:]}")
    report = json.loads((out / f"{Path(REPORT_FILE).stem}.json").read_text())
    return result["digests"], report


def main() -> int:
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    reproduce, campaign = {}, {}
    try:
        for v in range(N_VARIANTS):
            bench = Bench(ROOT, work / str(v), seed=v)
            reproduce[str(v)], campaign[str(v)] = record_variant(bench)
            print(f"variant {v} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for kind, data in (("reproduce", reproduce), ("campaign", campaign)):
        with open(REFERENCE_DIR / f"{kind}.json", "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
