"""Golden-trace corpus: canonical engine timestamps, checked into the repo.

The batched hierarchy-aware lockstep engine and the authoritative DAG
engine are continuously cross-checked by property tests, but property
tests only guard *agreement* — if both engines drifted together (a shared
modeling change, an accidental semantics edit), they would still agree.
The golden corpus pins the absolute numbers: a small set of canonical
runs (the Fig. 2 / Fig. 4 timelines, a hierarchical placement, a bimodal
delay campaign) whose per-rank timestamp matrices are stored as JSON
fixtures under ``tests/golden/`` and asserted on every test run.

Each fixture is self-contained: it embeds the scenario document, the run
seed, and the engine that produced it, so the regression test replays
exactly what is written — there is no drift between corpus definitions
and fixtures (a round-trip test regenerates the corpus and compares).

Regenerating after an *intentional* semantics change::

    PYTHONPATH=src python -m repro golden --regen   # rewrite tests/golden/
    PYTHONPATH=src python -m repro golden --check   # verify fixtures

See CONTRIBUTING.md for the workflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "GOLDEN_RTOL",
    "GoldenCase",
    "compute_golden_record",
    "golden_cases",
    "golden_main",
    "verify_golden_record",
    "write_golden_corpus",
]

GOLDEN_FORMAT_VERSION = 1

#: Engine-vs-fixture tolerance.  The matrices are pure float64 sums/maxes,
#: deterministic in-process; the tolerance absorbs cross-platform and
#: cross-numpy-version last-ulp differences in the noise streams.
GOLDEN_RTOL = 1e-9

#: Default fixture directory, relative to the repository root (where
#: ``python -m repro golden`` is expected to run).
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"


@dataclass(frozen=True)
class GoldenCase:
    """One canonical run: a scenario document plus seed and engine choice."""

    name: str
    base_scenario: str  # bundled scenario the document derives from
    overrides: "tuple[tuple[str, object], ...]" = ()
    seed: "int | None" = None  # None: the scenario's own seed
    engine: str = "auto"
    note: str = ""

    def document(self) -> dict:
        """The concrete scenario document (overrides applied, no sweep)."""
        from repro.scenarios.registry import load_bundled_scenario
        from repro.scenarios.spec import apply_overrides

        doc = load_bundled_scenario(self.base_scenario).without_sweep().to_dict()
        if self.overrides:
            doc = apply_overrides(doc, dict(self.overrides))
        return doc


def golden_cases() -> "tuple[GoldenCase, ...]":
    """The corpus: small, fast, and covering every engine regime.

    - both engines on the same scenario (fig4: lockstep *and* dag),
    - the hierarchical (``machine.ppn``) lockstep path,
    - an application workload with natural noise (fig2 LBM, shrunk to
      keep the fixture small),
    - a stochastic delay campaign under bimodal noise and rendezvous
      coupling.
    """
    return (
        GoldenCase(
            name="fig4_single_delay",
            base_scenario="fig4_single_delay",
            engine="lockstep",
            note="Fig. 4 baseline timeline: one 4.5-phase delay, eager chain",
        ),
        GoldenCase(
            name="fig4_single_delay_dag",
            base_scenario="fig4_single_delay",
            engine="dag",
            note="same run on the authoritative DAG engine",
        ),
        GoldenCase(
            name="fig2_lbm_timeline_small",
            base_scenario="emmy_lbm_timeline",
            overrides=(("n_ranks", 16), ("n_steps", 12)),
            engine="auto",
            note="Fig. 2 LBM halo-exchange timeline (shrunk), natural noise",
        ),
        GoldenCase(
            name="emmy_mapped_hierarchical",
            base_scenario="emmy_mapped_dag",
            engine="auto",
            note="two-tier (ppn=2) placement on the hierarchy-aware "
                 "lockstep path",
        ),
        GoldenCase(
            name="meggie_bimodal_campaign_small",
            base_scenario="meggie_bimodal_rendezvous_campaign",
            overrides=(("n_ranks", 16), ("n_steps", 20)),
            engine="auto",
            note="bimodal noise + Poisson delay campaign + rendezvous "
                 "sigma=2 coupling (shrunk)",
        ),
    )


def compute_golden_record(case: GoldenCase) -> dict:
    """Run one golden case and return its JSON-able fixture record."""
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.spec import ScenarioSpec

    doc = case.document()
    run = run_scenario(ScenarioSpec.from_dict(doc), seed=case.seed,
                       engine=case.engine)
    return {
        "version": GOLDEN_FORMAT_VERSION,
        "name": case.name,
        "note": case.note,
        "scenario": doc,
        "seed": run.seed,
        "requested_engine": case.engine,
        "engine": run.compiled.engine,
        "rtol": GOLDEN_RTOL,
        "n_ranks": run.timing.n_ranks,
        "n_steps": run.timing.n_steps,
        "completion": run.timing.completion.tolist(),
        "exec_end": run.timing.exec_end.tolist(),
    }


def verify_golden_record(record: dict) -> None:
    """Replay one fixture record and assert the engine still reproduces it.

    Raises :class:`AssertionError` on any timestamp drift beyond the
    fixture's recorded tolerance.
    """
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.spec import ScenarioSpec

    run = run_scenario(
        ScenarioSpec.from_dict(record["scenario"]),
        seed=record["seed"],
        engine=record["requested_engine"],
    )
    assert run.compiled.engine == record["engine"], (
        f"golden {record['name']}: dispatched to {run.compiled.engine!r}, "
        f"fixture was recorded on {record['engine']!r}"
    )
    rtol = float(record.get("rtol", GOLDEN_RTOL))
    np.testing.assert_allclose(
        run.timing.completion, np.asarray(record["completion"]),
        rtol=rtol, atol=0.0,
        err_msg=f"golden {record['name']}: completion matrix drifted",
    )
    np.testing.assert_allclose(
        run.timing.exec_end, np.asarray(record["exec_end"]),
        rtol=rtol, atol=0.0,
        err_msg=f"golden {record['name']}: exec_end matrix drifted",
    )


def write_golden_corpus(directory: "str | Path") -> "list[Path]":
    """(Re)generate every fixture under ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in golden_cases():
        record = compute_golden_record(case)
        path = directory / f"{case.name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def _check(directory: Path) -> int:
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no golden fixtures under {directory} — run with --regen first",
              file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        record = json.loads(path.read_text())
        try:
            verify_golden_record(record)
        except AssertionError as exc:
            failures += 1
            print(f"DRIFT {path.name}: {exc}")
        else:
            print(f"ok    {path.name} ({record['engine']}, "
                  f"{record['n_ranks']}x{record['n_steps']})")
    if failures:
        print(f"[{failures}/{len(files)} golden fixture(s) drifted; if the "
              "change is intentional, regenerate with "
              "'python -m repro golden --regen']")
        return 1
    print(f"[{len(files)} golden fixture(s) verified]")
    return 0


def golden_main(argv: "list[str] | None" = None) -> int:
    """``python -m repro golden [--check | --regen] [--dir DIR]``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment golden",
        description="Verify or regenerate the golden-trace corpus "
                    "(tests/golden/).",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="replay every fixture and report drift (default)")
    mode.add_argument("--regen", action="store_true",
                      help="rewrite the fixtures from the current engines")
    parser.add_argument("--dir", default=str(DEFAULT_GOLDEN_DIR), metavar="DIR",
                        help="fixture directory (default: %(default)s)")
    args = parser.parse_args(argv)
    directory = Path(args.dir)
    if args.regen:
        paths = write_golden_corpus(directory)
        for path in paths:
            print(f"wrote {path}")
        print(f"[{len(paths)} golden fixture(s) regenerated]")
        return 0
    return _check(directory)
