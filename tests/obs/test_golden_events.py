"""Golden lifecycle streams: the ``--jobs 1`` identity streams, pinned.

The determinism tests compare two runs of the same code; these fixtures
compare a run against what the code emitted when they were recorded, so
a rewrite of the event plumbing cannot quietly reorder, drop, or reshape
an event.  Each file under ``tests/golden/events/`` holds the identity
stream ``(seq, name, data)`` of one serial run.  They were written by
running this file (``PYTHONPATH=src python tests/obs/test_golden_events.py``)
and are never rewritten to silence a drift.
"""

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.reports import compile_report, load_bundled_report, run_report
from repro.runtime import ResultStore
from repro.scenarios import load_bundled_scenario, run_scenario_sweep

GOLDEN_DIR = Path(__file__).parents[1] / "golden" / "events"


def identity_stream(fn) -> list:
    """``fn()``'s identity stream, in JSON form (lists, not tuples)."""
    rec = telemetry.enable()
    try:
        fn()
    finally:
        telemetry.disable()
    return [[seq, name, data] for seq, name, data in rec.identity()]


def sweep(batch: bool):
    spec = load_bundled_scenario("campaign_rate_sweep")
    return identity_stream(
        lambda: run_scenario_sweep(spec, jobs=1, batch=batch))


def reports(cache_dir) -> dict:
    """The report's stream on an empty store, then on the filled one."""
    compiled = compile_report(load_bundled_report("campaign_rate_response"))
    store = ResultStore(cache_dir)
    cold = identity_stream(lambda: run_report(compiled, store=store, jobs=1))
    warm = identity_stream(lambda: run_report(compiled, store=store, jobs=1))
    return {"report_cold": cold, "report_warm": warm}


def golden_streams(cache_dir) -> dict:
    return {"sweep_batched": sweep(batch=True),
            "sweep_unbatched": sweep(batch=False),
            **reports(cache_dir)}


def load(name: str) -> list:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("batch", [True, False],
                         ids=["batched", "unbatched"])
def test_sweep_stream_replays_exactly(batch):
    name = "sweep_batched" if batch else "sweep_unbatched"
    assert sweep(batch) == load(name)


def test_report_streams_replay_exactly(tmp_path):
    streams = reports(tmp_path / "cache")
    assert streams["report_cold"] == load("report_cold")
    assert streams["report_warm"] == load("report_warm")


def test_fixture_sizes():
    """The recorded streams' lengths, as a readable cross-check."""
    assert [len(load(name)) for name in (
        "sweep_batched", "sweep_unbatched", "report_cold", "report_warm",
    )] == [29, 38, 32, 17]


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, stream in golden_streams(Path(tmp) / "cache").items():
            path = GOLDEN_DIR / f"{name}.json"
            path.write_text("[\n" + ",\n".join(
                json.dumps(event) for event in stream) + "\n]\n")
            print(f"wrote {path} ({len(stream)} events)")
