"""Worker health: resource samples and the pool wiring that records
them, while serial runs stay free of the pool-only health samples
(``--jobs 1`` identity contract).
"""

from repro import telemetry
from repro.obs.health import sample_resources
from repro.runtime import run_campaign
from repro.runtime.spec import RunSpec


def probe_specs(n_tasks):
    return [
        RunSpec(fn="executor_tasks:rng_probe_task", index=i,
                params={"n": 2}, seed=i)
        for i in range(n_tasks)
    ]


class TestSampleResources:
    def test_sample_shape(self):
        import os

        sample = sample_resources()
        assert set(sample) == {"pid", "rss_bytes", "cpu_s"}
        assert sample["pid"] == os.getpid()
        assert sample["rss_bytes"] > 0  # this test process has pages
        assert sample["cpu_s"] >= 0.0

    def test_sample_is_picklable_plain_data(self):
        import pickle

        sample = sample_resources()
        assert pickle.loads(pickle.dumps(sample)) == sample


class TestPoolIntegration:
    def test_heartbeats_feed_telemetry_histograms(self):
        specs = probe_specs(4)
        recorder = telemetry.enable()
        try:
            run_campaign(specs, jobs=2)
            snap = recorder.snapshot()
        finally:
            telemetry.disable()
        assert snap["hists"]["worker.rss_bytes"][0] == 4
        assert snap["hists"]["worker.cpu_s"][0] == 4
        assert all(v > 0 for v in snap["hists"]["worker.rss_bytes"])

    def test_serial_runs_emit_no_health_events(self):
        """Pool-only health stays out of the --jobs 1 identity stream."""
        specs = probe_specs(4)
        rec = telemetry.enable()
        try:
            run_campaign(specs, jobs=1)
        finally:
            telemetry.disable()
        assert not any(name.startswith("worker.") for name in rec.hists)

    def test_unobserved_pool_run_stays_clean(self):
        """No recorder: plain pool runs are unchanged."""
        specs = probe_specs(4)
        campaign = run_campaign(specs, jobs=2)
        assert not campaign.failures
        assert len(campaign.values()) == 4
