"""Streaming campaign reads: laziness, counts, and miss fallback."""

import numpy as np
import pytest

from repro.reports.query import CampaignStream, stream_campaign
from repro.runtime import ResultStore, RunSpec, run_campaign

FN = "repro.runtime.tasks:rng_probe_task"


def make_specs(n: int) -> "tuple[RunSpec, ...]":
    return tuple(
        RunSpec(fn=FN, params={"n": 3, "replicate": i}, seed=i, index=i)
        for i in range(n)
    )


class RecordingStore:
    """Store wrapper that logs every get() the stream performs."""

    def __init__(self, inner):
        self.inner = inner
        self.gets: "list[str]" = []

    def __contains__(self, key):
        return key in self.inner

    def get(self, key):
        self.gets.append(key)
        return self.inner.get(key)

    def put(self, key, value, spec=None):
        return self.inner.put(key, value, spec=spec)


@pytest.fixture
def warm(tmp_path):
    """A store with a 6-task campaign fully cached, plus its specs."""
    store = ResultStore(tmp_path / "cache")
    specs = make_specs(6)
    run_campaign(specs, store=store)
    return store, specs


class TestStreamLazy:
    def test_blocks_load_only_when_consumed(self, warm):
        """Each record is read when the consumer reaches its value."""
        store, specs = warm
        recording = RecordingStore(store)
        values = iter(stream_campaign(specs, store=recording))
        assert recording.gets == []  # nothing read yet
        first = next(values)
        assert first["seed"] == specs[0].seed
        assert recording.gets == [specs[0].key]
        next(values)
        next(values)
        assert recording.gets == [s.key for s in specs[:3]]
        assert len(list(values)) == 3
        assert recording.gets == [s.key for s in specs]

    def test_counts_complete_after_exhaustion(self, warm):
        store, specs = warm
        stream = stream_campaign(specs, store=store)
        values = list(stream)
        assert len(values) == 6
        assert stream.n_tasks == 6
        assert stream.n_loaded == 6 and stream.n_executed == 0

    def test_values_match_eager_fetch(self, warm):
        """Streamed values equal an eager, direct run_campaign."""
        store, specs = warm
        direct = run_campaign(specs, store=store).values()
        streamed = list(stream_campaign(specs, store=store))
        assert len(streamed) == len(direct)
        for got, want in zip(streamed, direct):
            assert got["seed"] == want["seed"]
            assert got["draws"] == want["draws"]

    def test_streamed_arrays_are_caller_owned_copies(self, warm):
        store, specs = warm
        # Plant a record with an array field under a real spec key.
        store.put(specs[0].key, {"values": np.arange(4.0)})
        (value,) = list(stream_campaign(specs[:1], store=store))
        arr = value["values"]
        assert isinstance(arr, np.ndarray) and arr.flags.writeable
        arr[0] = -1.0  # mutating a streamed value never reaches the store
        assert store.get(specs[0].key)["values"][0] == 0.0


class TestStreamFallback:
    def test_miss_degrades_to_eager_fetch(self, warm):
        """A miss runs the whole campaign, then streams its values."""
        store, specs = warm
        extra = make_specs(8)[6:]  # two uncached tasks
        stream = stream_campaign(specs + extra, store=store)
        assert len(list(stream)) == 8
        assert stream.n_loaded == 6 and stream.n_executed == 2
        # The recomputed tasks are now cached for the next stream.
        follow = stream_campaign(specs + extra, store=store)
        list(follow)
        assert follow.n_loaded == 8 and follow.n_executed == 0

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_miss_reads_each_record_once(self, tmp_path, n_cached):
        store = ResultStore(tmp_path / "cache")
        specs = make_specs(6)
        run_campaign(specs[:n_cached], store=store)
        recording = RecordingStore(store)
        stream = stream_campaign(specs, store=recording)
        assert len(list(stream)) == 6
        assert recording.gets == [s.key for s in specs]
        assert stream.n_loaded == n_cached
        assert stream.n_executed == 6 - n_cached

    def test_no_store_executes_everything(self):
        specs = make_specs(3)
        stream = stream_campaign(specs, store=None)
        assert len(list(stream)) == 3
        assert stream.n_loaded == 0 and stream.n_executed == 3

    def test_probe_race_recomputes_single_task(self, warm):
        store, specs = warm

        class VanishingStore(RecordingStore):
            """Passes the presence probe, then loses one record."""

            def get(self, key):
                self.gets.append(key)
                if key == specs[1].key:
                    return None  # gc'd between probe and read
                return self.inner.get(key)

        stream = CampaignStream(specs=specs, store=VanishingStore(store))
        values = list(stream)
        assert len(values) == 6 and values[1] is not None
        assert stream.n_loaded == 5 and stream.n_executed == 1
