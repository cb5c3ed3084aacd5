"""Streaming campaign reads: laziness, counts, and miss fallback."""

import numpy as np
import pytest

from repro.reports.query import CampaignStream, stream_campaign
from repro.runtime import ResultStore, RunSpec, run_campaign

FN = "executor_tasks:timing_probe_task"
READS = ("completion", "idle")
#: Two draws per grid point of a 3-rank, 4-step run.
DRAWS, SHAPE = 2, (3, 4)


def make_specs(n: int) -> "tuple[RunSpec, ...]":
    return tuple(
        RunSpec(fn=FN, params={"replicate": i}, seed=i, index=i)
        for i in range(n)
    )


def stacks_of(stream, reads=READS):
    """The stream's point stacks, ``DRAWS`` tasks per point."""
    return stream.stacks(reads, [(DRAWS, *SHAPE)] * (stream.n_tasks // DRAWS))


def stacked(values, reads=READS):
    """Task values stacked by hand, ``DRAWS`` per point."""
    return [{name: np.stack([v[name] for v in values[i:i + DRAWS]])
             for name in reads}
            for i in range(0, len(values), DRAWS)]


class RecordingStore:
    """Store wrapper that logs every get() the stream performs."""

    def __init__(self, inner):
        self.inner = inner
        self.gets: "list[str]" = []

    def __contains__(self, key):
        return key in self.inner

    def get(self, key, into=None):
        self.gets.append(key)
        return self.inner.get(key, into=into)

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
        """A point's records are read when the consumer asks for its stack."""
        store, specs = warm
        recording = RecordingStore(store)
        stacks = stacks_of(stream_campaign(specs, store=recording))
        assert recording.gets == []  # nothing read yet
        first = next(stacks)
        assert first["idle"][0].tolist() == \
            store.get(specs[0].key)["idle"].tolist()
        assert recording.gets == [s.key for s in specs[:2]]
        next(stacks)
        assert recording.gets == [s.key for s in specs[:4]]
        assert len(list(stacks)) == 1
        assert recording.gets == [s.key for s in specs]

    def test_counts_complete_after_exhaustion(self, warm):
        store, specs = warm
        stream = stream_campaign(specs, store=store)
        assert len(list(stacks_of(stream))) == 3
        assert stream.n_tasks == 6
        assert stream.n_loaded == 6 and stream.n_executed == 0

    def test_values_match_eager_fetch(self, warm):
        """Streamed stacks equal an eager, direct run_campaign's values
        stacked, bit for bit, and hold only the requested matrices."""
        store, specs = warm
        direct = stacked(run_campaign(specs, store=store).values())
        streamed = list(stacks_of(stream_campaign(specs, store=store)))
        assert len(streamed) == len(direct)
        for got, want in zip(streamed, direct):
            assert sorted(got) == sorted(READS)
            for name in READS:
                assert got[name].shape == (DRAWS, *SHAPE)
                assert got[name].tobytes() == want[name].tobytes()

    def test_streamed_arrays_are_caller_owned_copies(self, warm):
        store, specs = warm
        (stack,) = stacks_of(stream_campaign(specs[:2], store=store))
        arr = stack["idle"]
        assert isinstance(arr, np.ndarray) and arr.flags.writeable
        before = store.get(specs[0].key)["idle"][0, 0]
        arr[0, 0, 0] = -1.0  # mutating a stack never reaches the store
        assert store.get(specs[0].key)["idle"][0, 0] == before


class TestStreamFallback:
    def test_miss_degrades_to_eager_fetch(self, warm):
        """A miss runs the whole campaign, then stacks its values."""
        store, specs = warm
        extra = make_specs(8)[6:]  # two uncached tasks
        stream = stream_campaign(specs + extra, store=store)
        assert len(list(stacks_of(stream))) == 4
        assert stream.n_loaded == 6 and stream.n_executed == 2
        # The recomputed tasks are now cached for the next stream.
        follow = stream_campaign(specs + extra, store=store)
        list(stacks_of(follow))
        assert follow.n_loaded == 8 and follow.n_executed == 0

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_miss_reads_each_record_once(self, tmp_path, n_cached):
        store = ResultStore(tmp_path / "cache")
        specs = make_specs(6)
        run_campaign(specs[:n_cached], store=store)
        recording = RecordingStore(store)
        stream = stream_campaign(specs, store=recording)
        streamed = list(stacks_of(stream))
        assert recording.gets == [s.key for s in specs]
        assert stream.n_loaded == n_cached
        assert stream.n_executed == 6 - n_cached
        want = stacked([spec.call() for spec in specs])
        for got, expected in zip(streamed, want):
            for name in READS:
                assert got[name].tobytes() == expected[name].tobytes()

    def test_no_store_executes_everything(self):
        specs = make_specs(4)
        stream = stream_campaign(specs, store=None)
        assert len(list(stacks_of(stream))) == 2
        assert stream.n_loaded == 0 and stream.n_executed == 4

    def test_probe_race_recomputes_single_task(self, warm):
        store, specs = warm

        class VanishingStore(RecordingStore):
            """Passes the presence probe, then loses one record."""

            def get(self, key, into=None):
                self.gets.append(key)
                if key == specs[1].key:
                    return None  # gc'd between probe and read
                return self.inner.get(key, into=into)

        stream = CampaignStream(specs=specs, store=VanishingStore(store))
        streamed = list(stacks_of(stream))
        assert len(streamed) == 3
        assert streamed[0]["idle"][1].tobytes() == \
            store.get(specs[1].key)["idle"].tobytes()
        assert stream.n_loaded == 5 and stream.n_executed == 1


class TestGetInto:
    """``ResultStore.get(key, into=rows)`` as the stream stacks with it."""

    def planted(self, store, value):
        """One point of two tasks, task 1's record replaced by ``value``."""
        specs = make_specs(2)
        run_campaign(specs, store=store)
        store.put(specs[1].key, value)
        return specs

    def test_array_that_cannot_land_is_copied_into_its_row(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        idle = np.arange(12.0).reshape(SHAPE)
        completion = np.arange(12, dtype=np.float32).reshape(SHAPE)
        specs = self.planted(store, {"idle": np.asfortranarray(idle),
                                     "completion": completion})
        rows = {name: np.empty(SHAPE) for name in READS}
        value = store.get(specs[1].key, into=rows)
        for name in READS:  # read the ordinary way, not into the row
            assert value[name] is not rows[name]
        np.testing.assert_array_equal(value["idle"], idle)
        assert value["completion"].dtype == np.float32
        (stack,) = stacks_of(stream_campaign(specs, store=store))
        assert stack["idle"][1].tobytes() == idle.tobytes()
        assert stack["completion"][1].tobytes() == \
            completion.astype(float).tobytes()

    def test_landed_arrays_are_the_rows(self, warm):
        store, specs = warm
        rows = {name: np.empty(SHAPE) for name in READS}
        value = store.get(specs[0].key, into=rows)
        assert all(value[name] is rows[name] for name in READS)
        assert "exec_end" not in value  # never read
        whole = store.get(specs[0].key)
        for name in READS:
            assert rows[name].tobytes() == whole[name].tobytes()

    def test_shape_that_differs_from_the_stack_raises(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = self.planted(store, {"idle": np.zeros((3, 5)),
                                     "completion": np.zeros(SHAPE)})
        with pytest.raises(ValueError, match=r"timing record 1 has a idle "
                           r"matrix of shape \(3, 5\), expected \(3, 4\)"):
            list(stacks_of(stream_campaign(specs, store=store)))

    def test_record_missing_a_requested_matrix_raises(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = self.planted(store, {"completion": np.zeros(SHAPE)})
        with pytest.raises(KeyError,
                           match="timing record is missing the 'idle' matrix"):
            list(stacks_of(stream_campaign(specs, store=store)))

    @pytest.mark.parametrize("reads", [READS, ("completion",)])
    def test_torn_record_is_a_miss_and_recomputed(self, warm, reads):
        """A short record is a miss even when the torn bytes are in an
        array the read skips (``completion`` is stored first)."""
        store, specs = warm
        shard = next(iter((store.root / "shards").glob("*.shard")))
        # Tear the last entry (task 5's) under the live index.
        shard.write_bytes(shard.read_bytes()[:-3])
        rows = {name: np.empty(SHAPE) for name in reads}
        assert store.get(specs[5].key, into=rows) is None
        stream = stream_campaign(specs, store=store)
        last = list(stacks_of(stream, reads))[-1]
        want = specs[5].call()
        for name in reads:
            assert last[name][1].tobytes() == want[name].tobytes()
        assert stream.n_loaded == 5 and stream.n_executed == 1

    def test_read_bytes_counts_the_payload_and_the_requested_arrays(
            self, warm):
        from repro import telemetry

        store, specs = warm
        entry = next(e for e in store.entries() if e.key == specs[0].key)
        rows = {name: np.empty(SHAPE) for name in READS}
        rec = telemetry.enable()
        try:
            store.get(specs[0].key, into=rows)
            read_into = rec.counters["store.read_bytes"]
            store.get(specs[0].key)
            read_whole = rec.counters["store.read_bytes"] - read_into
        finally:
            telemetry.disable()
        assert read_into == entry.json_len + 2 * 3 * 4 * 8
        assert read_whole == entry.json_len + entry.arr_len
