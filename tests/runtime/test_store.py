"""Unit tests for the content-addressed on-disk result store."""

import numpy as np
import pytest

from repro.runtime import ResultStore

KEY = "ab" * 16


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestRoundTrip:
    def test_plain_json_fields(self, store):
        value = {"runtime": 0.125, "n": 3, "tags": ["a", "b"], "ok": True}
        store.put(KEY, value)
        assert store.get(KEY) == value

    def test_float_bits_survive(self, store):
        value = {"x": 0.1 + 0.2, "y": 1e-300}
        store.put(KEY, value)
        loaded = store.get(KEY)
        assert loaded["x"].hex() == value["x"].hex()
        assert loaded["y"].hex() == value["y"].hex()

    def test_arrays_are_writeable_and_not_memmap_views(self, store):
        # Reads copy: nothing of the shard stays mapped (and resident)
        # once get() returns, and the caller owns what it got.
        store.put(KEY, {"m": np.arange(6.0).reshape(2, 3),
                        "i": np.arange(4, dtype=np.int32)})
        value = store.get(KEY)
        for arr in (value["m"], value["i"]):
            assert arr.flags.writeable and arr.flags.aligned
            base = arr
            while base is not None:
                assert not isinstance(base, np.memmap)
                base = getattr(base, "base", None)
        value["m"][0, 0] = -1.0
        assert store.get(KEY)["m"][0, 0] == 0.0

    def test_numpy_scalars_stored_as_python(self, store):
        store.put(KEY, {"a": np.float64(0.5), "b": np.int64(4)})
        assert store.get(KEY) == {"a": 0.5, "b": 4}

    def test_spec_recorded_for_provenance(self, store, shard_record):
        store.put(KEY, {"x": 1}, spec={"fn": "m:f", "seed": 9})
        record = shard_record(store.root, KEY)
        assert record["spec"] == {"fn": "m:f", "seed": 9}
        assert record["key"] == KEY


class TestMissesAndErrors:
    def test_missing_key_is_none(self, store):
        assert store.get(KEY) is None
        assert KEY not in store

    def test_torn_record_counts_as_miss(self, store):
        shard = store.put(KEY, {"x": 1, "curve": np.ones(3)})
        shard.write_bytes(shard.read_bytes()[:-3])  # torn under the index
        assert store.get(KEY) is None
        assert ResultStore(store.root).get(KEY) is None  # and re-scanned

    def test_missing_npz_sidecar_counts_as_miss(self, store, legacy_record):
        # The retired per-file layout is never read, whole or broken.
        path = legacy_record(store.root, KEY, {"n": 3}, {"curve": np.ones(3)})
        path.with_suffix(".npz").unlink()
        assert store.get(KEY) is None
        assert KEY not in store

    def test_non_mapping_value_rejected(self, store):
        with pytest.raises(TypeError, match="mappings"):
            store.put(KEY, [1, 2, 3])

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed"):
            store.put("../escape", {"x": 1})


class TestMaintenance:
    def test_keys_are_sorted(self, store):
        keys = [f"{i:032x}" for i in (2, 0, 1)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i, "arr": np.arange(i + 1)})
        assert list(store.keys()) == sorted(keys)

    def test_empty_store_iterates_nothing(self, store):
        assert list(store.keys()) == []
