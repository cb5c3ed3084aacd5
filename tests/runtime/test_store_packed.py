"""Packed shard backend: round-trips, crash consistency, legacy leftovers.

Torn shard tails, truncated/corrupt sidecar indexes, concurrent
multi-writer appends, a byte-identity property over arbitrary records,
and what happens to a directory the retired per-file layout left behind
(it reads as cold, and ``gc`` removes it).
"""

import json
import multiprocessing
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.runtime import RunSpec, run_campaign
from repro.runtime.shards import _HEADER, _MAGIC, PackedShards
from repro.runtime.store import ResultStore

KEY = "ab" * 16


def keyn(i: int) -> str:
    return f"{i:032x}"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestPackedRoundTrip:
    def test_plain_json_fields(self, store):
        value = {"runtime": 0.125, "n": 3, "tags": ["a", "b"], "ok": True}
        store.put(KEY, value)
        assert store.get(KEY) == value
        assert [p.name for p in store.root.iterdir()] == ["shards"]

    def test_float_bits_survive(self, store):
        value = {"x": 0.1 + 0.2, "y": 1e-300}
        store.put(KEY, value)
        loaded = store.get(KEY)
        assert loaded["x"].hex() == value["x"].hex()
        assert loaded["y"].hex() == value["y"].hex()

    def test_ndarray_fields(self, store):
        arr = np.linspace(0.0, 1.0, 7)
        store.put(KEY, {"curve": arr, "n": 7})
        loaded = store.get(KEY)
        np.testing.assert_array_equal(loaded["curve"], arr)
        assert loaded["curve"].dtype == arr.dtype
        assert loaded["curve"].flags.writeable  # default read copies
        assert loaded["n"] == 7

    def test_fortran_and_empty_and_0d_arrays(self, store):
        f = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        store.put(KEY, {"f": f, "empty": np.zeros((0, 3)), "s": np.float32(2.5)})
        loaded = store.get(KEY)
        np.testing.assert_array_equal(loaded["f"], f)
        assert loaded["f"].flags.f_contiguous
        assert loaded["empty"].shape == (0, 3)
        assert loaded["s"] == 2.5  # numpy scalar stored as plain field

    def test_object_dtype_rejected(self, store):
        with pytest.raises(TypeError, match="object-dtype"):
            store.put(KEY, {"bad": np.array([object()])})

    def test_spec_recorded_for_provenance(self, store):
        store.put(KEY, {"x": 1}, spec={"fn": "m:f", "seed": 9})
        entry = next(iter(store.entries()))
        assert entry.fn == "m:f" and entry.seed == 9

    def test_cross_instance_read(self, store):
        store.put(KEY, {"x": 1})
        fresh = ResultStore(store.root)
        assert fresh.get(KEY) == {"x": 1}

    def test_last_write_wins_for_duplicate_keys(self, store):
        store.put(KEY, {"x": 1})
        store.put(KEY, {"x": 2})
        assert store.get(KEY) == {"x": 2}
        assert list(store.keys()) == [KEY]

    def test_keys_and_contains(self, store):
        keys = [keyn(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        assert sorted(store.keys()) == sorted(keys)
        assert keys[0] in store and "ff" * 16 not in store


class TestShortKeys:
    def test_put_rejects_sub_fanout_keys(self, store):
        # Content hashes are long hex strings; a 0/1-char key is a
        # caller bug, rejected before anything is written.
        for key in ("a", ""):
            with pytest.raises(ValueError, match="malformed"):
                store.put(key, {"x": 1})
        assert not store.root.exists()


class TestCorruptNpzSidecar:
    """A per-file record of the earlier layout is never read — not even
    a corrupt or truncated NPZ side-car, which used to crash
    ``np.load`` — and ``gc`` leaves its fan-out directory alone."""

    @pytest.fixture
    def legacy(self, store, legacy_record):
        legacy_record(store.root, KEY, {"n": 4}, {"curve": np.arange(4.0)})
        return store

    def npz(self, store):
        return store.root / KEY[:2] / f"{KEY}.npz"

    def test_garbage_npz_is_a_miss(self, legacy):
        self.npz(legacy).write_bytes(b"not a zip at all")
        assert legacy.get(KEY) is None

    def test_truncated_npz_is_a_miss(self, legacy):
        path = self.npz(legacy)
        path.write_bytes(path.read_bytes()[:20])
        assert legacy.get(KEY) is None

    def test_gc_dry_run_keeps_the_pair(self, legacy):
        self.npz(legacy).write_bytes(b"junk")
        stats = legacy.gc(dry_run=True, min_age_s=0)
        assert stats.n_removed == 0
        assert self.npz(legacy).exists()


class TestLegacyLayout:
    def test_legacy_pair_reads_cold_and_gc_leaves_it(
            self, store, legacy_record):
        spec = RunSpec(fn="executor_tasks:rng_probe_task",
                       params={"n": 3}, seed=5)
        legacy = legacy_record(store.root, spec.key, {"seed": 5},
                               {"draws": np.ones(3)})
        assert spec.key not in store and store.get(spec.key) is None

        cold = run_campaign([spec], store=store)
        assert cold.n_executed == 1 and cold.n_cached == 0
        assert sorted(store.keys()) == [spec.key]  # now in a shard

        assert store.gc(min_age_s=0).n_removed == 0
        assert legacy.exists() and legacy.with_suffix(".npz").exists()

        warm = run_campaign([spec], store=ResultStore(store.root))
        assert warm.n_cached == 1
        assert warm.values() == cold.values()

    def test_non_hex_two_char_dirs_are_not_legacy(self, store):
        (store.root / "zz").mkdir(parents=True)
        assert store.gc(min_age_s=0).n_removed == 0
        assert (store.root / "zz").exists()


class TestTornShard:
    def test_torn_tail_loses_only_the_last_entry(self, store):
        for i in range(3):
            store.put(keyn(i), {"i": i, "arr": np.arange(10.0) + i})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        shard.write_bytes(shard.read_bytes()[:-7])  # tear mid-array
        (store.root / "shards" / f"{shard.name}.idx").unlink()
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(2)) is None  # torn entry: a miss
        for i in range(2):  # earlier entries intact
            assert fresh.get(keyn(i))["i"] == i

    def test_torn_json_payload_stops_the_scan(self, store):
        store.put(keyn(0), {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        data = bytearray(shard.read_bytes())
        data[_HEADER.size + 2] ^= 0xFF  # corrupt the record JSON
        shard.write_bytes(bytes(data))
        (store.root / "shards" / f"{shard.name}.idx").unlink()
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) is None  # CRC catches the damage

    def test_committed_entry_survives_a_torn_tail(self, store):
        """A writer killed mid-append leaves a partial header behind a
        committed, indexed entry; a fresh reader keeps the entry and
        scans no further."""
        store.put(keyn(0), {"x": 1}, spec={"fn": "f", "seed": 0})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        with open(shard, "ab") as fh:
            fh.write(_MAGIC + b"\x7f\x7f\x7f")
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) == {"x": 1}
        assert list(fresh.keys()) == [keyn(0)]

    def test_recovered_after_recompute(self, store):
        store.put(keyn(0), {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        shard.write_bytes(shard.read_bytes()[:-3])
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) is None
        fresh.put(keyn(0), {"x": 1})  # the recompute path
        assert fresh.get(keyn(0)) == {"x": 1}


class TestTruncatedIndex:
    def test_missing_index_recovered_by_scan(self, store):
        for i in range(4):
            store.put(keyn(i), {"i": i})
        for idx in (store.root / "shards").glob("*.idx"):
            idx.unlink()
        fresh = ResultStore(store.root)
        assert {fresh.get(keyn(i))["i"] for i in range(4)} == set(range(4))

    def test_torn_index_tail_recovered_by_scan(self, store):
        for i in range(4):
            store.put(keyn(i), {"i": i})
        idx = next(iter((store.root / "shards").glob("*.idx")))
        text = idx.read_text().splitlines(keepends=True)
        idx.write_text("".join(text[:2]) + text[2][:10])  # torn line 3
        fresh = ResultStore(store.root)
        assert {fresh.get(keyn(i))["i"] for i in range(4)} == set(range(4))

    def test_garbage_index_recovered_by_scan(self, store):
        store.put(keyn(0), {"i": 0})
        idx = next(iter((store.root / "shards").glob("*.idx")))
        idx.write_text('{"key": "wrong", "offset": 999999}\nGARBAGE\n')
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) == {"i": 0}


def _writer_proc(root, start, n):
    store = ResultStore(root)
    for i in range(start, start + n):
        store.put(keyn(i), {"i": i, "arr": np.full(5, float(i))})


class TestConcurrentWriters:
    def test_two_writers_never_collide(self, tmp_path):
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer_proc, args=(root, s, 25))
                 for s in (0, 25)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = ResultStore(root)
        assert len(list(store.keys())) == 50
        for i in range(50):
            value = store.get(keyn(i))
            assert value["i"] == i
            np.testing.assert_array_equal(value["arr"], np.full(5, float(i)))
        # each process appended to its own shard file
        assert len(list((root / "shards").glob("*.shard"))) == 2

    def test_forked_child_opens_its_own_shard(self, tmp_path):
        root = tmp_path / "cache"
        store = ResultStore(root)
        store.put(keyn(0), {"i": 0})  # parent owns a writer handle now
        ctx = multiprocessing.get_context("fork")

        def child():
            store.put(keyn(1), {"i": 1})  # inherited instance, new pid

        p = ctx.Process(target=child)
        p.start()
        p.join()
        assert p.exitcode == 0
        fresh = ResultStore(root)
        assert fresh.get(keyn(1)) == {"i": 1}
        assert len(list((root / "shards").glob("*.shard"))) == 2


_plain_values = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
)
_arrays = npst.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
    shape=npst.array_shapes(max_dims=3, max_side=4),
)
_records = st.dictionaries(
    keys=st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    values=st.one_of(_plain_values, _arrays),
    max_size=5,
)


class TestRoundTripProperty:
    @given(record=_records, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_any_record_round_trips_byte_identically(
            self, tmp_path_factory, record, seed):
        root = tmp_path_factory.mktemp("prop") / "cache"
        ResultStore(root).put(KEY, record, spec={"fn": "m:prop", "seed": seed})
        after = ResultStore(root).get(KEY)  # fresh instance: index reload
        assert set(after) == set(record)
        for name, item in record.items():
            if isinstance(item, np.ndarray):
                assert after[name].dtype == item.dtype
                assert after[name].shape == item.shape
                assert after[name].tobytes() == item.tobytes()
            elif isinstance(item, float):
                assert after[name].hex() == item.hex()
            else:
                assert after[name] == item


class TestShardInternals:
    def test_entry_header_layout(self, store):
        store.put(KEY, {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        raw = shard.read_bytes()
        magic, crc, json_len, arr_len = _HEADER.unpack(raw[:_HEADER.size])
        assert magic == _MAGIC and arr_len == 0
        payload = raw[_HEADER.size:_HEADER.size + json_len]
        assert zlib.crc32(payload) == crc
        assert json.loads(payload)["key"] == KEY

    def test_pickling_drops_process_local_state(self, store):
        import pickle

        store.put(KEY, {"x": 1})
        clone = pickle.loads(pickle.dumps(store._shards))
        assert isinstance(clone, PackedShards)
        assert clone._writer is None and not clone._index
        assert clone.read(KEY)[1] == {"x": 1}
