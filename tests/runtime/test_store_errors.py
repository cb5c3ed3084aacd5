"""Store failure semantics: fail fast, fail typed, never leave torn state."""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.runtime import ResultStore, StoreError, SweepSpec, executor, \
    run_campaign, shards


class TestEnsureWritable:
    def test_writable_directory_passes_and_leaves_no_residue(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.ensure_writable()
        assert not list((tmp_path / "cache").rglob(".writable.*"))

    def test_root_that_is_a_file_fails_fast(self, tmp_path):
        bogus = tmp_path / "cache"
        bogus.write_text("not a directory")
        store = ResultStore(bogus)
        with pytest.raises(StoreError, match="not writable"):
            store.ensure_writable()

    def test_uncreatable_root_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = ResultStore(blocker / "cache")
        with pytest.raises(StoreError, match="not writable"):
            store.ensure_writable()


    def test_blocked_shards_dir_fails_fast(self, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "shards").write_text("a file, not a directory")
        with pytest.raises(StoreError, match="not writable"):
            ResultStore(tmp_path / "cache").ensure_writable()


class TestPutErrors:
    def test_write_failure_raises_store_error_with_key(self, tmp_path,
                                                       monkeypatch):
        store = ResultStore(tmp_path / "cache")

        def enospc_open(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shards, "open", enospc_open, raising=False)
        with pytest.raises(StoreError, match="'aa11'.*No space left"):
            store.put("aa11", {"x": 1})
        monkeypatch.undo()
        # The failed key never became a phantom hit, and no shard file
        # was left half-opened.
        assert store.get("aa11") is None
        assert not list((tmp_path / "cache" / "shards").glob("*.shard"))
        store.put("aa11", {"x": 1})  # space is back: the store recovers
        assert ResultStore(tmp_path / "cache").get("aa11") == {"x": 1}

    def test_blocked_shards_dir_raises_store_error_with_key(self, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "shards").write_text("a file, not a directory")
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(StoreError, match="'aa11'"):
            store.put("aa11", {"x": 1})
        assert store.get("aa11") is None


class TestWorkerWriteErrors:
    """A pool worker writes the records it computes; its failed write is
    the same store error a failed write in the parent is."""

    @pytest.fixture
    def full_disk_in_workers(self, monkeypatch):
        """Every append outside this process fails (patched before the
        pool forks, so the workers inherit it)."""
        parent, real = os.getpid(), shards.PackedShards.append

        def append(self, key, *args, **kwargs):
            if os.getpid() != parent:
                raise StoreError(f"result store write of {key!r} failed: "
                                 "[Errno 28] No space left on device")
            return real(self, key, *args, **kwargs)

        monkeypatch.setattr(shards.PackedShards, "append", append)

    def test_run_campaign_raises_it_as_a_store_error(
            self, tmp_path, full_disk_in_workers):
        sweep = SweepSpec(fn="executor_tasks:rng_probe_task", base={"n": 2},
                          axes=(("replicate", tuple(range(6))),),
                          base_seed=1)
        with pytest.raises(StoreError, match="No space left on device"):
            run_campaign(sweep.tasks(), jobs=2,
                         store=ResultStore(tmp_path / "cache"))

    @pytest.mark.parametrize("argv", [
        ["scenario", "sweep", "campaign_rate_sweep"],
        ["report", "run", "campaign_rate_response"],
    ], ids=["scenario-sweep", "report-run"])
    def test_clis_print_store_error_and_exit_2(
            self, tmp_path, capsys, full_disk_in_workers, argv):
        from repro.cli import main

        assert main([*argv, "--jobs", "2", "--no-progress",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert "store error: " in err and "No space left on device" in err
        assert "Traceback" not in err


class _EnospcAfter:
    """File-handle proxy: first ``ok_writes`` writes land, the rest ENOSPC.

    Everything else (tell/truncate/seek/flush/close) passes through, so
    the shard writer's truncate-back recovery runs against the real file.
    """

    def __init__(self, fh, ok_writes=1):
        self._fh = fh
        self._budget = ok_writes

    def write(self, data):
        if self._budget <= 0:
            raise OSError(28, "No space left on device")
        self._budget -= 1
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _InterruptAfter(_EnospcAfter):
    """The same proxy, but the first write past the budget meets a ^C
    (``KeyboardInterrupt`` between two of an entry's writes)."""

    def write(self, data):
        if self._budget <= 0:
            raise KeyboardInterrupt
        return super().write(data)


class _StuckTail(_EnospcAfter):
    """The ENOSPC proxy, whose truncate fails too: the torn bytes stay."""

    def truncate(self, size=None):
        raise OSError(28, "No space left on device")


def _put_in_worker(key, interrupt=False):
    """Pool task: one put into the worker's campaign store.  With
    ``interrupt`` a ^C lands after the entry's header and JSON payload,
    before its array bytes; returns the worker's pid."""
    packed = executor._worker_store._shards
    if interrupt:
        pid, name, real_fh, idx_fh = packed._writer_handles()
        packed._writer = (pid, name, _InterruptAfter(real_fh, ok_writes=2),
                          idx_fh)
    try:
        executor._worker_store.put(key, {"key": key, "arr": np.arange(4.0)},
                                   spec={"fn": "f", "seed": 0})
    finally:
        if interrupt and packed._writer is not None:
            packed._writer = (pid, name, real_fh, idx_fh)
    return os.getpid()


class TestPackedAppendErrors:
    def test_enospc_mid_append_truncates_and_keeps_index_consistent(
            self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put("aa01", {"x": 1}, spec={"fn": "f", "seed": 0})

        shards = store._shards
        pid, name, real_fh, idx_fh = shards._writer
        size_before = real_fh.tell()
        shards._writer = (pid, name, _EnospcAfter(real_fh, ok_writes=1),
                          idx_fh)
        with pytest.raises(StoreError, match="mid-write.*No space left"):
            store.put("dd00", {"x": 2, "arr": np.arange(4)},
                      spec={"fn": "f", "seed": 1})
        shards._writer = (pid, name, real_fh, idx_fh)

        # The torn entry was cut away and never indexed.
        assert real_fh.tell() == size_before
        assert store.get("dd00") is None
        # The store keeps working once space returns.
        store.put("aa02", {"x": 3}, spec={"fn": "f", "seed": 2})
        reread = ResultStore(tmp_path / "cache")
        assert sorted(reread.keys()) == ["aa01", "aa02"]
        assert reread.get("aa01") == {"x": 1}
        assert reread.get("aa02") == {"x": 3}

    def test_interrupt_mid_append_truncates_and_later_appends_read(
            self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put("aa01", {"x": 1}, spec={"fn": "f", "seed": 0})

        packed = store._shards
        pid, name, real_fh, idx_fh = packed._writer
        size_before = real_fh.tell()
        packed._writer = (pid, name, _InterruptAfter(real_fh, ok_writes=2),
                          idx_fh)
        with pytest.raises(KeyboardInterrupt):
            store.put("dd00", {"x": 2, "arr": np.arange(4)},
                      spec={"fn": "f", "seed": 1})
        packed._writer = (pid, name, real_fh, idx_fh)

        # The header and payload that landed were cut away, so the next
        # append follows the last whole entry.
        assert real_fh.tell() == size_before
        store.put("aa02", {"x": 3}, spec={"fn": "f", "seed": 2})
        [path] = packed.shard_paths()
        assert [e.key for e in packed.scan_shard(path)] == ["aa01", "aa02"]
        reread = ResultStore(tmp_path / "cache")
        assert sorted(reread.keys()) == ["aa01", "aa02"]
        assert reread.get("aa02") == {"x": 3}

    def test_torn_tail_that_cannot_be_cut_retires_the_writer(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put("aa01", {"x": 1}, spec={"fn": "f", "seed": 0})

        packed = store._shards
        pid, name, real_fh, idx_fh = packed._writer
        packed._writer = (pid, name, _StuckTail(real_fh, ok_writes=1), idx_fh)
        with pytest.raises(StoreError, match="mid-write"):
            store.put("dd00", {"x": 2}, spec={"fn": "f", "seed": 1})
        # The next append opens a fresh shard instead of landing behind
        # the torn bytes.
        assert packed._writer is None
        store.put("aa02", {"x": 3}, spec={"fn": "f", "seed": 2})
        assert len(packed.shard_paths()) == 2
        reread = ResultStore(tmp_path / "cache")
        assert sorted(reread.keys()) == ["aa01", "aa02"]
        assert reread.get("aa02") == {"x": 3}

    def test_interrupted_worker_append_leaves_later_appends_readable(
            self, tmp_path):
        """A terminal ^C reaches pool workers too, and a worker goes on
        to the units already queued for it: what it appends after an
        interrupted append must still be found."""
        root = tmp_path / "cache"
        with ProcessPoolExecutor(max_workers=1,
                                 initializer=executor._init_worker,
                                 initargs=(ResultStore(root),)) as pool:
            first = pool.submit(_put_in_worker, "aa01").result()
            with pytest.raises(KeyboardInterrupt):
                pool.submit(_put_in_worker, "bb02", True).result()
            later = pool.submit(_put_in_worker, "cc03").result()
        assert first == later != os.getpid()  # one worker, on past the ^C

        packed = shards.PackedShards(root / shards.SHARD_DIR)
        [path] = packed.shard_paths()
        assert [e.key for e in packed.scan_shard(path)] == ["aa01", "cc03"]
        reread = ResultStore(root)
        assert sorted(reread.keys()) == ["aa01", "cc03"]
        np.testing.assert_array_equal(reread.get("cc03")["arr"],
                                      np.arange(4.0))


class TestCorruptDescriptors:
    """A record whose CRC holds but whose array descriptor is wrongly
    typed is unreadable: ``get`` counts it as a miss, never raises."""

    @pytest.mark.parametrize("field, bad", [("shape", 4), ("dtype", 7)])
    def test_wrong_typed_descriptor_is_a_miss(self, tmp_path, monkeypatch,
                                              field, bad):
        describe = shards._describe_array

        def corrupt(arr, offset):
            descr, contig = describe(arr, offset)
            return {**descr, field: bad}, contig

        monkeypatch.setattr(shards, "_describe_array", corrupt)
        ResultStore(tmp_path / "cache").put("aa11", {"arr": np.arange(4.0)})
        monkeypatch.undo()

        store = ResultStore(tmp_path / "cache")
        assert "aa11" in store  # the entry scans as whole
        assert store.get("aa11") is None
        # The miss is recomputed and written again, as for a torn record.
        store.put("aa11", {"arr": np.arange(4.0)})
        np.testing.assert_array_equal(store.get("aa11")["arr"],
                                      np.arange(4.0))
