"""Tests for store maintenance: ``ResultStore.entries``/``gc`` + the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main as repro_main
from repro.runtime.cli import store_main
from repro.runtime.shards import _HEADER
from repro.runtime.store import ResultStore


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put("aa" * 16, {"x": 1.0}, spec={"fn": "m:f", "seed": 7})
    store.put("bb" * 16, {"arr": np.arange(4.0)})
    return store


@pytest.fixture
def legacy(store, legacy_record):
    """The store plus a ``bb/`` pair the retired per-file layout wrote."""
    return legacy_record(store.root, "bb" * 16, {"n": 4},
                         {"arr": np.arange(4.0)})


class TestEntries:
    def test_metadata(self, store):
        entries = {e.key: e for e in store.entries()}
        assert set(entries) == {"aa" * 16, "bb" * 16}
        plain = entries["aa" * 16]
        assert plain.fn == "m:f" and plain.seed == 7
        assert plain.npz_bytes == 0 and plain.json_bytes > 0
        arrays = entries["bb" * 16]
        assert arrays.n_arrays == 1 and arrays.npz_bytes > 0
        assert arrays.total_bytes == arrays.json_bytes + arrays.npz_bytes

    def test_empty_store(self, tmp_path):
        assert list(ResultStore(tmp_path / "nope").entries()) == []

    def test_mtime_comes_from_stat(self, store):
        import os

        (shard,) = (store.root / "shards").glob("*.shard")
        os.utime(shard, (1_000_000_000, 1_000_000_000))
        assert {e.mtime for e in store.entries()} == {1_000_000_000}

    def test_torn_and_partial_records_are_skipped(self, store):
        """A store holding torn records lists only the readable ones.

        Each flavor of damage tears the tail of its own shard (a shard is
        append-only, so only its tail can tear): a record truncated
        mid-payload, mid-header, mid-array segment, and plain garbage
        bytes — with the sidecar index kept or lost.
        """
        for i, mutilate in enumerate([
            lambda b: b[: _HEADER.size + 10],                 # mid-payload
            lambda b: b[:8],                                  # mid-header
            lambda b: b[:-5],                                 # mid-arrays
            lambda b: b"\xff\xfe garbage",                    # garbage
        ]):
            key = f"{i}{i}" * 16
            writer = ResultStore(store.root)  # a fresh writer, own shard
            shard = writer.put(key, {"x": list(range(50)),
                                     "arr": np.arange(3.0)},
                               spec={"fn": "m:f", "seed": i})
            shard.write_bytes(mutilate(shard.read_bytes()))
            if i % 2:
                shard.with_name(shard.name + ".idx").unlink()
        assert {e.key for e in ResultStore(store.root).entries()} \
            == {"aa" * 16, "bb" * 16}

    def test_header_parse_skips_large_payloads(self, store):
        """Listing reads the sidecar index, never the record payload.

        A payload much larger than its metadata, containing decoy
        strings that *look* like record fields, still lists with the
        right provenance.
        """
        key = "cc" * 16
        decoy = '\n "spec": {"fn": "evil"}'
        store.put(
            key,
            {"blob": [decoy] * 20_000, "arr": np.arange(3.0)},
            spec={"fn": "m:big", "seed": 9},
        )
        entry = {e.key: e for e in ResultStore(store.root).entries()}[key]
        assert entry.fn == "m:big" and entry.seed == 9 and entry.n_arrays == 1
        assert entry.json_bytes > 20_000 * len(decoy)


class TestGc:
    def test_nothing_to_do(self, store):
        stats = store.gc()
        assert stats.n_removed == 0 and stats.bytes_freed == 0
        assert len(store) == 2

    def test_orphan_npz_removed(self, store, legacy):
        legacy.unlink()  # leaves the NPZ orphaned in its fan-out dir
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy_dirs == 1 and stats.bytes_freed > 0
        assert not legacy.parent.exists()
        assert store.get("aa" * 16) == {"x": 1.0}  # shard records untouched
        assert len(store) == 2

    def test_torn_record_removed_with_sidecar(self, store, legacy):
        legacy.write_text("{not json")
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy_dirs == 1
        assert not legacy.exists()
        assert not legacy.with_suffix(".npz").exists()

    def test_stale_tmp_files_removed(self, store):
        tmp = store.root / "shards" / ".leftover.idx.x1y2"
        tmp.write_text("partial")
        stats = store.gc(min_age_s=0)
        assert stats.n_tmp == 1
        assert not tmp.exists()

    def test_fresh_tmp_files_survive(self, store):
        # A concurrent writer's live temp file must not be unlinked.
        tmp = store.root / "shards" / ".inflight.idx.x1y2"
        tmp.write_text("partial")
        stats = store.gc()
        assert stats.n_tmp == 0
        assert tmp.exists()

    def test_fresh_orphan_npz_survives(self, store, legacy):
        # --min-age spares a fan-out dir touched within the window.
        legacy.unlink()
        stats = store.gc()
        assert stats.n_legacy_dirs == 0
        assert legacy.with_suffix(".npz").exists()

    def test_dry_run_deletes_nothing(self, store, legacy):
        stats = store.gc(dry_run=True, min_age_s=0)
        assert stats.n_legacy_dirs == 1
        assert legacy.exists() and legacy.with_suffix(".npz").exists()

    def test_missing_root(self, tmp_path):
        stats = ResultStore(tmp_path / "nope").gc()
        assert stats.n_removed == 0


class TestGcObservability:
    """gc also maintains the obs side-dirs: <cache>/telemetry/ JSONL no
    ledger record references, torn run records, and abandoned temps —
    never a valid ledger record (provenance is not cache)."""

    @pytest.fixture
    def obs_store(self, store):
        runs = store.root / "runs"
        tele = store.root / "telemetry"
        runs.mkdir()
        tele.mkdir()
        (tele / "kept.jsonl").write_text('{"type": "meta"}\n')
        (runs / "sweep-a.json").write_text(json.dumps(
            {"id": "sweep-a", "telemetry": str(tele / "kept.jsonl")}) + "\n")
        return store

    def test_referenced_telemetry_and_valid_records_survive(self, obs_store):
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_removed == 0
        assert (obs_store.root / "runs" / "sweep-a.json").exists()
        assert (obs_store.root / "telemetry" / "kept.jsonl").exists()

    def test_orphan_telemetry_removed(self, obs_store):
        orphan = obs_store.root / "telemetry" / "orphan.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_orphan_telemetry == 1 and stats.bytes_freed > 0
        assert not orphan.exists()
        assert (obs_store.root / "telemetry" / "kept.jsonl").exists()

    def test_fresh_orphan_telemetry_survives(self, obs_store):
        # A live --profile run writes telemetry before its ledger record.
        orphan = obs_store.root / "telemetry" / "inflight.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc()  # default min-age spares young files
        assert stats.n_orphan_telemetry == 0
        assert orphan.exists()

    def test_torn_run_record_removed(self, obs_store):
        torn = obs_store.root / "runs" / "torn.json"
        torn.write_text('{"id": "tor')
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_torn_runs == 1
        assert not torn.exists()

    def test_ledger_temp_files_counted_as_tmp(self, obs_store):
        (obs_store.root / "runs" / ".sweep-b.json.x1").write_text("p")
        (obs_store.root / "telemetry" / ".w.jsonl.x2").write_text("p")
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_tmp == 2
        assert stats.n_orphan_telemetry == 0

    def test_dry_run_reports_without_deleting(self, obs_store):
        orphan = obs_store.root / "telemetry" / "orphan.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc(dry_run=True, min_age_s=0)
        assert stats.n_orphan_telemetry == 1 and stats.bytes_freed > 0
        assert orphan.exists()

    def test_cli_reports_new_categories(self, obs_store, capsys):
        (obs_store.root / "telemetry" / "orphan.jsonl").write_text("{}\n")
        (obs_store.root / "runs" / "torn.json").write_text("{")
        assert store_main(["gc", "--cache-dir", str(obs_store.root),
                           "--min-age", "0"]) == 0
        out = capsys.readouterr().out
        assert "1 orphan telemetry" in out
        assert "1 torn run record(s)" in out
        assert "removed 2 item(s)" in out

    def test_end_to_end_profiled_sweep_then_gc(self, tmp_path, capsys):
        """A real profiled sweep's ledger + telemetry are never pruned."""
        from repro.scenarios.cli import scenario_main

        store_dir = tmp_path / "cache"
        assert scenario_main([
            "sweep", "campaign_rate_sweep", "--cache-dir", str(store_dir),
            "--profile", "--no-progress",
        ]) == 0
        capsys.readouterr()
        stats = ResultStore(store_dir).gc(min_age_s=0)
        assert stats.n_removed == 0
        assert list((store_dir / "runs").glob("*.json"))
        assert list((store_dir / "telemetry").glob("*.jsonl"))


class TestCli:
    def test_ls(self, store, capsys):
        assert store_main(["ls", "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "m:f" in out and "2 result(s)" in out

    def test_ls_json(self, store, capsys):
        assert store_main(["ls", "--cache-dir", str(store.root),
                           "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {e["key"] for e in doc} == {"aa" * 16, "bb" * 16}

    def test_ls_empty(self, tmp_path, capsys):
        assert store_main(["ls", "--cache-dir", str(tmp_path / "e")]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_gc_reports_counts(self, store, legacy, capsys):
        assert store_main(["gc", "--cache-dir", str(store.root),
                           "--min-age", "0"]) == 0
        assert "removed 1 item(s): 1 legacy per-file dir(s)" \
            in capsys.readouterr().out
        assert not legacy.exists()

    def test_gc_dry_run(self, store, legacy, capsys):
        assert store_main(["gc", "--cache-dir", str(store.root),
                           "--dry-run", "--min-age", "0"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert legacy.exists()

    def test_main_wiring(self, store, capsys):
        assert repro_main(["store", "ls", "--cache-dir",
                           str(store.root)]) == 0
        assert "2 result(s)" in capsys.readouterr().out
