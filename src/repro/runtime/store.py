"""Content-addressed on-disk result store for campaign runs.

Every task result is addressed by the task's content hash
(:func:`repro.runtime.spec.spec_key`), so a rerun of the same campaign —
same function, parameters, and derived seed — finds its results already
on disk and skips the simulation entirely, while any change to the spec
transparently misses the cache.

Records live in packed shards (:mod:`repro.runtime.shards`): append-only
files of length-prefixed records with raw array segments and a sidecar
index per shard.  Listing a 10k-record store parses a handful of index
files instead of touching 10k records, and writes are concurrent-
multi-writer safe because every process appends to its own shard file —
concurrent campaign processes sharing one cache directory never observe
torn records.

A directory written by the retired per-file layout (``??/<key>.json``
records with ``.npz`` side-cars) is never read: the store is a cache, so
those tasks simply miss and recompute into shards, and
:meth:`ResultStore.gc` deletes the leftover fan-out directories.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import telemetry
from repro.runtime.shards import PackedShards, SHARD_DIR, StoreError

__all__ = ["GcStats", "ResultStore", "StoreEntry", "StoreError"]

_HEX = frozenset("0123456789abcdef")


def _check_key(key: str) -> None:
    """Reject anything but a lowercase hex content hash of >= 2 chars."""
    if len(key) < 2 or not _HEX.issuperset(key):
        raise ValueError(f"malformed store key: {key!r}")


def _is_legacy_dir(path: Path) -> bool:
    """A two-hex-character fan-out directory of the retired per-file layout."""
    return len(path.name) == 2 and _HEX.issuperset(path.name) and path.is_dir()


def _split_arrays(value: Mapping) -> "tuple[dict, dict]":
    """Separate ndarray fields (array payloads) from plain JSON fields."""
    plain, arrays = {}, {}
    for name, item in value.items():
        if not isinstance(name, str):
            raise TypeError(f"result field names must be str, got {name!r}")
        if isinstance(item, np.ndarray):
            arrays[name] = item
        elif isinstance(item, np.generic):
            plain[name] = item.item()
        else:
            plain[name] = item
    return plain, arrays


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored result (no array payloads loaded).

    ``fn`` and ``seed`` come from the provenance ``spec`` the executor
    records next to each value; they are ``None`` for records written
    without one.  ``json_bytes`` is the record's JSON payload and
    ``npz_bytes`` its raw array segment, both from the shard index;
    ``mtime`` is the owning shard file's.  Listing a store never reads
    result payloads.
    """

    key: str
    json_bytes: int
    npz_bytes: int
    fn: "str | None"
    seed: "int | None"
    n_arrays: int
    mtime: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.json_bytes + self.npz_bytes


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    n_tmp: int  # temp files abandoned by interrupted writes
    bytes_freed: int
    n_orphan_telemetry: int = 0  # telemetry/ files no ledger record names
    n_torn_runs: int = 0  # unreadable runs/ ledger records
    n_legacy_dirs: int = 0  # ??/ fan-out dirs of the retired per-file layout

    @property
    def n_removed(self) -> int:
        return (self.n_tmp + self.n_orphan_telemetry + self.n_torn_runs
                + self.n_legacy_dirs)


class ResultStore:
    """A directory of task results addressed by spec content hash.

    ``root`` is the cache directory (created on first write; ``~`` is
    expanded).
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).expanduser()
        self._shards = PackedShards(self.root / SHARD_DIR)

    def __contains__(self, key: str) -> bool:
        return key in self._shards

    # -- read ---------------------------------------------------------

    def get(self, key: str) -> "dict | None":
        """Load the stored result for ``key``, or ``None`` on a miss.

        A record whose bytes are unreadable — a torn shard tail, a
        corrupt descriptor — counts as a miss: the task is simply
        recomputed and the record rewritten.  Array fields are fresh
        writable arrays owned by the caller.
        """
        with telemetry.span("store.get") as sp:
            hit = self._shards.read(key)
            if hit is None:
                telemetry.count("store.get.misses")
                return None
            entry, value = hit
            nbytes = entry.json_len + entry.arr_len
            telemetry.count("store.get.hits")
            telemetry.count("store.read_bytes", nbytes)
            sp.set(bytes=nbytes, n_arrays=entry.n_arrays)
        return value

    # -- write --------------------------------------------------------

    def put(self, key: str, value: Mapping, spec: "Mapping | None" = None) -> Path:
        """Persist one task result; returns the shard file it landed in.

        ``value`` must be a mapping of str field names to JSON-able data
        or :class:`numpy.ndarray`.  ``spec`` (e.g. ``RunSpec.describe()``)
        is recorded alongside for provenance and debuggability.  A write
        that fails (full disk, unwritable ``shards/``) raises
        :class:`StoreError` naming the key and leaves no torn record.
        """
        if not isinstance(value, Mapping):
            raise TypeError(
                f"task results must be mappings, got {type(value).__name__}; "
                "return a dict of named fields from the task function"
            )
        _check_key(key)
        with telemetry.span("store.put") as sp:
            plain, arrays = _split_arrays(value)
            entry = self._shards.append(key, plain, arrays, spec=spec)
            nbytes = entry.json_len + entry.arr_len
            telemetry.count("store.puts")
            telemetry.count("store.write_bytes", nbytes)
            sp.set(bytes=nbytes, n_arrays=len(arrays))
        return self._shards.root / entry.shard

    def ensure_writable(self) -> None:
        """Fail fast with :class:`StoreError` if the store cannot accept
        writes — unwritable/uncreatable root or ``shards/`` directory
        (e.g. a root or ``shards`` that is a regular file), or a full
        disk.  Probes with a real temp-file write where records land, so
        the failure surfaces before a campaign burns compute it cannot
        persist.
        """
        try:
            self._shards.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self._shards.root,
                                       prefix=".writable.")
            try:
                os.write(fd, b"probe")
            finally:
                os.close(fd)
                os.unlink(tmp)
        except OSError as exc:
            raise StoreError(
                f"cache directory {self.root} is not writable: {exc}"
            ) from exc

    # -- maintenance --------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All content hashes currently stored, sorted."""
        return self._shards.keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _legacy_dirs(self) -> "list[Path]":
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir() if _is_legacy_dir(p))

    def clear(self) -> int:
        """Delete every stored record; returns how many keys were removed.

        Unlike :meth:`gc` this is unconditional, and it also drops any
        fan-out directories the retired per-file layout left behind.
        """
        n = len(self)
        self._shards._close_writer()
        shutil.rmtree(self._shards.root, ignore_errors=True)
        self._shards = PackedShards(self.root / SHARD_DIR)
        for sub in self._legacy_dirs():
            shutil.rmtree(sub, ignore_errors=True)
        return n

    def entries(self) -> "Iterator[StoreEntry]":
        """Metadata of every readable record, from the shard indexes
        alone — no record bytes are touched."""
        shard_mtimes: "dict[str, float]" = {}
        for entry in self._shards.entries():
            if entry.shard not in shard_mtimes:
                shard_mtimes[entry.shard] = \
                    self._shards.shard_mtime(entry.shard)
            yield StoreEntry(
                key=entry.key,
                json_bytes=entry.json_len,
                npz_bytes=entry.arr_len,
                fn=entry.fn,
                seed=entry.seed,
                n_arrays=entry.n_arrays,
                mtime=shard_mtimes[entry.shard],
            )

    def gc(self, dry_run: bool = False,
           min_age_s: float = 3600.0) -> GcStats:
        """Prune unreferenced blobs; returns what was (or would be) removed.

        Garbage accumulates in a long-lived cache directory and is never
        read back by :meth:`get` or the run ledger:

        - ``??/`` fan-out directories of the retired per-file layout —
          their records always miss, so dropping them only frees space;
        - temp files abandoned by interrupted writes (in ``shards/`` and
          in ``runs/``);
        - ``telemetry/`` JSONL files no valid ledger record references —
          profiled runs whose ledger entry is gone (or that predate the
          ledger) leave their telemetry behind forever otherwise;
        - torn/unparseable ``runs/`` ledger records.

        Anything younger than ``min_age_s`` is left alone: a concurrent
        process may be mid-write (a profiled run's telemetry lands before
        its ledger record), and unlinking its in-flight files would lose
        data it is about to reference.  Shard records *and valid ledger
        records* are never touched — the ledger is provenance, not cache.

        With ``dry_run`` nothing is deleted and the stats report what a
        real pass would remove.
        """
        n_tmp = n_tele = n_torn_runs = n_legacy = freed = 0
        if not self.root.exists():
            return GcStats(n_tmp=0, bytes_freed=0)

        now = time.time()

        def size(path: Path) -> int:
            try:
                return path.stat().st_size
            except OSError:
                return 0

        def remove(path: Path) -> int:
            nbytes = size(path)
            if not dry_run:
                path.unlink(missing_ok=True)
            return nbytes

        def old_enough(path: Path) -> bool:
            try:
                return now - path.stat().st_mtime >= min_age_s
            except OSError:
                return False  # already gone (e.g. the writer finished)

        if self._shards.exists:
            for path in sorted(self._shards.root.glob(".*")):
                if old_enough(path):
                    n_tmp += 1
                    freed += remove(path)

        for sub in self._legacy_dirs():
            if not old_enough(sub):
                continue
            n_legacy += 1
            freed += sum(size(path) for path in sub.iterdir())
            if not dry_run:
                shutil.rmtree(sub, ignore_errors=True)

        # Run-ledger maintenance: collect the telemetry files valid
        # records reference, drop torn records and abandoned temp files.
        referenced: "set[str]" = set()
        runs_dir = self.root / "runs"
        if runs_dir.exists():
            for path in sorted(runs_dir.iterdir()):
                if path.name.startswith("."):
                    if old_enough(path):
                        n_tmp += 1
                        freed += remove(path)
                    continue
                try:
                    record = json.loads(path.read_text())
                    tele = record.get("telemetry")
                except (OSError, ValueError, AttributeError):
                    if old_enough(path):
                        n_torn_runs += 1
                        freed += remove(path)
                    continue
                if tele:
                    referenced.add(Path(tele).name)

        # Telemetry files whose run is gone from the ledger (or that
        # never had a ledger record) are unreachable: nothing maps a
        # JSONL filename back to a run except the records scanned above.
        tele_dir = self.root / "telemetry"
        if tele_dir.exists():
            for path in sorted(tele_dir.iterdir()):
                if not old_enough(path):
                    continue
                if path.name.startswith("."):
                    n_tmp += 1
                    freed += remove(path)
                elif path.name not in referenced:
                    n_tele += 1
                    freed += remove(path)

        stats = GcStats(n_tmp=n_tmp, bytes_freed=freed,
                        n_orphan_telemetry=n_tele, n_torn_runs=n_torn_runs,
                        n_legacy_dirs=n_legacy)
        telemetry.count("store.gc.removed", stats.n_removed)
        telemetry.count("store.gc.bytes_freed", freed)
        return stats
