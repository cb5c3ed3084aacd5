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

The store reads records from ``shards/`` only.  Two-hex-character
``??/`` directories that the earlier per-file layout wrote are neither
read nor removed (:meth:`ResultStore.gc` leaves them alone); their tasks
simply miss and recompute into shards.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import telemetry
from repro.runtime.shards import PackedShards, SHARD_DIR, ShardEntry, \
    StoreError

__all__ = ["GcStats", "ResultStore", "StoreError"]

_HEX = frozenset("0123456789abcdef")


def _check_key(key: str) -> None:
    """Reject anything but a lowercase hex content hash of >= 2 chars."""
    if len(key) < 2 or not _HEX.issuperset(key):
        raise ValueError(f"malformed store key: {key!r}")


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
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    n_tmp: int  # temp files abandoned by interrupted writes
    bytes_freed: int
    n_orphan_telemetry: int = 0  # telemetry/ files no ledger record names
    n_torn_runs: int = 0  # unreadable runs/ ledger records

    @property
    def n_removed(self) -> int:
        return self.n_tmp + self.n_orphan_telemetry + self.n_torn_runs


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

    def get(self, key: str,
            into: "Mapping[str, np.ndarray] | None" = None) -> "dict | None":
        """Load the stored result for ``key``, or ``None`` on a miss.

        A record whose bytes are unreadable — a torn shard tail, a
        corrupt descriptor — counts as a miss: the task is simply
        recomputed and the record rewritten.  Array fields are fresh
        writable arrays owned by the caller.

        ``into`` (array field name -> destination array) reads only the
        arrays it names, each straight into its destination when it can
        land there as-is (same dtype and shape, C order): the value then
        holds the destination itself.  Any other named array is read
        into a fresh buffer for the caller to copy, a named array the
        record lacks is absent from the value, and an unnamed one is not
        read at all.  ``store.read_bytes`` counts the bytes read: the
        JSON payload plus each array read.
        """
        with telemetry.span("store.get") as sp:
            hit = self._shards.read(key, into)
            if hit is None:
                telemetry.count("store.get.misses")
                return None
            _, value, nbytes, n_arrays = hit
            telemetry.count("store.get.hits")
            telemetry.count("store.read_bytes", nbytes)
            sp.set(bytes=nbytes, n_arrays=n_arrays)
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

    def entries(self) -> "Iterator[ShardEntry]":
        """The shard index entry of every readable record, sorted by key
        — no record bytes are touched."""
        return self._shards.entries()

    def gc(self, dry_run: bool = False,
           min_age_s: float = 3600.0) -> GcStats:
        """Prune unreferenced blobs; returns what was (or would be) removed.

        Garbage accumulates in a long-lived cache directory and is never
        read back by :meth:`get` or the run ledger:

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
        n_tmp = n_tele = n_torn_runs = freed = 0
        if not self.root.exists():
            return GcStats(n_tmp=0, bytes_freed=0)

        now = time.time()

        def remove(path: Path) -> int:
            try:
                nbytes = path.stat().st_size
            except OSError:
                nbytes = 0
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
                        n_orphan_telemetry=n_tele, n_torn_runs=n_torn_runs)
        telemetry.count("store.gc.removed", stats.n_removed)
        telemetry.count("store.gc.bytes_freed", freed)
        return stats
