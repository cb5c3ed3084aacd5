"""Packed shard backend for the result store: append-only files + index.

A *shard* is an append-only file of packed result records.  Each entry
is self-describing — a fixed binary header, a length-prefixed JSON
record (plain fields, spec provenance, and array descriptors), and a raw
array segment holding every ndarray field's bytes::

    offset 0   magic          b"RPS1"
    offset 4   crc32          of the JSON payload (uint32 LE)
    offset 8   json_len       bytes of JSON payload (uint32 LE)
    offset 12  arr_len        bytes of array segment (uint64 LE)
    offset 20  JSON payload   {"version", "key", "value", "arrays", "spec"}
    ...        array segment  raw C/F-contiguous array bytes, 8-aligned

Arrays are stored as raw bytes with their dtype/shape/order recorded in
the JSON descriptor, so a read rebuilds them without a decode step: it
reads the record's array segment into one fresh buffer and views each
array out of it.  A read may instead name the arrays it wants and a
destination for each: only those are read, each straight into its
destination when it can land there as-is.  Reads copy on purpose —
nothing of a shard stays mapped or resident after the read returns.

Next to each shard lives a sidecar index ``<shard>.idx``: one JSON line
per entry (key, offset, lengths, and the listing metadata ``entries()``
needs) appended by the shard's single writer.  The index is a derived
cache, never the source of truth: a reader validates it against the
shard's byte coverage and recovers any uncovered tail — a torn index, a
missing index, or an index that diverges from the shard is repaired by
scanning the self-describing shard entries, which
:meth:`PackedShards.refresh` does transparently.

Concurrent writers are safe by construction: every writing process
appends to its **own** shard file (named by pid + random suffix), so two
processes never contend on one file, while readers see each other's
entries by re-scanning grown shards on a miss.  A fork inheriting a
store object gets a fresh shard file the first time it writes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import telemetry

__all__ = ["PackedShards", "SHARD_DIR", "SHARD_FORMAT_VERSION",
           "ShardEntry", "StoreError"]


class StoreError(RuntimeError):
    """The result store cannot do its job — said clearly, not as a deep
    traceback from inside a write path.

    Raised when the cache directory is unwritable (``ResultStore.
    ensure_writable`` — the CLIs call it before starting a campaign) and
    when a write fails mid-run (disk full, permissions yanked, a
    ``shards`` path that cannot be created).  Write failures leave the
    store consistent: a failed append truncates back to the entry start
    so the sidecar index never points at torn bytes.  Defined here (the
    lowest store layer) and re-exported by :mod:`repro.runtime.store`,
    its public home.
    """

#: On-disk format version, recorded in every entry's JSON record.  Bump
#: on any change to the entry layout or descriptor schema (see
#: CONTRIBUTING: "Shard format versioning").
SHARD_FORMAT_VERSION = 1

#: Subdirectory of the store root holding shard + index files.
SHARD_DIR = "shards"

_MAGIC = b"RPS1"
_HEADER = struct.Struct("<4sIIQ")  # magic, crc32(json), json_len, arr_len
_ALIGN = 8


def _pad(n: int) -> int:
    """Bytes of padding that align ``n`` to the array alignment."""
    return (-n) % _ALIGN


@dataclass(frozen=True)
class ShardEntry:
    """Index entry: where one record lives and what listing it needs."""

    key: str
    shard: str
    offset: int
    json_len: int
    arr_len: int
    n_arrays: int = 0
    fn: "str | None" = None
    seed: "int | None" = None

    @property
    def end(self) -> int:
        """First byte past this entry (header + JSON + array segment)."""
        return self.offset + _HEADER.size + self.json_len + self.arr_len

    def to_line(self) -> str:
        return json.dumps(
            {"key": self.key, "offset": self.offset,
             "json_len": self.json_len, "arr_len": self.arr_len,
             "n_arrays": self.n_arrays, "fn": self.fn, "seed": self.seed},
            sort_keys=True,
        ) + "\n"


def _describe_array(arr: np.ndarray, offset: int) -> "tuple[dict, np.ndarray]":
    """Array descriptor for the JSON record + the contiguous bytes source."""
    if arr.dtype.hasobject:
        raise TypeError(
            "object-dtype arrays cannot be stored (no stable byte "
            "representation); convert to a numeric/str dtype first"
        )
    order = "F" if (arr.flags.f_contiguous and not arr.flags.c_contiguous) \
        else "C"
    contig = arr if (arr.flags.c_contiguous or arr.flags.f_contiguous) \
        else np.ascontiguousarray(arr)
    descr = {
        "dtype": np.lib.format.dtype_to_descr(contig.dtype),
        "shape": list(contig.shape),
        "order": order,
        "offset": offset,
        "nbytes": int(contig.nbytes),
    }
    return descr, contig


@functools.lru_cache(maxsize=None)
def _parse_dtype(descr: str) -> np.dtype:
    """A dtype string of an array descriptor (``"<f8"``), parsed once."""
    return np.lib.format.descr_to_dtype(descr)


def _dtype(descr: Mapping) -> np.dtype:
    dtype = descr["dtype"]
    return (_parse_dtype(dtype) if isinstance(dtype, str)
            else np.lib.format.descr_to_dtype(dtype))


def _reconstruct(buffer: np.ndarray, descr: Mapping,
                 offset: int) -> np.ndarray:
    """Rebuild one array from its descriptor as a view into ``buffer``, a
    freshly read (writable, caller-owned) buffer holding its bytes at
    ``offset``."""
    shape = tuple(descr["shape"])
    flat = np.frombuffer(buffer, dtype=_dtype(descr),
                         count=math.prod(shape), offset=offset)
    return flat.reshape(shape, order=descr.get("order", "C"))


def _read_array(fh, descr: Mapping, dest: np.ndarray) -> np.ndarray:
    """The array ``descr`` describes, read at ``fh``'s position.

    It is read straight into ``dest`` (and ``dest`` returned) when it can
    land there as-is: same dtype and shape, stored in C order, and a
    writable C-contiguous ``dest``.  Any other array is read into a
    fresh buffer of its own, for the caller to copy.
    """
    nbytes = int(descr["nbytes"])
    lands = (descr.get("order", "C") == "C"
             and tuple(descr["shape"]) == dest.shape
             and _dtype(descr) == dest.dtype
             and dest.flags.c_contiguous and dest.flags.writeable)
    buffer = dest if lands else np.empty(nbytes, dtype=np.uint8)
    if fh.readinto(buffer) < nbytes:
        raise OSError("shard truncated under a live index")
    return dest if lands else _reconstruct(buffer, descr, 0)


class PackedShards:
    """Reader/writer over a store's ``shards/`` directory.

    One instance serves one process: it owns at most one shard file for
    writing (per pid — a forked child opens its own) and caches an
    in-memory key index for reading.  The on-disk state it manages is
    multi-process safe (see module docs).
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        # key -> ShardEntry; covered -> bytes of each shard already indexed
        self._index: "dict[str, ShardEntry]" = {}
        self._covered: "dict[str, int]" = {}
        self._writer = None  # (pid, shard_name, shard_fh, idx_fh)

    # -- pickling: handles and caches are process-local -----------------

    def __getstate__(self) -> dict:
        return {"root": self.root}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["root"])

    # -- basic state ----------------------------------------------------

    @property
    def exists(self) -> bool:
        return self.root.is_dir()

    def shard_paths(self) -> "list[Path]":
        if not self.exists:
            return []
        return sorted(self.root.glob("*.shard"))

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def keys(self) -> "Iterator[str]":
        self.refresh()
        yield from sorted(self._index)

    def entries(self) -> "Iterator[ShardEntry]":
        self.refresh()
        for key in sorted(self._index):
            yield self._index[key]

    # -- write ----------------------------------------------------------

    def _writer_handles(self):
        """The calling process's append handles (opened on first write)."""
        pid = os.getpid()
        if self._writer is not None and self._writer[0] == pid:
            return self._writer
        if self._writer is not None:  # forked child: never reuse the
            self._close_writer()      # parent's handles
        self.root.mkdir(parents=True, exist_ok=True)
        name = f"w{pid:x}-{uuid.uuid4().hex[:8]}.shard"
        shard_fh = open(self.root / name, "ab")
        try:
            idx_fh = open(self.root / f"{name}.idx", "a")
        except OSError:
            shard_fh.close()
            raise
        self._writer = (pid, name, shard_fh, idx_fh)
        return self._writer

    def _close_writer(self) -> None:
        if self._writer is None:
            return
        _, _, shard_fh, idx_fh = self._writer
        for fh in (shard_fh, idx_fh):
            try:
                fh.close()
            except OSError:  # pragma: no cover - close failures are moot
                pass
        self._writer = None

    def append(self, key: str, plain: Mapping, arrays: "Mapping[str, np.ndarray]",
               spec: "Mapping | None" = None) -> ShardEntry:
        """Pack one record into this process's shard; returns its entry.

        The shard entry lands (flushed) before its index line, so a crash
        between the two leaves a recoverable shard tail, never an index
        line pointing at missing bytes.  A shard file that cannot be
        opened (``shards`` blocked by a regular file, permissions, ENOSPC)
        raises :class:`StoreError` naming the key before any byte is
        written; a write that fails midway is truncated back to the
        entry start and re-raised as :class:`StoreError` too: the shard
        keeps no torn tail and the sidecar index — which never saw the
        entry — stays consistent.  An interrupt between two of the
        entry's writes (``KeyboardInterrupt``: a terminal ^C reaches
        pool workers too) is truncated back the same way and re-raised
        as it is, so the process's later appends stay readable.
        """
        descrs, sources, pos = {}, [], 0
        for name in sorted(arrays):
            descr, contig = _describe_array(arrays[name], pos)
            descrs[name] = descr
            sources.append(contig)
            pos += descr["nbytes"] + _pad(descr["nbytes"])
        record = {
            "version": SHARD_FORMAT_VERSION,
            "key": key,
            "value": dict(plain),
            "arrays": descrs,
        }
        if spec is not None:
            record["spec"] = dict(spec)
        payload = json.dumps(record, sort_keys=True).encode("utf-8")

        try:
            _, name, shard_fh, idx_fh = self._writer_handles()
        except OSError as exc:
            raise StoreError(
                f"result store write of {key!r} under {self.root} "
                f"failed: {exc}") from exc
        offset = shard_fh.tell()
        try:
            shard_fh.write(_HEADER.pack(_MAGIC, zlib.crc32(payload),
                                        len(payload), pos))
            shard_fh.write(payload)
            for descr, contig in zip(descrs.values(), sources):
                data = contig.tobytes(order=descr["order"])
                shard_fh.write(data)
                shard_fh.write(b"\0" * _pad(len(data)))
            shard_fh.flush()
        except BaseException as exc:
            # Disk full, permissions yanked or an interrupt mid-entry:
            # cut the partial entry away so the shard carries no torn
            # tail.  If even the truncate fails, retire the writer, so a
            # later append opens a fresh shard instead of landing behind
            # torn bytes the recovery scan stops at.  Either way the
            # index stays consistent: the sidecar line below was never
            # written.
            try:
                shard_fh.truncate(offset)
                shard_fh.seek(offset)
            except OSError:
                self._close_writer()
            if not isinstance(exc, OSError):
                raise
            raise StoreError(
                f"packed-shard append of {key!r} failed mid-write: {exc} "
                f"(shard truncated back to the previous entry; the index "
                f"is consistent)") from exc

        entry = ShardEntry(
            key=key, shard=name, offset=offset, json_len=len(payload),
            arr_len=pos, n_arrays=len(descrs),
            fn=(spec or {}).get("fn"), seed=(spec or {}).get("seed"),
        )
        try:
            idx_fh.write(entry.to_line())
            idx_fh.flush()
        except OSError:
            # The entry itself is durably committed and the sidecar is
            # only a cache: a reader recovers the uncovered tail by
            # scanning the shard.  Don't fail a stored result over it.
            telemetry.count("store.shard.idx_write_failures")
        self._index[key] = entry
        self._covered[name] = entry.end
        telemetry.count("store.shard.appends")
        return entry

    # -- index maintenance ----------------------------------------------

    def refresh(self) -> None:
        """Bring the in-memory index up to date with the directory.

        Costs one directory listing plus a ``stat`` per shard when
        nothing changed; a grown shard is caught up from its sidecar
        index, and any bytes the sidecar does not faithfully cover
        (torn/missing/corrupt index) are recovered by scanning the
        shard itself.
        """
        for path in self.shard_paths():
            name = path.name
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if self._covered.get(name, -1) >= size:
                continue
            self._load_shard(path, size)

    def _load_shard(self, path: Path, size: int) -> None:
        """Index one shard: trust the sidecar as far as it matches."""
        name = path.name
        pos = 0
        for entry in self._read_sidecar(path):
            if entry.offset != pos or entry.end > size:
                break  # sidecar diverges from the shard: scan from here
            self._index[entry.key] = entry
            pos = entry.end
        if pos < size:
            n = 0
            for entry in self.scan_shard(path, start=pos):
                self._index[entry.key] = entry
                n += 1
            if n:
                telemetry.count("store.shard.recovered", n)
        self._covered[name] = size

    def _read_sidecar(self, shard_path: Path) -> "Iterator[ShardEntry]":
        """Parse the sidecar index, skipping torn/garbage lines."""
        idx_path = shard_path.with_name(shard_path.name + ".idx")
        try:
            text = idx_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            try:
                doc = json.loads(line)
                yield ShardEntry(
                    key=doc["key"], shard=shard_path.name,
                    offset=int(doc["offset"]), json_len=int(doc["json_len"]),
                    arr_len=int(doc["arr_len"]),
                    n_arrays=int(doc.get("n_arrays", 0)),
                    fn=doc.get("fn"), seed=doc.get("seed"),
                )
            except (ValueError, KeyError, TypeError):
                return  # torn tail (or corrupt line): shard scan takes over

    def scan_shard(self, path: Path, start: int = 0) -> "Iterator[ShardEntry]":
        """Walk a shard's self-describing entries from ``start``.

        Stops at the first torn/corrupt entry (truncated header or
        payload, bad magic, CRC mismatch): an append-only file can only
        be damaged at its tail, and everything before it stays valid.
        """
        size = path.stat().st_size
        with open(path, "rb") as fh:
            fh.seek(start)
            pos = start
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                magic, crc, json_len, arr_len = _HEADER.unpack(header)
                if magic != _MAGIC:
                    return
                payload = fh.read(json_len)
                if len(payload) < json_len or zlib.crc32(payload) != crc:
                    return
                try:
                    record = json.loads(payload)
                    key = record["key"]
                except (ValueError, KeyError):
                    return
                entry = ShardEntry(
                    key=key, shard=path.name, offset=pos,
                    json_len=json_len, arr_len=arr_len,
                    n_arrays=len(record.get("arrays", {})),
                    fn=(record.get("spec") or {}).get("fn"),
                    seed=(record.get("spec") or {}).get("seed"),
                )
                if entry.end > size:
                    return  # array segment torn off
                pos = entry.end
                fh.seek(pos)
                yield entry

    # -- read -----------------------------------------------------------

    def lookup(self, key: str) -> "ShardEntry | None":
        """Find a key, re-scanning the directory once on a miss (another
        process may have appended since our last refresh)."""
        entry = self._index.get(key)
        if entry is None:
            if not self.exists:
                return None
            self.refresh()
            entry = self._index.get(key)
        return entry

    def read(self, key: str,
             into: "Mapping[str, np.ndarray] | None" = None,
             ) -> "tuple[ShardEntry, dict, int, int] | None":
        """Load ``(entry, value, bytes read, arrays read)`` for a key, or
        ``None`` on a miss.

        ``value`` is the caller-facing result dict: plain fields plus
        arrays viewed out of one freshly allocated, writable buffer that
        holds the record's array segment (8-aligned, owned by the caller
        alone).  With ``into`` (array name -> destination) only the
        arrays it names are read, each as :func:`_read_array` reads it;
        one the record lacks is absent from ``value``.
        """
        entry = self.lookup(key)
        if entry is None:
            return None
        try:
            with open(self.root / entry.shard, "rb") as fh:
                # A torn entry is a miss even where the read skips the
                # torn bytes.
                if os.fstat(fh.fileno()).st_size < entry.end:
                    raise OSError("shard truncated under a live index")
                fh.seek(entry.offset + _HEADER.size)
                payload = fh.read(entry.json_len)
                if len(payload) < entry.json_len:
                    raise OSError("shard truncated under a live index")
                record = json.loads(payload)
                value = dict(record.get("value", {}))
                descrs = record.get("arrays", {})
                if into is None:
                    segment = np.empty(entry.arr_len, dtype=np.uint8)
                    if fh.readinto(segment) < entry.arr_len:
                        raise OSError("shard truncated under a live index")
                    for name, descr in descrs.items():
                        value[name] = _reconstruct(segment, descr,
                                                   int(descr["offset"]))
                    return (entry, value, entry.json_len + entry.arr_len,
                            len(descrs))
                segment_at = fh.tell()
                wanted = [name for name in into if name in descrs]
                nbytes = entry.json_len
                for name in wanted:
                    fh.seek(segment_at + int(descrs[name]["offset"]))
                    value[name] = _read_array(fh, descrs[name], into[name])
                    nbytes += int(descrs[name]["nbytes"])
                return entry, value, nbytes, len(wanted)
        except (OSError, ValueError, KeyError, TypeError):
            # Torn shard tail, raced compaction, or corrupt descriptor
            # (a missing field, or one of the wrong type): the store
            # contract is "unreadable counts as a miss".
            self._index.pop(key, None)
            return None
