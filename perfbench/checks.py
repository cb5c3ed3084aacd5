"""Output checks against references recorded at the benchmark's seed commit.

Two kinds of output are checked, both within :data:`GOLDEN_RTOL` (the
same relative tolerance as the repository's golden-trace corpus):

- ``reproduce``: each experiment's ``ExperimentResult.data`` is reduced
  to a *digest* (:func:`digest`) -- every numeric leaf, with large arrays
  represented by their shape, an evenly spaced sample of elements, and
  cancellation-free reductions -- and compared leaf by leaf;
- ``campaign_cold`` / ``report_warm``: the report's JSON artifact is
  compared row by row (:func:`compare_report`).

References live in ``perfbench/reference/`` (one entry per input
variant, see :mod:`perfbench.inputs`) and are rewritten by
``python3 perfbench/record_reference.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "GOLDEN_RTOL",
    "REFERENCE_DIR",
    "compare_digest",
    "compare_report",
    "digest",
    "load_reference",
]

GOLDEN_RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Arrays up to this many elements are recorded whole; larger ones by a
#: sample of this many evenly spaced elements plus reductions.
_FULL_ARRAY = 64
_MAX_DEPTH = 16


def _array_leaf(arr: np.ndarray) -> list:
    flat = arr.ravel()
    if arr.dtype.kind not in "biuf":
        texts = [str(v.value if isinstance(v, enum.Enum) else v)
                 for v in flat.tolist()]
        if len(texts) > _FULL_ARRAY:
            texts = sorted(f"{t}*{texts.count(t)}" for t in set(texts))
        return ["strs", list(arr.shape), texts]
    flat = flat.astype(float)
    if flat.size <= _FULL_ARRAY:
        return ["arr", list(arr.shape), flat.tolist()]
    idx = np.linspace(0, flat.size - 1, _FULL_ARRAY).astype(int)
    finite = flat[np.isfinite(flat)]
    return ["big", list(arr.shape), flat[idx].tolist(),
            float(np.abs(finite).sum()), float(np.square(finite).sum()),
            int(flat.size - finite.size)]


def _walk(value: Any, path: str, out: dict, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ValueError(f"output nests deeper than {_MAX_DEPTH} at {path!r}")
    if value is None:
        out[path] = ["none"]
    elif isinstance(value, (bool, np.bool_)):
        out[path] = ["num", float(value)]
    elif isinstance(value, enum.Enum):
        out[path] = ["str", str(value.value)]
    elif isinstance(value, str):
        out[path] = ["str", value]
    elif isinstance(value, (int, float, np.integer, np.floating)):
        out[path] = ["num", float(value)]
    elif isinstance(value, np.ndarray):
        out[path] = _array_leaf(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            name = key if isinstance(key, str) else repr(key)
            _walk(item, f"{path}/{name}", out, depth + 1)
    elif isinstance(value, (list, tuple)):
        if value and all(isinstance(v, (int, float, np.integer, np.floating))
                         and not isinstance(v, bool) for v in value):
            out[path] = _array_leaf(np.asarray(value, dtype=float))
        elif (len(value) > 1 and dataclasses.is_dataclass(value[0])
              and all(type(v) is type(value[0]) for v in value)):
            # A list of records (e.g. a trace's op records) is digested
            # column by column, like a table.
            out[f"{path}#len"] = ["num", float(len(value))]
            for f in dataclasses.fields(value[0]):
                column = np.empty(len(value), dtype=object)
                column[:] = [getattr(v, f.name) for v in value]
                if all(isinstance(c, (int, float)) for c in column):
                    column = column.astype(float)
                out[f"{path}[*].{f.name}"] = _array_leaf(column)
        else:
            out[f"{path}#len"] = ["num", float(len(value))]
            for i, item in enumerate(value):
                _walk(item, f"{path}[{i}]", out, depth + 1)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _walk(getattr(value, f.name), f"{path}.{f.name}", out, depth + 1)
    elif hasattr(value, "__dict__"):
        for key, item in sorted(vars(value).items()):
            if not key.startswith("_"):
                _walk(item, f"{path}.{key}", out, depth + 1)
    else:
        raise TypeError(f"cannot digest {type(value).__name__} at {path!r}")


def digest(data: Any) -> "dict[str, list]":
    """Flat ``{path: leaf}`` digest of an experiment's ``data`` mapping."""
    out: "dict[str, list]" = {}
    _walk(data, "", out, 0)
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _close_all(a: list, b: list, rtol: float) -> bool:
    return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))


def compare_digest(ref: dict, got: dict,
                   rtol: float = GOLDEN_RTOL) -> "list[str]":
    """Paths whose leaves differ (empty when the outputs agree)."""
    bad = sorted(set(ref) ^ set(got))
    for path in sorted(set(ref) & set(got)):
        r, g = ref[path], got[path]
        if r[0] != g[0]:
            bad.append(path)
        elif r[0] == "num":
            if not _close(r[1], g[1], rtol):
                bad.append(path)
        elif r[0] == "arr":
            if r[1] != g[1] or not _close_all(r[2], g[2], rtol):
                bad.append(path)
        elif r[0] == "big":
            if (r[1] != g[1] or r[5] != g[5]
                    or not _close_all(r[2], g[2], rtol)
                    or not _close_all(r[3:5], g[3:5], rtol)):
                bad.append(path)
        elif r != g:
            bad.append(path)
    return bad


def _report_numbers(doc: dict) -> "dict[str, Any]":
    out: "dict[str, Any]" = {}
    for i, row in enumerate(doc["rows"]):
        out[f"rows[{i}].group"] = json.dumps(row["group"], sort_keys=True)
        out[f"rows[{i}].draws"] = row["draws"]
        for col, value in row["values"].items():
            out[f"rows[{i}].{col}"] = value
    return out


def compare_report(ref: dict, got: dict,
                   rtol: float = GOLDEN_RTOL) -> "list[str]":
    """Fields of two report JSON artifacts that differ (provenance aside)."""
    if ref.get("value_columns") != got.get("value_columns"):
        return ["value_columns"]
    r, g = _report_numbers(ref), _report_numbers(got)
    bad = sorted(set(r) ^ set(g))
    for key in sorted(set(r) & set(g)):
        a, b = r[key], g[key]
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if not _close(float(a), float(b), rtol):
                bad.append(key)
        elif a != b:
            bad.append(key)
    return bad


def load_reference(kind: str) -> dict:
    """The recorded references of one kind (``reproduce`` or ``campaign``)."""
    with open(REFERENCE_DIR / f"{kind}.json") as fh:
        return json.load(fh)
