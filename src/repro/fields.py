"""Spec-file plumbing shared by the two spec languages.

Scenarios (:mod:`repro.scenarios`) and reports (:mod:`repro.reports`)
read TOML/JSON documents the same way, so one copy serves both:
:class:`SpecError` is the base of each language's error type,
:class:`StrictFields` the strict section reader (typed ``take``s, a
``finish`` that rejects unknown keys, every failure naming the dotted
path of the offending field), and :class:`SpecFiles` one language's
files and bundled ``data/`` directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["SpecError", "SpecFiles", "StrictFields"]

#: Recognized spec file suffixes, in load preference order.
SUFFIXES = (".toml", ".json")


class SpecError(ValueError):
    """A spec document failed validation or compilation.

    ``message`` says what is wrong and what would fix it; ``path`` is the
    dotted path of the offending field (``""`` for document-level
    problems) and ``name`` the document's name, when known.  A subclass
    sets :attr:`kind`, which words the message prefix
    ``<kind> 'name': field 'path': ``, and keeps the positional order
    ``(message, path, name)``: the shared readers raise it that way.
    """

    #: What the language calls a document; subclasses override it.
    kind = "document"

    def __init__(self, message: str, path: str = "", name: str = "") -> None:
        self.message = message
        self.path = path
        self.name = name
        prefix = ""
        if name:
            prefix += f"{self.kind} {name!r}: "
        if path:
            prefix += f"field '{path}': "
        super().__init__(prefix + message)


class StrictFields:
    """Strict reader over one section's mapping: typed takes + leftovers check.

    ``data`` is the section's mapping (``None`` reads as empty) and
    ``path`` its dotted path in the document (``""`` for the root).  Every
    failure raises ``error``, the language's :class:`SpecError` subclass,
    with the field path and the document ``name`` attached.
    """

    def __init__(self, data: Any, path: str, error: "type[SpecError]",
                 name: str = "") -> None:
        self.path = path
        self._error = error
        self._name = name
        if data is None:
            data = {}
        if not isinstance(data, Mapping):
            raise self._fail(
                f"expected a table/mapping, got {type(data).__name__}", path)
        self.data = dict(data)

    def _fail(self, message: str, path: str) -> SpecError:
        return self._error(message, path, self._name)

    def _sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind: str, default: Any = None,
             required: bool = False) -> Any:
        if key not in self.data:
            if required:
                raise self._fail(
                    f"required field is missing ({kind})", self._sub(key))
            return default
        value = self.data.pop(key)
        return self._coerce(value, kind, self._sub(key))

    def _coerce(self, value: Any, kind: str, path: str) -> Any:
        ok: bool
        if kind == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif kind == "float":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if ok:
                value = float(value)
        elif kind == "bool":
            ok = isinstance(value, bool)
        elif kind == "str":
            ok = isinstance(value, str)
        elif kind == "list":
            ok = isinstance(value, (list, tuple))
            if ok:
                value = list(value)
        elif kind == "table":
            ok = isinstance(value, Mapping)
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown field kind {kind!r}")
        if not ok:
            raise self._fail(
                f"expected {kind}, got {type(value).__name__} ({value!r})",
                path)
        return value

    def finish(self) -> None:
        if self.data:
            keys = ", ".join(sorted(map(repr, self.data)))
            where = self.path or self._error.kind
            raise self._fail(
                f"unknown key(s) {keys} in '{where}' section", self.path)


class SpecFiles:
    """One spec language's files: parsing, loading, and the bundled set.

    A file is ``.toml`` or ``.json`` and its stem is the document's
    default name.  Bundled files live in ``bundled_dir``, where a TOML
    file wins over a JSON file with the same stem; adding one is a data
    change.  ``spec_type.from_dict(data, name=...)`` validates a parsed
    document, and every failure raises ``error``.
    """

    def __init__(self, spec_type: Any, error: "type[SpecError]",
                 bundled_dir: Path) -> None:
        self.spec_type = spec_type
        self.error = error
        self.bundled_dir = bundled_dir

    def parse_text(self, text: str, fmt: str = "toml",
                   name: "str | None" = None) -> Any:
        """Parse a document from text (``fmt`` = ``toml`` | ``json``)."""
        if fmt == "toml":
            # Imported on first use: most importers of fields.py parse no file.
            import tomllib

            try:
                data: Any = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise self.error(f"invalid TOML: {exc}", "",
                                 name or "") from exc
        elif fmt == "json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise self.error(f"invalid JSON: {exc}", "",
                                 name or "") from exc
        else:
            raise self.error(f"unknown {self.error.kind} format {fmt!r}; "
                             "use 'toml' or 'json'")
        return self.spec_type.from_dict(data, name=name)

    def load_file(self, path: "str | Path") -> Any:
        """Load one ``.toml``/``.json`` file; every error names the file."""
        path = Path(path)
        kind = self.error.kind
        suffix = path.suffix.lower()
        if suffix not in SUFFIXES:
            raise self.error(
                f"unsupported {kind} file type {path.suffix!r} ({path}); "
                "use .toml or .json"
            )
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise self.error(f"cannot read {kind} file {path}: {exc}") from exc
        try:
            return self.parse_text(text, fmt=suffix[1:], name=path.stem)
        except self.error as exc:
            raise self.error(f"{exc.message} (file: {path})", exc.path,
                             exc.name or path.stem) from exc

    def names(self) -> "list[str]":
        """Sorted names (stems) of the bundled files, each stem once."""
        return sorted({p.stem for suffix in SUFFIXES
                       for p in self.bundled_dir.glob(f"*{suffix}")})

    def load_bundled(self, name: str) -> Any:
        """Load one bundled document by name."""
        for suffix in SUFFIXES:
            path = self.bundled_dir / f"{name}{suffix}"
            if path.exists():
                return self.load_file(path)
        raise self.error(
            f"unknown bundled {self.error.kind} {name!r}; "
            f"available: {self.names()}"
        )

    def resolve(self, name_or_path: str) -> Any:
        """Resolve a CLI argument: bundled name, or path to a file."""
        candidate = Path(name_or_path)
        if candidate.suffix.lower() in SUFFIXES or candidate.exists():
            return self.load_file(candidate)
        return self.load_bundled(name_or_path)
