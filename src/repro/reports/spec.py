"""Plain-data report specs: frozen dataclasses + strict dict parsing.

A :class:`ReportSpec` is the declarative description of one report: which
scenario (or scenarios) to draw results from, which metric kernels to
extract, how to group and aggregate over the sweep grid, and which
artifacts to emit.  Specs are frozen, hashable, and round-trip through
``to_dict``/``from_dict`` — the dict form is what TOML/JSON files load
into, exactly like :class:`repro.scenarios.spec.ScenarioSpec`.

Parsing is *strict*: unknown keys, wrong types, and out-of-range values
are rejected with a :class:`~repro.reports.errors.ReportError` naming the
exact dotted path of the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any, Mapping

from repro.fields import StrictFields
from repro.reports.errors import ReportError

__all__ = ["ArtifactRequest", "MetricRequest", "ReportSpec"]

#: Recognized artifact kinds (see :mod:`repro.reports.artifacts`).
ARTIFACT_KINDS = ("csv", "json", "npz", "ascii")

#: Named aggregation statistics; ``pNN`` percentiles are accepted too.
NAMED_STATS = ("mean", "std", "median", "min", "max")

_PERCENTILE_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?|100)$")


def _str_list(values: "list | None", path: str, report: str,
              allow_empty: bool = True) -> "tuple[str, ...] | None":
    if values is None:
        return None
    out = []
    for i, value in enumerate(values):
        if not isinstance(value, str) or not value:
            raise ReportError(
                f"expected a non-empty str, got {value!r}",
                path=f"{path}[{i}]", report=report,
            )
        out.append(value)
    if not out and not allow_empty:
        raise ReportError("list must not be empty", path=path, report=report)
    return tuple(out)


def _check_stat(stat: str, path: str, report: str) -> str:
    if stat in NAMED_STATS or _PERCENTILE_RE.match(stat):
        return stat
    raise ReportError(
        f"{stat!r} is not a known statistic; use one of "
        f"{list(NAMED_STATS)} or a percentile like 'p95'",
        path=path, report=report,
    )


@dataclass(frozen=True)
class MetricRequest:
    """One metric extraction: a registered kernel plus its parameters.

    ``alias`` renames the metric's column prefix in the report table
    (useful when the same kernel appears twice with different params).
    """

    name: str
    alias: "str | None" = None
    params: "tuple[tuple[str, Any], ...]" = ()

    @classmethod
    def parse(cls, data: Any, where: str, report: str = "") -> "MetricRequest":
        f = StrictFields(data, where, ReportError, report)
        name = f.take("name", "str", required=True)
        alias = f.take("alias", "str")
        params = f.take("params", "table", default={})
        f.finish()
        if alias is not None and not alias:
            raise ReportError("alias must not be empty",
                              path=f"{where}.alias", report=report)
        return cls(name=name, alias=alias,
                   params=tuple(sorted(dict(params).items())))

    @property
    def label(self) -> str:
        """Column prefix in report tables."""
        return self.alias or self.name

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.alias is not None:
            out["alias"] = self.alias
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class ArtifactRequest:
    """One output artifact: a kind and an optional relative path override.

    The path is taken relative to ``report run --out``; an absolute path
    or a ``..`` component, which would write outside that directory, is
    rejected.
    """

    kind: str
    path: "str | None" = None

    @classmethod
    def parse(cls, data: Any, where: str, report: str = "") -> "ArtifactRequest":
        f = StrictFields(data, where, ReportError, report)
        kind = f.take("kind", "str", required=True)
        path = f.take("path", "str")
        f.finish()
        if kind not in ARTIFACT_KINDS:
            raise ReportError(
                f"{kind!r} is not one of {list(ARTIFACT_KINDS)}",
                path=f"{where}.kind", report=report,
            )
        if path is not None and not path:
            raise ReportError("path must not be empty",
                              path=f"{where}.path", report=report)
        below_out = PurePath(path or ".")
        if below_out.is_absolute() or ".." in below_out.parts:
            raise ReportError(
                f"must be a relative path without '..' components (it is "
                f"written below --out), got {path!r}",
                path=f"{where}.path", report=report,
            )
        return cls(kind=kind, path=path)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.path is not None:
            out["path"] = self.path
        return out


@dataclass(frozen=True)
class ReportSpec:
    """A complete declarative report description.

    Attributes
    ----------
    scenarios:
        The scenario(s) the report draws on — bundled names or file
        paths.  A single-element tuple is the common case; multiple
        scenarios form a cross-scenario comparison (group by the
        implicit ``"scenario"`` column).
    seeds:
        Explicit per-point run seeds.  When given, every grid point runs
        once per seed (replacing the scenario's ``replicates`` /derived
        seeding) — this is how the fig7/fig8 reports pin the exact seeds
        the experiment drivers use.
    base_seed:
        Base seed for derived replicate seeding (ignored when ``seeds``
        is given); defaults to each scenario's own seed.
    group_by:
        Dotted sweep-axis paths (plus the implicit ``"scenario"``) whose
        values define the report's rows.  Defaults to every sweep axis,
        plus ``"scenario"`` for multi-scenario reports.
    aggregate:
        Statistics computed per group over all draws: ``mean``, ``std``,
        ``median``, ``min``, ``max``, or percentiles like ``p95``.
    """

    name: str
    description: str = ""
    scenarios: "tuple[str, ...]" = ()
    engine: str = "auto"
    seeds: "tuple[int, ...] | None" = None
    base_seed: "int | None" = None
    group_by: "tuple[str, ...] | None" = None
    aggregate: "tuple[str, ...]" = ("mean",)
    metrics: "tuple[MetricRequest, ...]" = ()
    artifacts: "tuple[ArtifactRequest, ...]" = field(default_factory=tuple)

    @classmethod
    def from_dict(cls, data: Any, name: "str | None" = None) -> "ReportSpec":
        """Parse and validate a plain-data report document.

        ``name`` overrides/supplies the report name (e.g. from the file
        stem) when the document has none.
        """
        report = name or (data.get("name", "") if isinstance(data, Mapping) else "")
        f = StrictFields(data, "", ReportError, report)
        doc_name = f.take("name", "str", default=name)
        description = f.take("description", "str", default="")
        scenario = f.take("scenario", "str")
        scenarios = f.take("scenarios", "list")
        engine = f.take("engine", "str", default="auto")
        raw_seeds = f.take("seeds", "list")
        base_seed = f.take("base_seed", "int")
        group_by = f.take("group_by", "list")
        aggregate = f.take("aggregate", "list", default=["mean"])
        raw_metrics = f.take("metrics", "list", default=[])
        raw_artifacts = f.take("artifacts", "list", default=[])
        f.finish()

        if not doc_name:
            raise ReportError("report has no name (give 'name' in the "
                              "document or load it from a file)", path="name")
        if (scenario is None) == (scenarios is None):
            raise ReportError(
                "give exactly one of 'scenario' (a single name/path) or "
                "'scenarios' (a list for cross-scenario comparison)",
                path="scenario", report=report,
            )
        targets = _str_list(
            [scenario] if scenario is not None else scenarios,
            "scenarios" if scenarios is not None else "scenario",
            report, allow_empty=False,
        )
        if len(set(targets)) != len(targets):
            raise ReportError("duplicate scenario entries",
                              path="scenarios", report=report)
        if engine not in ("auto", "lockstep", "dag"):
            raise ReportError(
                f"{engine!r} is not one of ['auto', 'dag', 'lockstep']",
                path="engine", report=report,
            )
        seeds = None
        if raw_seeds is not None:
            if not raw_seeds:
                raise ReportError("seed list must not be empty",
                                  path="seeds", report=report)
            for i, s in enumerate(raw_seeds):
                if not isinstance(s, int) or isinstance(s, bool):
                    raise ReportError(f"expected int, got {s!r}",
                                      path=f"seeds[{i}]", report=report)
                if s < 0:
                    raise ReportError(f"must be >= 0, got {s}",
                                      path=f"seeds[{i}]", report=report)
            if len(set(raw_seeds)) != len(raw_seeds):
                raise ReportError("duplicate seeds", path="seeds",
                                  report=report)
            seeds = tuple(raw_seeds)
        if base_seed is not None and base_seed < 0:
            raise ReportError(f"must be >= 0, got {base_seed}",
                              path="base_seed", report=report)
        if seeds is not None and base_seed is not None:
            raise ReportError(
                "'base_seed' drives derived replicate seeding and has no "
                "effect when explicit 'seeds' are given",
                path="base_seed", report=report,
            )
        stats = tuple(
            _check_stat(s, f"aggregate[{i}]", report) if isinstance(s, str)
            else _check_stat(repr(s), f"aggregate[{i}]", report)
            for i, s in enumerate(aggregate)
        )
        if not stats:
            raise ReportError("at least one statistic is required",
                              path="aggregate", report=report)
        if len(set(stats)) != len(stats):
            raise ReportError("duplicate statistics", path="aggregate",
                              report=report)
        metrics = tuple(
            MetricRequest.parse(m, f"metrics[{i}]", report)
            for i, m in enumerate(raw_metrics)
        )
        if not metrics:
            raise ReportError("at least one metric is required",
                              path="metrics", report=report)
        labels = [m.label for m in metrics]
        dupes = {lbl for lbl in labels if labels.count(lbl) > 1}
        if dupes:
            raise ReportError(
                f"duplicate metric label(s) {sorted(dupes)}; disambiguate "
                "repeated kernels with 'alias'",
                path="metrics", report=report,
            )
        artifacts = tuple(
            ArtifactRequest.parse(a, f"artifacts[{i}]", report)
            for i, a in enumerate(raw_artifacts)
        )
        return cls(
            name=doc_name, description=description, scenarios=targets,
            engine=engine, seeds=seeds, base_seed=base_seed,
            group_by=_str_list(group_by, "group_by", report),
            aggregate=stats, metrics=metrics, artifacts=artifacts,
        )

    def to_dict(self) -> dict:
        """Plain-data form; round-trips through :meth:`from_dict`."""
        out: dict = {"name": self.name}
        if self.description:
            out["description"] = self.description
        if len(self.scenarios) == 1:
            out["scenario"] = self.scenarios[0]
        else:
            out["scenarios"] = list(self.scenarios)
        if self.engine != "auto":
            out["engine"] = self.engine
        if self.seeds is not None:
            out["seeds"] = list(self.seeds)
        if self.base_seed is not None:
            out["base_seed"] = self.base_seed
        if self.group_by is not None:
            out["group_by"] = list(self.group_by)
        out["aggregate"] = list(self.aggregate)
        out["metrics"] = [m.to_dict() for m in self.metrics]
        if self.artifacts:
            out["artifacts"] = [a.to_dict() for a in self.artifacts]
        return out
