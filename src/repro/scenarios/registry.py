"""Scenario files: parsing, loading, and the bundled registry.

TOML is the native authoring format (tables map 1:1 onto spec sections);
JSON is accepted for machine-generated scenarios.  The file stem supplies
the scenario name when the document has none, so a directory of scenario
files needs no redundant ``name =`` lines.  Scenario files shipped with
the package live in ``scenarios/data/``; a CLI argument may be either a
bundled name or a path to a user's own file.  The file format itself is
:class:`repro.fields.SpecFiles`, shared with the report language.
"""

from __future__ import annotations

from pathlib import Path

from repro.fields import SpecFiles
from repro.scenarios.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "BUNDLED_SCENARIO_DIR",
    "SCENARIO_FILES",
    "bundled_scenario_names",
    "load_bundled_scenario",
    "load_scenario_file",
    "parse_scenario_text",
    "resolve_scenario",
]

BUNDLED_SCENARIO_DIR = Path(__file__).parent / "data"

#: The scenario language's files; the functions below are its methods.
SCENARIO_FILES = SpecFiles(ScenarioSpec, ScenarioError, BUNDLED_SCENARIO_DIR)

parse_scenario_text = SCENARIO_FILES.parse_text
load_scenario_file = SCENARIO_FILES.load_file
bundled_scenario_names = SCENARIO_FILES.names
load_bundled_scenario = SCENARIO_FILES.load_bundled
resolve_scenario = SCENARIO_FILES.resolve
