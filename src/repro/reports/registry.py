"""Report files: parsing, loading, and the bundled registry.

TOML is the native authoring format; JSON is accepted for
machine-generated reports.  The file stem supplies the report name when
the document has none.  Report files shipped with the package live in
``reports/data/``; a CLI argument may be either a bundled name or a path
to a user's own file.  The file format itself is
:class:`repro.fields.SpecFiles`, shared with the scenario language.
"""

from __future__ import annotations

from pathlib import Path

from repro.fields import SpecFiles
from repro.reports.errors import ReportError
from repro.reports.spec import ReportSpec

__all__ = [
    "BUNDLED_REPORT_DIR",
    "REPORT_FILES",
    "bundled_report_names",
    "load_bundled_report",
    "load_report_file",
    "parse_report_text",
    "resolve_report",
]

BUNDLED_REPORT_DIR = Path(__file__).parent / "data"

#: The report language's files; the functions below are its methods.
REPORT_FILES = SpecFiles(ReportSpec, ReportError, BUNDLED_REPORT_DIR)

parse_report_text = REPORT_FILES.parse_text
load_report_file = REPORT_FILES.load_file
bundled_report_names = REPORT_FILES.names
load_bundled_report = REPORT_FILES.load_bundled
resolve_report = REPORT_FILES.resolve
