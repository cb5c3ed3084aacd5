"""Report validation errors.

Every rejection in the report layer raises :class:`ReportError` and names
the exact spec field (dotted path, e.g. ``metrics[1].name``) that caused
it, so a user editing a report TOML file is pointed at the offending line
rather than at a Python traceback deep inside the compiler.
"""

from __future__ import annotations

from repro.fields import SpecError

__all__ = ["ReportError"]


class ReportError(SpecError):
    """A report spec failed validation or compilation.

    See :class:`repro.fields.SpecError`; the ``report`` keyword sets its
    ``name``.
    """

    kind = "report"

    def __init__(self, message: str, path: str = "", report: str = "") -> None:
        super().__init__(message, path, report)
