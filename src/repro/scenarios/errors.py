"""Scenario validation errors.

Every rejection in the scenario layer raises :class:`ScenarioError` and
names the exact spec field (dotted path, e.g. ``delays.campaign.rate``)
that caused it, so a user editing a TOML file is pointed at the offending
line rather than at a Python traceback deep inside the compiler.
"""

from __future__ import annotations

from repro.fields import SpecError

__all__ = ["ScenarioError"]


class ScenarioError(SpecError):
    """A scenario spec failed validation or compilation.

    See :class:`repro.fields.SpecError`; the ``scenario`` keyword sets its
    ``name``.
    """

    kind = "scenario"

    def __init__(self, message: str, path: str = "", scenario: str = "") -> None:
        super().__init__(message, path, scenario)
