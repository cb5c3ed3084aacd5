"""Plain-text tables for the experiment drivers.

Every experiment prints its figure's data as aligned text tables so the
reproduction can be compared against the paper without a plotting stack.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = "{:.4g}",
) -> str:
    """Render rows as an aligned, pipe-separated text table.

    Floats are formatted with ``float_fmt``; everything else with ``str``.
    """
    if not headers:
        raise ValueError("need at least one column")
    str_rows: list[list[str]] = []
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(float_fmt.format(v))
            else:
                cells.append(str(v))
        if len(cells) != len(headers):
            raise ValueError(
                f"row with {len(cells)} cells does not match {len(headers)} headers"
            )
        str_rows.append(cells)
    widths = [len(h) for h in headers]
    for cells in str_rows:
        for i, c in enumerate(cells):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for cells in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
