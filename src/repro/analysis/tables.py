"""Plain-text tables: :func:`render_table` is the fixed-width formatter
behind every sweep table and CLI comparison."""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["render_table"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def render_table(headers, rows, title: str = "") -> str:
    """Fixed-width ASCII table with right-aligned numeric columns."""
    if not headers:
        raise ConfigurationError("need at least one header")
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    for row in formatted:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in formatted), 1)
        if formatted
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(h).ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)

