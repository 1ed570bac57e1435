"""Paper-style ASCII tables.

The benchmarks print the same rows/series the paper's figures plot;
these helpers keep that output consistent and legible in CI logs.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["format_table", "format_fraction_bar"]


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 10 ** -(precision - 1):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: list[str] | None = None,
    precision: int = 4,
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(r.get(c, ""), precision) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells))
        for i, c in enumerate(columns)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_fraction_bar(
    fractions: Mapping[str, float], width: int = 40
) -> str:
    """Render a fraction stack as a one-line bar, e.g. Fig. 6b rows."""
    symbols = "#=.:+*"
    parts = []
    bar = ""
    for i, (name, frac) in enumerate(fractions.items()):
        n = int(round(frac * width))
        bar += symbols[i % len(symbols)] * n
        parts.append(f"{name}={frac:.0%}")
    return f"[{bar[:width].ljust(width)}] " + " ".join(parts)
