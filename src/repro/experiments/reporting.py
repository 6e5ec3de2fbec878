"""Plain-text reporting of experiment results.

Every figure driver prints its numbers through these helpers so the
benchmark output reads like the paper's figures: one row per series, one
column per x-axis value.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_matrix", "to_csv"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned ASCII table.

    Args:
        headers: column titles.
        rows: cell values (rendered with ``str``; floats pre-format them).
        title: optional caption printed above the table.
    """
    cells = [[str(h) for h in headers]]
    cells += [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[c]) for row in cells)
              for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_matrix(row_label: str, row_keys: Sequence[object],
                  col_label: str, col_keys: Sequence[object],
                  values: dict[tuple[object, object], float],
                  title: str = "", fmt: str = "{:.3f}") -> str:
    """Render a (series x x-axis) matrix like the paper's figures.

    Args:
        row_label / row_keys: series axis (e.g. selectivity ``k``).
        col_label / col_keys: x axis (e.g. error allowance).
        values: cell values keyed by ``(row_key, col_key)``.
        title: optional caption.
        fmt: format applied to each cell value.
    """
    headers = [f"{row_label}\\{col_label}"] + [str(c) for c in col_keys]
    rows = []
    for r in row_keys:
        row: list[object] = [str(r)]
        for c in col_keys:
            row.append(fmt.format(values[(r, c)])
                       if (r, c) in values else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV (RFC-4180-style quoting where needed).

    Floats are emitted at full precision so downstream plotting scripts
    lose nothing to the text round-trip.
    """
    def cell(value: object) -> str:
        text = repr(value) if isinstance(value, float) else str(value)
        if any(ch in text for ch in ",\"\n"):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(h) for h in headers)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
