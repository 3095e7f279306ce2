"""Result persistence and terminal rendering for experiment outputs.

The experiment runners return :class:`~repro.experiments.common.ExperimentResult`
objects; this module turns them into artefacts a user can keep or diff:

* :func:`save_json` / :func:`save_csv` — machine-readable exports,
* :func:`to_markdown` — a Markdown table,
* :func:`ascii_chart` — a dependency-free line chart for terminals, used to
  eyeball the Figure 3/5/6 trajectories without matplotlib.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .common import ExperimentResult

__all__ = ["save_json", "save_csv", "to_markdown", "ascii_chart", "series_from_rows"]


def save_json(result: ExperimentResult, path: str | Path) -> Path:
    """Write the full result (rows, notes, extras) as JSON; returns the path."""
    path = Path(path)
    payload = {
        "name": result.name,
        "description": result.description,
        "rows": result.rows,
        "notes": result.notes,
        "extras": result.extras,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=float))
    return path


def save_csv(result: ExperimentResult, path: str | Path) -> Path:
    """Write the result rows as CSV (one column per row key); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not result.rows:
        path.write_text("")
        return path
    fieldnames: List[str] = []
    for row in result.rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
    return path


def to_markdown(result: ExperimentResult, max_rows: Optional[int] = None) -> str:
    """Render the result as a GitHub-flavoured markdown table."""
    lines = [f"### {result.name}", "", result.description, ""]
    rows = result.rows[:max_rows] if max_rows else result.rows
    if rows:
        headers = list(rows[0].keys())
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("| " + " | ".join("---" for _ in headers) + " |")
        for row in rows:
            cells = []
            for header in headers:
                value = row.get(header, "")
                if isinstance(value, float):
                    cells.append(f"{value:.4g}")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        if max_rows and len(result.rows) > max_rows:
            lines.append("")
            lines.append(f"*({len(result.rows) - max_rows} more rows omitted)*")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    return "\n".join(lines)


def series_from_rows(
    rows: Sequence[Dict[str, object]],
    group_key: str,
    x_key: str,
    y_key: str,
) -> Dict[str, List[tuple]]:
    """Group result rows into per-competitor ``(x, y)`` series."""
    series: Dict[str, List[tuple]] = {}
    for row in rows:
        name = str(row[group_key])
        series.setdefault(name, []).append((float(row[x_key]), float(row[y_key])))
    for points in series.values():
        points.sort(key=lambda p: p[0])
    return series


def ascii_chart(
    series: Dict[str, List[tuple]],
    width: int = 70,
    height: int = 16,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render one or more ``(x, y)`` series as an ASCII line chart.

    Each series gets a distinct marker character; the legend maps markers to
    series names.  Intended for quick terminal inspection of score/FID
    trajectories, not for publication-quality plots.
    """
    if not series or all(not points for points in series.values()):
        return "(no data)"
    markers = "ox+*#@%&"
    all_points = [p for points in series.values() for p in points]
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (name, points) in enumerate(series.items()):
        marker = markers[idx % len(markers)]
        legend.append(f"{marker} = {name}")
        for x, y in points:
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.4g}"
    bottom_label = f"{y_min:.4g}"
    pad = max(len(top_label), len(bottom_label))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top_label.rjust(pad)
        elif i == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    lines.append(
        " " * pad + f"  x: {x_min:.4g} .. {x_max:.4g}"
        + (f"   y: {y_label}" if y_label else "")
    )
    lines.append(" " * pad + "  " + "   ".join(legend))
    return "\n".join(lines)
