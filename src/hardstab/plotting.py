"""Deterministic SVG line charts from CSV columns."""

from __future__ import annotations

import csv
import math

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 24, 56
TICKS = 5


class NamedColumnError(ValueError):
    """Requested CSV column does not exist."""


def _read_columns(csv_path, x_column: str, y_column: str) -> tuple[list[float], list[float]]:
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or x_column not in reader.fieldnames:
            raise NamedColumnError(f"column {x_column!r} not found in {csv_path}")
        if y_column not in reader.fieldnames:
            raise NamedColumnError(f"column {y_column!r} not found in {csv_path}")
        xs, ys = [], []
        for row in reader:
            x_field, y_field = row[x_column], row[y_column]
            if x_field in ("", None) or y_field in ("", None):
                continue
            x, y = float(x_field), float(y_field)
            if math.isfinite(x) and math.isfinite(y):
                xs.append(x)
                ys.append(y)
    if not xs:
        raise ValueError(f"no plottable data rows in {csv_path}")
    return xs, ys


def _scale(values: list[float], lo_pix: float, hi_pix: float):
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo

    def to_pixel(value: float) -> float:
        return lo_pix + (value - lo) / span * (hi_pix - lo_pix)

    return to_pixel, lo, hi


def render_plot(csv_path, x_column: str, y_column: str, svg_path) -> str:
    """Self-contained SVG line chart of y against x; byte-deterministic for
    fixed input.  Rows with an empty or non-finite value in either column
    are skipped; nothing is written when no row is left or a column is
    missing."""
    xs, ys = _read_columns(csv_path, x_column, y_column)
    x_pix, x_lo, x_hi = _scale(xs, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y_pix, y_lo, y_hi = _scale(ys, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" '
        f'x2="{MARGIN_LEFT}" y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>',
    ]
    for k in range(TICKS):
        frac = k / (TICKS - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        px = MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" font-size="12" '
            f'text-anchor="middle">{x_val:.6g}</text>'
        )
        y_val = y_lo + frac * (y_hi - y_lo)
        py = HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 6}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{y_val:.6g}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.2f}" '
        f'y="{HEIGHT - 12}" font-size="14" text-anchor="middle">{x_column}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.2f})">{y_column}</text>'
    )
    points = " ".join(f"{x_pix(x):.3f},{y_pix(y):.3f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{x_pix(x):.3f}" cy="{y_pix(y):.3f}" r="3" fill="#1f6fb2"/>'
        )
    parts.append("</svg>")

    content = "\n".join(parts) + "\n"
    with open(svg_path, "w", newline="") as fh:
        fh.write(content)
    return str(svg_path)
