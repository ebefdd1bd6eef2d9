"""Minimal self-contained SVG charts.

Output is plain markup built in a fixed element order with fixed-precision
coordinates, so identical inputs give byte-identical files.
"""
from __future__ import annotations

from pathlib import Path

WIDTH = 640
HEIGHT = 420
MARGIN_L = 62
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50
N_TICKS = 5  # per axis, ends included

CLASS_COLORS = {
    "C_A": "#7b3294",
    "M_A": "#2b83ba",
    "I_A": "#e6c100",
}
EXTRA_COLORS = ("#1a9641", "#d7191c", "#fdae61", "#756bb1", "#636363")

_FONT = 'font-family="sans-serif"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Maps data coordinates to pixel coordinates inside the axes box."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        pad_x = 0.05 * (x_hi - x_lo)
        pad_y = 0.08 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def x(self, v: float) -> float:
        t = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_L + t * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        t = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - t * (HEIGHT - MARGIN_T - MARGIN_B)


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (N_TICKS - 1)
    return [lo + k * step for k in range(N_TICKS)]


def _chrome(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" {_FONT} '
        f'font-size="15">{title}</text>',
    ]
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333"/>')
    for v in _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(v)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" {_FONT} '
                     f'font-size="11">{v:.3g}</text>')
    for v in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(v)
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" {_FONT} '
                     f'font-size="11">{v:.3g}</text>')
    parts.append(f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'{_FONT} font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" {_FONT} '
                 f'font-size="12" transform="rotate(-90 16 {(y0 + y1) // 2})">'
                 f'{y_label}</text>')
    return parts


def _legend(parts: list[str], entries: list[tuple[str, str]]) -> None:
    x = WIDTH - MARGIN_R - 120
    y = MARGIN_T + 8
    for k, (label, color) in enumerate(entries):
        py = y + 16 * k
        parts.append(f'<rect x="{x}" y="{py - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{py}" {_FONT} font-size="11">'
                     f'{label}</text>')


def _chart(series: list[tuple[str, list[float], list[float], str]], title: str,
           x_label: str, y_label: str, path: str | Path | None, dot: str, line: bool) -> str:
    """Axes fitted to every (label, xs, ys, color) series, with a polyline
    through each series' points if line, one circle per point with the
    attributes dot formats from the color, and a legend."""
    all_x = [v for _, xs, _, _ in series for v in xs] or [0.0, 1.0]
    all_y = [v for _, _, ys, _ in series for v in ys] or [0.0, 1.0]
    frame = _Frame(min(all_x), max(all_x), min(all_y), max(all_y))
    parts = _chrome(frame, title, x_label, y_label)
    for _, xs, ys, color in series:
        pts = [(_fmt(frame.x(x)), _fmt(frame.y(y))) for x, y in zip(xs, ys)]
        if line:
            joined = " ".join(f"{px},{py}" for px, py in pts)
            parts.append(f'<polyline points="{joined}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
        parts.extend(f'<circle cx="{px}" cy="{py}" {dot.format(color)}/>' for px, py in pts)
    _legend(parts, [(label, color) for label, _, _, color in series])
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


def line_chart(series: list[tuple[str, list[float], list[float], str]],
               title: str, x_label: str, y_label: str,
               path: str | Path | None = None) -> str:
    """Polyline chart; series is a list of (label, xs, ys, color)."""
    return _chart(series, title, x_label, y_label, path, 'r="3" fill="{}"', line=True)


def scatter_chart(groups: list[tuple[str, list[float], list[float], str]],
                  title: str, x_label: str, y_label: str,
                  path: str | Path | None = None) -> str:
    """Scatter chart; groups is a list of (label, xs, ys, color)."""
    return _chart(groups, title, x_label, y_label, path,
                  'r="4" fill="{}" fill-opacity="0.75"', line=False)
