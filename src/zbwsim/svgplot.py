"""Minimal static SVG 1.1 emission: trajectory polylines and shift-table bars.

Direct markup generation, no plotting dependency.  Coordinates are mapped
into a fixed viewport with a small margin; tick labels use repr-stable
formatting so identical inputs give byte-identical files.
"""
from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN = 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], widened to [lo, lo + 1] when empty (a single sample)."""
    return (lo, hi) if hi > lo else (lo, lo + 1.0)


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """About five round ticks as (position, label) pairs, covering [lo, hi] after _span."""
    lo, hi = _span(lo, hi)
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return [(t, _fmt(t)) for t in out]


class _Canvas:
    def __init__(self, title: str) -> None:
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
        ]

    def line(self, x1: float, y1: float, x2: float, y2: float) -> None:
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="1"/>'
        )

    def text(self, x: float, y: float, s: str, anchor: str = "middle") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{s}</text>'
        )

    def polyline(self, px: np.ndarray, py: np.ndarray) -> None:
        """The vertices (px[k], py[k]), formatted as _fmt does, in one % for the whole line."""
        xy = np.column_stack((px, py)).ravel().tolist()
        coords = " ".join(["%.6g,%.6g"] * len(px)) % tuple(xy)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>'
        )

    def rect(self, x: float, y: float, w: float, h: float, color: str) -> None:
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{color}" stroke="black" stroke-width="0.5"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axes(c: _Canvas, xlo: float, xhi: float, ylo: float, yhi: float,
          xticks: list[tuple[float, str]], xlabel: str, ylabel: str):
    """Draw the frame, the x ticks from (position, label) pairs and round y ticks;
    return the data-to-pixel transform."""
    xlo, xhi = _span(xlo, xhi)
    ylo, yhi = _span(ylo, yhi)
    px0, px1 = MARGIN, WIDTH - MARGIN // 2
    py0, py1 = HEIGHT - MARGIN, MARGIN // 2 + 16

    def to_px(x, y):  # floats, or float arrays elementwise
        fx = (x - xlo) / (xhi - xlo)
        fy = (y - ylo) / (yhi - ylo)
        return px0 + fx * (px1 - px0), py0 + fy * (py1 - py0)

    c.line(px0, py0, px1, py0)
    c.line(px0, py0, px0, py1)
    for t, label in xticks:
        px, _ = to_px(t, ylo)
        c.line(px, py0, px, py0 + 4)
        c.text(px, py0 + 18, label)
    for t, label in _ticks(ylo, yhi):
        _, py = to_px(xlo, t)
        c.line(px0 - 4, py, px0, py)
        c.text(px0 - 8, py + 4, label, anchor="end")
    c.text((px0 + px1) / 2, HEIGHT - 12, xlabel)
    c.text(16, (py0 + py1) / 2, ylabel, anchor="middle")
    return to_px


def _line_plot(title: str, x: np.ndarray, y: np.ndarray, xlo: float, xhi: float,
               ylo: float, yhi: float, xlabel: str, ylabel: str) -> str:
    """(x, y) as one polyline, capped at ~2000 vertices to keep files small, on round ticks."""
    c = _Canvas(title)
    to_px = _axes(c, xlo, xhi, ylo, yhi, _ticks(xlo, xhi), xlabel, ylabel)
    stride = max(1, len(x) // 2000)
    c.polyline(*to_px(x[::stride], y[::stride]))
    return c.render()


def trajectory_svg(times: np.ndarray, series: np.ndarray, title: str) -> str:
    """Line plot of a classical run's v_x against its proper time tau."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(series, dtype=float)
    pad = 0.05 * (y.max() - y.min() or 1.0)
    return _line_plot(title, t, y, float(t[0]), float(t[-1]), float(y.min() - pad),
                      float(y.max() + pad), "tau", "v_x")


def planar_orbit_svg(x: np.ndarray, y: np.ndarray, title: str) -> str:
    """x-y orbit plot with equal-range axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = max(np.abs(x).max(), np.abs(y).max()) * 1.1 or 1.0
    return _line_plot(title, x, y, -r, r, -r, r, "x", "y")


def shift_bars_svg(labels: list[str], quantum: list[float], classical: list[float],
                   title: str) -> str:
    """Grouped bar chart comparing the two approaches cell by cell."""
    vals = list(quantum) + list(classical)
    lo = min(0.0, min(vals))
    hi = max(0.0, max(vals))
    pad = 0.1 * (hi - lo or 1.0)
    c = _Canvas(title)
    to_px = _axes(c, -0.5, len(labels) - 0.5, lo - pad, hi + pad, list(enumerate(labels)),
                  "", "delta omega")
    _, y0 = to_px(0.0, 0.0)
    bw = 0.3
    for i in range(len(labels)):
        for off, val, color in ((-bw, quantum[i], "#1f4e9c"), (0.0, classical[i], "#b03a2e")):
            px, py = to_px(i + off, val)
            c.rect(px, min(py, y0), to_px(i + off + bw, 0.0)[0] - px, abs(py - y0), color)
    c.text(WIDTH - 200, 40, "quantum", anchor="start")
    c.rect(WIDTH - 220, 31, 14, 10, "#1f4e9c")
    c.text(WIDTH - 200, 58, "classical (exact roots)", anchor="start")
    c.rect(WIDTH - 220, 49, 14, 10, "#b03a2e")
    return c.render()
