"""Tiny SVG 1.1 line plots, byte-deterministic for golden-file testing.

One polyline per plotted series, fixed 800x500 viewport, separation on
the x axis mapped linearly over [0, pi].  This is an inspection aid, not
a plotting library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 45

Y_MIN = -1.1
Y_MAX = 1.1


@dataclass(frozen=True)
class Series:
    label: str
    theta: tuple[float, ...]
    values: tuple[float, ...]
    color: str


def _x_pix(theta: float) -> float:
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return MARGIN_LEFT + span * theta / math.pi


def _y_pix(value: float) -> float:
    span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return MARGIN_TOP + span * (Y_MAX - value) / (Y_MAX - Y_MIN)


def _escape(text: str) -> str:
    # text nodes need only &, < and > escaped; quotes stay as they are
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str) -> str:
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _polyline(series: Series) -> str:
    points = " ".join(
        f"{_x_pix(t):.2f},{_y_pix(v):.2f}"
        for t, v in zip(series.theta, series.values)
    )
    return (
        f'<polyline fill="none" stroke="{series.color}" stroke-width="1.5" '
        f'points="{points}"/>'
    )


def render_plot(series: list[Series], title: str) -> str:
    """Render the series into a standalone SVG document string."""
    x0, x1 = _x_pix(0.0), _x_pix(math.pi)
    y_lo, y_hi = _y_pix(Y_MIN), _y_pix(Y_MAX)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{_escape(title)}</title>',
        f'<text x="{WIDTH / 2:.2f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        # frame and zero line
        _line(x0, y_lo, x1, y_lo, "#333", "1"),
        _line(x0, y_lo, x0, y_hi, "#333", "1"),
        _line(x0, _y_pix(0.0), x1, _y_pix(0.0), "#bbb", "0.5"),
    ]
    for tick, label in ((0.0, "0"), (math.pi / 2, "pi/2"), (math.pi, "pi")):
        x = _x_pix(tick)
        parts.append(_line(x, y_lo, x, y_lo + 5, "#333", "1"))
        parts.append(
            f'<text x="{x:.2f}" y="{y_lo + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for tick in (-1.0, 0.0, 1.0):
        y = _y_pix(tick)
        parts.append(_line(x0 - 5, y, x0, y, "#333", "1"))
        parts.append(
            f'<text x="{x0 - 10:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:+.0f}</text>'
        )
    for i, s in enumerate(series):
        parts.append(_polyline(s))
        y = MARGIN_TOP + 14 * (i + 1)
        parts.append(_line(x1 - 150, y - 4, x1 - 130, y - 4, s.color, "1.5"))
        parts.append(
            f'<text x="{x1 - 125:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
