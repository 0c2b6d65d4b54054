"""Minimal hand-written SVG line plots. CSVs are the contract; this is a convenience."""

from __future__ import annotations

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 440
_MARGIN = 60


def write_line_plot(path, series: dict, title: str, xlabel: str, ylabel: str) -> None:
    """Write one polyline per named series with simple axes and a legend.

    ``series`` maps a label to a list of (x, y) pairs.
    """
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    for k in range(5):
        tx = x_lo + (x_hi - x_lo) * k / 4
        ty = y_lo + (y_hi - y_lo) * k / 4
        lines.append(
            f'<text x="{sx(tx):.1f}" y="{_HEIGHT - _MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.3g}</text>'
        )
        lines.append(
            f'<text x="{_MARGIN - 8}" y="{sy(ty):.1f}" font-size="11" '
            f'text-anchor="end">{ty:.3g}</text>'
        )
    lines.append(f'<text x="{_WIDTH / 2}" y="24" font-size="15" text-anchor="middle">{title}</text>')
    lines.append(
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 14}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    lines.append(
        f'<text x="16" y="{_HEIGHT / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>'
    )
    for idx, (label, pts) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN + 16 * idx
        lines.append(
            f'<line x1="{_WIDTH - _MARGIN - 110}" y1="{ly}" x2="{_WIDTH - _MARGIN - 90}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{_WIDTH - _MARGIN - 84}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
