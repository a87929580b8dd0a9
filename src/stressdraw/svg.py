"""Minimal SVG 1.1 rendering: segments for edges, dots for vertices."""
from __future__ import annotations

import numpy as np

from .graph import PlanarEmbedding
from .solver import Drawing

VIEW = 1000.0
MARGIN = 20.0
DOT_RADIUS = 3.0
STROKE_WIDTH = 1.0


def _fit(drawing: Drawing) -> list[list[float]]:
    """Map world coordinates into the viewBox, preserving aspect ratio.

    Uniform scale, bounding box centered, y flipped so up stays up.
    """
    pts = drawing.positions
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    scale = (VIEW - 2.0 * MARGIN) / span
    xoff = (VIEW - (xmax - xmin) * scale) / 2.0
    yoff = (VIEW - (ymax - ymin) * scale) / 2.0
    x = xoff + (pts[:, 0] - xmin) * scale
    y = VIEW - yoff - (pts[:, 1] - ymin) * scale
    return np.column_stack((x, y)).tolist()


def render_svg(drawing: Drawing, emb: PlanarEmbedding) -> str:
    mapped = _fit(drawing)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {VIEW:g} {VIEW:g}">'
    ]
    for u, v in emb.edge_array.tolist():
        x1, y1 = mapped[u]
        x2, y2 = mapped[v]
        parts.append(
            f'  <line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}"'
            f' stroke="black" stroke-width="{STROKE_WIDTH:g}"/>'
        )
    for v in range(emb.n):
        x, y = mapped[v]
        parts.append(
            f'  <circle cx="{x:.3f}" cy="{y:.3f}" r="{DOT_RADIUS:g}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
