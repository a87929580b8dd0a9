"""Minimal SVG 1.1 rendering: segments for edges, dots for vertices."""
from __future__ import annotations

import numpy as np

from .graph import PlanarEmbedding
from .solver import Drawing

VIEW = 1000.0
MARGIN = 20.0
DOT_RADIUS = 3.0
STROKE_WIDTH = 1.0


def _fit(drawing: Drawing) -> np.ndarray:
    """Map world coordinates into the viewBox, preserving aspect ratio.

    Uniform scale, bounding box centered, y flipped so up stays up. Only a
    drawing of zero extent, a single point, gets a stand-in span.
    """
    pts = drawing.positions
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    span = max(xmax - xmin, ymax - ymin) or 1e-12
    scale = (VIEW - 2.0 * MARGIN) / span
    xoff = (VIEW - (xmax - xmin) * scale) / 2.0
    yoff = (VIEW - (ymax - ymin) * scale) / 2.0
    x = xoff + (pts[:, 0] - xmin) * scale
    y = VIEW - yoff - (pts[:, 1] - ymin) * scale
    return np.column_stack((x, y))


def render_svg(drawing: Drawing, emb: PlanarEmbedding) -> str:
    mapped, ends = _fit(drawing), emb.edge_array
    line = (
        '  <line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f"'
        f' stroke="black" stroke-width="{STROKE_WIDTH:g}"/>\n'
    )
    dot = f'  <circle cx="%.3f" cy="%.3f" r="{DOT_RADIUS:g}" fill="black"/>\n'
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {VIEW:g} {VIEW:g}">\n'
        + (line * len(ends)) % tuple(mapped[ends].ravel().tolist())
        + (dot * emb.n) % tuple(mapped[:emb.n].ravel().tolist())
        + "</svg>\n"
    )
