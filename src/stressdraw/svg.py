"""Minimal SVG 1.1 rendering: segments for edges, dots for vertices."""
from __future__ import annotations

import numpy as np

from .graph import PlanarEmbedding
from .metrics import _finite_positions
from .solver import Drawing

VIEW = 1000.0
MARGIN = 20.0
DOT_RADIUS = 3.0
STROKE_WIDTH = 1.0


def _fit(pts: np.ndarray) -> np.ndarray:
    """Map world coordinates into the viewBox, preserving aspect ratio.

    Uniform scale, bounding box centered, y flipped so up stays up. Only a
    drawing of zero extent, a single point, gets a stand-in span.
    """
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
    """The drawing as SVG text. Positions that are not n finite rows of
    two raise PreconditionError (metrics._finite_positions): a NaN
    coordinate has no place in the viewBox."""
    pts = _finite_positions(drawing.positions, emb.n)
    # each vertex's coordinates are formatted once, for its dot and its edge ends
    x, y = (["%.3f" % c for c in col] for col in _fit(pts).T.tolist())
    line = f' stroke="black" stroke-width="{STROKE_WIDTH:g}"/>\n'
    dot = f' r="{DOT_RADIUS:g}" fill="black"/>\n'
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {VIEW:g} {VIEW:g}">\n'
        + "".join([f'  <line x1="{x[u]}" y1="{y[u]}" x2="{x[v]}" y2="{y[v]}"{line}'
                   for u, v in emb.edge_array.tolist()])
        + "".join([f'  <circle cx="{a}" cy="{b}"{dot}' for a, b in zip(x, y)])
        + "</svg>\n"
    )
