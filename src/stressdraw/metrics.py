"""Quality measurements and planarity checks for finished drawings."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ZeroLengthEdge
from .graph import PlanarEmbedding

# Cross products below this fraction of the squared radius count as collinear.
CONVEXITY_RTOL = 1e-9
# Orientation signs within this tolerance (after normalizing coordinates to a
# unit box) are treated as degenerate contacts, not proper crossings.
CROSSING_EPS = 1e-12


@dataclass(frozen=True)
class DrawingMetrics:
    edge_length_ratio: float
    crossing_count: int
    all_faces_convex: bool
    min_edge_length: float
    max_edge_length: float


def _length_range(d, emb: PlanarEmbedding) -> tuple[float, float]:
    """Shortest and longest edge length; ZeroLengthEdge when the shortest is 0."""
    ends = d.positions[emb.edge_array]
    lengths = np.hypot(*(ends[:, 0] - ends[:, 1]).T)
    shortest = float(lengths.min())
    if shortest == 0.0:
        raise ZeroLengthEdge("drawing contains an edge of zero length")
    return shortest, float(lengths.max())


def edge_length_ratio(d, emb: PlanarEmbedding) -> float:
    """Longest edge length divided by shortest; always >= 1."""
    shortest, longest = _length_range(d, emb)
    return longest / shortest


def crossing_count(d, emb: PlanarEmbedding) -> int:
    """Number of properly crossing edge pairs, shared endpoints excluded.

    All-pairs strict orientation tests, vectorized. Coordinates are first
    normalized to a unit box so the CROSSING_EPS degeneracy cutoff is
    scale-free; touching or collinear contacts never count.
    """
    ends = emb.edge_array
    m = len(ends)
    if m < 2:
        return 0
    pts = d.positions
    span = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])), 1e-300)
    pts = (pts - pts.min(axis=0)) / span
    a = pts[ends[:, 0]]
    b = pts[ends[:, 1]]
    i, j = np.triu_indices(m, k=1)
    shared = (
        (ends[i, 0] == ends[j, 0])
        | (ends[i, 0] == ends[j, 1])
        | (ends[i, 1] == ends[j, 0])
        | (ends[i, 1] == ends[j, 1])
    )

    def cross(o, p, q):
        return (p[:, 0] - o[:, 0]) * (q[:, 1] - o[:, 1]) - (
            p[:, 1] - o[:, 1]
        ) * (q[:, 0] - o[:, 0])

    t1 = cross(a[i], b[i], a[j])
    t2 = cross(a[i], b[i], b[j])
    t3 = cross(a[j], b[j], a[i])
    t4 = cross(a[j], b[j], b[i])
    eps = CROSSING_EPS
    opposite_ij = ((t1 > eps) & (t2 < -eps)) | ((t1 < -eps) & (t2 > eps))
    opposite_ji = ((t3 > eps) & (t4 < -eps)) | ((t3 < -eps) & (t4 > eps))
    return int(np.count_nonzero(opposite_ij & opposite_ji & ~shared))


def faces_convex(d, emb: PlanarEmbedding) -> bool:
    """Whether every interior face polygon is convex.

    Convexity is cross products of consecutive edge vectors all of one
    sign; magnitudes within CONVEXITY_RTOL * radius^2 pass as collinear.
    """
    tol = CONVEXITY_RTOL * d.polygon.radius ** 2
    inner = [f.vertices for i, f in enumerate(emb.faces) if i != emb.outer_index]
    if not inner:
        return True
    corners = [(f[j - 2], f[j - 1], f[j]) for f in inner for j in range(len(f))]
    o, p, q = d.positions[np.array(corners).T]
    c = (p[:, 0] - o[:, 0]) * (q[:, 1] - p[:, 1]) - (p[:, 1] - o[:, 1]) * (q[:, 0] - p[:, 0])
    starts = np.cumsum([0] + [len(f) for f in inner[:-1]])
    turns_left = np.logical_or.reduceat(c > tol, starts)
    turns_right = np.logical_or.reduceat(c < -tol, starts)
    return not (turns_left & turns_right).any()


def compute_metrics(d, emb: PlanarEmbedding) -> DrawingMetrics:
    shortest, longest = _length_range(d, emb)
    return DrawingMetrics(
        edge_length_ratio=longest / shortest,
        crossing_count=crossing_count(d, emb),
        all_faces_convex=faces_convex(d, emb),
        min_edge_length=shortest,
        max_edge_length=longest,
    )


def metrics_json(metrics: DrawingMetrics) -> str:
    return json.dumps(
        {
            "edge_length_ratio": metrics.edge_length_ratio,
            "crossing_count": metrics.crossing_count,
            "all_faces_convex": metrics.all_faces_convex,
        }
    )
