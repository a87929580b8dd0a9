"""Quality measurements and planarity checks for finished drawings."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, ZeroLengthEdge
from .graph import PlanarEmbedding

# Cross products below this fraction of the squared radius count as collinear.
CONVEXITY_RTOL = 1e-9
# Orientation signs within this tolerance (after normalizing coordinates to a
# unit box) are treated as degenerate contacts, not proper crossings.
CROSSING_EPS = 1e-12
# Shewchuk's static error bound for an orientation determinant, (3 + 16e)e
# with e = 2**-53: when the computed det exceeds it times |left| + |right|
# (its two products), the exact det of the stored floats has the same sign.
# The smallest normal float is added so that underflow cannot fake a sign.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_FLOOR = float(np.finfo(float).tiny)
# Edge pairs per block of the all-pairs test: the size of its temporaries.
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class DrawingMetrics:
    edge_length_ratio: float
    crossing_count: int
    all_faces_convex: bool
    min_edge_length: float
    max_edge_length: float


def _finite_positions(pts: np.ndarray) -> np.ndarray:
    """pts, the (n, 2) positions of a drawing or the (b, n, 2) positions of
    b drawings; PreconditionError names the first vertex, of the first
    drawing, with a NaN or infinite coordinate, which no metric can
    measure."""
    if not np.isfinite(pts).all():
        at = tuple(np.argwhere(~np.isfinite(pts).all(axis=-1))[0])
        raise PreconditionError(f"vertex {at[-1]} has non-finite position {tuple(pts[at].tolist())}")
    return pts


def _length_range(positions: np.ndarray, emb: PlanarEmbedding) -> tuple[np.ndarray, np.ndarray]:
    """Shortest and longest edge length of each of b drawings, from their
    (b, n, 2) positions: two (b,) arrays. A shortest length of 0 is
    returned as it is; _ratios rejects it."""
    x, y = np.moveaxis(_finite_positions(positions), -1, 0)
    lo, hi = emb.edge_array.T
    lengths = np.hypot(x[:, lo] - x[:, hi], y[:, lo] - y[:, hi])
    return lengths.min(axis=1), lengths.max(axis=1)


def _ratios(shortest: np.ndarray, longest: np.ndarray) -> list[float]:
    """Longest edge length divided by shortest, per drawing;
    ZeroLengthEdge when a drawing's shortest edge has length 0."""
    if not shortest.all():
        raise ZeroLengthEdge("drawing contains an edge of zero length")
    return (longest / shortest).tolist()


def edge_length_ratio(d, emb: PlanarEmbedding) -> float:
    """Longest edge length divided by shortest; always >= 1."""
    return _ratios(*_length_range(d.positions[None], emb))[0]


def crossing_count(d, emb: PlanarEmbedding) -> int:
    """Number of properly crossing edge pairs, shared endpoints excluded.

    A drawing whose faces certify it crossing-free (_certified_planar,
    O(m)) has count 0; the certificate reads the stored floats, scaled by
    a power of two (_binade_scaled). Any other drawing gets all-pairs
    strict orientation tests, vectorized over blocks of rows, on a copy
    normalized to a unit box so the CROSSING_EPS degeneracy cutoff is
    scale-free; touching or collinear contacts never count. A pair counted there has |det| > CROSSING_EPS,
    far above the float error, so it crosses in exact arithmetic too,
    which a certified drawing never does.
    """
    pts = _finite_positions(d.positions)
    ends = emb.edge_array
    m = len(ends)
    if m < 2:
        return 0
    if _certified_planar(_binade_scaled(pts), emb):
        return 0
    span = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])), 1e-300)
    pts = (pts - pts.min(axis=0)) / span
    ax, ay = pts[ends[:, 0]].T
    bx, by = pts[ends[:, 1]].T
    dx, dy = bx - ax, by - ay

    def cross(e, qx, qy):  # orientation of point q against edge e
        return dx[e] * (qy - ay[e]) - dy[e] * (qx - ax[e])

    count = 0
    rows = max(1, _PAIR_BLOCK // m)
    for r0 in range(0, m - 1, rows):
        i = np.arange(r0, min(r0 + rows, m - 1))[:, None]
        j = np.arange(r0 + 1, m)[None, :]
        t1 = cross(i, ax[j], ay[j])
        t2 = cross(i, bx[j], by[j])
        t3 = cross(j, ax[i], ay[i])
        t4 = cross(j, bx[i], by[i])
        eps = CROSSING_EPS
        opposite_ij = ((t1 > eps) & (t2 < -eps)) | ((t1 < -eps) & (t2 > eps))
        opposite_ji = ((t3 > eps) & (t4 < -eps)) | ((t3 < -eps) & (t4 > eps))
        shared = (
            (ends[i, 0] == ends[j, 0])
            | (ends[i, 0] == ends[j, 1])
            | (ends[i, 1] == ends[j, 0])
            | (ends[i, 1] == ends[j, 1])
        )
        count += int(np.count_nonzero(opposite_ij & opposite_ji & ~shared & (j > i)))
    return count


def _binade_scaled(pts: np.ndarray) -> np.ndarray:
    """pts times the power of two that brings the largest |coordinate| into
    [0.5, 1): exact unless a coordinate lies over 1021 binades below the
    largest, so exact signs of the copy are those of pts, and the
    orientation products cannot overflow."""
    return np.ldexp(pts, -math.frexp(float(np.abs(pts).max()))[1])


def _orientation(o: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact sign of each triangle (o, p, q) of (k, 2) point arrays: 1
    counterclockwise, -1 clockwise, 0 when the float filter cannot tell."""
    left = (p[:, 0] - o[:, 0]) * (q[:, 1] - o[:, 1])
    right = (p[:, 1] - o[:, 1]) * (q[:, 0] - o[:, 0])
    det = left - right
    bound = _ORIENT_ERRBOUND * (np.abs(left) + np.abs(right)) + _ORIENT_FLOOR
    return (det > bound).astype(int) - (det < -bound)


def _certified_planar(pts: np.ndarray, emb: PlanarEmbedding) -> bool:
    """Whether the drawing's faces prove it has no proper crossing, in O(m).

    Holds when every face is a simple cycle, the outer face is drawn as a
    strictly convex polygon that winds once, and every fan triangle of
    every inner face turns the other way round than the outer traversal,
    all with exact signs. A component without the outer face would be a
    closed surface whose fan triangles sum to signed area 0, impossible
    when all share one strict sign; so the graph is connected, its inner
    faces cover each point inside the outer polygon exactly once (Floater
    2003; Gortler, Gotsman & Thurston 2006), and two properly crossing
    edges would cover the points near the crossing twice.
    """
    try:
        index = emb._face_index
    except (InputError, TypeError):  # no sphere traversal, or no such outer face
        return False
    if not index.simple:
        return False
    turn = _convex_ring_turn(pts[index.ring])
    return turn != 0 and bool((_orientation(*pts[index.fans]) == -turn).all())


def _convex_ring_turn(ring: np.ndarray) -> int:
    """1 or -1, the exact turn sign of every corner, when the (k, 2) points
    of a closed ring, in order, form a strictly convex polygon that winds
    once (counterclockwise 1, clockwise -1); else 0. With every corner
    turning one way, each edge turns by less than pi from the last, so the
    non-zero signs of the edges' y-steps change twice per winding; a float
    difference has the sign of the exact one, so the count is exact too."""
    prv = np.concatenate((ring[-1:], ring[:-1]))
    nxt = np.concatenate((ring[1:], ring[:1]))
    turns = _orientation(prv, ring, nxt)
    if turns[0] == 0 or (turns != turns[0]).any():
        return 0
    dy = nxt[:, 1] - ring[:, 1]
    up = dy[dy != 0] > 0
    changes = np.count_nonzero(up[1:] != up[:-1]) + (up[0] != up[-1])
    return int(turns[0]) if changes == 2 else 0


def faces_convex(d, emb: PlanarEmbedding) -> bool:
    """Whether every interior face polygon is convex.

    Convexity is cross products of consecutive edge vectors all of one
    sign; magnitudes within CONVEXITY_RTOL * radius^2 pass as collinear.
    Positions and radius are first scaled by the power of two that brings
    the radius into [0.5, 1): exact, so the verdict is the unscaled one
    wherever that neither overflows nor underflows, and scale-free beyond.
    """
    pts = _finite_positions(d.positions)
    index = emb._face_index
    if not len(index.corner_starts):
        return True
    radius = d.polygon.radius
    shift = -math.frexp(radius)[1]
    tol = CONVEXITY_RTOL * math.ldexp(radius, shift) ** 2
    o, p, q = np.ldexp(pts, shift)[index.corners]
    c = (p[:, 0] - o[:, 0]) * (q[:, 1] - p[:, 1]) - (p[:, 1] - o[:, 1]) * (q[:, 0] - p[:, 0])
    turns_left = np.logical_or.reduceat(c > tol, index.corner_starts)
    turns_right = np.logical_or.reduceat(c < -tol, index.corner_starts)
    return not (turns_left & turns_right).any()


def compute_metrics(d, emb: PlanarEmbedding) -> DrawingMetrics:
    shortest, longest = _length_range(d.positions[None], emb)
    return DrawingMetrics(
        edge_length_ratio=_ratios(shortest, longest)[0],
        crossing_count=crossing_count(d, emb),
        all_faces_convex=faces_convex(d, emb),
        min_edge_length=float(shortest[0]),
        max_edge_length=float(longest[0]),
    )


def metrics_json(metrics: DrawingMetrics) -> str:
    return json.dumps(
        {
            "edge_length_ratio": metrics.edge_length_ratio,
            "crossing_count": metrics.crossing_count,
            "all_faces_convex": metrics.all_faces_convex,
        }
    )
