"""Drawings whose x-coordinates are exactly 1..n.

Pinning the outer face to an arbitrary polygon cannot give every vertex a
prescribed x-coordinate, so this module builds its own outer polygon: each
outer vertex sits at x equal to its st-index, two designated edges (one per
chain) are horizontal, and the remaining edges fan around the leftmost and
rightmost vertices with steep, strictly monotone slopes. Interior vertices
then land on their indices through the usual path-count weighting. The
st-indices are read straight off the orientation as the (n,) array
rank + 1, and the constructed polygon is checked with the same exact
orientation signs and winding test that certify a drawing crossing-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoValidTopBottom, PreconditionError, StressDrawError
from .graph import PlanarEmbedding
from .metrics import _convex_ring_turn
from .solver import Drawing, OuterPolygon, regular_polygon, tutte
from .spread import StOrientation, _spreads, st_orient

# steepest slope angle used by the caps around the leftmost/rightmost vertex
CAP_ANGLE_DEG = 80.0


# ---------------------------------------------------------------------------
# outer polygon with prescribed x-coordinates
# ---------------------------------------------------------------------------

def _arc(cyc: tuple[int, ...], start: int, stop: int) -> list[int]:
    """Vertices of cyc from position start to position stop, inclusive."""
    out = [cyc[start]]
    i = start
    while i != stop:
        i = (i + 1) % len(cyc)
        out.append(cyc[i])
    return out


def convex_outer_placement(outer: tuple[int, ...], x: np.ndarray) -> OuterPolygon:
    """Strictly convex polygon whose vertex v sits at x[v], for an (n,)
    array x indexed by vertex id, such as an orientation's rank + 1.

    The cycle splits at its leftmost and rightmost vertices into two
    x-monotone chains. One edge of each chain is drawn horizontal; the two
    horizontal edges may not both touch the leftmost vertex, nor both the
    rightmost. Everything left of them winds around the leftmost vertex
    with slope angles evenly spaced up to +-80 degrees, mirrored on the
    right, and the right cap's y-values get an increasing linear remap so
    both designated edges come out level. The finished polygon must pass
    the exact strict-convexity ring test of the crossing certificate, or
    StressDrawError is raised.
    """
    k = len(outer)
    if k < 3:
        raise PreconditionError("outer cycle needs at least 3 vertices")
    xs = {v: float(x[v]) for v in outer}
    li = min(range(k), key=lambda i: xs[outer[i]])
    ri = max(range(k), key=lambda i: xs[outer[i]])
    left, right = outer[li], outer[ri]

    if k == 3:
        apex = next(v for v in outer if v not in (left, right))
        y = {left: 0.0, right: 0.0, apex: (xs[right] - xs[left]) / 2.0}
        return _convex_polygon(outer, xs, y)

    chain1 = _arc(outer, li, ri)
    chain2 = _arc(outer, ri, li)[::-1]
    for chain in (chain1, chain2):
        for a, b in zip(chain, chain[1:]):
            if xs[b] <= xs[a]:
                raise PreconditionError(
                    "outer chain x-coordinates must increase strictly; "
                    "x does not come from a convex-position drawing"
                )
    p = len(chain1) - 1
    q = len(chain2) - 1

    # designated horizontal edges: edge j of chain1, edge i of chain2,
    # excluding the two corner pairs; balance the caps, break ties by ids
    pick: tuple[tuple, int, int] | None = None
    for j in range(p):
        for i in range(q):
            k_left = j + i
            k_right = (p - 1 - j) + (q - 1 - i)
            if k_left < 1 or k_right < 1:
                continue
            key = (
                -min(k_left, k_right),
                tuple(sorted((chain1[j], chain1[j + 1]))),
                tuple(sorted((chain2[i], chain2[i + 1]))),
            )
            if pick is None or key < pick[0]:
                pick = (key, j, i)
    if pick is None:
        raise NoValidTopBottom(
            f"no valid horizontal edge pair on chains of {p} and {q} edges"
        )
    _, j, i = pick

    y: dict[int, float] = {left: 0.0}
    for t in range(j):
        ang = math.radians(CAP_ANGLE_DEG * (j - t) / j)
        a, b = chain1[t], chain1[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])
    for t in range(i):
        ang = math.radians(-CAP_ANGLE_DEG * (i - t) / i)
        a, b = chain2[t], chain2[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])

    # right cap against a provisional baseline y(rightmost) = 0
    base: dict[int, float] = {right: 0.0}
    for t in range(p - 1, j, -1):
        ang = math.radians(-CAP_ANGLE_DEG * (t - j) / (p - 1 - j))
        a, b = chain1[t], chain1[t + 1]
        base[a] = base[b] - math.tan(ang) * (xs[b] - xs[a])
    for t in range(q - 1, i, -1):
        ang = math.radians(CAP_ANGLE_DEG * (t - i) / (q - 1 - i))
        a, b = chain2[t], chain2[t + 1]
        base[a] = base[b] - math.tan(ang) * (xs[b] - xs[a])

    # increasing linear remap that levels both designated edges at once;
    # gaps are positive because each side owns at least one steep edge
    top_gap = y[chain1[j]] - y[chain2[i]]
    base_gap = base[chain1[j + 1]] - base[chain2[i + 1]]
    alpha = top_gap / base_gap
    beta = y[chain1[j]] - alpha * base[chain1[j + 1]]
    if not alpha > 0:
        raise StressDrawError(f"right-chain remap scale must be positive, got {alpha!r}")
    for v, val in base.items():
        y[v] = alpha * val + beta
    y[chain1[j + 1]] = y[chain1[j]]
    y[chain2[i + 1]] = y[chain2[i]]

    return _convex_polygon(outer, xs, y)


def _convex_polygon(outer: tuple[int, ...], xs: dict[int, float], y: dict[int, float]) -> OuterPolygon:
    """The polygon at (xs[v], y[v]) in the order of outer, checked strictly convex."""
    poly = OuterPolygon(tuple(outer), np.array([(xs[v], y[v]) for v in outer]))
    if not _convex_ring_turn(poly.positions):
        raise StressDrawError("constructed outer polygon is not strictly convex")
    return poly


# ---------------------------------------------------------------------------
# full construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UniformResult:
    """Weights, drawing, and the pieces the construction derived them from.

    Vertex v's st-index, its target x, is orientation.rank[v] + 1.
    """

    weights: np.ndarray  # (m,), aligned with emb.edges()
    drawing: Drawing
    orientation: StOrientation
    polygon: OuterPolygon


def uniform_pipeline(emb: PlanarEmbedding) -> UniformResult:
    """Solve with path-count weights against the constructed outer polygon.

    Targets are the 1-based ranks themselves, rank + 1 of the orientation
    of the unit drawing's x-order, ties broken as in st_orient: an
    st-numbering for the outer face. No rotation is involved, so the
    solved x-coordinates must come out as 1..n directly.
    """
    ref = tutte(emb, regular_polygon(emb.outer_face))
    o = st_orient(ref.positions[:, 0], emb)
    targets = o.rank + 1.0
    poly = convex_outer_placement(emb.outer_face, targets)
    s = _spreads(emb, poly, [(o, targets, 0.0)])[0]
    return UniformResult(s.weights, s.drawing, o, poly)
