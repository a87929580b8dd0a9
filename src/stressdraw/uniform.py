"""Drawings whose x-coordinates are exactly 1..n.

Pinning the outer face to an arbitrary polygon cannot give every vertex a
prescribed x-coordinate, so this module builds its own outer polygon: each
outer vertex sits at x equal to its st-index, two designated edges (one per
chain) are horizontal, and the remaining edges fan around the leftmost and
rightmost vertices with steep, strictly monotone slopes. Interior vertices
then land on their indices through the usual path-count weighting. The
st-indices are read straight off the orientation as the (n,) array
rank + 1. The polygon takes time linear in the outer face's length, and
it is checked with the same exact orientation signs and winding test that
certify a drawing crossing-free.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NoValidTopBottom, PreconditionError, StressDrawError
from .graph import PlanarEmbedding, edge_key
from .metrics import _convex_ring_turn
from .solver import OuterPolygon, _reference, regular_polygon
from .spread import SpreadResult, _Plans, _spreads, _take, st_orient

# steepest slope angle used by the caps around the leftmost/rightmost vertex
CAP_ANGLE_DEG = 80.0


# ---------------------------------------------------------------------------
# outer polygon with prescribed x-coordinates
# ---------------------------------------------------------------------------

def convex_outer_placement(outer: tuple[int, ...], x: np.ndarray) -> OuterPolygon:
    """Strictly convex polygon whose vertex v sits at x[v], for an (n,)
    array x indexed by vertex id, such as an orientation's rank + 1.

    The cycle splits at its leftmost and rightmost vertices into two
    x-monotone chains. One edge of each chain is drawn horizontal; the two
    horizontal edges may not both touch the leftmost vertex, nor both the
    rightmost. Everything left of them winds around the leftmost vertex
    with slope angles evenly spaced up to +-80 degrees, mirrored on the
    right, and the right cap's y-values get an increasing linear remap so
    both designated edges come out level. A cycle that repeats a vertex,
    or an x missing or not finite at an outer vertex, raises
    PreconditionError. The finished polygon must pass the exact
    strict-convexity ring test of the crossing certificate, or
    StressDrawError is raised.
    """
    k = len(outer)
    if k < 3:
        raise PreconditionError("outer cycle needs at least 3 vertices")
    if len(set(outer)) != k:
        raise PreconditionError(f"outer cycle {list(outer)!r} repeats a vertex")
    for v in (min(outer), max(outer)):
        if not 0 <= v < len(x):
            raise PreconditionError(f"x has {len(x)} entries, none for outer vertex {v}")
    # x-coordinates and, below, y-coordinates by position on the cycle
    xs = [float(x[v]) for v in outer]
    for v, xv in zip(outer, xs):
        if not math.isfinite(xv):
            raise PreconditionError(f"outer vertex {v} has non-finite x {xv!r}")
    li, ri = xs.index(min(xs)), xs.index(max(xs))
    y = [0.0] * k

    if k == 3:
        y[-li - ri] = (xs[ri] - xs[li]) / 2.0  # the apex: its position is 3 - li - ri
        return _convex_polygon(outer, xs, y)

    # positions of the two chains from the leftmost to the rightmost vertex
    p, q = (ri - li) % k, (li - ri) % k
    chain1 = [(li + t) % k for t in range(p + 1)]
    chain2 = [(li - t) % k for t in range(q + 1)]
    for chain in (chain1, chain2):
        if any(xs[b] <= xs[a] for a, b in zip(chain, chain[1:])):
            raise PreconditionError(
                "outer chain x-coordinates must increase strictly; "
                "x does not come from a convex-position drawing"
            )

    # designated horizontal edges: edge j of chain1, edge i of chain2. The
    # caps get j + i and s - j - i steep edges, s = p + q - 2, at least one
    # each. Only j + i in {s // 2, s - s // 2} balances them best: O(p)
    # pairs, compared by their edges' sorted ids (ends[a] for the edge from
    # position a to a + 1)
    s = p + q - 2
    if s < 2:
        raise NoValidTopBottom(
            f"no valid horizontal edge pair on chains of {p} and {q} edges"
        )
    ends = [edge_key(u, v) for u, v in zip(outer, outer[1:] + outer[:1])]
    j, i = min(
        ((j, t - j) for j in range(p) for t in range(s // 2, s - s // 2 + 1) if 0 <= t - j < q),
        key=lambda ji: (ends[chain1[ji[0]]], ends[chain2[ji[1] + 1]]),
    )

    for t in range(j):
        ang = math.radians(CAP_ANGLE_DEG * (j - t) / j)
        a, b = chain1[t], chain1[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])
    for t in range(i):
        ang = math.radians(-CAP_ANGLE_DEG * (i - t) / i)
        a, b = chain2[t], chain2[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])

    # right cap against a provisional baseline y(rightmost) = 0
    base = [0.0] * k
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
    for a in chain1[j + 1:] + chain2[i + 1:]:
        y[a] = alpha * base[a] + beta
    y[chain1[j + 1]] = y[chain1[j]]
    y[chain2[i + 1]] = y[chain2[i]]

    return _convex_polygon(outer, xs, y)


def _convex_polygon(outer: tuple[int, ...], xs: list[float], y: list[float]) -> OuterPolygon:
    """The polygon at (xs[i], y[i]) for position i of outer, checked strictly
    convex. The check runs on the positions scaled by the power of two that
    brings the largest |coordinate| into [0.5, 1), as faces_convex scales:
    exact, so the products of the ring test neither overflow nor fall under
    its floor at any scale float64 holds."""
    poly = OuterPolygon(tuple(outer), np.array(list(zip(xs, y))))
    shift = -math.frexp(float(np.abs(poly.positions).max()))[1]
    if not _convex_ring_turn(np.ldexp(poly.positions, shift)):
        raise StressDrawError("constructed outer polygon is not strictly convex")
    return poly


# ---------------------------------------------------------------------------
# full construction
# ---------------------------------------------------------------------------

def uniform_pipeline(emb: PlanarEmbedding) -> SpreadResult:
    """Solve with path-count weights against the constructed outer polygon.

    Targets are the 1-based ranks themselves, rank + 1 of the orientation
    of the unit drawing's x-order, ties broken as in st_orient: an
    st-numbering for the outer face. The unit drawing is the reference on
    the radius-1 regular polygon, solved once per embedding and polygon,
    so the spreads drawn on that polygon share it. No rotation is
    involved, so the solved x-coordinates must come out as 1..n directly.
    The spread's targets are rank + 1, and its drawing.polygon is the
    constructed one.
    """
    ref = _reference(emb, regular_polygon(emb.outer_face))
    o = st_orient(ref.positions[:, 0], emb)
    targets = o.rank + 1.0
    poly = convex_outer_placement(emb.outer_face, targets)
    return _spreads(emb, poly, _Plans(_take(o, None), targets[None], [0.0]))[0]
