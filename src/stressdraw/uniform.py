"""Drawings whose x-coordinates are exactly 1..n.

Pinning the outer face to an arbitrary polygon cannot give every vertex a
prescribed x-coordinate, so this module builds its own outer polygon: each
outer vertex sits at x equal to its st-index, two designated edges (one per
chain) are horizontal, and the remaining edges fan around the leftmost and
rightmost vertices with steep, strictly monotone slopes. Interior vertices
then land on their indices through the usual path-count weighting. The
st-indices are read straight off the orientation, a batch of one
direction, as rank + 1. The polygon takes time linear in the outer face's
length, and it is checked with the same exact orientation signs and
winding test that certify a drawing crossing-free.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, PreconditionError
from .graph import PlanarEmbedding, edge_key
from .metrics import _binade_scaled, _convex_ring_turn
from .solver import OuterPolygon, _reference, regular_polygon
from .spread import SpreadResult, _spread, count_paths, spread_weights, st_orient

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
    an x missing or not finite at an outer vertex, or chains whose x do
    not increase strictly raise PreconditionError; so do equal x all
    round, for a triangle too. The finished polygon must pass the exact
    strict-convexity ring test of the crossing certificate, or
    NumericError is raised.
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

    # positions of the two chains from the leftmost to the rightmost vertex,
    # both empty when every x is equal. A triangle's chains increase
    # strictly unless two of its x tie, which its placement allows
    p, q = (ri - li) % k, (li - ri) % k
    chain1 = [(li + t) % k for t in range(p + 1)]
    chain2 = [(li - t) % k for t in range(q + 1)]
    if li == ri or (k > 3 and any(
        xs[b] <= xs[a] for chain in (chain1, chain2) for a, b in zip(chain, chain[1:])
    )):
        raise PreconditionError(
            "outer chain x-coordinates must increase strictly; "
            "x does not come from a convex-position drawing"
        )
    if k == 3:
        y[-li - ri] = (xs[ri] - xs[li]) / 2.0  # the apex: its position is 3 - li - ri
        return _convex_polygon(outer, xs, y)

    # designated horizontal edges: edge j of chain1, edge i of chain2. The
    # caps get j + i and s - j - i steep edges, s = p + q - 2 = k - 2 >= 2,
    # at least one each, so a pair always exists. Only j + i in
    # {s // 2, s - s // 2} balances them best: O(p) pairs, compared by their
    # edges' sorted ids (ends[a] for the edge from position a to a + 1)
    s = k - 2
    ends = [edge_key(u, v) for u, v in zip(outer, outer[1:] + outer[:1])]
    j, i = min(
        ((j, t - j) for j in range(p) for t in range(s // 2, s - s // 2 + 1) if 0 <= t - j < q),
        key=lambda ji: (ends[chain1[ji[0]]], ends[chain2[ji[1] + 1]]),
    )

    # each chain, its designated edge, and the sign of its left cap's slopes
    chains = ((chain1, j, 1.0), (chain2, i, -1.0))
    for chain, h, sign in chains:
        for t in range(h):
            ang = math.radians(sign * CAP_ANGLE_DEG * (h - t) / h)
            a, b = chain[t], chain[t + 1]
            y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])

    # right cap against a provisional baseline y(rightmost) = 0
    base = [0.0] * k
    for chain, h, sign in chains:
        last = len(chain) - 2
        for t in range(last, h, -1):
            ang = math.radians(-sign * CAP_ANGLE_DEG * (t - h) / (last - h))
            a, b = chain[t], chain[t + 1]
            base[a] = base[b] - math.tan(ang) * (xs[b] - xs[a])

    # increasing linear remap that levels both designated edges at once;
    # gaps are positive because each side owns at least one steep edge
    top_gap = y[chain1[j]] - y[chain2[i]]
    base_gap = base[chain1[j + 1]] - base[chain2[i + 1]]
    alpha = top_gap / base_gap
    beta = y[chain1[j]] - alpha * base[chain1[j + 1]]
    if not alpha > 0:
        raise NumericError(f"right-chain remap scale must be positive, got {alpha!r}")
    for a in chain1[j + 1:] + chain2[i + 1:]:
        y[a] = alpha * base[a] + beta
    y[chain1[j + 1]] = y[chain1[j]]
    y[chain2[i + 1]] = y[chain2[i]]

    return _convex_polygon(outer, xs, y)


def _convex_polygon(outer: tuple[int, ...], xs: list[float], y: list[float]) -> OuterPolygon:
    """The polygon at (xs[i], y[i]) for position i of outer, checked strictly
    convex, at any scale float64 holds, on its positions scaled as the
    crossing certificate scales them."""
    poly = OuterPolygon(tuple(outer), np.array(list(zip(xs, y))))
    if not _convex_ring_turn(_binade_scaled(poly.positions)):
        raise NumericError("constructed outer polygon is not strictly convex")
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
    o = st_orient(ref.positions[None, :, 0], emb)
    targets = o.rank + 1.0
    poly = convex_outer_placement(emb.outer_face, targets[0])
    return _spread(emb, poly, spread_weights(o, targets, count_paths(o))[0], targets[0], 0.0)
