"""Drawings whose x-coordinates are exactly 1..n.

Pinning the outer face to an arbitrary polygon cannot give every vertex a
prescribed x-coordinate, so this module builds its own outer polygon: each
outer vertex sits at x equal to its st-index, two designated edges (one per
chain) are horizontal, and the remaining edges fan around the leftmost and
rightmost vertices with steep, strictly monotone slopes. Interior vertices
then land on their indices through the usual path-count weighting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoValidTopBottom, PreconditionError, StressDrawError
from .graph import PlanarEmbedding
from .solver import Drawing, OuterPolygon, regular_polygon, tutte
from .spread import StOrientation, _solve_to_targets, st_orient

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


def _check_strictly_convex(poly: OuterPolygon) -> None:
    order = poly.order
    k = len(order)
    sign = 0
    for i in range(k):
        ax, ay = poly.positions[order[i]]
        bx, by = poly.positions[order[(i + 1) % k]]
        cx, cy = poly.positions[order[(i + 2) % k]]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0:
            raise StressDrawError("constructed outer polygon has a straight corner")
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise StressDrawError("constructed outer polygon is not convex")


def convex_outer_placement(outer: tuple[int, ...], indices: dict[int, int]) -> OuterPolygon:
    """Strictly convex polygon whose vertex v sits at x = indices[v].

    The cycle splits at its leftmost and rightmost vertices into two
    x-monotone chains. One edge of each chain is drawn horizontal; the two
    horizontal edges may not both touch the leftmost vertex, nor both the
    rightmost. Everything left of them winds around the leftmost vertex
    with slope angles evenly spaced up to +-80 degrees, mirrored on the
    right, and the right cap's y-values get an increasing linear remap so
    both designated edges come out level.
    """
    k = len(outer)
    if k < 3:
        raise PreconditionError("outer cycle needs at least 3 vertices")
    xs = {v: float(indices[v]) for v in outer}
    li = min(range(k), key=lambda i: xs[outer[i]])
    ri = max(range(k), key=lambda i: xs[outer[i]])
    left, right = outer[li], outer[ri]

    if k == 3:
        apex = next(v for v in outer if v not in (left, right))
        y = {left: 0.0, right: 0.0, apex: (xs[right] - xs[left]) / 2.0}
        poly = OuterPolygon(tuple(outer), {v: (xs[v], y[v]) for v in outer})
        _check_strictly_convex(poly)
        return poly

    chain1 = _arc(outer, li, ri)
    chain2 = _arc(outer, ri, li)[::-1]
    for chain in (chain1, chain2):
        for a, b in zip(chain, chain[1:]):
            if xs[b] <= xs[a]:
                raise PreconditionError(
                    "outer chain x-coordinates must increase strictly; "
                    "indices do not come from a convex-position drawing"
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

    poly = OuterPolygon(tuple(outer), {v: (xs[v], y[v]) for v in outer})
    _check_strictly_convex(poly)
    return poly


# ---------------------------------------------------------------------------
# full construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UniformResult:
    """Weights, drawing, and the pieces the construction derived them from."""

    weights: np.ndarray  # (m,), aligned with emb.edges()
    drawing: Drawing
    indices: dict[int, int]
    orientation: StOrientation
    polygon: OuterPolygon


def uniform_pipeline(emb: PlanarEmbedding) -> UniformResult:
    """Solve with path-count weights against the constructed outer polygon.

    Targets are the indices themselves, so no rotation is involved: the
    solved x-coordinates must come out as 1..n directly. indices holds each
    vertex's 1-based rank in the unit drawing's x-order, ties broken as in
    st_orient, an st-numbering for the outer face.
    """
    ref = tutte(emb, regular_polygon(emb.outer_face))
    o = st_orient(ref.positions[:, 0], emb)
    indices = {v: i for i, v in enumerate(o.order.tolist(), start=1)}
    poly = convex_outer_placement(emb.outer_face, indices)
    targets = (o.rank + 1).astype(float)
    weights, drawing = _solve_to_targets(emb, o, targets, poly, 0.0)
    return UniformResult(weights, drawing, indices, o, poly)
