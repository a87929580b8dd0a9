"""Equilibrium drawings: pin the outer face, solve for everything else.

Interior vertex positions satisfy, per coordinate, the weighted balance
sum_{v ~ u} w_uv (p_u - p_v) = 0. With positive weights on every edge that
touches an interior vertex and a strictly convex outer polygon, the solved
drawing of a 3-connected planar embedding is planar with convex faces.
Weights on edges between two pinned vertices are accepted but have no
effect on the system.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import (
    NonPositiveWeight,
    PreconditionError,
    ResidualExceeded,
    SingularSystem,
)
from .graph import PlanarEmbedding

# Hard cap on the equilibrium residual, relative to the polygon radius.
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class OuterPolygon:
    """Strictly convex positions for the outer face, in cyclic order."""

    order: tuple[int, ...]
    positions: dict[int, tuple[float, float]]

    @property
    def centroid(self) -> tuple[float, float]:
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        return sum(xs) / len(xs), sum(ys) / len(ys)

    @property
    def radius(self) -> float:
        """Largest distance from the centroid to a polygon vertex."""
        cx, cy = self.centroid
        return max(math.hypot(x - cx, y - cy) for x, y in self.positions.values())


@dataclass(frozen=True)
class Drawing:
    """Vertex positions, an (n, 2) array indexed by vertex id, together with
    the pinned polygon that produced them."""

    positions: np.ndarray
    polygon: OuterPolygon
    residual: float


def regular_polygon(outer_face: tuple[int, ...], radius: float = 1.0) -> OuterPolygon:
    """Regular polygon pinning: vertex i sits at angle pi/2 + 2*pi*i/k."""
    k = len(outer_face)
    if k < 3:
        raise PreconditionError(f"outer face needs >= 3 vertices, got {k}")
    if not radius > 0:
        raise PreconditionError(f"radius must be positive, got {radius}")
    positions = {}
    for i, v in enumerate(outer_face):
        theta = math.pi / 2 + 2 * math.pi * i / k
        positions[v] = (radius * math.cos(theta), radius * math.sin(theta))
    return OuterPolygon(order=tuple(outer_face), positions=positions)


def equilibrium_residual(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    positions: np.ndarray,
    pinned: Iterable[int],
) -> float:
    """Max absolute per-coordinate imbalance over the interior vertices."""
    tail, head = emb.edge_array.T
    pull = np.asarray(weights)[:, None] * (positions[tail] - positions[head])
    force = np.zeros((emb.n, 2))
    np.add.at(force, tail, pull)
    np.subtract.at(force, head, pull)
    force[list(pinned)] = 0.0
    return float(np.abs(force).max())


def solve_stress(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    poly: OuterPolygon,
) -> Drawing:
    """Solve the weighted equilibrium system with the outer face pinned.

    weights is an (m,) array aligned with emb.edges(). The system's
    sparsity pattern comes from the embedding, which builds it once, so a
    solve only places its weights. One sparse LU factorization of the
    interior weighted Laplacian is reused for both coordinates, followed by
    a few iterative-refinement passes. The result must meet the hard
    residual bound RESIDUAL_RTOL * poly.radius or ResidualExceeded is
    raised.
    """
    if set(emb.outer_face) != set(poly.positions):
        raise PreconditionError("polygon does not pin exactly the outer face")
    m = len(emb.edge_array)
    if np.shape(weights) != (m,):
        raise NonPositiveWeight(f"need {m} edge weights, got shape {np.shape(weights)}")
    pattern = emb._laplacian_pattern
    # the weight of every edge seen from each interior end: a row of the system
    w = np.asarray(weights, dtype=float)[pattern.half]
    bad = np.flatnonzero(~((w > 0) & np.isfinite(w)))
    if bad.size:
        u, v = emb.edge_array[pattern.half[bad[0]]].tolist()
        raise NonPositiveWeight(f"edge {(u, v)} needs a positive finite weight, got {w[bad[0]]!r}")
    pinned = list(poly.positions)
    positions = np.zeros((emb.n, 2))
    positions[pinned] = list(poly.positions.values())
    tol = RESIDUAL_RTOL * poly.radius
    k = len(pattern.interior)
    if not k:
        return Drawing(positions, poly, 0.0)

    values = np.concatenate((-w[pattern.inner], np.bincount(pattern.row, w, k)))
    system = csc_matrix((values[pattern.perm], pattern.indices, pattern.indptr), shape=(k, k))
    out = pattern.boundary
    pull = w[out, None] * positions[pattern.boundary_head]
    rhs = np.column_stack([np.bincount(pattern.row[out], pull[:, c], k) for c in (0, 1)])
    try:
        lu = splu(system)
    except RuntimeError as exc:
        raise SingularSystem(f"interior system could not be factorized: {exc}") from exc
    sol = lu.solve(rhs)
    for _ in range(3):
        gap = rhs - system @ sol
        if np.abs(gap).max() <= 0.01 * tol:
            break
        sol += lu.solve(gap)

    positions[pattern.interior] = sol
    residual = equilibrium_residual(emb, weights, positions, pinned)
    if residual > tol:
        raise ResidualExceeded(
            f"equilibrium residual {residual:.3e} exceeds {tol:.3e}"
        )
    return Drawing(positions, poly, residual)


def unit_weights(emb: PlanarEmbedding) -> np.ndarray:
    return np.ones(len(emb.edge_array))


def tutte(emb: PlanarEmbedding, poly: OuterPolygon) -> Drawing:
    """Classic barycentric drawing: every edge weight equal to one."""
    return solve_stress(emb, unit_weights(emb), poly)
