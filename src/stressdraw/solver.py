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
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import (
    NonPositiveWeight,
    PreconditionError,
    ResidualExceeded,
    SingularSystem,
)
from .graph import SPD_LU, PlanarEmbedding

# Hard cap on the equilibrium residual, relative to the polygon radius.
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class OuterPolygon:
    """Strictly convex positions for the outer face, in cyclic order.

    positions is a (k, 2) float array whose row i is the position of
    order[i]; order lists each outer-face vertex once, which solve_stress
    checks. centroid and radius are computed on first use, once.
    """

    order: tuple[int, ...]
    positions: np.ndarray

    @cached_property
    def centroid(self) -> tuple[float, float]:
        xs, ys = self.positions.T.tolist()
        return sum(xs) / len(xs), sum(ys) / len(ys)

    @cached_property
    def radius(self) -> float:
        """Largest distance from the centroid to a polygon vertex."""
        cx, cy = self.centroid
        return max(math.hypot(x - cx, y - cy) for x, y in self.positions.tolist())


@dataclass(frozen=True, eq=False)
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
    if len(set(outer_face)) != k:
        raise PreconditionError(f"outer face {list(outer_face)!r} repeats a vertex")
    if not 0 < radius < math.inf:
        raise PreconditionError(f"radius must be positive and finite, got {radius}")
    corners = []
    for i in range(k):
        theta = math.pi / 2 + 2 * math.pi * i / k
        corners.append((radius * math.cos(theta), radius * math.sin(theta)))
    return OuterPolygon(tuple(outer_face), np.array(corners))


def equilibrium_residual(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    positions: np.ndarray,
    pinned: Iterable[int],
) -> float:
    """Max absolute per-coordinate imbalance over the interior vertices."""
    tail, head = emb.edge_array.T
    pull = np.asarray(weights)[:, None] * (positions[tail] - positions[head])
    force = np.column_stack([
        np.bincount(tail, pull[:, c], emb.n) - np.bincount(head, pull[:, c], emb.n) for c in (0, 1)
    ])
    force[list(pinned)] = 0.0
    return float(np.abs(force).max())


def solve_stress(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    poly: OuterPolygon,
) -> Drawing:
    """Solve the weighted equilibrium system with the outer face pinned.

    weights is an (m,) array aligned with emb.edges(). The system's
    sparsity pattern comes from the embedding, which builds it once with
    its rows in a fill-reducing minimum-degree order, so a solve only
    places its weights. The interior weighted Laplacian is factored once,
    by sparse LU in that order without pivoting, and the factor is reused
    for both coordinates, followed by a few iterative-refinement passes.
    With positive weights and the outer face pinned the matrix is an
    irreducibly diagonally dominant symmetric M-matrix, hence symmetric
    positive definite, and LU without pivoting is then backward stable
    like Cholesky; a pivot that is exactly zero raises SingularSystem. The
    result must meet the hard residual bound RESIDUAL_RTOL * poly.radius
    or ResidualExceeded is raised. A polygon whose order does not list
    each outer-face vertex exactly once, or whose positions are not one
    row of two per entry of order, raises PreconditionError.
    """
    pinned = list(poly.order)
    if len(set(pinned)) != len(pinned) or set(pinned) != set(emb.outer_face):
        raise PreconditionError("polygon order does not list each outer-face vertex once")
    if np.shape(poly.positions) != (len(pinned), 2):
        raise PreconditionError(
            f"polygon positions need shape {(len(pinned), 2)}, got {np.shape(poly.positions)}"
        )
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
    positions = np.zeros((emb.n, 2))
    positions[pinned] = poly.positions
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
        lu = splu(system, permc_spec="NATURAL", **SPD_LU)
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
    if not residual <= tol:  # a NaN residual fails too
        raise ResidualExceeded(
            f"equilibrium residual {residual:.3e} exceeds {tol:.3e}"
        )
    return Drawing(positions, poly, residual)


def unit_weights(emb: PlanarEmbedding) -> np.ndarray:
    return np.ones(len(emb.edge_array))


def tutte(emb: PlanarEmbedding, poly: OuterPolygon) -> Drawing:
    """Classic barycentric drawing: every edge weight equal to one."""
    return solve_stress(emb, unit_weights(emb), poly)
