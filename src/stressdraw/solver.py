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
from collections.abc import Iterable, Iterator
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
    StressDrawError,
)
from .graph import SPD_LU, PlanarEmbedding

# Hard cap on the equilibrium residual, relative to the polygon radius.
RESIDUAL_RTOL = 1e-8
# Most system rows factored at once: solve_stresses factors a chunk of
# max(1, BATCH_ROWS // k) weightings of a k-row system together. SuperLU
# preallocates in proportion to the nonzeros it factors, so the cap bounds
# the memory a batch takes while a chunk still shares the per-call cost.
BATCH_ROWS = 2048


@dataclass(frozen=True, eq=False)
class OuterPolygon:
    """Strictly convex positions for the outer face, in cyclic order.

    positions is a (k, 2) float array whose row i is the position of
    order[i]; order lists each outer-face vertex once, which solve_stresses
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


def _net_pull(
    w: np.ndarray,
    tail: np.ndarray,
    head: np.ndarray,
    slot: np.ndarray,
    size: int,
    positions: np.ndarray,
) -> np.ndarray:
    """Per-slot sums of the pulls along half-edges, a (size, 2) array.

    w holds (b, h) weights for b drawings and positions their (b, n, 2)
    vertex positions. Half-edge i runs from vertex tail[i] to vertex
    head[i]; in drawing j it pulls with w[j, i] * (p[head[i]] - p[tail[i]])
    on slot[j, i]. Every slot adds its pulls in half-edge order, so the sums
    of one drawing do not depend on the others beside it.
    """
    return np.column_stack([
        np.bincount(slot.ravel(), (w * (p[:, head] - p[:, tail])).ravel(), size)
        for p in (positions[..., 0], positions[..., 1])
    ])


def equilibrium_residual(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    positions: np.ndarray,
    pinned: Iterable[int],
) -> float:
    """Max absolute per-coordinate imbalance over the vertices not pinned:
    the net pull sum_{v ~ u} w_uv (p_v - p_u) on each. Computed as
    solve_stresses computes it, so a drawing's residual field recomputes
    bit for bit."""
    lo, hi = emb.edge_array.T
    tail, head = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    w = np.tile(np.asarray(weights, dtype=float), 2)[None]
    force = _net_pull(w, tail, head, tail, emb.n, np.asarray(positions)[None])
    force[list(pinned)] = 0.0
    return float(np.abs(force).max())


def _pinned(emb: PlanarEmbedding, poly: OuterPolygon) -> list[int]:
    pinned = list(poly.order)
    if len(set(pinned)) != len(pinned) or set(pinned) != set(emb.outer_face):
        raise PreconditionError("polygon order does not list each outer-face vertex once")
    if np.shape(poly.positions) != (len(pinned), 2):
        raise PreconditionError(
            f"polygon positions need shape {(len(pinned), 2)}, got {np.shape(poly.positions)}"
        )
    return pinned


def _row_weights(emb: PlanarEmbedding, weights: np.ndarray) -> np.ndarray:
    """The weight of every edge seen from each interior end, one entry per
    half-edge of the system pattern; NonPositiveWeight unless there are m
    weights and each of those is positive and finite."""
    m = len(emb.edge_array)
    if np.shape(weights) != (m,):
        raise NonPositiveWeight(f"need {m} edge weights, got shape {np.shape(weights)}")
    half = emb._laplacian_pattern.half
    w = np.asarray(weights, dtype=float)[half]
    bad = np.flatnonzero(~((w > 0) & np.isfinite(w)))
    if bad.size:
        u, v = emb.edge_array[half[bad[0]]].tolist()
        raise NonPositiveWeight(f"edge {(u, v)} needs a positive finite weight, got {w[bad[0]]!r}")
    return w


def solve_stresses(
    emb: PlanarEmbedding,
    weightings: Iterable[np.ndarray],
    poly: OuterPolygon,
) -> Iterator[Drawing]:
    """Solve the weighted equilibrium system with the outer face pinned,
    once per (m,) weighting aligned with emb.edges(), yielding the
    drawings in order.

    The weightings are read lazily, max(1, BATCH_ROWS // k) at a time for
    k interior vertices. A chunk's systems, in the embedding's cached
    minimum-degree pattern, sit along the diagonal of one CSC matrix that
    one sparse LU factors without pivoting (SPD_LU); all right-hand sides
    are solved at once, then refined up to three times. With positive
    weights and the outer face pinned each system is an irreducibly
    diagonally dominant symmetric M-matrix, hence positive definite, and
    LU without pivoting is then backward stable like Cholesky.

    One force function, the net pull on each interior vertex, gives the
    right-hand side (the pull with the interior at 0), each refinement gap
    and the residual. A system whose gap is within 1 % of the residual
    bound RESIDUAL_RTOL * poly.radius gets an exactly zero correction, so
    each drawing is bit for bit the one its weighting gives alone. A
    drawing over the bound raises ResidualExceeded.

    Errors come in weighting order: the drawings before the first failing
    weighting are yielded, then its error is raised. Weights that are not
    m positive finite numbers raise NonPositiveWeight. One error breaks
    that order: a pivot that is exactly zero raises SingularSystem for its
    whole chunk. A polygon whose order does not list each outer-face vertex
    exactly once, or whose positions are not one row of two per entry,
    raises PreconditionError.
    """
    pinned = _pinned(emb, poly)
    per = max(1, BATCH_ROWS // max(len(emb._laplacian_pattern.interior), 1))
    todo = iter(weightings)
    while True:
        chunk, error = [], None
        try:
            for weights in todo:
                chunk.append(_row_weights(emb, weights))
                if len(chunk) == per:
                    break
        except StressDrawError as exc:  # raised after the drawings before it
            error = exc
        if chunk:
            yield from _solve_chunk(emb, np.array(chunk), poly, pinned)
        if error is not None:
            raise error
        if len(chunk) < per:
            return


def _solve_chunk(
    emb: PlanarEmbedding, w: np.ndarray, poly: OuterPolygon, pinned: list[int],
) -> Iterator[Drawing]:
    """The drawings of the (b, h) row weights w, factored as one
    block-diagonal system."""
    pattern = emb._laplacian_pattern
    b, k = len(w), len(pattern.interior)
    positions = np.zeros((b, emb.n, 2))
    positions[:, pinned] = poly.positions
    if not k:
        yield from (Drawing(p, poly, 0.0) for p in positions)
        return
    shift = np.arange(b, dtype=np.intc)[:, None]
    slot = shift * k + pattern.row  # the system row of each half-edge's pull
    values = np.concatenate(
        (-w[:, pattern.inner], np.bincount(slot.ravel(), w.ravel(), b * k).reshape(b, k)), axis=1,
    )
    indptr = np.zeros(b * k + 1, dtype=np.intc)
    indptr[1:] = (pattern.indptr[1:] + shift * len(pattern.indices)).ravel()
    system = csc_matrix(
        (values[:, pattern.perm].ravel(), (pattern.indices + shift * k).ravel(), indptr),
        shape=(b * k, b * k),
    )
    try:
        lu = splu(system, permc_spec="NATURAL", **SPD_LU)
    except RuntimeError as exc:
        raise SingularSystem(f"interior system could not be factorized: {exc}") from exc
    tol = RESIDUAL_RTOL * poly.radius
    # the pull with the interior at 0 is the right-hand side
    sol = lu.solve(_net_pull(w, pattern.tail, pattern.head, slot, b * k, positions))
    for passes in range(4):
        positions[:, pattern.interior] = sol.reshape(b, k, 2)
        gap = _net_pull(w, pattern.tail, pattern.head, slot, b * k, positions)
        residual = np.abs(gap).reshape(b, -1).max(axis=1)
        done = residual <= 0.01 * tol
        if passes == 3 or done.all():
            break
        gap.reshape(b, -1)[done] = 0.0
        sol += lu.solve(gap)

    for p, r in zip(positions, residual.tolist()):
        if not r <= tol:  # a NaN residual fails too
            raise ResidualExceeded(f"equilibrium residual {r:.3e} exceeds {tol:.3e}")
        yield Drawing(p, poly, r)


def solve_stress(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    poly: OuterPolygon,
) -> Drawing:
    """The drawing of one weighting: solve_stresses(emb, [weights], poly)."""
    return next(solve_stresses(emb, [weights], poly))


def unit_weights(emb: PlanarEmbedding) -> np.ndarray:
    return np.ones(len(emb.edge_array))


def tutte(emb: PlanarEmbedding, poly: OuterPolygon) -> Drawing:
    """Classic barycentric drawing: every edge weight equal to one."""
    return solve_stress(emb, unit_weights(emb), poly)
