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
from itertools import islice

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
# Most system rows factored at once: solve_stresses factors a chunk of
# max(1, BATCH_ROWS // k) weightings of a k-row system together. SuperLU
# preallocates in proportion to the nonzeros it factors, so the cap bounds
# the memory a batch takes; it is set so that a sweep or a decay scan of a
# graph of up to about 400 vertices is one call, whose fixed cost is paid
# once.
BATCH_ROWS = 8192


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
    xy: np.ndarray,
) -> np.ndarray:
    """Per-slot sums of the pulls along half-edges, a (2, size) array: the
    x sums, then the y sums.

    w holds (b, h) weights for b drawings and xy their coordinates, a
    (2, b, n) array: the x of every vertex of each drawing, then the y.
    Half-edge i runs from vertex tail[i] to vertex head[i]; in drawing j it
    pulls with w[j, i] * (p[head[i]] - p[tail[i]]) on slot[j, i]. Every
    slot adds its pulls in half-edge order, so the sums of one drawing do
    not depend on the others beside it.
    """
    return np.stack([
        np.bincount(slot.ravel(), (w * (c[:, head] - c[:, tail])).ravel(), size) for c in xy
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
    bit for bit. Weights that are not m numbers raise NonPositiveWeight,
    positions that are not n rows of two PreconditionError."""
    _check_weight_count(emb, weights)
    if np.shape(positions) != (emb.n, 2):
        raise PreconditionError(f"positions need shape {(emb.n, 2)}, got {np.shape(positions)}")
    lo, hi = emb.edge_array.T
    tail, head = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    w = np.tile(np.asarray(weights, dtype=float), 2)[None]
    force = _net_pull(w, tail, head, tail, emb.n, np.ascontiguousarray(np.transpose(positions))[:, None])
    force[:, list(pinned)] = 0.0
    return float(np.abs(force).max())


def _pinned(emb: PlanarEmbedding, poly: OuterPolygon) -> list[int]:
    pinned = list(poly.order)
    if len(set(pinned)) != len(pinned) or set(pinned) != set(emb.outer_face):
        raise PreconditionError("polygon order does not list each outer-face vertex once")
    if np.shape(poly.positions) != (len(pinned), 2):
        raise PreconditionError(
            f"polygon positions need shape {(len(pinned), 2)}, got {np.shape(poly.positions)}"
        )
    bad = np.flatnonzero(~np.isfinite(poly.positions).all(axis=1))
    if len(bad):
        i = int(bad[0])
        raise PreconditionError(
            f"polygon corner {i} (vertex {pinned[i]}) needs finite positions, "
            f"got {poly.positions[i].tolist()}"
        )
    return pinned


def _check_weight_count(emb: PlanarEmbedding, weights: np.ndarray) -> None:
    m = len(emb.edge_array)
    if np.shape(weights) != (m,):
        raise NonPositiveWeight(f"need {m} edge weights, got shape {np.shape(weights)}")


def _chunk_weights(emb: PlanarEmbedding, weightings: list[np.ndarray]) -> np.ndarray:
    """The (b, h) row weights of b weightings: each one's weight of every
    edge seen from each interior end, one entry per half-edge of the system
    pattern. NonPositiveWeight names the first weighting, in order, that is
    not m numbers or has one that is not positive and finite."""
    m = len(emb.edge_array)
    shapes = [np.shape(w) for w in weightings]
    good = next((j for j, shape in enumerate(shapes) if shape != (m,)), len(shapes))
    half = emb._laplacian_pattern.half
    w = np.array(weightings[:good], dtype=float).reshape(good, m)[:, half]
    ok = (w > 0) & np.isfinite(w)
    if not ok.all():
        j, i = np.argwhere(~ok)[0]
        u, v = emb.edge_array[half[i]].tolist()
        raise NonPositiveWeight(f"edge {(u, v)} needs a positive finite weight, got {float(w[j, i])!r}")
    if good < len(shapes):
        raise NonPositiveWeight(f"need {m} edge weights, got shape {shapes[good]}")
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
    k interior vertices. With BATCH_ROWS = 8192 the 19 rows of a 5-degree
    sweep share one factorization up to k = 431, the 15 bases of a decay
    scan up to k = 546: at those sizes the Python around a chunk costs
    more than its factorization, so such a batch pays it once. A chunk's
    systems, in the embedding's cached minimum-degree pattern, sit along
    the diagonal of one CSC matrix that one sparse LU factors without
    pivoting (SPD_LU); all right-hand sides are solved at once, then
    refined up to three times. With positive weights and the outer face
    pinned each system is an irreducibly diagonally dominant symmetric
    M-matrix, hence positive definite, and LU without pivoting is then
    backward stable like Cholesky.

    One force function, the net pull on each interior vertex, gives the
    right-hand side (the pull with the interior at 0), each refinement gap
    and the residual. A system whose gap is within 1 % of the residual
    bound RESIDUAL_RTOL * poly.radius gets an exactly zero correction, so
    each drawing is bit for bit the one its weighting gives alone. A
    drawing over the bound raises ResidualExceeded.

    An error ends the batch after the drawings of the earlier chunks. A
    chunk's weightings are all checked before it is factored: weights that
    are not m positive finite numbers raise NonPositiveWeight, a pivot that
    is exactly zero raises SingularSystem. Only ResidualExceeded comes
    after the drawings of its own chunk before it. A polygon whose order
    does not list each outer-face vertex exactly once, or whose positions
    are not one row of two finite numbers per entry, raises
    PreconditionError before anything is solved.
    """
    for _positions, drawings in _solve_chunks(emb, weightings, poly):
        yield from drawings


def _solve_chunks(
    emb: PlanarEmbedding,
    weightings: Iterable[np.ndarray],
    poly: OuterPolygon,
) -> Iterator[tuple[np.ndarray, list[Drawing]]]:
    """solve_stresses a chunk at a time: the (b, n, 2) positions of each
    chunk and its b drawings, views of them, so that a caller can measure
    a whole chunk at once. A drawing over the residual bound cuts its chunk
    short before it, and the next step raises ResidualExceeded.
    """
    pinned = _pinned(emb, poly)
    k = len(emb._laplacian_pattern.interior)
    tol = RESIDUAL_RTOL * poly.radius
    todo = iter(weightings)
    while chunk := list(islice(todo, max(1, BATCH_ROWS // max(k, 1)))):
        w = _chunk_weights(emb, chunk)
        positions, residual = _solve_chunk(emb, w, poly, pinned, tol)
        over = np.flatnonzero(~(residual <= tol)) if k else ()  # a NaN residual fails too
        end = int(over[0]) if len(over) else len(w)
        yield positions[:end], [Drawing(p, poly, r) for p, r in zip(positions, residual[:end].tolist())]
        if len(over):
            raise ResidualExceeded(f"equilibrium residual {residual[end]:.3e} exceeds {tol:.3e}")


def _solve_chunk(
    emb: PlanarEmbedding, w: np.ndarray, poly: OuterPolygon, pinned: list[int], tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (b, n, 2) positions and the (b,) residuals of the (b, h) row
    weights w, factored as one block-diagonal system."""
    pattern = emb._laplacian_pattern
    b, k = len(w), len(pattern.interior)
    xy = np.zeros((2, b, emb.n))
    xy[:, :, pinned] = np.transpose(poly.positions)[:, None]
    if not k:
        return np.stack(xy, axis=-1), np.zeros(b)
    # system s's pattern shifted along the diagonal by s * k; the slots index
    # bincount, which takes intp, and the matrix keeps scipy's int32
    shift = np.arange(b)[:, None]
    slot = shift * k + pattern.row
    indices = (pattern.indices + shift * k).astype(np.intc).ravel()
    indptr = np.zeros(b * k + 1, dtype=np.intc)
    indptr[1:] = (pattern.indptr[1:] + shift * len(pattern.indices)).ravel()
    values = np.concatenate(
        (-w[:, pattern.inner], np.bincount(slot.ravel(), w.ravel(), b * k).reshape(b, k)), axis=1,
    )
    system = csc_matrix((values[:, pattern.perm].ravel(), indices, indptr), shape=(b * k, b * k))
    try:
        lu = splu(system, permc_spec="NATURAL", **SPD_LU)
    except RuntimeError as exc:
        raise SingularSystem(f"interior system could not be factorized: {exc}") from exc
    # the pull with the interior at 0 is the right-hand side; only the
    # half-edges to pinned vertices add to it (the rest add +0.0)
    edge = pattern.boundary
    rhs = _net_pull(w[:, edge], pattern.tail[edge], pattern.head[edge], slot[:, edge], b * k, xy)
    sol = lu.solve(rhs.T).T
    for passes in range(4):
        xy[:, :, pattern.interior] = sol.reshape(2, b, k)
        gap = _net_pull(w, pattern.tail, pattern.head, slot, b * k, xy).reshape(2, b, k)
        residual = np.abs(gap).max(axis=(0, 2))
        done = residual <= 0.01 * tol
        if passes == 3 or done.all():
            break
        gap[:, done] = 0.0
        sol += lu.solve(gap.reshape(2, -1).T).T
    return np.stack(xy, axis=-1), residual


def solve_stress(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    poly: OuterPolygon,
) -> Drawing:
    """The drawing of one weighting: solve_stresses(emb, [weights], poly)."""
    return next(solve_stresses(emb, [weights], poly))


def tutte(emb: PlanarEmbedding, poly: OuterPolygon) -> Drawing:
    """Classic barycentric drawing: every edge weight equal to one. Each
    call solves it afresh."""
    return solve_stress(emb, np.ones(len(emb.edge_array)), poly)


def _reference(emb: PlanarEmbedding, poly: OuterPolygon) -> Drawing:
    """tutte(emb, poly), solved once per embedding and polygon content: the
    reference that the spreads, the xy-morph, the kaleidoscope,
    uniform_pipeline and the CLI's tutte draw read.

    It is stored with the embedding, for the last polygon only, under the
    polygon's order, shape and float64 bits, so an equal polygon built
    anew finds it and one with other content solves again. Its positions
    are read-only. A solve that raises stores nothing.
    """
    positions = np.asarray(poly.positions, dtype=float)
    key = (tuple(poly.order), positions.shape, positions.tobytes())
    held = vars(emb).get("_reference")
    if held is None or held[0] != key:
        drawing = tutte(emb, poly)
        drawing.positions.flags.writeable = False
        held = vars(emb)["_reference"] = (key, drawing)
    return held[1]
