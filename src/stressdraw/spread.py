"""Weights that spread the drawing uniformly along a chosen direction.

The pipeline reads one coordinate of the unit-weight reference drawing:
its positions turned by exactly -direction, so the requested direction
becomes the x-axis, x-column only. It orders the vertices by that x, with
one rule for ties (nearly equal pinned values count as one, pinned
vertices go first among equals, the rest by x and id), orients every edge
along the order, keeps the pinned vertices' x as their targets, spaces the
interior vertices' targets evenly, counts the canonical source-to-sink
paths through every edge, and weights each edge with paths / target gap.
Solving the stress system with those weights reproduces the targets
exactly, because every canonical path contributes a balanced +1/-1 to the
x-equilibrium of each vertex it passes through.

Every step works on numpy arrays over the embedding's edge array: the
orientation is a pair of (m,) tail/head arrays aligned with emb.edges(),
each BFS tree an (n,) parent array, and targets, path counts and weights
come out as (n,), (m,) and (m,) arrays. Spreads of several directions of
one reference, as the kaleidoscope and the xy-morph need, are weighted one
by one and solved in one solve_stresses batch.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    BadParams,
    NotStOrientation,
    PreconditionError,
    ResidualExceeded,
    StressDrawError,
    ZeroGap,
)
from .graph import PlanarEmbedding
from .solver import Drawing, OuterPolygon, solve_stresses, tutte

# Pinned x-values closer than this fraction of the largest |pinned x| are
# one value: a turned regular polygon puts equal corners ~1e-16 apart.
GENERAL_POSITION_RTOL = 1e-9
# Allowed miss between solved coordinates and targets, relative to radius.
TARGET_RTOL = 1e-6


def _turn(xy: np.ndarray, angle: float) -> np.ndarray:
    """(n, 2) positions rotated by angle about the origin."""
    if angle == 0.0:
        return xy
    c, s = math.cos(angle), math.sin(angle)
    return xy @ np.array([[c, s], [-s, c]])  # row vectors times turn


# ---------------------------------------------------------------------------
# left-to-right orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StOrientation:
    """Edges oriented along the tie-broken x-order, with one BFS tree out of
    the source and one into the sink.

    order lists the vertices in that order and rank is its inverse, both
    (n,) arrays; pinned marks the outer-face vertices, (n,) bool. Edge i of
    emb.edges() points from tail[i] to head[i], (m,) arrays with
    rank[tail] < rank[head]; out_deg and in_deg count the edges leaving and
    entering each vertex. t1_parent holds every non-source vertex's tree
    predecessor (an in-neighbor), tn_parent every non-sink vertex's tree
    successor (an out-neighbor), both (n,) arrays with -1 at the root. BFS
    ties are broken toward the lowest vertex id.
    """

    order: np.ndarray
    rank: np.ndarray
    pinned: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    out_deg: np.ndarray
    in_deg: np.ndarray
    t1_parent: np.ndarray
    tn_parent: np.ndarray

    @property
    def source(self) -> int:
        return int(self.order[0])

    @property
    def sink(self) -> int:
        return int(self.order[-1])


def _bfs_trees(
    emb: PlanarEmbedding, rank: np.ndarray, out_deg: np.ndarray, in_deg: np.ndarray,
    source: int, sink: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Parent arrays, -1 at the root, of the BFS along out-edges from the
    source and along in-edges from the sink.

    Both searches run as one: vertex v is node v along out-edges and node
    n + v along in-edges, and node 2n leads to the source and to n + sink.
    The two halves share no arc, so each keeps its own dequeue order.
    Neighbors are listed in increasing id order, so the first dequeued
    vertex, lowest id among equals, becomes the parent.
    """
    n = emb.n
    frm, to = emb._arcs
    out = rank[to] > rank[frm]
    indptr = np.concatenate(([0], np.cumsum(np.concatenate((out_deg, in_deg, [2])))), dtype=np.int32)
    indices = np.concatenate((to[out], to[~out] + n, [source, n + sink]), dtype=np.int32)
    arcs = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(2 * n + 1, 2 * n + 1))
    # every vertex is reached: walking in-edges back from it lowers the rank
    # until the source, the one vertex without one (out-edges to the sink alike)
    _, parent = breadth_first_order(arcs, 2 * n, directed=True, return_predecessors=True)
    parent = parent.astype(np.intp)
    t1_parent, tn_parent = parent[:n], parent[n:2 * n] - n
    t1_parent[source] = tn_parent[sink] = -1
    return t1_parent, tn_parent


def st_orient(x: np.ndarray, emb: PlanarEmbedding) -> StOrientation:
    """Orient edges along the x-order of an (n,) array and grow the two BFS
    trees.

    Ties follow one rule. Pinned (outer-face) x-values chained by gaps of at
    most GENERAL_POSITION_RTOL times the largest |pinned x| count as the
    lowest of them; among equal values the pinned vertices come first, then
    the rest, each by x, then by id. So no interior vertex lands between
    tied pinned ones. An order in which a vertex other than the ends lacks
    an incoming or an outgoing edge raises NotStOrientation.
    """
    xs = np.asarray(x)
    n = emb.n
    pinned = np.zeros(n, dtype=bool)
    pinned[list(emb.outer_face)] = True
    ring = np.flatnonzero(pinned)
    ring = ring[np.argsort(xs[ring], kind="stable")]
    px = xs[ring]
    fresh = np.concatenate(([True], np.diff(px) > GENERAL_POSITION_RTOL * np.abs(px).max()))
    value = xs.copy()
    value[ring] = px[fresh][np.cumsum(fresh) - 1]
    order = np.lexsort((xs, ~pinned, value))  # stable: ids break what is left
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    lo, hi = emb.edge_array.T
    forward = rank[lo] < rank[hi]
    tail, head = np.where(forward, lo, hi), np.where(forward, hi, lo)
    out_deg = np.bincount(tail, minlength=n)
    in_deg = np.bincount(head, minlength=n)
    source, sink = int(order[0]), int(order[-1])
    no_in, no_out = in_deg == 0, out_deg == 0
    no_in[source] = no_out[sink] = False
    stuck = np.flatnonzero(no_in | no_out)
    if stuck.size:
        v = stuck[0]
        raise NotStOrientation(
            f"vertex {v} has no {'incoming' if no_in[v] else 'outgoing'} edge"
        )
    t1_parent, tn_parent = _bfs_trees(emb, rank, out_deg, in_deg, source, sink)
    return StOrientation(order, rank, pinned, tail, head, out_deg, in_deg, t1_parent, tn_parent)


# ---------------------------------------------------------------------------
# targets, path counts, weights
# ---------------------------------------------------------------------------

def target_x(o: StOrientation, x: np.ndarray, pinned: Iterable[int]) -> np.ndarray:
    """Target x for every vertex, an (n,) array: the pinned vertices keep
    their x, each maximal run of L interior vertices between consecutive
    pinned values a < b is spaced evenly at a + j*(b-a)/(L+1), j = 1..L."""
    n = len(o.order)
    corners = list(pinned)
    targets = np.zeros(n)
    targets[corners] = np.asarray(x)[corners]
    is_pinned = np.zeros(n, dtype=bool)
    is_pinned[corners] = True
    in_order = is_pinned[o.order]
    if not in_order[0]:
        raise PreconditionError(
            "leftmost vertex is interior; drawing is not pinned-convex"
        )
    at = np.flatnonzero(in_order)  # positions of the pinned vertices in order
    ends = targets[o.order[at]]
    run = np.diff(at) - 1  # interior vertices between consecutive pinned ones
    if np.any((run > 0) & ~(ends[1:] > ends[:-1])):
        raise PreconditionError("pinned x-values are not increasing")
    if not in_order[-1]:
        raise PreconditionError(
            "rightmost vertex is interior; drawing is not pinned-convex"
        )
    inner = np.flatnonzero(~in_order)
    k = np.searchsorted(at, inner) - 1  # the run each interior vertex is in
    span = ends[1:] - ends[:-1]
    targets[o.order[inner]] = ends[k] + (inner - at[k]) * span[k] / (run[k] + 1)
    return targets


def count_paths(o: StOrientation) -> np.ndarray:
    """Number of canonical source-to-sink paths through each edge, an (m,)
    int array aligned with o.tail and o.head.

    The canonical path of edge e = (a, b) walks the source tree from the
    source to a, crosses e, then walks the sink tree from b to the sink.
    The count for a directed edge (u, v) is 1 for its own path, plus, when
    (u, v) is a source-tree edge, the out-degrees summed over the subtree
    below v, plus, when it is a sink-tree edge, the in-degrees summed over
    the subtree below u. Both sums accumulate bottom-up in linear time;
    they are integers, so the order of the additions cannot change them.
    """
    order = o.order.tolist()
    # one spare slot at the end takes the roots' additions to parent -1
    s1, sn = o.out_deg.tolist() + [0], o.in_deg.tolist() + [0]
    up1, upn = o.t1_parent.tolist(), o.tn_parent.tolist()
    # source-tree children have larger x than their parent, sink-tree ones smaller
    for v, w in zip(reversed(order), order):
        s1[up1[v]] += s1[v]
        sn[upn[w]] += sn[w]
    s1, sn = np.array(s1[:-1]), np.array(sn[:-1])
    t, h = o.tail, o.head
    return (1 + np.where(o.t1_parent[h] == t, s1[h], 0)
            + np.where(o.tn_parent[t] == h, sn[t], 0))


def spread_weights(
    o: StOrientation,
    targets: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Weight each edge with path count / target gap, as an (m,) array in
    the order of the embedding's edges().

    An edge between two pinned vertices with zero gap (tied corners) gets
    its path count instead: the solve never reads it. Any other gap <= 0
    raises ZeroGap.
    """
    targets = np.asarray(targets)
    gap = targets[o.head] - targets[o.tail]
    tied = (gap == 0) & o.pinned[o.tail] & o.pinned[o.head]
    bad = np.flatnonzero((gap <= 0) & ~tied)
    if bad.size:
        i = bad[0]
        raise ZeroGap(
            f"edge ({o.tail[i]}, {o.head[i]}) has non-positive target gap {float(gap[i])!r}"
        )
    return counts / np.where(tied, 1.0, gap)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpreadResult:
    """Everything the spread pipeline produced for one direction."""

    weights: np.ndarray        # (m,), aligned with emb.edges()
    drawing: Drawing           # solved against the original polygon
    targets: np.ndarray        # (n,) x-targets in the frame turned by -direction
    orientation: StOrientation


def _check_direction(direction: float) -> None:
    if not math.isfinite(direction):
        raise BadParams(f"direction must be finite, got {direction!r}")


def _direction_plans(
    emb: PlanarEmbedding, poly: OuterPolygon, reference: Drawing, directions: Iterable[float],
) -> Iterator[tuple[StOrientation, np.ndarray, float]]:
    """(orientation, targets, turn) for each direction: the reference's
    positions turned by -direction, so the direction becomes the x-axis,
    give the x-order (ties broken as in st_orient) and the pinned targets."""
    for direction in directions:
        x = _turn(reference.positions, -direction)[:, 0]
        o = st_orient(x, emb)
        yield o, target_x(o, x, poly.order), -direction


def _spreads(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    plans: Iterable[tuple[StOrientation, np.ndarray, float]],
) -> list[SpreadResult]:
    """The spread of each plan (orientation, targets, turn), all solved in
    one batch.

    Each plan's edges are weighted by path count / target gap, and one
    solve_stresses batch draws every weighting. Each drawing, turned by
    its plan's turn, must match its targets within TARGET_RTOL * radius; a
    miss raises ResidualExceeded. Errors, those of reading the plans
    included, come in plan order, as one whole spread after another would
    raise them.
    """
    todo, error = [], None
    try:
        for o, targets, turn in plans:
            todo.append((spread_weights(o, targets, count_paths(o)), o, targets, turn))
    except StressDrawError as exc:  # raised after the plans before it are solved
        error = exc
    results = []
    drawings = solve_stresses(emb, (weights for weights, *_ in todo), poly)
    for (weights, o, targets, turn), drawing in zip(todo, drawings):
        miss = float(np.abs(_turn(drawing.positions, turn)[:, 0] - targets).max())
        if not miss <= TARGET_RTOL * poly.radius:
            raise ResidualExceeded(f"drawing misses its targets by {miss:.3e}")
        results.append(SpreadResult(weights, drawing, targets, o))
    if error is not None:
        raise error
    return results


def spread_pipeline(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    direction: float = 0.0,
    reference: Drawing | None = None,
) -> SpreadResult:
    """Run the whole spread construction for one direction (radians).

    direction 0 spreads x-coordinates, pi/2 spreads y-coordinates; it must
    be finite. The reference's positions, turned by exactly -direction so
    the direction becomes the x-axis, give the orientation (ties broken as
    in st_orient) and the pinned targets. The solved drawing, turned the
    same way, must match the targets within TARGET_RTOL * radius; a miss
    raises ResidualExceeded. The kaleidoscope and the xy-morph spread many
    directions of one reference in one batch; each gets the result this
    function gives for it alone.
    """
    _check_direction(direction)
    ref = reference if reference is not None else tutte(emb, poly)
    return _spreads(emb, poly, _direction_plans(emb, poly, ref, [direction]))[0]
