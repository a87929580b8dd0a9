"""Weights that spread the drawing uniformly along a chosen direction.

The pipeline starts from the unit-weight reference drawing, rotates it so
the requested direction becomes the x-axis (nudging further until no two
vertices share an x-coordinate), orients every edge from smaller to larger
x, assigns evenly spaced target x-coordinates to the interior vertices,
counts the canonical source-to-sink paths through every edge, and weights
each edge with paths / target gap. Solving the stress system with those
weights reproduces the targets exactly, because every canonical path
contributes a balanced +1/-1 to the x-equilibrium of each vertex it passes
through.

Every step works on numpy arrays over the embedding's edge array: the
orientation is a pair of (m,) tail/head arrays aligned with emb.edges(),
each BFS tree an (n,) parent array, and targets, path counts and weights
come out as (n,), (m,) and (m,) arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    DegeneratePosition,
    NotStOrientation,
    PreconditionError,
    ResidualExceeded,
    ZeroGap,
)
from .graph import PlanarEmbedding
from .solver import Drawing, OuterPolygon, solve_stress, tutte

# Minimum pairwise x-gap, relative to the polygon radius.
GENERAL_POSITION_RTOL = 1e-9
# Nudge size and budget when vertices share an x-coordinate.
ROTATION_STEP = 1e-3
MAX_ROTATIONS = 64
# Allowed miss between solved coordinates and targets, relative to radius.
TARGET_RTOL = 1e-6


# ---------------------------------------------------------------------------
# frames and general position
# ---------------------------------------------------------------------------

def rotate_drawing(d: Drawing, angle: float) -> Drawing:
    """Rotate all positions (and the pinned polygon) about the origin."""
    if angle == 0.0:
        return d
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, s], [-s, c]])  # row vectors times turn
    corners = (np.array(list(d.polygon.positions.values())) @ turn).tolist()
    poly = OuterPolygon(d.polygon.order, dict(zip(d.polygon.positions, map(tuple, corners))))
    # the per-coordinate sup norm can grow by at most sqrt(2) under rotation
    return Drawing(d.positions @ turn, poly, d.residual * math.sqrt(2))


def _min_x_gap(d: Drawing) -> float:
    return float(np.diff(np.sort(d.positions[:, 0])).min())


def ensure_general_position(d: Drawing, max_tries: int = MAX_ROTATIONS) -> tuple[Drawing, float]:
    """Rotate in small fixed steps until all x-coordinates are distinct.

    Returns the (possibly rotated) drawing and the extra angle applied.
    Raises DegeneratePosition when the budget runs out.
    """
    floor = GENERAL_POSITION_RTOL * d.polygon.radius
    if _min_x_gap(d) > floor:
        return d, 0.0
    for step in range(1, max_tries + 1):
        angle = step * ROTATION_STEP
        cand = rotate_drawing(d, angle)
        if _min_x_gap(cand) > floor:
            return cand, angle
    raise DegeneratePosition(
        f"no rotation within {max_tries} steps separates all x-coordinates"
    )


# ---------------------------------------------------------------------------
# left-to-right orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StOrientation:
    """Edges oriented by increasing x, with one BFS tree out of the source
    and one into the sink.

    order lists the vertices sorted by x and rank is its inverse, both
    (n,) arrays. Edge i of emb.edges() points from tail[i] to head[i],
    (m,) arrays with rank[tail] < rank[head]; out_deg and in_deg count
    the edges leaving and entering each vertex. t1_parent holds every
    non-source vertex's tree predecessor (an in-neighbor), tn_parent every
    non-sink vertex's tree successor (an out-neighbor), both (n,) arrays
    with -1 at the root. BFS ties are broken toward the lowest vertex id.
    """

    order: np.ndarray
    rank: np.ndarray
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
    reached, parent = breadth_first_order(arcs, 2 * n, directed=True, return_predecessors=True)
    if len(reached) != 2 * n + 1:
        raise NotStOrientation("orientation does not reach every vertex")
    parent = parent.astype(np.intp)
    t1_parent, tn_parent = parent[:n], parent[n:2 * n] - n
    t1_parent[source] = tn_parent[sink] = -1
    return t1_parent, tn_parent


def st_orient(d: Drawing, emb: PlanarEmbedding) -> StOrientation:
    """Orient edges from smaller to larger x and grow the two BFS trees."""
    xs = d.positions[:, 0]
    order = np.argsort(xs, kind="stable")
    tied = np.flatnonzero(~(xs[order[1:]] > xs[order[:-1]]))
    if tied.size:
        a, b = order[tied[0]], order[tied[0] + 1]
        raise DegeneratePosition(f"vertices {a} and {b} share x={float(xs[a])!r}")
    n = emb.n
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
    return StOrientation(order, rank, tail, head, out_deg, in_deg, t1_parent, tn_parent)


# ---------------------------------------------------------------------------
# targets, path counts, weights
# ---------------------------------------------------------------------------

def target_x(o: StOrientation, poly: OuterPolygon) -> np.ndarray:
    """Target x for every vertex, an (n,) array: pinned vertices keep their
    polygon x, each maximal run of L interior vertices between consecutive
    pinned values a < b is spaced evenly at a + j*(b-a)/(L+1), j = 1..L."""
    targets = np.zeros(len(o.order))
    pinned = np.zeros(len(o.order), dtype=bool)
    corners = list(poly.positions)
    targets[corners] = [xy[0] for xy in poly.positions.values()]
    pinned[corners] = True
    in_order = pinned[o.order]
    if not in_order[0]:
        raise PreconditionError(
            "leftmost vertex is interior; drawing is not pinned-convex"
        )
    at = np.flatnonzero(in_order)  # positions of the pinned vertices in order
    x = targets[o.order[at]]
    run = np.diff(at) - 1  # interior vertices between consecutive pinned ones
    if np.any((run > 0) & ~(x[1:] > x[:-1])):
        raise PreconditionError("pinned x-values are not increasing")
    if not in_order[-1]:
        raise PreconditionError(
            "rightmost vertex is interior; drawing is not pinned-convex"
        )
    inner = np.flatnonzero(~in_order)
    k = np.searchsorted(at, inner) - 1  # the run each interior vertex is in
    span = x[1:] - x[:-1]
    targets[o.order[inner]] = x[k] + (inner - at[k]) * span[k] / (run[k] + 1)
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
    the order of the embedding's edges()."""
    targets = np.asarray(targets)
    gap = targets[o.head] - targets[o.tail]
    bad = np.flatnonzero(gap <= 0)
    if bad.size:
        i = bad[0]
        raise ZeroGap(
            f"edge ({o.tail[i]}, {o.head[i]}) has non-positive target gap {float(gap[i])!r}"
        )
    return counts / gap


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadResult:
    """Everything the spread pipeline produced for one direction."""

    weights: np.ndarray        # (m,), aligned with emb.edges()
    drawing: Drawing           # solved against the original polygon
    frame: Drawing             # same drawing rotated into the spread frame
    targets: np.ndarray        # (n,) x-targets in the spread frame
    orientation: StOrientation
    angle: float               # rotation from original frame to spread frame
    reference: Drawing         # unit-weight drawing the pipeline started from


def spread_pipeline(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    direction: float = 0.0,
    reference: Drawing | None = None,
) -> SpreadResult:
    """Run the whole spread construction for one direction (radians).

    direction 0 spreads x-coordinates, pi/2 spreads y-coordinates. The
    solved drawing, rotated into the spread frame, must match the targets
    within TARGET_RTOL * radius; a miss raises ResidualExceeded.
    """
    ref = reference if reference is not None else tutte(emb, poly)
    base = rotate_drawing(ref, -direction)
    pos, extra = ensure_general_position(base)
    angle = -direction + extra
    o = st_orient(pos, emb)
    targets = target_x(o, pos.polygon)
    counts = count_paths(o)
    weights = spread_weights(o, targets, counts)
    drawing = solve_stress(emb, weights, poly)
    frame = rotate_drawing(drawing, angle)
    miss = float(np.abs(frame.positions[:, 0] - targets).max())
    if miss > TARGET_RTOL * poly.radius:
        raise ResidualExceeded(
            f"spread drawing misses its targets by {miss:.3e}"
        )
    return SpreadResult(weights, drawing, frame, targets, o, angle, ref)

