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
one reference, as the kaleidoscope and the xy-morph need, are planned as
one batch: each step runs once over (d, n) and (d, m) arrays, one row per
direction, and one breadth-first search grows all 2d trees. st_orient,
target_x, count_paths and spread_weights are the d = 1 case of that code.
Each step checks every row before it returns and raises, for the first
row it rejects, the error the single-direction function raises; so a
batch that cannot plan a direction raises before it solves any.

The targets hold exactly when the integer path counts balance at every
interior vertex, and each plan checks that exactly. So the sweeps, which
only blend the weights, solve no spread: they plan every direction and
solve only their blends. spread_pipeline and uniform_pipeline, which
return the spread drawing, solve it and also check it against the
targets within TARGET_RTOL.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    BadParams,
    NotStOrientation,
    PreconditionError,
    ResidualExceeded,
    ZeroGap,
)
from .graph import PlanarEmbedding
from .solver import Drawing, OuterPolygon, _reference, solve_stress

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


def _flat(v: np.ndarray, n: int) -> np.ndarray:
    """Row j's vertex v of the (d, k) array v as the index j*n + v into a
    raveled (d, n) array."""
    return v + n * np.arange(len(v))[:, None]


# ---------------------------------------------------------------------------
# left-to-right orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StOrientation:
    """Edges oriented along the tie-broken x-order, with one BFS tree out of
    the source and one into the sink.

    order lists the vertices in that order, from the source order[0] to
    the sink order[-1], and rank is its inverse, both (n,) arrays; pinned
    marks the outer-face vertices, (n,) bool. Edge i of emb.edges() points
    from tail[i] to head[i], (m,) arrays with rank[tail] < rank[head];
    out_deg and in_deg count the edges leaving and entering each vertex.
    t1_parent holds every non-source vertex's tree predecessor (an
    in-neighbor), tn_parent every non-sink vertex's tree successor (an
    out-neighbor), both (n,) arrays with -1 at the root. BFS ties are
    broken toward the lowest vertex id. t1_sum sums out_deg over each
    vertex's subtree of the source tree, tn_sum in_deg over its subtree of
    the sink tree, (n,) arrays that count_paths reads.

    The spread pipeline orients d directions as one batch: an
    StOrientation whose fields carry a leading axis of length d, row j
    holding direction j's arrays.
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
    t1_sum: np.ndarray
    tn_sum: np.ndarray


_FIELDS = tuple(f.name for f in fields(StOrientation))


def _take(o: StOrientation, key: int | None) -> StOrientation:
    """o with every field indexed by key along the leading axis: row j of a
    batch, or (key None) a single orientation as a batch of one."""
    return StOrientation(*(getattr(o, name)[key] for name in _FIELDS))


def _bfs_trees(
    emb: PlanarEmbedding, order: np.ndarray, rank: np.ndarray, degree: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parent arrays, -1 at the root, of the BFS along out-edges from the
    source and along in-edges from the sink of every row of the (d, n)
    order, and the out-degrees summed over each source-tree subtree and the
    in-degrees over each sink-tree subtree, all (d, n) arrays. degree
    lists the out-degree of every node of the search below: the rows'
    out-degrees, then their in-degrees, then 2d.

    All 2d searches run as one: in row j vertex v is node jn + v along
    out-edges and node (d + j)n + v along in-edges, and node 2dn leads to
    every row's source and sink. The trees share no arc, so each keeps its
    own dequeue order. Neighbors are listed in increasing id order, so the
    first dequeued vertex, lowest id among equals, becomes the parent.
    """
    d, n = order.shape
    size = 2 * d * n
    frm, to = emb._arcs  # sorted by from, then to
    shift = n * np.arange(d)
    ahead = (rank.take(to, axis=1) > rank.take(frm, axis=1)).ravel()
    node = to + shift[:, None]
    indices = np.concatenate((np.compress(ahead, node), np.compress(~ahead, node) + d * n,
                              order[:, 0] + shift, order[:, -1] + (shift + d * n)), dtype=np.int32)
    roots = indices[-2 * d:]
    indptr = np.zeros(size + 2, dtype=np.int32)
    indptr[1:] = degree.cumsum()
    arcs = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(size + 1, size + 1))
    # every vertex is reached: walking in-edges back from it lowers the rank
    # until the source, the one vertex without one (out-edges to the sink alike)
    bfs, parent = breadth_first_order(arcs, size, directed=True, return_predecessors=True)
    parent[size] = size  # node 2dn, first in bfs, stands in as its own parent
    at = np.empty(size + 1, dtype=np.intp)
    at[bfs] = np.arange(size + 1)
    up = at[parent[bfs]]  # the BFS position of each position's parent: non-decreasing
    below = degree[bfs]
    # Bottom-up subtree sums, one vector step per tree level: no node in
    # positions up[b - 1] + 1 .. b - 1 is the parent of another, because
    # every parent sits before its children. The roots, at positions 1 to
    # 2d, have only node 2dn above them.
    b = size + 1
    while b > 2 * d + 1:
        a = int(up[b - 1]) + 1
        np.add.at(below, up[a:b], below[a:b])
        b = a
    total = below[at[:size]].reshape(2, d, n)
    # a parent is a node of the same n-node block
    parent = np.remainder(parent[:size], n, dtype=np.intp)
    parent[roots] = -1
    parent = parent.reshape(2, d, n)
    return parent[0], parent[1], total[0], total[1]


def _st_orient(xs: np.ndarray, emb: PlanarEmbedding) -> StOrientation:
    """st_orient of every row of the (d, n) array xs as one batch; the
    first row that st_orient rejects raises its NotStOrientation."""
    d, n = xs.shape
    rows = np.arange(d)[:, None]
    pinned = np.zeros((d, n), dtype=bool)
    pinned[:, list(emb.outer_face)] = True
    ring = np.flatnonzero(pinned[0])
    ring = ring[np.argsort(xs.take(ring, axis=1), axis=1, kind="stable")]
    px = xs[rows, ring]
    fresh = np.ones(px.shape, dtype=bool)
    fresh[:, 1:] = px[:, 1:] - px[:, :-1] > GENERAL_POSITION_RTOL * np.abs(px).max(axis=1, keepdims=True)
    value = xs.copy()
    # a chained pinned value takes the lowest of its chain: the last fresh one
    value[rows, ring] = np.maximum.accumulate(np.where(fresh, px, -np.inf), axis=1)
    order = np.lexsort((xs, ~pinned, value))  # stable: ids break what is left
    rank = np.empty_like(order)
    rank[rows, order] = np.arange(n)
    lo, hi = emb.edge_array.T
    forward = rank.take(lo, axis=1) < rank.take(hi, axis=1)
    tail, head = np.where(forward, lo, hi), np.where(forward, hi, lo)
    # out-degrees of every row, then in-degrees, then node 2dn's of _bfs_trees
    degree = np.bincount(np.concatenate((_flat(tail, n), _flat(head, n) + d * n), axis=None),
                         minlength=2 * d * n + 1)
    degree[-1] = 2 * d
    # the source has no in-edge and the sink no out-edge; a row is no
    # st-order when another vertex lacks one too
    lonely = degree[:-1].reshape(2, d, n) == 0
    bad = lonely.sum(axis=(0, 2)) > 2
    if bad.any():
        k = bad.argmax()
        no_out, no_in = lonely[:, k]
        no_in[order[k, 0]] = no_out[order[k, -1]] = False
        v = int((no_in | no_out).argmax())
        raise NotStOrientation(f"vertex {v} has no {'incoming' if no_in[v] else 'outgoing'} edge")
    trees = _bfs_trees(emb, order, rank, degree)
    out_deg, in_deg = degree[:-1].reshape(2, d, n)
    return StOrientation(order, rank, pinned, tail, head, out_deg, in_deg, *trees)


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
    return _take(_st_orient(np.asarray(x)[None], emb), 0)


# ---------------------------------------------------------------------------
# targets, path counts, weights
# ---------------------------------------------------------------------------

_TARGET_ERRORS = (
    "leftmost vertex is interior; drawing is not pinned-convex",
    "pinned x-values are not increasing",
    "rightmost vertex is interior; drawing is not pinned-convex",
)


def _target_x(order: np.ndarray, xs: np.ndarray, pinned: Iterable[int]) -> np.ndarray:
    """target_x for every row of the (d, n) order and x, as a (d, n) array;
    the first row that target_x rejects raises its PreconditionError."""
    d, n = order.shape
    rows = np.arange(d)[:, None]
    is_pinned = np.zeros(n, dtype=bool)
    is_pinned[list(pinned)] = True
    targets = np.where(is_pinned, xs, 0.0)
    in_order = is_pinned[order]
    c = np.count_nonzero(is_pinned)
    at = np.nonzero(in_order)[1].reshape(d, c)  # positions of the pinned vertices in order
    ends = targets[rows, order[rows, at]]
    step = at[:, 1:] - at[:, :-1]  # one more than the interior vertices between
    falling = ((step > 1) & ~(ends[:, 1:] > ends[:, :-1])).any(axis=1)
    bad = ~in_order[:, 0] | falling | ~in_order[:, -1]
    if bad.any():
        k = bad.argmax()
        raise PreconditionError(_TARGET_ERRORS[0 if not in_order[k, 0] else 1 if falling[k] else 2])
    inner = np.nonzero(~in_order)[1].reshape(d, n - c)
    # the pinned vertex before each interior one, as an index into ends.ravel()
    j = inner - np.arange(1, n - c + 1) + c * rows
    ends, at = ends.ravel(), at.ravel()
    a, lo, hi = at[j], ends[j], ends[j + 1]
    targets[rows, order[rows, inner]] = lo + (inner - a) * (hi - lo) / (at[j + 1] - a)
    return targets


def target_x(o: StOrientation, x: np.ndarray, pinned: Iterable[int]) -> np.ndarray:
    """Target x for every vertex, an (n,) array: the pinned vertices keep
    their x, each maximal run of L interior vertices between consecutive
    pinned values a < b is spaced evenly at a + j*(b-a)/(L+1), j = 1..L."""
    return _target_x(o.order[None], np.asarray(x)[None], pinned)[0]


def _count_paths(o: StOrientation) -> np.ndarray:
    """count_paths of every row of a batch, a (d, m) array."""
    t, h = o.tail, o.head
    n = o.order.shape[1]
    tf, hf = _flat(t, n), _flat(h, n)
    return (1 + np.where(o.t1_parent.ravel()[hf] == t, o.t1_sum.ravel()[hf], 0)
            + np.where(o.tn_parent.ravel()[tf] == h, o.tn_sum.ravel()[tf], 0))


def count_paths(o: StOrientation) -> np.ndarray:
    """Number of canonical source-to-sink paths through each edge, an (m,)
    int array aligned with o.tail and o.head.

    The canonical path of edge e = (a, b) walks the source tree from the
    source to a, crosses e, then walks the sink tree from b to the sink.
    The count for a directed edge (u, v) is 1 for its own path, plus, when
    (u, v) is a source-tree edge, the out-degrees summed over the subtree
    below v (o.t1_sum), plus, when it is a sink-tree edge, the in-degrees
    summed over the subtree below u (o.tn_sum). st_orient sums both while
    it grows the trees, bottom-up in one vector step per tree level.
    """
    return _count_paths(_take(o, None))[0]


def _spread_weights(o: StOrientation, targets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """spread_weights of every row of a batch, as a (d, m) array; the first
    row with a bad gap raises its ZeroGap."""
    t, h = o.tail, o.head
    n = targets.shape[1]
    tf, hf = _flat(t, n), _flat(h, n)
    gap = targets.ravel()[hf] - targets.ravel()[tf]
    pinned = o.pinned.ravel()
    tied = (gap == 0) & pinned[tf] & pinned[hf]
    bad = (gap <= 0) & ~tied
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise ZeroGap(f"edge ({t[k, i]}, {h[k, i]}) has non-positive target gap {float(gap[k, i])!r}")
    return counts / np.where(tied, 1.0, gap)


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
    return _spread_weights(_take(o, None), np.asarray(targets)[None], np.asarray(counts)[None])[0]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpreadResult:
    """Everything a spread construction produced for one direction, as
    spread_pipeline or uniform_pipeline (direction 0) returns it."""

    weights: np.ndarray        # (m,), aligned with emb.edges()
    drawing: Drawing           # solved against the pinned polygon, drawing.polygon
    targets: np.ndarray        # (n,) x-targets in the frame turned by -direction
    orientation: StOrientation


class _Plans(NamedTuple):
    """The spread plans of d directions: their orientations as one batch,
    (d, n) targets, and the turn that takes each drawing into its frame."""

    orientation: StOrientation
    targets: np.ndarray
    turns: list[float]


def _check_direction(direction: float) -> None:
    if not math.isfinite(direction):
        raise BadParams(f"direction must be finite, got {direction!r}")


def _direction_plans(
    emb: PlanarEmbedding, poly: OuterPolygon, reference: Drawing, directions: Iterable[float],
) -> _Plans:
    """The plan of each direction: the reference's positions turned by
    -direction, so the direction becomes the x-axis, give the x-order
    (ties broken as in st_orient) and the pinned targets. Each step raises
    for the first direction it rejects: st_orient's error for any
    direction before target_x's."""
    turns = [-direction for direction in directions]
    xs = np.array([_turn(reference.positions, turn)[:, 0] for turn in turns])
    o = _st_orient(xs, emb)
    return _Plans(o, _target_x(o.order, xs, poly.order), turns)


def _plan_weights(plans: _Plans) -> np.ndarray:
    """The spread weights of every plan, a (d, m) array, solving nothing.

    Each edge is weighted by path count / target gap. Those weights put an
    interior vertex exactly on its target when as many counted paths leave
    it as enter it, which is checked exactly on the integer counts (their
    float sums stay below 2**53): the first plan with an unbalanced
    interior vertex raises ResidualExceeded naming it, before any gap is
    read. Then the first plan with a bad gap raises its ZeroGap.
    """
    o, targets, _ = plans
    counts = _count_paths(o)
    d, n = targets.shape
    flow = (np.bincount(_flat(o.tail, n).ravel(), counts.ravel(), d * n)
            - np.bincount(_flat(o.head, n).ravel(), counts.ravel(), d * n)).reshape(d, n)
    bad = (flow != 0) & ~o.pinned
    if bad.any():
        k, v = np.argwhere(bad)[0]
        raise ResidualExceeded(
            f"path counts do not balance at vertex {v}: {int(flow[k, v]):+d} more leave than enter")
    return _spread_weights(o, targets, counts)


def _spread(emb: PlanarEmbedding, poly: OuterPolygon, plans: _Plans) -> SpreadResult:
    """The spread of a one-direction plan.

    The weights come from _plan_weights, so the plan is checked before
    anything is solved. The drawing, turned by the plan's turn, must match
    its targets within TARGET_RTOL * radius; a miss raises
    ResidualExceeded.
    """
    o, targets, turns = plans
    weights = _plan_weights(plans)[0]
    drawing = solve_stress(emb, weights, poly)
    miss = float(np.abs(_turn(drawing.positions, turns[0])[:, 0] - targets[0]).max())
    if not miss <= TARGET_RTOL * poly.radius:
        raise ResidualExceeded(f"drawing misses its targets by {miss:.3e}")
    return SpreadResult(weights, drawing, targets[0], _take(o, 0))


def spread_pipeline(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    direction: float = 0.0,
) -> SpreadResult:
    """Run the whole spread construction for one direction (radians).

    direction 0 spreads x-coordinates, pi/2 spreads y-coordinates; it must
    be finite. Its reference tutte(emb, poly), solved once per embedding
    and polygon (solver._reference) and turned by exactly -direction so the
    direction becomes the x-axis, gives the orientation (ties broken as in
    st_orient) and the pinned targets. The solved drawing, turned the
    same way, must match the targets within TARGET_RTOL * radius; a miss
    raises ResidualExceeded. The kaleidoscope and the xy-morph plan many
    directions of one reference in one batch; each gets the weights this
    function gives for it alone. A batch in which some direction cannot be
    planned raises, before it solves any, the error this function raises
    for one such direction: the first that st_orient rejects, else the
    first that target_x rejects, else the first whose path counts do not
    balance (ResidualExceeded), else the first with a bad gap.
    """
    _check_direction(direction)
    return _spread(emb, poly, _direction_plans(emb, poly, _reference(emb, poly), [direction]))
