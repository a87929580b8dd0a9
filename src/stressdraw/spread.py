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

Every step plans d directions of one reference at once, as numpy arrays
with one row per direction over the embedding's edge array: the
orientation is a pair of (d, m) tail/head arrays aligned with emb.edges(),
each BFS tree a (d, n) parent array, and targets, path counts and weights
come out as (d, n), (d, m) and (d, m) arrays. One breadth-first search
grows all 2d trees. A single spread is the batch of one direction; the
kaleidoscope and the xy-morph plan all of theirs in one batch. Each step
checks every row before it returns and raises the error of the first row
it rejects, the one that row raises as a batch of its own; so a batch that
cannot plan a direction raises before it solves any.

The targets hold exactly when the integer path counts balance at every
interior vertex, and spread_weights checks that exactly. So the sweeps, which
only blend the weights, solve no spread: they plan every direction and
solve only their blends. spread_pipeline and uniform_pipeline, which
return the spread drawing, solve it and also check it against the
targets within TARGET_RTOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _check_shape(name: str, a: np.ndarray, axes: str, d: int | None, k: int) -> None:
    """PreconditionError unless a is a (d, k) array, any d >= 1 when d is
    None; axes names the two axes."""
    got = np.shape(a)
    if len(got) != 2 or got[1] != k or got[0] < 1 or d not in (None, got[0]):
        raise PreconditionError(f"{name} needs shape {axes} = ({d or 'd >= 1'}, {k}), got {got}")


# ---------------------------------------------------------------------------
# left-to-right orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StOrientation:
    """Edges oriented along the tie-broken x-order, with one BFS tree out of
    the source and one into the sink.

    Every field carries a leading axis of length d, row j holding
    direction j's arrays. order lists the vertices in that order, from the
    source order[j, 0] to the sink order[j, -1], and rank is its inverse,
    both (d, n) arrays; pinned marks the outer-face vertices, (d, n) bool.
    Edge i of emb.edges() points from tail[j, i] to head[j, i], (d, m)
    arrays with rank[j, tail[j]] < rank[j, head[j]]; out_deg and in_deg
    count the edges leaving and entering each vertex. t1_parent holds
    every non-source vertex's tree predecessor (an in-neighbor), tn_parent
    every non-sink vertex's tree successor (an out-neighbor), both (d, n)
    arrays with -1 at the root. BFS ties are broken toward the lowest
    vertex id. t1_sum sums out_deg over each vertex's subtree of the source
    tree, tn_sum in_deg over its subtree of the sink tree, (d, n) arrays
    that count_paths reads.
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


def st_orient(xs: np.ndarray, emb: PlanarEmbedding) -> StOrientation:
    """Orient edges along the x-order of every row of the (d, n) array xs
    and grow each row's two BFS trees, as one batch.

    Ties follow one rule. Pinned (outer-face) x-values chained by gaps of at
    most GENERAL_POSITION_RTOL times the largest |pinned x| count as the
    lowest of them; among equal values the pinned vertices come first, then
    the rest, each by x, then by id. So no interior vertex lands between
    tied pinned ones. The first row whose order leaves a vertex other than
    the ends without an incoming or an outgoing edge raises
    NotStOrientation. xs of another shape than (d, n), d >= 1, or with a
    NaN or infinite x raises PreconditionError naming the first such x.
    """
    _check_shape("xs", xs, "(d, n)", None, emb.n)
    if not (finite := np.isfinite(xs)).all():
        k, v = np.argwhere(~finite)[0]
        raise PreconditionError(f"vertex {v} has non-finite x {float(xs[k, v])!r}")
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


# ---------------------------------------------------------------------------
# targets, path counts, weights
# ---------------------------------------------------------------------------

_TARGET_ERRORS = (
    "leftmost vertex is interior; drawing is not pinned-convex",
    "pinned x-values are not increasing",
    "rightmost vertex is interior; drawing is not pinned-convex",
)


def target_x(o: StOrientation, xs: np.ndarray) -> np.ndarray:
    """Target x for every vertex of every row of the (d, n) array xs, a
    (d, n) array: the pinned vertices (o.pinned) keep their x, and each
    maximal run of L interior vertices in row j's order between
    consecutive pinned values a < b is spaced evenly at
    a + i*(b-a)/(L+1), i = 1..L. xs of another shape than o.order raises
    PreconditionError; so does the first row whose order does not start
    and end at a pinned vertex, or whose pinned values around an interior
    run do not increase."""
    order = o.order
    d, n = order.shape
    _check_shape("xs", xs, "(d, n)", d, n)
    rows = np.arange(d)[:, None]
    targets = np.where(o.pinned, xs, 0.0)
    in_order = o.pinned[rows, order]
    c = np.count_nonzero(o.pinned[0])
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


def count_paths(o: StOrientation) -> np.ndarray:
    """Number of canonical source-to-sink paths through each edge of every
    row, a (d, m) int array aligned with o.tail and o.head.

    The canonical path of edge e = (a, b) walks the source tree from the
    source to a, crosses e, then walks the sink tree from b to the sink.
    The count for a directed edge (u, v) is 1 for its own path, plus, when
    (u, v) is a source-tree edge, the out-degrees summed over the subtree
    below v (o.t1_sum), plus, when it is a sink-tree edge, the in-degrees
    summed over the subtree below u (o.tn_sum). st_orient sums both while
    it grows the trees, bottom-up in one vector step per tree level.
    """
    t, h = o.tail, o.head
    n = o.order.shape[1]
    tf, hf = _flat(t, n), _flat(h, n)
    return (1 + np.where(o.t1_parent.ravel()[hf] == t, o.t1_sum.ravel()[hf], 0)
            + np.where(o.tn_parent.ravel()[tf] == h, o.tn_sum.ravel()[tf], 0))


def spread_weights(o: StOrientation, targets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Weight each edge of every row with path count / target gap, a (d, m)
    array in the order of the embedding's edges(), from (d, n) targets and
    (d, m) counts; arrays of other shapes raise PreconditionError.

    Those weights put an interior vertex exactly on its target when as
    many counted paths leave it as enter it, which is checked exactly on
    the counts (integer counts sum exactly below 2**53): the first row
    with an unbalanced interior vertex raises ResidualExceeded naming it,
    before any gap is read. An edge between two pinned vertices with zero
    gap (tied corners) gets its path count instead: the solve never reads
    it. The first row with any other gap <= 0 raises ZeroGap.
    """
    t, h = o.tail, o.head
    d, n = o.order.shape
    _check_shape("targets", targets, "(d, n)", d, n)
    _check_shape("counts", counts, "(d, m)", d, t.shape[1])
    tf, hf = _flat(t, n), _flat(h, n)
    flow = (np.bincount(tf.ravel(), counts.ravel(), d * n)
            - np.bincount(hf.ravel(), counts.ravel(), d * n)).reshape(d, n)
    bad = (flow != 0) & ~o.pinned
    if bad.any():
        k, v = np.argwhere(bad)[0]
        raise ResidualExceeded(
            f"path counts do not balance at vertex {v}: {int(flow[k, v]):+d} more leave than enter")
    gap = targets.ravel()[hf] - targets.ravel()[tf]
    pinned = o.pinned.ravel()
    tied = (gap == 0) & pinned[tf] & pinned[hf]
    bad = (gap <= 0) & ~tied
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise ZeroGap(f"edge ({t[k, i]}, {h[k, i]}) has non-positive target gap {float(gap[k, i])!r}")
    return counts / np.where(tied, 1.0, gap)


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


def _check_direction(direction: float) -> None:
    if not math.isfinite(direction):
        raise BadParams(f"direction must be finite, got {direction!r}")


def _direction_plans(
    emb: PlanarEmbedding, reference: Drawing, directions: list[float],
) -> tuple[StOrientation, np.ndarray, np.ndarray]:
    """The orientation, the (d, n) targets and the (d, m) spread weights of
    d directions, solving nothing. The reference's positions turned by
    -direction, so the direction becomes the x-axis, give the x-order
    (ties broken as in st_orient) and the pinned targets. Each step raises
    for the first direction it rejects: st_orient's error for any
    direction before target_x's, and target_x's before spread_weights'."""
    xs = np.array([_turn(reference.positions, -direction)[:, 0] for direction in directions])
    o = st_orient(xs, emb)
    targets = target_x(o, xs)
    return o, targets, spread_weights(o, targets, count_paths(o))


def _spread(
    emb: PlanarEmbedding, poly: OuterPolygon, weights: np.ndarray, targets: np.ndarray, direction: float,
) -> SpreadResult:
    """The spread of one direction, from its (m,) weights and (n,)
    targets: the drawing, turned by -direction, must match the targets
    within TARGET_RTOL * radius; a miss raises ResidualExceeded."""
    drawing = solve_stress(emb, weights, poly)
    miss = float(np.abs(_turn(drawing.positions, -direction)[:, 0] - targets).max())
    if not miss <= TARGET_RTOL * poly.radius:
        raise ResidualExceeded(f"drawing misses its targets by {miss:.3e}")
    return SpreadResult(weights, drawing, targets)


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
    _, targets, weights = _direction_plans(emb, _reference(emb, poly), [direction])
    return _spread(emb, poly, weights[0], targets[0], direction)
