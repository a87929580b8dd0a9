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
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePosition,
    NotStOrientation,
    PreconditionError,
    ResidualExceeded,
    ZeroGap,
)
from .graph import PlanarEmbedding, edge_key
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

    order lists the vertices sorted by x; t1_parent maps every non-source
    vertex to its tree predecessor (an in-neighbor), tn_parent maps every
    non-sink vertex to its tree successor (an out-neighbor). BFS ties are
    broken toward the lowest vertex id.
    """

    order: tuple[int, ...]
    rank: dict[int, int]
    out_nbrs: tuple[tuple[int, ...], ...]
    in_nbrs: tuple[tuple[int, ...], ...]
    t1_parent: dict[int, int]
    tn_parent: dict[int, int]

    @property
    def source(self) -> int:
        return self.order[0]

    @property
    def sink(self) -> int:
        return self.order[-1]

    def directed_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(len(self.out_nbrs)) for v in self.out_nbrs[u]]

    def out_deg(self, v: int) -> int:
        return len(self.out_nbrs[v])

    def in_deg(self, v: int) -> int:
        return len(self.in_nbrs[v])


def st_orient(d: Drawing, emb: PlanarEmbedding) -> StOrientation:
    """Orient edges from smaller to larger x and grow the two BFS trees."""
    xs = d.positions[:, 0].tolist()
    order = tuple(sorted(range(emb.n), key=xs.__getitem__))
    for a, b in zip(order, order[1:]):
        if not xs[a] < xs[b]:
            raise DegeneratePosition(f"vertices {a} and {b} share x={xs[a]!r}")
    rank = {v: i for i, v in enumerate(order)}
    out_nbrs = tuple(
        tuple(sorted(w for w in emb.rotation[v] if rank[w] > rank[v]))
        for v in range(emb.n)
    )
    in_nbrs = tuple(
        tuple(sorted(w for w in emb.rotation[v] if rank[w] < rank[v]))
        for v in range(emb.n)
    )
    source, sink = order[0], order[-1]
    for v in range(emb.n):
        if v != source and not in_nbrs[v]:
            raise NotStOrientation(f"vertex {v} has no incoming edge")
        if v != sink and not out_nbrs[v]:
            raise NotStOrientation(f"vertex {v} has no outgoing edge")

    def bfs(root: int, step_nbrs: tuple[tuple[int, ...], ...]) -> dict[int, int]:
        parent: dict[int, int] = {}
        seen = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in step_nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    queue.append(w)
        if len(seen) != emb.n:
            raise NotStOrientation("orientation does not reach every vertex")
        return parent

    t1_parent = bfs(source, out_nbrs)
    tn_parent = bfs(sink, in_nbrs)
    return StOrientation(order, rank, out_nbrs, in_nbrs, t1_parent, tn_parent)


# ---------------------------------------------------------------------------
# targets, path counts, weights
# ---------------------------------------------------------------------------

def target_x(o: StOrientation, poly: OuterPolygon) -> dict[int, float]:
    """Target x for every vertex: pinned vertices keep their polygon x,
    each maximal run of interior vertices between consecutive pinned
    values a < b is spaced evenly at a + j*(b-a)/(len+1)."""
    fixed = {v: poly.positions[v][0] for v in poly.positions}
    targets: dict[int, float] = {}
    run: list[int] = []
    last: float | None = None
    for v in o.order:
        if v in fixed:
            b = fixed[v]
            if run:
                assert last is not None
                if not b > last:
                    raise PreconditionError("pinned x-values are not increasing")
                span = b - last
                for j, u in enumerate(run, start=1):
                    targets[u] = last + j * span / (len(run) + 1)
                run = []
            last = b
            targets[v] = b
        else:
            if last is None:
                raise PreconditionError(
                    "leftmost vertex is interior; drawing is not pinned-convex"
                )
            run.append(v)
    if run:
        raise PreconditionError(
            "rightmost vertex is interior; drawing is not pinned-convex"
        )
    return targets


def count_paths(o: StOrientation) -> dict[tuple[int, int], int]:
    """Number of canonical source-to-sink paths through each directed edge.

    The canonical path of edge e = (a, b) walks the source tree from the
    source to a, crosses e, then walks the sink tree from b to the sink.
    The count for a directed edge (u, v) is 1 for its own path, plus, when
    (u, v) is a source-tree edge, the out-degrees summed over the subtree
    below v, plus, when it is a sink-tree edge, the in-degrees summed over
    the subtree below u. Both sums accumulate bottom-up in linear time.
    """
    n = len(o.order)
    s1 = [o.out_deg(v) for v in range(n)]
    for v in reversed(o.order):  # children (larger x) before parents
        p = o.t1_parent.get(v)
        if p is not None:
            s1[p] += s1[v]
    sn = [o.in_deg(v) for v in range(n)]
    for v in o.order:  # children (smaller x) before parents
        p = o.tn_parent.get(v)
        if p is not None:
            sn[p] += sn[v]
    counts: dict[tuple[int, int], int] = {}
    for u, v in o.directed_edges():
        c = 1
        if o.t1_parent.get(v) == u:
            c += s1[v]
        if o.tn_parent.get(u) == v:
            c += sn[u]
        counts[(u, v)] = c
    return counts


def spread_weights(
    o: StOrientation,
    targets: dict[int, float],
    counts: dict[tuple[int, int], int],
) -> np.ndarray:
    """Weight each edge with path count / target gap, as an (m,) array in
    sorted edge-key order, the order of the embedding's edges()."""
    keyed: list[tuple[tuple[int, int], float]] = []
    for u, v in o.directed_edges():
        gap = targets[v] - targets[u]
        if gap <= 0:
            raise ZeroGap(f"edge ({u}, {v}) has non-positive target gap {gap!r}")
        keyed.append((edge_key(u, v), counts[(u, v)] / gap))
    return np.array([w for _, w in sorted(keyed)])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadResult:
    """Everything the spread pipeline produced for one direction."""

    weights: np.ndarray        # (m,), aligned with emb.edges()
    drawing: Drawing           # solved against the original polygon
    frame: Drawing             # same drawing rotated into the spread frame
    targets: dict[int, float]  # x-targets in the spread frame
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
    miss = float(np.abs(frame.positions[:, 0] - [targets[v] for v in range(emb.n)]).max())
    if miss > TARGET_RTOL * poly.radius:
        raise ResidualExceeded(
            f"spread drawing misses its targets by {miss:.3e}"
        )
    return SpreadResult(weights, drawing, frame, targets, o, angle, ref)

