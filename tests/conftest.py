"""Shared fixtures plus independent oracles.

The oracles recompute answers straight from definitions (pairwise vertex
deletion, disjoint paths by max-flow, explicit path enumeration, dense
linear algebra) so the faster implementations in the package are checked
against something honest. The dict-based spread construction, the
quadratic Schnyder peel with its dict-based wood and depths, the uncached
solve, the per-call face walks of the drawing checks, the line-by-line
SVG writer, the dict-form outer polygon with its float convexity loop,
the queue BFS, the quadratic outer-face forms (the all-rotations cycle
key, the pair-scan placement and the arctan2 winding sum) and the
embedding's views before its half-edge arrays (the loop rotation check, the
face walk over a set of directed edges, and the sorted edges, arcs and
outer-face scan) are kept as differential oracles for their replacements,
which must agree with them to the last bit. The dict-based 4-cycle search
over face tuples is kept as the oracle of the face test's sparse count.
Two exact oracles, in fractions.Fraction, back the known failures: the
all-pairs crossing count and the unit-weight drawing.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from stressdraw import (
    EulerViolation,
    InputError,
    InvalidEmbedding,
    MalformedRotation,
    NotStOrientation,
    PlanarEmbedding,
    PreconditionError,
    StressDrawError,
    ZeroGap,
    edge_key,
    generate_planar,
    regular_polygon,
)
from stressdraw.cli import METHODS
from stressdraw.graph import SPD_LU
from stressdraw.metrics import CONVEXITY_RTOL, CROSSING_EPS, _orientation
from stressdraw.solver import (
    RESIDUAL_RTOL,
    Drawing,
    OuterPolygon,
    _solve_chunks,
    equilibrium_residual,
)
from stressdraw.spread import StOrientation

# Property tests draw the same bounded set of examples on every run and keep
# no example database between runs.
settings.register_profile(
    "stressdraw", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("stressdraw")


@pytest.fixture
def k4() -> PlanarEmbedding:
    """Tetrahedron: outer triangle 0,2,1 with vertex 3 inside."""
    return PlanarEmbedding(4, ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)), (0, 2, 1))


@pytest.fixture
def octahedron() -> PlanarEmbedding:
    """Outer triangle 0,2,1 around inner triangle 3,4,5; every face a triangle."""
    return PlanarEmbedding(
        6,
        ((1, 3, 5, 2), (2, 4, 3, 0), (0, 5, 4, 1),
         (5, 0, 1, 4), (5, 3, 1, 2), (0, 3, 4, 2)),
        (0, 2, 1),
    )


@pytest.fixture
def two_ring_wheel() -> PlanarEmbedding:
    """Hub 0, inner ring 1-4, outer ring 5-8; outer face is a quad."""
    return PlanarEmbedding(
        9,
        ((1, 2, 3, 4),
         (5, 2, 0, 4), (6, 3, 0, 1), (7, 4, 0, 2), (8, 1, 0, 3),
         (6, 1, 8), (7, 2, 5), (8, 3, 6), (5, 4, 7)),
        (5, 6, 7, 8),
    )


def _connected_without(adj: list[set[int]], n: int, removed: set[int]) -> bool:
    keep = [v for v in range(n) if v not in removed]
    if not keep:
        return True
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(keep)


def brute_three_connected(emb: PlanarEmbedding) -> bool:
    """Definition-level check: n >= 4 and no set of at most 2 vertices
    disconnects the rest."""
    n = emb.n
    if n < 4:
        return False
    adj = [set(emb.rotation[v]) for v in range(n)]
    if not _connected_without(adj, n, set()):
        return False
    for a in range(n):
        if not _connected_without(adj, n, {a}):
            return False
        for b in range(a + 1, n):
            if not _connected_without(adj, n, {a, b}):
                return False
    return True


def disjoint_paths_at_least(adj: list[set[int]], s: int, t: int, k: int) -> bool:
    """At least k internally vertex-disjoint s-t paths, by unit-capacity
    augmenting paths over the graph with every vertex split into an in-node
    and an out-node (Menger). The reference for the face test that decides
    each deletion when generate_planar thins a triangulation."""
    cap: dict[tuple[int, int], int] = {}
    nbrs: dict[int, list[int]] = {}

    def arc(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        if (b, a) not in cap:
            cap[(b, a)] = 0
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    for v, vs in enumerate(adj):
        arc(2 * v, 2 * v + 1, k if v in (s, t) else 1)
        for w in vs:
            arc(2 * v + 1, 2 * w, 1)
    src, snk = 2 * s + 1, 2 * t
    for _ in range(k):
        prev: dict[int, int | None] = {src: None}
        queue = deque([src])
        while queue and snk not in prev:
            a = queue.popleft()
            for b in nbrs.get(a, ()):
                if b not in prev and cap[(a, b)] > 0:
                    prev[b] = a
                    queue.append(b)
        if snk not in prev:
            return False
        b = snk
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
    return True


def brute_crossing_count(positions: np.ndarray, emb: PlanarEmbedding) -> int:
    """Properly crossing edge pairs by the definition the package uses: both
    ends of each edge strictly on opposite sides of the other edge's line,
    beyond CROSSING_EPS in a unit box, no endpoint shared. Every pair is
    tested; nothing is certified or blocked."""
    ends = np.array(emb.edges())
    if len(ends) < 2:
        return 0
    span = max(float(np.ptp(positions[:, 0])), float(np.ptp(positions[:, 1])), 1e-300)
    pts = (positions - positions.min(axis=0)) / span
    i, j = np.triu_indices(len(ends), k=1)
    a, b, c, e = pts[ends[i, 0]], pts[ends[i, 1]], pts[ends[j, 0]], pts[ends[j, 1]]

    def side(o, p, q):
        return (p[:, 0] - o[:, 0]) * (q[:, 1] - o[:, 1]) - (p[:, 1] - o[:, 1]) * (q[:, 0] - o[:, 0])

    def straddles(s1, s2):
        return ((s1 > CROSSING_EPS) & (s2 < -CROSSING_EPS)) | (
            (s1 < -CROSSING_EPS) & (s2 > CROSSING_EPS))

    disjoint = (ends[i, :, None] != ends[j, None, :]).all(axis=(1, 2))
    crossing = straddles(side(a, b, c), side(a, b, e)) & straddles(side(c, e, a), side(c, e, b))
    return int(np.count_nonzero(crossing & disjoint))


def exact_crossing_count(positions: np.ndarray, emb: PlanarEmbedding) -> int:
    """Properly crossing edge pairs with exact signs: every pair of edges
    with no shared endpoint is tested, and counts when both ends of each
    edge lie strictly on opposite sides of the other edge's line. A sign
    comes from the float determinant when it clears the static error bound
    (metrics._orientation), and from fractions.Fraction otherwise; touching
    and collinear contacts never count."""
    ends = np.array(emb.edges())

    def sign(o, p, q):
        s = _orientation(o, p, q)
        for t in np.flatnonzero(s == 0):
            (ox, oy), (px, py), (qx, qy) = (map(Fraction, v.tolist()) for v in (o[t], p[t], q[t]))
            det = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
            s[t] = (det > 0) - (det < 0)
        return s

    count = 0
    for first in range(len(ends) - 1):  # edge `first` against every later edge
        j = np.arange(first + 1, len(ends))
        j = j[(ends[j] != ends[first, 0]).all(axis=1) & (ends[j] != ends[first, 1]).all(axis=1)]
        a, b = (np.broadcast_to(positions[ends[first, end]], (len(j), 2)) for end in (0, 1))
        c, e = positions[ends[j, 0]], positions[ends[j, 1]]
        crossing = (sign(a, b, c) * sign(a, b, e) < 0) & (sign(c, e, a) * sign(c, e, b) < 0)
        count += int(np.count_nonzero(crossing))
    return count


def exact_tutte_positions(emb: PlanarEmbedding, poly: OuterPolygon) -> list[tuple[Fraction, Fraction]]:
    """The unit-weight equilibrium drawing in exact rational arithmetic: the
    pinned vertices at their polygon corners, each interior vertex at the
    mean of its neighbors, by Gaussian elimination in fractions.Fraction
    over the interior rows. Returns one (x, y) pair of Fractions per vertex."""
    pinned = {v: tuple(map(Fraction, xy.tolist())) for v, xy in zip(poly.order, poly.positions)}
    inner = [v for v in range(emb.n) if v not in pinned]
    col = {v: c for c, v in enumerate(inner)}
    k = len(inner)
    # each row: the Laplacian's interior columns, then the pinned neighbors' pull in x and y
    rows = []
    for v in inner:
        row = [Fraction(0)] * k + [Fraction(0), Fraction(0)]
        row[col[v]] = Fraction(len(emb.rotation[v]))
        for w in emb.rotation[v]:
            if w in col:
                row[col[w]] -= 1
            else:
                row[k] += pinned[w][0]
                row[k + 1] += pinned[w][1]
        rows.append(row)
    for c in range(k):  # the interior block is positive definite: no pivot is 0
        pivot = rows[c]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / pivot[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    pos = dict(pinned)
    for c, v in enumerate(inner):
        pos[v] = (rows[c][k] / rows[c][c], rows[c][k + 1] / rows[c][c])
    return [pos[v] for v in range(emb.n)]


def enumerate_canonical_paths(o: StOrientation) -> np.ndarray:
    """Count, for every row j and directed edge (o.tail[j, i], o.head[j, i]),
    how many canonical paths contain it, a (d, m) array, by materializing
    each path: source-tree walk up to the tail, the edge itself, then the
    sink-tree walk down from the head."""
    counts = np.zeros(o.tail.shape, dtype=np.int64)
    for j in range(len(counts)):
        t1_parent, tn_parent = o.t1_parent[j].tolist(), o.tn_parent[j].tolist()
        index = {e: i for i, e in enumerate(zip(o.tail[j].tolist(), o.head[j].tolist()))}
        for a, b in index:
            up = [a]
            while t1_parent[up[-1]] >= 0:
                up.append(t1_parent[up[-1]])
            down = [b]
            while tn_parent[down[-1]] >= 0:
                down.append(tn_parent[down[-1]])
            path = up[::-1] + down
            for step in zip(path, path[1:]):
                counts[j, index[step]] += 1
    return counts


# ---------------------------------------------------------------------------
# differential oracles: the dict-and-tuple spread construction and the
# from-scratch Laplacian assembly that the array code replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DictOrientation:
    """Orientation as per-vertex neighbor tuples and parent dicts (no entry
    for the root), plus the set of pinned (outer-face) vertices."""

    order: tuple[int, ...]
    rank: dict[int, int]
    pinned: frozenset[int]
    out_nbrs: tuple[tuple[int, ...], ...]
    in_nbrs: tuple[tuple[int, ...], ...]
    t1_parent: dict[int, int]
    tn_parent: dict[int, int]

    def directed_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(len(self.out_nbrs)) for v in self.out_nbrs[u]]


def turn(xy: np.ndarray, angle: float) -> np.ndarray:
    """(n, 2) positions rotated by angle, with the spread pipeline's product."""
    if angle == 0.0:
        return xy
    c, s = math.cos(angle), math.sin(angle)
    return xy @ np.array([[c, s], [-s, c]])


def dict_st_orient(x: np.ndarray, emb: PlanarEmbedding) -> DictOrientation:
    xs = np.asarray(x).tolist()
    pinned = frozenset(emb.outer_face)
    # left to right, a pinned vertex whose x is within 1e-9 times the
    # largest pinned |x| of the previous pinned vertex's x takes its level
    tol = 1e-9 * max(abs(xs[v]) for v in pinned)
    level: dict[int, float] = {}
    prev = None
    for v in sorted(pinned, key=lambda v: (xs[v], v)):
        level[v] = level[prev] if prev is not None and xs[v] - xs[prev] <= tol else xs[v]
        prev = v

    def key(v: int) -> tuple:
        if v in pinned:
            return (level[v], 0, xs[v], v)
        return (xs[v], 1, xs[v], v)

    order = tuple(sorted(range(emb.n), key=key))
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

    return DictOrientation(order, rank, pinned, out_nbrs, in_nbrs,
                           bfs(source, out_nbrs), bfs(sink, in_nbrs))


def dict_target_x(o: DictOrientation, x: np.ndarray, pinned) -> dict[int, float]:
    fixed = {v: float(x[v]) for v in pinned}
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
                raise PreconditionError("leftmost vertex is interior")
            run.append(v)
    if run:
        raise PreconditionError("rightmost vertex is interior")
    return targets


def dict_count_paths(o: DictOrientation) -> dict[tuple[int, int], int]:
    n = len(o.order)
    s1 = [len(o.out_nbrs[v]) for v in range(n)]
    for v in reversed(o.order):
        p = o.t1_parent.get(v)
        if p is not None:
            s1[p] += s1[v]
    sn = [len(o.in_nbrs[v]) for v in range(n)]
    for v in o.order:
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


def dict_spread_weights(
    o: DictOrientation,
    targets: dict[int, float],
    counts: dict[tuple[int, int], int],
) -> np.ndarray:
    keyed: list[tuple[tuple[int, int], float]] = []
    for u, v in o.directed_edges():
        gap = targets[v] - targets[u]
        if gap == 0 and u in o.pinned and v in o.pinned:
            keyed.append((edge_key(u, v), float(counts[(u, v)])))
            continue
        if gap <= 0:
            raise ZeroGap(f"edge ({u}, {v}) has non-positive target gap {gap!r}")
        keyed.append((edge_key(u, v), counts[(u, v)] / gap))
    return np.array([w for _, w in sorted(keyed)])


def flip_edges(emb: PlanarEmbedding, flips: int, seed: int) -> PlanarEmbedding:
    """emb, a triangulation, after up to `flips` random diagonal flips that
    keep it simple and keep its outer face. generate_planar(n, 3n - 6)
    grows stacked triangulations, which have a single Schnyder wood, so
    any chord-free vertex the peel picks gives the same wood; flipped
    triangulations have many woods, and the pick shows."""
    rng = random.Random(seed)
    rot = [list(r) for r in emb.rotation]
    outer = set(emb.outer_face)
    for _ in range(flips):
        u = rng.randrange(emb.n)
        i = rng.randrange(len(rot[u]))
        v, a, b = rot[u][i], rot[u][(i + 1) % len(rot[u])], rot[u][i - 1]
        if a in rot[b] or {u, v, a} == outer or {u, v, b} == outer:
            continue
        rot[u].remove(v)
        rot[v].remove(u)
        for x, y in ((a, b), (b, a)):
            # u and v are consecutive around x, as corners of one triangle
            j = rot[x].index(u)
            rot[x].insert(j + 1 if rot[x][(j + 1) % len(rot[x])] == v else j, y)
    return PlanarEmbedding(emb.n, tuple(map(tuple, rot)), emb.outer_face)


def dict_peel_order(emb: PlanarEmbedding) -> list[tuple[int, list[int]]]:
    """The quadratic peel: rescan the sorted ring for the lowest-id
    chord-free vertex at every step, recording each removed vertex with
    the path of still-alive neighbors it exposes, from the first-root side
    to the second-root side."""
    r1, r2, r3 = emb.outer_face
    nxt = {r1: r3, r3: r2, r2: r1}
    prv = {v: u for u, v in nxt.items()}
    on_ring = {r1, r2, r3}
    alive = [True] * emb.n

    def chord_free(u: int) -> bool:
        for w in emb.rotation[u]:
            if alive[w] and w in on_ring and w != prv[u] and w != nxt[u]:
                return False
        return True

    def fan_path(u: int) -> list[int]:
        fan = [w for w in emb.rotation[u] if alive[w]]
        i = fan.index(prv[u])
        fan = fan[i:] + fan[:i]
        if fan[-1] != nxt[u]:
            fan = [fan[0]] + fan[1:][::-1]
        assert fan[-1] == nxt[u], "boundary fan does not close the ring"
        return fan

    events: list[tuple[int, list[int]]] = []
    for _ in range(emb.n - 2):
        pick = min(u for u in on_ring if u not in (r1, r2) and chord_free(u))
        path = fan_path(pick)
        events.append((pick, path))
        alive[pick] = False
        on_ring.discard(pick)
        chain = [prv[pick]] + path[1:-1] + [nxt[pick]]
        for a, b in zip(chain, chain[1:]):
            nxt[a] = b
            prv[b] = a
        on_ring.update(path[1:-1])
    return events


def dict_schnyder_wood(emb: PlanarEmbedding):
    """(roots, colors, parent): the realizer built in insertion order (the
    reverse of the peel), colors keyed by edge and parent[v][c] by vertex
    and color."""
    r1, r2, r3 = emb.outer_face
    colors: dict[tuple[int, int], int] = {}
    parent: dict[int, dict[int, int]] = {}
    for u, path in reversed(dict_peel_order(emb)):
        if u != r3:
            colors[edge_key(u, path[0])] = 1
            colors[edge_key(u, path[-1])] = 2
            parent.setdefault(u, {})[1] = path[0]
            parent.setdefault(u, {})[2] = path[-1]
        for mid in path[1:-1]:
            colors[edge_key(mid, u)] = 3
            parent.setdefault(mid, {})[3] = u
    return (r1, r2, r3), colors, parent


def dict_schnyder_depths(emb: PlanarEmbedding) -> dict[tuple[int, int], int]:
    """Depth of each edge in its own tree by walking parent chains with a
    memo; the three outer edges get depth 1."""
    roots, colors, parent = dict_schnyder_wood(emb)
    vdepth = {(root, c): 0 for c, root in zip((1, 2, 3), roots)}

    def depth_of(v: int, c: int) -> int:
        chain = []
        cur = v
        while (cur, c) not in vdepth:
            chain.append(cur)
            cur = parent[cur][c]
        d = vdepth[(cur, c)]
        for node in reversed(chain):
            d += 1
            vdepth[(node, c)] = d
        return vdepth[(v, c)]

    depths = dict.fromkeys(emb.edges(), 1)
    for (u, v), c in colors.items():
        child = u if parent.get(u, {}).get(c) == v else v
        depths[(u, v)] = depth_of(child, c)
    return depths


def scratch_system(
    emb: PlanarEmbedding, weights: np.ndarray, poly: OuterPolygon, ordered: bool = True,
) -> tuple[csc_matrix, np.ndarray, np.ndarray]:
    """The interior system, its right-hand side and the vertex of each row,
    assembled from scratch by one coo -> csc_matrix call. ordered: rows in
    the embedding's elimination order (the only thing read from its cached
    pattern); else rows in id order."""
    edges = emb.edge_array
    pinned = list(poly.order)
    positions = np.zeros((emb.n, 2))
    positions[pinned] = poly.positions
    row_of = np.zeros(emb.n, dtype=np.intp)
    row_of[pinned] = -1
    interior = emb._laplacian_pattern.interior if ordered else np.flatnonzero(row_of == 0)
    k = len(interior)
    row_of[interior] = np.arange(k)
    tail = np.concatenate((edges[:, 0], edges[:, 1]))
    head = np.concatenate((edges[:, 1], edges[:, 0]))
    w = np.concatenate((weights, weights)).astype(float)
    live = row_of[tail] >= 0
    tail, head, w = tail[live], head[live], w[live]
    row, col = row_of[tail], row_of[head]
    inner = col >= 0
    diag = np.arange(k)
    system = csc_matrix(
        (np.concatenate((-w[inner], np.bincount(row, w, k))),
         (np.concatenate((row[inner], diag)), np.concatenate((col[inner], diag)))),
        shape=(k, k),
    )
    pull = w[~inner, None] * positions[head[~inner]]
    rhs = np.column_stack([np.bincount(row[~inner], pull[:, c], k) for c in (0, 1)])
    return system, rhs, interior


def scratch_factor(system: csc_matrix, ordered: bool = True):
    """splu as solve_stresses calls it (natural order, no pivoting, SPD_LU)
    when ordered, else with splu's defaults, COLAMD and partial pivoting, as
    solves were factored before the elimination order."""
    return splu(system, permc_spec="NATURAL", **SPD_LU) if ordered else splu(system)


def scratch_solve_stress(
    emb: PlanarEmbedding, weights: np.ndarray, poly: OuterPolygon, ordered: bool = True,
) -> Drawing:
    """solve_stress on scratch_system(..., ordered), factored by
    scratch_factor(..., ordered), with the same refinement passes: each gap
    is the net pull sum_v w_uv (p_v - p_u) on every interior vertex, its
    edges summed in edges() order with the ends listed first in edge_array
    before the others, and a gap within 1 % of the residual bound, or three
    passes, end the refinement."""
    system, rhs, interior = scratch_system(emb, weights, poly, ordered)
    lu = scratch_factor(system, ordered)
    pinned = list(poly.order)
    positions = np.zeros((emb.n, 2))
    positions[pinned] = poly.positions
    lo, hi = emb.edge_array.T
    tail, head = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    w = np.concatenate((weights, weights)).astype(float)
    tol = RESIDUAL_RTOL * poly.radius
    sol = lu.solve(rhs)
    for passes in range(4):
        positions[interior] = sol
        pull = w[:, None] * (positions[head] - positions[tail])
        gap = np.column_stack([np.bincount(tail, pull[:, c], emb.n) for c in (0, 1)])[interior]
        if passes == 3 or np.abs(gap).max() <= 0.01 * tol:
            break
        sol += lu.solve(gap)
    return Drawing(positions, poly, equilibrium_residual(emb, weights, positions, pinned))


def dense_stress_positions(
    emb: PlanarEmbedding,
    weights: np.ndarray,
    poly: OuterPolygon,
) -> np.ndarray:
    """Independent dense solve of the equilibrium system via numpy.

    weights[i] belongs to emb.edges()[i]; the system is assembled vertex by
    vertex from the rotation, with pinned-pinned edges never read.
    """
    weight_of = dict(zip(emb.edges(), weights.tolist()))
    pinned = dict(zip(poly.order, poly.positions.tolist()))
    interior = [v for v in range(emb.n) if v not in pinned]
    idx = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    a = np.zeros((k, k))
    rhs = np.zeros((k, 2))
    for v in interior:
        i = idx[v]
        for u in emb.rotation[v]:
            w = weight_of[edge_key(u, v)]
            a[i, i] += w
            if u in idx:
                a[i, idx[u]] -= w
            else:
                rhs[i, 0] += w * pinned[u][0]
                rhs[i, 1] += w * pinned[u][1]
    sol = np.linalg.solve(a, rhs)
    out = np.zeros((emb.n, 2))
    for v, xy in pinned.items():
        out[v] = xy
    for v in interior:
        out[v] = sol[idx[v]]
    return out


def max_position_gap(p: np.ndarray, q: np.ndarray) -> float:
    """Largest per-coordinate difference between two (n, 2) position arrays."""
    assert p.shape == q.shape
    return float(np.abs(p - q).max())


# ---------------------------------------------------------------------------
# per-call oracles: the drawing checks walking the faces on every call, and
# the SVG written line by line, as before the per-embedding face index
# ---------------------------------------------------------------------------

def method_drawings(sizes, seed: int):
    """Every CLI method's drawing on generated graphs, graph i from seed
    seed + i; every third graph is a triangulation, the only input
    schnyder accepts."""
    for i, n in enumerate(sizes):
        tri = i % 3 == 0
        emb = generate_planar(n, 3 * n - 6 if tri else (5 * n) // 2, seed=seed + i)
        poly = regular_polygon(emb.outer_face)
        params = argparse.Namespace(angle=0.0, t=0.5, r="2")
        for name, method in METHODS.items():
            if name != "schnyder" or tri:
                yield emb, method(emb, poly, params)[0]


def folded(d: Drawing, emb: PlanarEmbedding, rng) -> Drawing:
    """d with one random interior vertex moved to a random point near the
    drawing, which folds most drawings."""
    inner = sorted(set(range(emb.n)) - set(emb.outer_face))
    pos = d.positions.copy()
    pos[rng.choice(inner)] = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
    return Drawing(pos, d.polygon, d.residual)


def oracle_drawings():
    """Every method's drawing on 21 generated graphs (n = 8..68), each
    graph's first drawing also folded."""
    rng = random.Random(11)
    last = None
    for emb, d in method_drawings(range(8, 70, 3), seed=100):
        yield emb, d
        if emb is not last:
            last = emb
            yield emb, folded(d, emb, rng)


def scratch_certified_planar(pts: np.ndarray, emb: PlanarEmbedding) -> bool:
    """metrics._certified_planar rebuilding the fan triangles from emb.faces."""
    try:
        faces, outer = emb.faces, emb.outer_index
    except (InputError, TypeError):
        return False
    lengths = np.array([len(f) for f in faces])
    flat = np.fromiter(
        (v for f in faces for v in f), dtype=np.intp, count=int(lengths.sum())
    )
    face_of = np.repeat(np.arange(len(faces)), lengths)
    if lengths.min() < 3 or np.unique(face_of * emb.n + flat).size != flat.size:
        return False
    turn = arctan2_ring_turn(pts[np.array(faces[outer])])
    if turn == 0:
        return False
    starts = np.cumsum(lengths) - lengths
    corner = np.arange(len(flat)) - starts[face_of]
    mid = np.flatnonzero(
        (corner >= 1) & (corner <= lengths[face_of] - 2) & (face_of != outer)
    )
    fans = _orientation(pts[flat[starts[face_of[mid]]]], pts[flat[mid]], pts[flat[mid + 1]])
    return bool((fans == -turn).all())


def scratch_faces_convex(d: Drawing, emb: PlanarEmbedding) -> bool:
    """metrics.faces_convex building the corner triples as Python tuples
    and comparing unscaled products; valid for radii whose square and
    cross products stay normal floats."""
    pts = d.positions
    tol = CONVEXITY_RTOL * d.polygon.radius ** 2
    inner = [f for i, f in enumerate(emb.faces) if i != emb.outer_index]
    if not inner:
        return True
    corners = [(f[j - 2], f[j - 1], f[j]) for f in inner for j in range(len(f))]
    o, p, q = pts[np.array(corners).T]
    c = (p[:, 0] - o[:, 0]) * (q[:, 1] - p[:, 1]) - (p[:, 1] - o[:, 1]) * (q[:, 0] - p[:, 0])
    starts = np.cumsum([0] + [len(f) for f in inner[:-1]])
    turns_left = np.logical_or.reduceat(c > tol, starts)
    turns_right = np.logical_or.reduceat(c < -tol, starts)
    return not (turns_left & turns_right).any()


def scratch_render_svg(drawing: Drawing, emb: PlanarEmbedding) -> str:
    """svg.render_svg formatting each line and dot on its own, for drawings
    at least 1e-12 wide."""
    pts = drawing.positions
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    scale = 960.0 / span
    xoff = (1000.0 - (xmax - xmin) * scale) / 2.0
    yoff = (1000.0 - (ymax - ymin) * scale) / 2.0
    x = xoff + (pts[:, 0] - xmin) * scale
    y = 1000.0 - yoff - (pts[:, 1] - ymin) * scale
    mapped = np.column_stack((x, y)).tolist()
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1000 1000">']
    for u, v in emb.edge_array.tolist():
        x1, y1 = mapped[u]
        x2, y2 = mapped[v]
        parts.append(
            f'  <line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}"'
            ' stroke="black" stroke-width="1"/>'
        )
    for v in range(emb.n):
        x, y = mapped[v]
        parts.append(f'  <circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# the outer polygon as an order plus a dict of tuples, its float convexity
# loop, and the queue BFS, as before the array forms
# ---------------------------------------------------------------------------

class DictPolygon(NamedTuple):
    """solver.OuterPolygon as order plus a dict from vertex to position."""

    order: tuple[int, ...]
    positions: dict[int, tuple[float, float]]

    @property
    def centroid(self) -> tuple[float, float]:
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        return sum(xs) / len(xs), sum(ys) / len(ys)

    @property
    def radius(self) -> float:
        cx, cy = self.centroid
        return max(math.hypot(x - cx, y - cy) for x, y in self.positions.values())


def dict_polygon(poly) -> DictPolygon:
    """An OuterPolygon's rows keyed by its order."""
    return DictPolygon(poly.order, {v: tuple(p) for v, p in zip(poly.order, poly.positions.tolist())})


def dict_regular_polygon(outer_face: tuple[int, ...], radius: float = 1.0) -> DictPolygon:
    k = len(outer_face)
    positions = {}
    for i, v in enumerate(outer_face):
        theta = math.pi / 2 + 2 * math.pi * i / k
        positions[v] = (radius * math.cos(theta), radius * math.sin(theta))
    return DictPolygon(tuple(outer_face), positions)


def dict_strictly_convex(poly: DictPolygon) -> bool:
    """Float cross products of consecutive edges, all nonzero and of one
    sign: the check uniform ran on its constructed polygon."""
    order = poly.order
    k = len(order)
    sign = 0
    for i in range(k):
        ax, ay = poly.positions[order[i]]
        bx, by = poly.positions[order[(i + 1) % k]]
        cx, cy = poly.positions[order[(i + 2) % k]]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0:
            return False
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def deque_bfs_levels(emb: PlanarEmbedding) -> dict[int, int]:
    """Hops from the outer face, by a queue BFS from all outer vertices."""
    level = {v: 0 for v in emb.outer_face}
    queue = deque(sorted(level))
    while queue:
        v = queue.popleft()
        for w in emb.rotation[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    return level


def deque_bfs_depths(emb: PlanarEmbedding) -> np.ndarray:
    """treespread.bfs_depths from deque_bfs_levels."""
    level = deque_bfs_levels(emb)
    levels = np.array([level[v] for v in range(emb.n)])
    return levels[emb.edge_array].min(axis=1) + 1


def wheel(k: int) -> PlanarEmbedding:
    """W_k: rim vertices 0..k-1, rim i with rotation (i+1, k, i-1) mod k,
    around the hub k with rotation (0..k-1). The rim is the outer face."""
    rim = tuple(((i + 1) % k, k, (i - 1) % k) for i in range(k))
    return PlanarEmbedding(k + 1, rim + (tuple(range(k)),), tuple(range(k)))


def record_solves(monkeypatch) -> list[np.ndarray]:
    """The list of every weighting solved from now on, in order, however
    it is reached: solver._solve_chunks reads them all (solve_stresses,
    solve_stress and tutte go through it, and so do the scans that measure
    a chunk at a time). The modules import it by name, so every stressdraw
    namespace that binds it gets the recording wrapper."""
    solved: list[np.ndarray] = []

    def recorded(emb, weightings, poly):
        return _solve_chunks(emb, (solved.append(w) or w for w in weightings), poly)

    for name, mod in list(sys.modules.items()):
        if name.startswith("stressdraw") and getattr(mod, "_solve_chunks", None) is _solve_chunks:
            monkeypatch.setattr(mod, "_solve_chunks", recorded)
    return solved


# ---------------------------------------------------------------------------
# the outer-face forms before the linear ones: the cycle key from all 2L
# rotations, the placement scanning every horizontal edge pair into dicts,
# and the winding test summing arctan2 turning angles
# ---------------------------------------------------------------------------

def rotations_cycle_key(seq: tuple[int, ...]) -> tuple[int, ...] | None:
    """The least of all rotations of seq, read either way; None when empty."""
    best = None
    forward = list(seq)
    for cand in (forward, forward[::-1]):
        for i in range(len(cand)):
            rot = tuple(cand[i:] + cand[:i])
            if best is None or rot < best:
                best = rot
    return best


def arctan2_ring_turn(ring: np.ndarray) -> int:
    """metrics._convex_ring_turn deciding winding from the float sum of the
    corners' turning angles: more than 3 pi counts as winding twice."""
    prv = np.concatenate((ring[-1:], ring[:-1]))
    nxt = np.concatenate((ring[1:], ring[:1]))
    turns = _orientation(prv, ring, nxt)
    if turns[0] == 0 or (turns != turns[0]).any():
        return 0
    step, prev = nxt - ring, ring - prv
    turning = np.arctan2(
        prev[:, 0] * step[:, 1] - prev[:, 1] * step[:, 0], (prev * step).sum(axis=1)
    ).sum()
    if abs(turning) > 3.0 * np.pi:
        return 0
    return int(turns[0])


def _arc(cyc: tuple[int, ...], start: int, stop: int) -> list[int]:
    """Vertices of cyc from position start to position stop, inclusive."""
    out = [cyc[start]]
    i = start
    while i != stop:
        i = (i + 1) % len(cyc)
        out.append(cyc[i])
    return out


def pair_scan_placement(outer: tuple[int, ...], x: np.ndarray) -> OuterPolygon:
    """uniform.convex_outer_placement scoring all p * q horizontal edge
    pairs, with x- and y-values in dicts keyed by vertex id and the
    arctan2 winding test; it trusts x to be finite at every outer id."""
    cap = 80.0
    k = len(outer)
    if k < 3:
        raise PreconditionError("outer cycle needs at least 3 vertices")
    xs = {v: float(x[v]) for v in outer}
    li = min(range(k), key=lambda i: xs[outer[i]])
    ri = max(range(k), key=lambda i: xs[outer[i]])
    left, right = outer[li], outer[ri]
    if k == 3:
        apex = next(v for v in outer if v not in (left, right))
        return _dict_convex_polygon(outer, xs, {left: 0.0, right: 0.0, apex: (xs[right] - xs[left]) / 2.0})
    chain1 = _arc(outer, li, ri)
    chain2 = _arc(outer, ri, li)[::-1]
    for chain in (chain1, chain2):
        for a, b in zip(chain, chain[1:]):
            if xs[b] <= xs[a]:
                raise PreconditionError(
                    "outer chain x-coordinates must increase strictly; "
                    "x does not come from a convex-position drawing"
                )
    p = len(chain1) - 1
    q = len(chain2) - 1
    pick = None
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
    if pick is None:  # every x equal: both chains are empty
        raise PreconditionError(
            "outer chain x-coordinates must increase strictly; "
            "x does not come from a convex-position drawing"
        )
    _, j, i = pick
    y = {left: 0.0}
    for t in range(j):
        ang = math.radians(cap * (j - t) / j)
        a, b = chain1[t], chain1[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])
    for t in range(i):
        ang = math.radians(-cap * (i - t) / i)
        a, b = chain2[t], chain2[t + 1]
        y[b] = y[a] + math.tan(ang) * (xs[b] - xs[a])
    base = {right: 0.0}
    for t in range(p - 1, j, -1):
        ang = math.radians(-cap * (t - j) / (p - 1 - j))
        a, b = chain1[t], chain1[t + 1]
        base[a] = base[b] - math.tan(ang) * (xs[b] - xs[a])
    for t in range(q - 1, i, -1):
        ang = math.radians(cap * (t - i) / (q - 1 - i))
        a, b = chain2[t], chain2[t + 1]
        base[a] = base[b] - math.tan(ang) * (xs[b] - xs[a])
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
    return _dict_convex_polygon(outer, xs, y)


def _dict_convex_polygon(outer, xs: dict[int, float], y: dict[int, float]) -> OuterPolygon:
    poly = OuterPolygon(tuple(outer), np.array([(xs[v], y[v]) for v in outer]))
    if not arctan2_ring_turn(poly.positions):
        raise StressDrawError("constructed outer polygon is not strictly convex")
    return poly


# ---------------------------------------------------------------------------
# the embedding's views as they were built before the half-edge arrays: a
# loop over each rotation, a walk over a set of directed edges, edges from
# np.unique, arcs from a lexsort, and a canonical-key scan of every face
# ---------------------------------------------------------------------------

def loop_check_rotation(emb: PlanarEmbedding) -> list[dict[int, int]]:
    """Raise MalformedRotation unless the rotation is a simple symmetric
    adjacency structure; return each vertex's neighbor positions."""
    if emb.n < 3:
        raise MalformedRotation(f"need at least 3 vertices, got {emb.n}")
    if len(emb.rotation) != emb.n:
        raise MalformedRotation("rotation table length differs from n")
    index: list[dict[int, int]] = []
    for v, rot in enumerate(emb.rotation):
        if not rot:
            raise MalformedRotation(f"vertex {v} has no neighbors")
        pos: dict[int, int] = {}
        for i, w in enumerate(rot):
            if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < emb.n:
                raise MalformedRotation(f"vertex {v} lists invalid neighbor {w!r}")
            if w == v:
                raise MalformedRotation(f"self-loop at vertex {v}")
            if w in pos:
                raise MalformedRotation(f"parallel edge {v}-{w}")
            pos[w] = i
        index.append(pos)
    for v, rot in enumerate(emb.rotation):
        for w in rot:
            if v not in index[w]:
                raise MalformedRotation(f"edge {v}-{w} is not symmetric")
    return index


def walk_faces(emb: PlanarEmbedding) -> list[tuple[int, ...]]:
    """Walk every directed edge once, in rotation order, and collect the
    face cycles: from (u, v) on to (v, w), w the successor of u around v."""
    pos = loop_check_rotation(emb)
    used: set[tuple[int, int]] = set()
    faces: list[tuple[int, ...]] = []
    for v0 in range(emb.n):
        for w0 in emb.rotation[v0]:
            if (v0, w0) in used:
                continue
            cycle: list[int] = []
            v, w = v0, w0
            while (v, w) not in used:
                used.add((v, w))
                cycle.append(v)
                rot = emb.rotation[w]
                v, w = w, rot[(pos[w][v] + 1) % len(rot)]
            faces.append(tuple(cycle))
    m = sum(len(r) for r in emb.rotation) // 2
    if emb.n - m + len(faces) != 2:
        raise EulerViolation(f"n={emb.n} m={m} f={len(faces)} violates n - m + f = 2")
    return faces


def unique_edge_array(emb: PlanarEmbedding) -> np.ndarray:
    """The sorted canonical edge keys, by np.unique of their codes."""
    tail = np.repeat(np.arange(emb.n), [len(r) for r in emb.rotation])
    head = np.fromiter((w for r in emb.rotation for w in r), dtype=np.intp, count=len(tail))
    codes = np.unique(np.minimum(tail, head) * emb.n + np.maximum(tail, head))
    return np.column_stack((codes // emb.n, codes % emb.n))


def lexsort_arcs(emb: PlanarEmbedding) -> tuple[np.ndarray, np.ndarray]:
    """Every edge both ways, as (from, to) sorted by from, then to."""
    lo, hi = unique_edge_array(emb).T
    frm, to = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    by = np.lexsort((to, frm))
    return frm[by], to[by]


def scan_outer_index(emb: PlanarEmbedding, faces: list[tuple[int, ...]]) -> int:
    """The first of faces that equals emb.outer_face up to rotation and
    reflection, by the all-rotations key of each face."""
    key = rotations_cycle_key(emb.outer_face)
    for i, face in enumerate(faces):
        if rotations_cycle_key(face) == key:
            return i
    raise InvalidEmbedding("outer face is not a face of the embedding")


def dict_faces_meet_properly(faces) -> bool:
    """graph._faces_meet_properly over face tuples: every face a simple
    cycle, and two faces share at most one vertex, or exactly the two ends
    of an edge that lies on both. Each 4-cycle face-u-face-v of the
    vertex-face incidence graph is found from its first node in
    decreasing-degree order, by grouping the paths of length two to the
    nodes after it. Vertices are nodes v >= 0, face i is node ~i."""
    inc: dict[int, list[int]] = {}  # face -> its vertices, vertex -> a list of its faces
    sides: dict[tuple[int, int], list[int]] = {}  # the faces along each edge
    for f, vs in enumerate(faces):
        if len(set(vs)) != len(vs):
            return False
        f = ~f
        inc[f] = vs
        u = vs[-1]
        for v in vs:
            inc.setdefault(v, []).append(f)
            sides.setdefault(edge_key(u, v), []).append(f)
            u = v
    order = sorted(inc, key=lambda x: -len(inc[x]))
    rank = dict(zip(order, range(len(order))))
    for x in order:
        rx = rank[x]
        common: dict[int, list[int]] = {}
        for y in inc[x]:
            if rank[y] > rx:
                for z in inc[y]:
                    if rank[z] > rx:
                        common.setdefault(z, []).append(y)
        for z, ys in common.items():
            if len(ys) == 1:
                continue
            if len(ys) > 2:
                return False
            pair, shared = ((x, z), ys) if x >= 0 else (ys, (x, z))
            if sorted(sides.get(edge_key(*pair), ())) != sorted(shared):
                return False
    return True


def relabelled(emb: PlanarEmbedding, rng: random.Random) -> tuple[list[int], PlanarEmbedding]:
    """A random permutation perm and emb with every vertex v renamed perm[v]."""
    perm = list(range(emb.n))
    rng.shuffle(perm)
    rotation = [()] * emb.n
    for v, nbrs in enumerate(emb.rotation):
        rotation[perm[v]] = tuple(perm[w] for w in nbrs)
    return perm, PlanarEmbedding(emb.n, tuple(rotation), tuple(perm[v] for v in emb.outer_face))
