"""Shared fixtures plus independent oracles.

The oracles recompute answers straight from definitions (pairwise vertex
deletion, explicit path enumeration, dense linear algebra) so the faster
implementations in the package are checked against something honest. The
dict-based spread construction and the uncached solve are kept as
differential oracles for their array replacements, which must agree with
them to the last bit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from stressdraw import (
    DegeneratePosition,
    NotStOrientation,
    PlanarEmbedding,
    PreconditionError,
    ZeroGap,
    edge_key,
)
from stressdraw.metrics import CROSSING_EPS
from stressdraw.solver import RESIDUAL_RTOL, Drawing, OuterPolygon, equilibrium_residual
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


def enumerate_canonical_paths(o: StOrientation) -> np.ndarray:
    """Count, for every directed edge (o.tail[i], o.head[i]), how many
    canonical paths contain it, by materializing each path: source-tree
    walk up to the tail, the edge itself, then the sink-tree walk down
    from the head."""
    t1_parent, tn_parent = o.t1_parent.tolist(), o.tn_parent.tolist()
    index = {e: i for i, e in enumerate(zip(o.tail.tolist(), o.head.tolist()))}
    counts = np.zeros(len(index), dtype=np.int64)
    for a, b in index:
        up = [a]
        while t1_parent[up[-1]] >= 0:
            up.append(t1_parent[up[-1]])
        down = [b]
        while tn_parent[down[-1]] >= 0:
            down.append(tn_parent[down[-1]])
        path = up[::-1] + down
        for step in zip(path, path[1:]):
            counts[index[step]] += 1
    return counts


# ---------------------------------------------------------------------------
# differential oracles: the dict-and-tuple spread construction and the
# from-scratch Laplacian assembly that the array code replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DictOrientation:
    """Orientation as per-vertex neighbor tuples and parent dicts (no entry
    for the root)."""

    order: tuple[int, ...]
    rank: dict[int, int]
    out_nbrs: tuple[tuple[int, ...], ...]
    in_nbrs: tuple[tuple[int, ...], ...]
    t1_parent: dict[int, int]
    tn_parent: dict[int, int]

    def directed_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(len(self.out_nbrs)) for v in self.out_nbrs[u]]


def dict_st_orient(d: Drawing, emb: PlanarEmbedding) -> DictOrientation:
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

    return DictOrientation(order, rank, out_nbrs, in_nbrs,
                           bfs(source, out_nbrs), bfs(sink, in_nbrs))


def dict_target_x(o: DictOrientation, poly: OuterPolygon) -> dict[int, float]:
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
        if gap <= 0:
            raise ZeroGap(f"edge ({u}, {v}) has non-positive target gap {gap!r}")
        keyed.append((edge_key(u, v), counts[(u, v)] / gap))
    return np.array([w for _, w in sorted(keyed)])


def scratch_solve_stress(emb: PlanarEmbedding, weights: np.ndarray, poly: OuterPolygon) -> Drawing:
    """solve_stress with the interior system assembled from scratch by one
    coo -> csc_matrix call, nothing cached on the embedding."""
    edges = emb.edge_array
    pinned = list(poly.positions)
    positions = np.zeros((emb.n, 2))
    positions[pinned] = list(poly.positions.values())
    row_of = np.zeros(emb.n, dtype=np.intp)
    row_of[pinned] = -1
    interior = np.flatnonzero(row_of == 0)
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
    lu = splu(system)
    sol = lu.solve(rhs)
    tol = RESIDUAL_RTOL * poly.radius
    for _ in range(3):
        gap = rhs - system @ sol
        if np.abs(gap).max() <= 0.01 * tol:
            break
        sol += lu.solve(gap)
    positions[interior] = sol
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
    pinned = dict(poly.positions)
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
