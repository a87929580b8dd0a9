"""Shared fixtures plus independent oracles.

The oracles recompute answers straight from definitions (pairwise vertex
deletion, explicit path enumeration, dense linear algebra) so the faster
implementations in the package are checked against something honest.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from stressdraw import PlanarEmbedding, edge_key
from stressdraw.metrics import CROSSING_EPS
from stressdraw.solver import OuterPolygon
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


def enumerate_canonical_paths(o: StOrientation) -> dict[tuple[int, int], int]:
    """Count, for every directed edge, how many canonical paths contain it,
    by materializing each path: source-tree walk up to the tail, the edge
    itself, then the sink-tree walk down from the head."""
    counts: dict[tuple[int, int], int] = {e: 0 for e in o.directed_edges()}
    for a, b in o.directed_edges():
        up = [a]
        while o.t1_parent.get(up[-1]) is not None:
            up.append(o.t1_parent[up[-1]])
        down = [b]
        while o.tn_parent.get(down[-1]) is not None:
            down.append(o.tn_parent[down[-1]])
        path = up[::-1] + down
        for step in zip(path, path[1:]):
            counts[step] += 1
    return counts


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
