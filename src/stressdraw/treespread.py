"""Depth-decaying weights from breadth-first levels or a Schnyder wood.

Both variants give an edge a weight a / r**depth so that edges far from
the outer boundary carry exponentially less pull, which counteracts the
central collapse of unit-weight drawings. BFS depth measures hops from
the outer face; Schnyder depth measures position within one of the three
trees of a realizer of a triangulation. best_r solves the weightings of
all its decay bases in one solve_stresses batch and measures them a chunk
at a time.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import takewhile

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import BadParams, InvalidEmbedding, NotTriangulation, ZeroLengthEdge
from .graph import PlanarEmbedding
from .metrics import _length_range
from .solver import Drawing, OuterPolygon, solve_stress, solve_stresses


# ---------------------------------------------------------------------------
# BFS depths
# ---------------------------------------------------------------------------

def bfs_depths(emb: PlanarEmbedding) -> np.ndarray:
    """Edge depth from a multi-source BFS out of the outer face, as an (m,)
    int array aligned with emb.edge_array.

    Outer vertices sit at level 0, every other vertex at its hop distance
    from the nearest of them. An edge's depth is min(level(u), level(v)) + 1;
    outer-face edges therefore get depth 1.
    """
    he = emb._half_edges
    arcs = csr_matrix((np.ones(len(he.head)), he.head, he.offsets), shape=(emb.n, emb.n))
    level = dijkstra(arcs, indices=list(emb.outer_face), unweighted=True, min_only=True)
    if not np.isfinite(level).all():
        raise InvalidEmbedding("graph is disconnected")
    return level.astype(np.intp)[emb.edge_array].min(axis=1) + 1


def depth_weights(
    depths: np.ndarray,
    a: float = 1.0,
    r: float = 5.0,
) -> np.ndarray:
    """Exponential decay a / r**depth; requires finite a > 0 and r > 1.
    A power past float64 is inf, its weight 0.0, which the solve rejects
    as NonPositiveWeight."""
    if not 0 < a < math.inf:
        raise BadParams(f"a must be positive and finite, got {a}")
    if not 1 < r < math.inf:
        raise BadParams(f"r must exceed 1 and be finite, got {r}")
    with np.errstate(over="ignore"):
        return a / float(r) ** np.asarray(depths)


# ---------------------------------------------------------------------------
# Schnyder wood of a triangulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SchnyderWood:
    """Realizer of a triangulation with a triangular outer face.

    Interior edges are partitioned into three trees; tree c is rooted at
    roots[c - 1] (the outer vertices, in outer-face order). color is an
    (m,) int array aligned with emb.edge_array holding each edge's tree, 0
    on the outer triangle. Every interior vertex v has exactly one outgoing
    edge per color, to parent[c - 1, v]; the (3, n) parent array holds -1
    at the outer vertices.
    """

    roots: tuple[int, int, int]
    color: np.ndarray
    parent: np.ndarray


def _require_triangulation(emb: PlanarEmbedding) -> None:
    if len(emb.outer_face) != 3:
        raise NotTriangulation(
            f"outer face must be a triangle, got length {len(emb.outer_face)}"
        )
    if (np.diff(emb._face_cycles[1]) != 3).any():
        raise NotTriangulation("every face must be a triangle")


def schnyder_wood(emb: PlanarEmbedding) -> SchnyderWood:
    """Color the interior edges of a triangulation into the three trees.

    Peels the boundary ring, starting from the outer triangle, down to the
    edge r1-r2. Each step removes the lowest-id ring vertex other than r1
    and r2 that has no chord (no ring neighbor besides its two ring
    neighbors); its still-alive neighbors form a fan from its left ring
    neighbor to its right one, and the fan's inner vertices join the ring.
    The ring is kept oriented so that walking it from r1 reaches r2 last,
    so the left end always lies on the r1 side. The peeled vertex sends
    color 1 to the left end and color 2 to the right end, and adopts every
    vertex it exposes as a color-3 child. The third root goes first and
    only adopts, so the three outer edges stay uncolored.

    Each ring vertex keeps a count of its chords, set when it joins the
    ring and updated only around the exposed fan, and the chord-free ones
    wait in a heap: the peel takes O(m log n) (Chrobak & Payne 1995).
    """
    _require_triangulation(emb)
    r1, r2, r3 = emb.outer_face
    n, rotation = emb.n, emb.rotation
    nxt, prv = [-1] * n, [-1] * n
    nxt[r1], nxt[r3], nxt[r2] = r3, r2, r1
    prv[r3], prv[r2], prv[r1] = r1, r3, r2
    alive, on_ring, chords = [True] * n, [False] * n, [0] * n
    on_ring[r1] = on_ring[r2] = on_ring[r3] = True
    parent = [[-1] * n for _ in range(3)]
    free = [r3]  # a heap of ring vertices that were chord-free when pushed
    for _ in range(n - 2):
        while free and not (on_ring[free[0]] and chords[free[0]] == 0):
            heapq.heappop(free)
        if not free:
            raise NotTriangulation("no chord-free boundary vertex; not a disk triangulation")
        u = heapq.heappop(free)
        left, right = prv[u], nxt[u]
        fan = [w for w in rotation[u] if alive[w]]
        i = fan.index(left)
        fan = fan[i:] + fan[:i]
        if fan[-1] != right:
            fan = [fan[0]] + fan[1:][::-1]
        if fan[-1] != right:
            raise NotTriangulation("boundary fan does not close the ring")
        alive[u] = on_ring[u] = False
        if u != r3:
            parent[0][u], parent[1][u] = left, right
        for a, b in zip(fan, fan[1:]):
            nxt[a], prv[b] = b, a
        if len(fan) == 2:  # the chord left-right became a ring edge
            for v in (left, right):
                chords[v] -= 1
                if chords[v] == 0 and v != r1 and v != r2:
                    heapq.heappush(free, v)
        for a, x, b in zip(fan, fan[1:], fan[2:]):
            parent[2][x] = u
            on_ring[x] = True
            for w in rotation[x]:
                if on_ring[w] and w != a and w != b:
                    chords[x] += 1
                    chords[w] += 1
            if chords[x] == 0:
                heapq.heappush(free, x)
    parents = np.array(parent)
    tree, child = np.nonzero(parents >= 0)
    lo, hi = np.sort((child, parents[tree, child]), axis=0)
    edge_codes = emb.edge_array[:, 0] * n + emb.edge_array[:, 1]
    color = np.zeros(emb.m, dtype=np.intp)
    color[np.searchsorted(edge_codes, lo * n + hi)] = tree + 1
    if np.count_nonzero(color) != emb.m - 3:
        raise NotTriangulation("realizer construction left edges or colors unassigned")
    return SchnyderWood((r1, r2, r3), color, parents)


def schnyder_depths(emb: PlanarEmbedding) -> np.ndarray:
    """Depth of every edge within its own tree of the realizer, as an (m,)
    int array aligned with emb.edge_array.

    An edge's depth is the number of tree edges from the root up to and
    including itself; the three outer edges are assigned depth 1. Vertex
    depths come from pointer jumping over the parent array: each pass
    doubles how far up every vertex has looked.
    """
    wood = schnyder_wood(emb)
    n = emb.n
    # up[c * n + v]: an ancestor of v in tree c + 1, -1 once past the root;
    # hops: the tree edges from v up to it
    up = np.where(wood.parent >= 0, wood.parent + n * np.arange(3)[:, None], -1).ravel()
    hops = (up >= 0).astype(np.intp)
    while (live := np.flatnonzero(up >= 0)).size:
        hops[live] += hops[up[live]]
        up[live] = up[up[live]]
    # an edge's depth is that of its child end, whose parent is the other end
    lo, hi = emb.edge_array.T
    tree = wood.color - 1
    child = np.where(wood.parent[tree, lo] == hi, lo, hi)
    return np.where(wood.color > 0, hops.reshape(3, n)[tree, child], 1)


def schnyder_spread(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    a: float = 1.0,
    r: float = 5.0,
) -> Drawing:
    """solve_stress of depth_weights(schnyder_depths(emb), a, r). Nothing in
    the package calls it; it stays for bench/workloads.py:126, the
    benchmark's schnyder-r5 operation, and the a it passes."""
    return solve_stress(emb, depth_weights(schnyder_depths(emb), a, r), poly)


# ---------------------------------------------------------------------------
# decay-base search
# ---------------------------------------------------------------------------

def best_r(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    method: str = "bfs",
    r_hi: int = 16,
) -> tuple[int, Drawing, float]:
    """Integer decay base in [2, r_hi] minimizing the edge-length ratio.

    Ties go to the smallest base. Returns (r, drawing, ratio). r_hi must be
    an integer of at least 2. The bases' weightings are fed lazily to one
    solve_stresses batch, and its drawings are measured a chunk at a time.
    A base whose drawing has a zero-length edge has no ratio and is
    skipped, and so is every base from the first whose decay power
    overflows to a zero weight; when every base is, ZeroLengthEdge is
    raised.
    """
    try:
        r_hi = operator.index(r_hi)
    except TypeError:
        raise BadParams(f"r_hi must be an integer, got {r_hi!r}") from None
    if r_hi < 2:
        raise BadParams(f"need r_hi >= 2, got {r_hi}")
    if method == "bfs":
        depths = bfs_depths(emb)
    elif method == "schnyder":
        depths = schnyder_depths(emb)
    else:
        raise BadParams(f"unknown tree-spread method {method!r}")
    # r**depth grows with r: every base after the first with a zero weight has one
    weightings = takewhile(np.all, (depth_weights(depths, r=float(r)) for r in range(2, r_hi + 1)))
    best: tuple[int, Drawing, float] | None = None
    r = 1
    for positions, drawings in solve_stresses(emb, weightings, poly):
        shortest, longest = _length_range(positions, emb)
        for d, lo, hi in zip(drawings, shortest.tolist(), longest.tolist()):
            r += 1
            if lo != 0 and (best is None or hi / lo < best[2]):
                best = (r, d, hi / lo)
    if best is None:
        raise ZeroLengthEdge("drawing contains an edge of zero length")
    return best
