"""Depth-decaying weights from breadth-first levels or a Schnyder wood.

Both variants give an edge a weight a / r**depth so that edges far from
the outer boundary carry exponentially less pull, which counteracts the
central collapse of unit-weight drawings. BFS depth measures hops from
the outer face; Schnyder depth measures position within one of the three
trees of a realizer of a triangulation.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NotTriangulation, StressDrawError
from .graph import Edge, PlanarEmbedding, edge_key
from .metrics import edge_length_ratio
from .solver import Drawing, OuterPolygon, solve_stress


# ---------------------------------------------------------------------------
# BFS depths
# ---------------------------------------------------------------------------

def bfs_depths(emb: PlanarEmbedding) -> np.ndarray:
    """Edge depth from a multi-source BFS out of the outer face, as an (m,)
    int array aligned with emb.edges().

    Conceptually a super-vertex adjacent to every outer vertex starts the
    search, so outer vertices sit at level 0. An edge's depth is
    min(level(u), level(v)) + 1; outer-face edges therefore get depth 1.
    """
    level = {v: 0 for v in emb.outer_face}
    queue = deque(sorted(level))
    while queue:
        v = queue.popleft()
        for w in emb.rotation[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    levels = np.array([level[v] for v in range(emb.n)])
    return levels[emb.edge_array].min(axis=1) + 1


def depth_weights(
    depths: np.ndarray,
    a: float = 1.0,
    r: float = 5.0,
) -> np.ndarray:
    """Exponential decay a / r**depth; requires finite a > 0 and r > 1."""
    if not 0 < a < math.inf:
        raise BadParams(f"a must be positive and finite, got {a}")
    if not 1 < r < math.inf:
        raise BadParams(f"r must exceed 1 and be finite, got {r}")
    return a / float(r) ** np.asarray(depths)


def bfs_spread(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    a: float = 1.0,
    r: float = 5.0,
) -> Drawing:
    return solve_stress(emb, depth_weights(bfs_depths(emb), a, r), poly)


# ---------------------------------------------------------------------------
# Schnyder wood of a triangulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchnyderWood:
    """Realizer of a triangulation with a triangular outer face.

    Interior edges are partitioned into three trees; tree c is rooted at
    roots[c - 1] (the outer vertices, in outer-face order). Every interior
    vertex has exactly one outgoing edge per color, recorded in parent.
    """

    roots: tuple[int, int, int]
    colors: dict[Edge, int]
    parent: dict[int, dict[int, int]]


def _require_triangulation(emb: PlanarEmbedding) -> None:
    if len(emb.outer_face) != 3:
        raise NotTriangulation(
            f"outer face must be a triangle, got length {len(emb.outer_face)}"
        )
    for face in emb.faces:
        if len(face) != 3:
            raise NotTriangulation("every face must be a triangle")


def _peel_order(emb: PlanarEmbedding) -> list[tuple[int, list[int]]]:
    """Peel boundary vertices with no boundary chord, recording each
    removed vertex with the path of still-alive neighbors it exposes.

    The boundary ring is kept oriented so that walking the successor
    pointers from the first outer vertex reaches the second outer vertex
    last; the recorded path then always runs from the first-root side to
    the second-root side. The third outer vertex is necessarily peeled
    first, which makes it the final vertex of the canonical order.
    """
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
        if fan[-1] != nxt[u]:
            raise StressDrawError("boundary fan does not close the ring")
        return fan

    events: list[tuple[int, list[int]]] = []
    for _ in range(emb.n - 2):
        pick = -1
        for u in sorted(on_ring):
            if u not in (r1, r2) and chord_free(u):
                pick = u
                break
        if pick < 0:
            raise NotTriangulation("no chord-free boundary vertex; not a disk triangulation")
        path = fan_path(pick)
        events.append((pick, path))
        alive[pick] = False
        on_ring.discard(pick)
        left, right = prv[pick], nxt[pick]
        chain = [left] + path[1:-1] + [right]
        for a, b in zip(chain, chain[1:]):
            nxt[a] = b
            prv[b] = a
        on_ring.update(path[1:-1])
    return events


def schnyder_wood(emb: PlanarEmbedding) -> SchnyderWood:
    """Color the interior edges of a triangulation into the three trees.

    Runs the incremental construction in insertion order (the reverse of
    the peel): a vertex entering the boundary sends color 1 to the
    first-root side end of its fan, color 2 to the other end, and adopts
    every vertex it covers as a color-3 child. The last insertion is the
    third root, which only collects color-3 edges, so the three outer
    edges stay uncolored.
    """
    _require_triangulation(emb)
    r1, r2, r3 = emb.outer_face
    colors: dict[Edge, int] = {}
    parent: dict[int, dict[int, int]] = {}
    for u, path in reversed(_peel_order(emb)):
        if u == r3:
            if path[0] != r1 or path[-1] != r2:
                raise StressDrawError("final fan does not span the remaining boundary")
        else:
            colors[edge_key(u, path[0])] = 1
            colors[edge_key(u, path[-1])] = 2
            parent.setdefault(u, {})[1] = path[0]
            parent.setdefault(u, {})[2] = path[-1]
        for mid in path[1:-1]:
            colors[edge_key(mid, u)] = 3
            parent.setdefault(mid, {})[3] = u
    interior = emb.n - 3
    if len(colors) != emb.m - 3 or any(len(p) != 3 for p in parent.values()):
        raise StressDrawError("realizer construction left edges or colors unassigned")
    if len(parent) != interior and interior > 0:
        raise StressDrawError("some interior vertex has no realizer parents")
    return SchnyderWood((r1, r2, r3), colors, parent)


def schnyder_depths(emb: PlanarEmbedding, wood: SchnyderWood | None = None) -> np.ndarray:
    """Depth of every edge within its own tree of the realizer, as an (m,)
    int array aligned with emb.edges().

    An edge's depth is the number of tree edges from the root up to and
    including itself; the three outer edges are assigned depth 1.
    """
    if wood is None:
        wood = schnyder_wood(emb)
    vdepth: dict[tuple[int, int], int] = {}
    for c, root in zip((1, 2, 3), wood.roots):
        vdepth[(root, c)] = 0

    def depth_of(v: int, c: int) -> int:
        chain = []
        cur = v
        while (cur, c) not in vdepth:
            chain.append(cur)
            cur = wood.parent[cur][c]
        d = vdepth[(cur, c)]
        for node in reversed(chain):
            d += 1
            vdepth[(node, c)] = d
        return vdepth[(v, c)]

    position = {e: i for i, e in enumerate(emb.edges())}
    depths = np.ones(len(position), dtype=int)  # the uncolored outer edges
    for e, c in wood.colors.items():
        u, v = e
        # the parent end of the edge is the one nearer the root
        if wood.parent.get(u, {}).get(c) == v:
            child = u
        else:
            child = v
        depths[position[e]] = depth_of(child, c)
    return depths


def schnyder_spread(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    a: float = 1.0,
    r: float = 5.0,
) -> Drawing:
    return solve_stress(emb, depth_weights(schnyder_depths(emb), a, r), poly)


# ---------------------------------------------------------------------------
# decay-base search
# ---------------------------------------------------------------------------

def best_r(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    method: str = "bfs",
    a: float = 1.0,
    r_lo: int = 2,
    r_hi: int = 16,
) -> tuple[int, Drawing, float]:
    """Integer decay base in [r_lo, r_hi] minimizing the edge-length ratio.

    Ties go to the smallest base. Returns (r, drawing, ratio).
    """
    if r_lo > r_hi or r_lo < 2:
        raise BadParams(f"need 2 <= r_lo <= r_hi, got [{r_lo}, {r_hi}]")
    if method == "bfs":
        depths = bfs_depths(emb)
    elif method == "schnyder":
        depths = schnyder_depths(emb)
    else:
        raise BadParams(f"unknown tree-spread method {method!r}")
    best: tuple[int, Drawing, float] | None = None
    for r in range(r_lo, r_hi + 1):
        d = solve_stress(emb, depth_weights(depths, a, float(r)), poly)
        rho = edge_length_ratio(d, emb)
        if best is None or rho < best[2]:
            best = (r, d, rho)
    assert best is not None
    return best
