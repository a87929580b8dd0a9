"""Output checker for the benchmark, written without the package under test.

It reads only the graph (rotation system and outer face) and the vertex
coordinates, and checks:

1. every coordinate is finite;
2. the outer vertices sit on their polygon: the documented regular polygon
   (vertex i of the outer face at angle pi/2 + 2*pi*i/k) for every method
   but `uniform`, whose constructed polygon must be strictly convex;
3. every inner face is positively oriented and convex. Each inner face is
   fan-triangulated from its first vertex and every triangle must have the
   orientation opposite to the outer face's traversal. With a convex outer
   polygon, all-positive triangles certify a crossing-free drawing (the
   degree argument of Floater 2003). A triangle or corner within
   ORIENT_RTOL * radius**2 of zero doubled area is below the check's
   resolution and is counted, not failed: float solves at n = 1000 leave
   slivers inverted by about 1e-18 * radius**2, which is rounding, while a
   wrong drawing inverts faces by orders of magnitude more;
4. spread drawings hit their x-targets within TARGET_RTOL of the radius.

All checks are O(n + m) numpy work.

It also screens inputs at set-up (`x_gap_margin`): how far the unit-weight
drawing is from general position in the frames the spread methods use.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

# Allowed miss between solved coordinates and their targets, relative to the
# polygon radius.
TARGET_RTOL = 1e-6
# Allowed distance of a pinned vertex from its documented polygon position,
# relative to the radius: the formula is exact, this only absorbs rounding.
POLYGON_RTOL = 1e-12
# Doubled signed areas within this fraction of radius**2 are below resolution.
ORIENT_RTOL = 1e-12
# The spread pipeline may turn its frame by j * 1e-3 rad, j = 0..64, to reach
# general position (documented in stressdraw.spread.ensure_general_position).
NUDGE_STEP = 1e-3
NUDGE_STEPS = 64
# The pipeline needs every x-gap in its frame above this fraction of the
# radius (stressdraw.spread.GENERAL_POSITION_RTOL).
GENERAL_POSITION_RTOL = 1e-9


def traverse_faces(rotation: list[list[int]]) -> list[list[int]]:
    """Face cycles of a rotation system, by the successor rule."""
    pos = [{w: i for i, w in enumerate(rot)} for rot in rotation]
    seen: set[tuple[int, int]] = set()
    faces = []
    for v0, rot in enumerate(rotation):
        for w0 in rot:
            if (v0, w0) in seen:
                continue
            cycle = []
            v, w = v0, w0
            while (v, w) not in seen:
                seen.add((v, w))
                cycle.append(v)
                r = rotation[w]
                v, w = w, r[(pos[w][v] + 1) % len(r)]
            faces.append(cycle)
    return faces


def edges_of(rotation: list[list[int]]) -> np.ndarray:
    return np.array(
        [(v, w) for v, rot in enumerate(rotation) for w in rot if v < w], dtype=np.int64
    )


def edge_length_ratio(xy: np.ndarray, edges: np.ndarray) -> float:
    d = xy[edges[:, 0]] - xy[edges[:, 1]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    return float(lengths.max() / lengths.min())


class Graph:
    """The combinatorial data the checks need, computed once per input."""

    def __init__(self, data: dict) -> None:
        self.n = int(data["n"])
        rotation = [list(r) for r in data["rotation"]]
        self.outer = list(data["outer_face"])
        self.edges = edges_of(rotation)
        self.m = len(self.edges)
        faces = traverse_faces(rotation)
        outer_set = set(self.outer)
        outer = [f for f in faces if len(f) == len(self.outer) and set(f) == outer_set]
        if len(outer) != 1:
            raise ValueError(f"outer face matches {len(outer)} traversed faces")
        self.outer_walk = np.array(outer[0], dtype=np.int64)
        inner = [f for f in faces if f is not outer[0]]
        # fan triangles (f0, fi, fi+1) and corner triples (prev, v, next)
        tri, corner = [], []
        for f in inner:
            k = len(f)
            tri += [(f[0], f[i], f[i + 1]) for i in range(1, k - 1)]
            corner += [(f[i - 1], f[i], f[(i + 1) % k]) for i in range(k)]
        self.tri = np.array(tri, dtype=np.int64)
        self.corner = np.array(corner, dtype=np.int64)


def _orient(xy: np.ndarray, abc: np.ndarray) -> np.ndarray:
    """Signed doubled area of each triangle (a, b, c)."""
    a, b, c = xy[abc[:, 0]], xy[abc[:, 1]], xy[abc[:, 2]]
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _radius(pts: np.ndarray) -> float:
    c = pts.mean(axis=0)
    return float(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]).max())


def _spread_targets(x: np.ndarray, pinned: np.ndarray) -> np.ndarray | None:
    """x-targets in a spread frame: pinned vertices keep their x, each run
    of interior vertices between consecutive pinned x-values is spaced
    evenly. None when the x-order does not start and end on pinned ones."""
    order = np.argsort(x, kind="stable")
    targets = np.empty_like(x)
    last = None
    run: list[int] = []
    for v in order:
        if pinned[v]:
            if run:
                step = (x[v] - last) / (len(run) + 1)
                for j, u in enumerate(run, start=1):
                    targets[u] = last + j * step
                run = []
            last = x[v]
            targets[v] = x[v]
        elif last is None:
            return None
        else:
            run.append(v)
    return None if run else targets


def _spread_miss(xy: np.ndarray, g: Graph, direction: float) -> float:
    """Smallest target miss over the frames the pipeline may have used."""
    pinned = np.zeros(g.n, dtype=bool)
    pinned[g.outer] = True
    best = math.inf
    for j in range(NUDGE_STEPS + 1):
        angle = -direction + j * NUDGE_STEP
        x = math.cos(angle) * xy[:, 0] - math.sin(angle) * xy[:, 1]
        targets = _spread_targets(x, pinned)
        if targets is not None:
            best = min(best, float(np.abs(x - targets).max()))
            if best <= TARGET_RTOL:
                break
    return best


def check_drawing(
    g: Graph,
    xy: np.ndarray,
    method: str,
    radius: float = 1.0,
) -> tuple[list[str], dict[str, int]]:
    """Problems found in one drawing (empty when it passes), plus counts of
    fan triangles and corners below the orientation tolerance."""
    problems: list[str] = []
    stats = {"triangles_below_tol": 0, "corners_below_tol": 0}
    if xy.shape != (g.n, 2):
        return [f"coordinates have shape {xy.shape}, expected ({g.n}, 2)"], stats
    if not np.isfinite(xy).all():
        return ["non-finite coordinate"], stats

    outer_xy = xy[g.outer_walk]
    if method == "uniform":
        radius = _radius(xy[g.outer])
        walk = np.arange(len(g.outer_walk))
        turns = _orient(outer_xy, np.stack([walk, np.roll(walk, -1), np.roll(walk, -2)], axis=1))
        tol = ORIENT_RTOL * radius**2
        if not ((turns > tol).all() or (turns < -tol).all()):
            problems.append("constructed outer polygon is not strictly convex")
        xs = np.sort(xy[:, 0])
        miss = float(np.abs(xs - np.arange(1, g.n + 1)).max())
        if miss > TARGET_RTOL * radius:
            problems.append(f"x-coordinates miss 1..n by {miss:.3e}")
    else:
        k = len(g.outer)
        theta = [math.pi / 2 + 2 * math.pi * i / k for i in range(k)]
        want = radius * np.array([(math.cos(t), math.sin(t)) for t in theta])
        off = float(np.abs(xy[g.outer] - want).max())
        if off > POLYGON_RTOL * radius:
            problems.append(f"outer vertex off its polygon position by {off:.3e}")

    # inner faces must turn the opposite way to the outer face's traversal
    outer_area = float(
        np.sum(outer_xy[:, 0] * np.roll(outer_xy[:, 1], -1))
        - np.sum(outer_xy[:, 1] * np.roll(outer_xy[:, 0], -1))
    )
    sign = -1.0 if outer_area > 0 else 1.0
    tol = ORIENT_RTOL * radius**2
    area = sign * _orient(xy, g.tri)
    if (area < -tol).any():
        problems.append(f"{int((area < -tol).sum())} inverted fan triangles")
    stats["triangles_below_tol"] = int((np.abs(area) <= tol).sum())
    turn = sign * _orient(xy, g.corner)
    if (turn < -tol).any():
        problems.append(f"{int((turn < -tol).sum())} reflex corners in inner faces")
    stats["corners_below_tol"] = int((np.abs(turn) <= tol).sum())

    if method in ("xspread", "yspread"):
        direction = 0.0 if method == "xspread" else math.pi / 2
        miss = _spread_miss(xy, g, direction)
        if miss > TARGET_RTOL * radius:
            problems.append(f"{method} misses its x-targets by {miss:.3e}")
    return problems, stats


def tutte_xy(g: Graph) -> np.ndarray:
    """The unit-weight (Tutte) drawing on the documented regular polygon,
    by one sparse solve of the interior Laplacian."""
    k = len(g.outer)
    theta = [math.pi / 2 + 2 * math.pi * i / k for i in range(k)]
    xy = np.zeros((g.n, 2))
    xy[g.outer] = [(math.cos(t), math.sin(t)) for t in theta]
    pinned = np.zeros(g.n, dtype=bool)
    pinned[g.outer] = True
    inner = np.flatnonzero(~pinned)
    index = np.full(g.n, -1)
    index[inner] = np.arange(len(inner))
    arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
    arcs = arcs[~pinned[arcs[:, 0]]]
    free = ~pinned[arcs[:, 1]]
    rows = np.concatenate([index[arcs[:, 0]], index[arcs[free, 0]]])
    cols = np.concatenate([index[arcs[:, 0]], index[arcs[free, 1]]])
    vals = np.concatenate([np.ones(len(arcs)), -np.ones(int(free.sum()))])
    laplacian = coo_matrix((vals, (rows, cols)), shape=(len(inner), len(inner))).tocsc()
    rhs = np.zeros((len(inner), 2))
    np.add.at(rhs, index[arcs[~free, 0]], xy[arcs[~free, 1]])
    xy[inner] = splu(laplacian).solve(rhs)
    return xy


def x_gap_margin(g: Graph, directions_deg: list[float]) -> float:
    """How far the Tutte drawing is from general position, relative to the
    radius: over the spread directions, the smallest of the best minimum
    x-gap the pipeline's nudged frames (angle -direction + j * NUDGE_STEP,
    j = 0..NUDGE_STEPS) can reach. The spread pipeline raises
    DegeneratePosition in a direction whose best gap is at most
    GENERAL_POSITION_RTOL."""
    xy = tutte_xy(g)
    nudges = np.arange(NUDGE_STEPS + 1) * NUDGE_STEP
    worst = math.inf
    for direction in directions_deg:
        angle = nudges - math.radians(direction)
        x = np.cos(angle)[:, None] * xy[None, :, 0] - np.sin(angle)[:, None] * xy[None, :, 1]
        x.sort(axis=1)
        worst = min(worst, float(np.diff(x, axis=1).min(axis=1).max()))
    return worst


def check_svg(svg: str, g: Graph) -> list[str]:
    lines, dots = svg.count("<line "), svg.count("<circle ")
    if not svg.startswith("<svg") or lines != g.m or dots != g.n:
        return [f"svg has {lines} lines and {dots} dots for m={g.m}, n={g.n}"]
    return []


def close(claimed: float, actual: float, rtol: float = 1e-9, atol: float = 0.0) -> bool:
    return abs(claimed - actual) <= max(atol, rtol * abs(actual))
