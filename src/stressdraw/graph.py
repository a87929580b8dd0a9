"""Planar graphs carried as combinatorial embeddings.

A graph lives here as a rotation system: for every vertex, the cyclic order
of its neighbors as seen in the plane (counterclockwise by convention).
Faces are recovered by walking directed edges with the successor rule, and
one traversed face is designated as the outer face. Everything downstream
assumes simple, connected, 3-connected input; the lone tolerated exception
is the triangle, which has no interior vertex to solve for.
"""
from __future__ import annotations

import json
import logging
import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import (
    EulerViolation,
    GenerationStalled,
    InfeasibleParams,
    InvalidEmbedding,
    MalformedRotation,
    SingularSystem,
)

log = logging.getLogger(__name__)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical undirected key for an edge."""
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarEmbedding:
    """Rotation system plus a designated outer face.

    rotation[v] holds the neighbors of v in cyclic (counterclockwise)
    order. outer_face is one of the cycles produced by traverse_faces,
    up to rotation and reflection.
    Edges and faces are computed once per object; position i of every (m,)
    weight array in the package belongs to edge i of edge_array.
    """

    n: int
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    def edges(self) -> list[Edge]:
        """All undirected edges, canonical keys, sorted."""
        return list(map(tuple, self.edge_array.tolist()))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(m, 2) int array of the edges() keys, in edges() order."""
        tail = np.repeat(np.arange(self.n), [len(r) for r in self.rotation])
        head = np.fromiter((w for r in self.rotation for w in r), dtype=np.intp, count=len(tail))
        codes = np.unique(np.minimum(tail, head) * self.n + np.maximum(tail, head))
        return np.column_stack((codes // self.n, codes % self.n))

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge in both directions, as (from, to) arrays sorted by
        from and then to: the neighbor lists in increasing id order."""
        lo, hi = self.edge_array.T
        frm, to = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        by = np.lexsort((to, frm))
        return frm[by], to[by]

    @cached_property
    def _connected(self) -> bool:
        """Whether a search along the rotation from vertex 0 reaches every
        vertex, found once per embedding. A plain breadth-first search
        answers faster than building a scipy csgraph for it, from n = 60
        to n = 10**4."""
        seen = {0}
        queue = deque([0])
        while queue:
            for w in self.rotation[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    @cached_property
    def _rotation_index(self) -> list[dict[int, int]]:
        """_rotation_index[v][w]: position of w in rotation[v]. Building it
        checks the rotation system, once per embedding."""
        return _check_rotation(self)

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        """traverse_faces(self), computed once."""
        return traverse_faces(self)

    @cached_property
    def _laplacian_pattern(self) -> _LaplacianPattern:
        """Sparsity of the interior stress system, built once per embedding:
        it depends only on the edges and the pinned outer face."""
        return _build_laplacian_pattern(self)

    @cached_property
    def _face_index(self) -> _FaceIndex:
        """Vertex triples of the planarity and convexity checks, built once
        per embedding: they depend only on the faces and the outer face."""
        return _build_face_index(self)

    @cached_property
    def outer_index(self) -> int:
        """Position of outer_face, up to rotation and reflection, in faces."""
        key = _cycle_key(self.outer_face)
        for i, face in enumerate(self.faces):
            if _cycle_key(face) == key:
                return i
        raise InvalidEmbedding("outer face is not a face of the embedding")


class _LaplacianPattern(NamedTuple):
    """Where edge weights go in the weighted Laplacian restricted to the
    vertices off the outer face, one system row each.

    Rows are numbered in elimination order: interior[i] is the vertex of
    row i, and the order is a minimum-degree ordering of the unit-weight
    (Tutte) system, so the matrix factors with little fill in its natural
    order. Half-edge i leaves interior vertex tail[i] for vertex head[i],
    forward ones (edge_array column 0 to column 1) before backward ones; it
    carries the weight of edge half[i] into row[i], the row of tail[i].
    Those in inner (interior head) fill an off-diagonal entry; those in
    boundary (pinned head) are the only ones that pull while the interior
    sits at 0, as it does for the right-hand side. With entry
    values listed as the off-diagonal ones of inner followed by the k row
    sums, the CSC matrix has data values[perm], row indices `indices` and
    column pointers `indptr`.
    """

    interior: np.ndarray
    half: np.ndarray
    row: np.ndarray
    inner: np.ndarray
    boundary: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    perm: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


# splu settings for the interior system, which is symmetric positive
# definite: every pivot is taken on the diagonal, never chosen for size.
# One-column panels and no relaxed supernodes roughly halve the time
# SuperLU's default panel and supernode sizes take on these sparse planar
# systems; they do not change the column order.
SPD_LU = {"diag_pivot_thresh": 0.0, "panel_size": 1, "relax": 1, "options": {"SymmetricMode": True}}


def _build_laplacian_pattern(emb: PlanarEmbedding) -> _LaplacianPattern:
    edges = emb.edge_array
    row_of = np.zeros(emb.n, dtype=np.intp)
    row_of[list(emb.outer_face)] = -1
    interior = np.flatnonzero(row_of == 0)
    k = len(interior)
    row_of[interior] = np.arange(k)
    tail = np.concatenate((edges[:, 0], edges[:, 1]))
    head = np.concatenate((edges[:, 1], edges[:, 0]))
    live = np.flatnonzero(row_of[tail] >= 0)
    row, col = row_of[tail[live]], row_of[head[live]]
    inner = np.flatnonzero(col >= 0)
    off_row, off_col = row[inner], col[inner]
    if k:
        # factor the Tutte system once for its symmetric minimum-degree
        # order, and renumber the rows by it: perm_c[r] is the place of
        # id-order row r in that order
        unit = np.concatenate((-np.ones(len(inner)), np.bincount(row, minlength=k)))
        perm, indices, indptr = _csc_layout(off_row, off_col, k)
        try:
            lu = splu(csc_matrix((unit[perm], indices, indptr), shape=(k, k)),
                      permc_spec="MMD_AT_PLUS_A", **SPD_LU)
        except RuntimeError as exc:
            raise SingularSystem(f"interior system is singular for unit weights: {exc}") from exc
        place = lu.perm_c
        interior = interior[np.argsort(place)]
        row, off_row, off_col = place[row], place[off_row], place[off_col]
    return _LaplacianPattern(
        interior, np.tile(np.arange(len(edges)), 2)[live], row, inner, np.flatnonzero(col < 0),
        tail[live], head[live], *_csc_layout(off_row, off_col, k),
    )


def _csc_layout(rows: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical k x k CSC layout (rows sorted within each column) of
    the off-diagonal entries at distinct (rows[i], cols[i]) followed by the
    k diagonal ones: entry perm[j] is stored at data position j, with row
    indices `indices` and column pointers `indptr`."""
    rows = np.concatenate((rows, np.arange(k)))
    cols = np.concatenate((cols, np.arange(k)))
    perm = np.argsort(cols * k + rows)
    # int32 indices, as scipy would store them, spare a copy per solve
    indptr = np.zeros(k + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols, minlength=k), out=indptr[1:])
    return perm, rows[perm].astype(np.intc), indptr


class _FaceIndex(NamedTuple):
    """The faces as vertex index arrays for the per-drawing checks.

    ring is the outer face in traversal order. fans[:, i] = (apex, mid,
    next) is a fan triangle of an inner face, from its first vertex
    across each of its other edges that avoid that vertex. corners[:, i]
    = (prev, at, next) are three consecutive vertices of an inner face,
    one triple per face vertex, the triples of each face starting at
    corner_starts. simple: every face is a cycle of at least three
    distinct vertices.
    """

    ring: np.ndarray
    fans: np.ndarray
    corners: np.ndarray
    corner_starts: np.ndarray
    simple: bool


def _build_face_index(emb: PlanarEmbedding) -> _FaceIndex:
    faces, outer = emb.faces, emb.outer_index
    lengths = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
    flat = np.fromiter(
        chain.from_iterable(faces), dtype=np.intp, count=int(lengths.sum())
    )
    face_of = np.repeat(np.arange(len(faces)), lengths)
    starts = np.cumsum(lengths) - lengths
    simple = bool(lengths.min() >= 3 and np.unique(face_of * emb.n + flat).size == flat.size)
    first, size = starts[face_of], lengths[face_of]
    corner = np.arange(len(flat)) - first
    inner = face_of != outer
    mid = np.flatnonzero(inner & (corner >= 1) & (corner <= size - 2))
    fans = np.stack((flat[first[mid]], flat[mid], flat[mid + 1]))
    at = np.flatnonzero(inner)
    first, size, corner = first[at], size[at], corner[at]
    corners = np.stack((flat[first + (corner - 2) % size], flat[first + (corner - 1) % size], flat[at]))
    inner_lengths = np.delete(lengths, outer)
    return _FaceIndex(
        flat[starts[outer]:starts[outer] + lengths[outer]], fans, corners,
        np.cumsum(inner_lengths) - inner_lengths, simple,
    )


def _cycle_key(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form of a cyclic sequence, invariant to rotation and
    reflection: its least rotation read either way, tried only from the
    occurrences of the least element, where it starts, so O(len) for
    distinct elements. The empty sequence keys to (), which matches no face."""
    seq = tuple(seq)
    low = min(seq, default=None)
    return min(
        (c[i:] + c[:i] for c in (seq, seq[::-1]) for i, v in enumerate(c) if v == low), default=()
    )


# ---------------------------------------------------------------------------
# face traversal and validation
# ---------------------------------------------------------------------------

def _is_vertex_id(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no id


def _check_rotation(emb: PlanarEmbedding) -> list[dict[int, int]]:
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
            if not _is_vertex_id(w) or not 0 <= w < emb.n:
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


def traverse_faces(emb: PlanarEmbedding) -> list[tuple[int, ...]]:
    """Walk every directed edge once and collect the face cycles, each a
    tuple of its vertices in traversal order.

    From directed edge (u, v) the walk continues with (v, w) where w is the
    successor of u in the rotation of v. With counterclockwise rotations
    this traces interior faces counterclockwise and the outer face
    clockwise. Raises EulerViolation when the face count contradicts
    n - m + f = 2, i.e. the rotation system is not a sphere embedding.
    """
    pos = emb._rotation_index
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
    if emb.n - emb.m + len(faces) != 2:
        raise EulerViolation(
            f"n={emb.n} m={emb.m} f={len(faces)} violates n - m + f = 2"
        )
    return faces


def validate_three_connected(emb: PlanarEmbedding) -> bool:
    """Whether removing any two vertices leaves the graph connected.

    Requires n >= 4; a triangle counts as not 3-connected even though the
    rest of the package tolerates it as the degenerate no-interior case.
    The rotation must traverse to a sphere embedding, and the answer comes
    from its faces in O(m) (see _faces_meet_properly). A rotation of
    minimum degree 3 that is malformed raises MalformedRotation before the
    connectivity search reads it; a connected one that is not a sphere
    embedding raises EulerViolation from emb.faces. A simple sphere
    embedding with m = 3n - 6 edges has only triangular faces, and such a
    triangulation with n >= 4 is 3-connected, so it skips the face test.
    """
    n = emb.n
    if n < 4:
        return False
    if min(map(len, emb.rotation), default=0) < 3:
        return False
    emb._rotation_index  # raises on a malformed rotation before the search reads it
    if not emb._connected:
        return False
    faces = emb.faces  # raises unless the rotation is a simple sphere embedding
    if emb.m == 3 * n - 6:
        return True
    return _faces_meet_properly(faces)


def _faces_meet_properly(faces: Sequence[Sequence[int]]) -> bool:
    """Whether every face is a simple cycle and any two faces share at most
    one vertex, or exactly the two ends of an edge that lies on both.

    With n >= 4, minimum degree 3 and a connected sphere embedding, this is
    3-connectivity: a 2-cut {u, v} lies on a closed curve through two faces
    that both hold u and v. Two faces sharing u and v form a 4-cycle
    face-u-face-v in the vertex-face incidence graph. Each 4-cycle is found
    from its first node in decreasing-degree order, by counting the paths
    of length two to the nodes after it (Chiba & Nishizeki 1985); the
    incidence graph of a plane graph is planar, so this takes time linear
    in the total length of the faces passed, even around high-degree hubs.
    Vertices are nodes v >= 0, face i is node ~i.
    """
    inc: dict[int, Sequence[int]] = {}  # face -> its vertices, vertex -> a list of its faces
    sides: dict[Edge, list[int]] = {}  # the faces along each edge
    for f, vs in enumerate(faces):
        if len(set(vs)) != len(vs):
            return False
        f = ~f
        inc[f] = vs
        u = vs[-1]
        for v in vs:
            if v in inc:
                inc[v].append(f)
            else:
                inc[v] = [f]
            sides.setdefault((u, v) if u < v else (v, u), []).append(f)
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


def validate(emb: PlanarEmbedding) -> None:
    """Check every embedding invariant, raising on the first failure.

    Checks, in order: well-formed simple rotation system, connectivity,
    Euler consistency of the face traversal, the outer face being one of
    the traversed faces, and 3-connectedness (triangles pass as the
    degenerate base case).
    """
    emb._rotation_index  # raises on a malformed rotation
    if not emb._connected:
        raise InvalidEmbedding("graph is disconnected")
    emb.faces  # raises on an Euler violation
    if len(emb.outer_face) < 3:
        raise InvalidEmbedding(f"outer face has {len(emb.outer_face)} vertices")
    if not all(map(_is_vertex_id, emb.outer_face)):
        raise InvalidEmbedding(f"outer face {list(emb.outer_face)!r} lists a non-integer id")
    if len(set(emb.outer_face)) != len(emb.outer_face):
        raise InvalidEmbedding("outer face repeats a vertex")
    emb.outer_index  # raises when the outer face is not traversed
    if emb.n == 3:
        return  # triangle: valid degenerate case, nothing interior to solve
    if not validate_three_connected(emb):
        raise InvalidEmbedding("graph is not 3-connected")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def worst_case_graph(k: int) -> PlanarEmbedding:
    """Path p_1..p_k plus two apexes adjacent to each other and to every p_i.

    The unit-weight equilibrium drawing of this family shrinks interior
    edges geometrically with k, which is what makes it a stress test for
    edge-length ratios. n = k + 2, m = 3k; the outer face is the triangle
    formed by the two apexes and an end of the path.
    """
    if k < 1:
        raise InfeasibleParams(f"k must be >= 1, got {k}")
    u, w = k, k + 1  # apexes; path vertices are 0 .. k-1
    rotation: list[list[int]] = []
    if k == 1:
        rotation = [[u, w], [w, 0], [0, u]]
    else:
        for j in range(k):
            if j == 0:
                rotation.append([1, u, w])
            elif j == k - 1:
                rotation.append([u, k - 2, w])
            else:
                rotation.append([j + 1, u, j - 1, w])
        rotation.append([w] + list(range(k)))          # u: arc to w, then path
        rotation.append(list(range(k - 1, -1, -1)) + [u])  # w: path reversed, then u
    emb = PlanarEmbedding(
        n=k + 2,
        rotation=tuple(tuple(r) for r in rotation),
        outer_face=(),
    )
    target = {u, w, 0}
    for face in emb.faces:
        if len(face) == 3 and set(face) == target:
            return _with_outer_face(emb, face)
    raise AssertionError("outer triangle not found in worst-case construction")


def _with_outer_face(emb: PlanarEmbedding, outer: tuple[int, ...]) -> PlanarEmbedding:
    """emb with another outer face, keeping the checked rotation and the
    cached traversal: both depend only on the rotation system."""
    out = replace(emb, outer_face=outer)
    out.__dict__["_rotation_index"] = emb._rotation_index
    out.__dict__["faces"] = emb.faces
    return out


def _insert_after(rot: list[int], anchor: int, new: int) -> None:
    rot.insert(rot.index(anchor) + 1, new)


def _random_triangulation(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """Grow a triangulation by dropping each new vertex into a random face.
    Returns the rotation and the faces, each in traversal order."""
    rot: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces = [[0, 1, 2], [0, 2, 1]]
    for new in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        _insert_after(rot[a], c, new)
        _insert_after(rot[b], a, new)
        _insert_after(rot[c], b, new)
        rot[new] = [a, c, b]
        faces += [[a, b, new], [b, c, new], [c, a, new]]
    return [rot[v] for v in range(n)], faces


def _merged_face(
    rot: Sequence[Sequence[int]], faces: dict[int, list[int]], face_of: dict[Edge, int], u: int, v: int,
) -> list[int] | None:
    """The face left by deleting edge uv from a 3-connected plane graph
    (faces: cycles in traversal order; face_of: the face of each directed
    edge), or None when the graph would lose 3-connectivity.

    Only that face is new, and every other pair of faces already meets
    properly (see _faces_meet_properly). So the graph stays 3-connected
    when the merged face is a simple cycle and each face around it shares
    with it at most one vertex, or exactly the two ends of an edge that
    lies on both: one side of that edge in the face, the other in f1 or
    f2, the faces that merge."""
    f1, f2 = face_of[(u, v)], face_of[(v, u)]
    c1, c2 = faces[f1], faces[f2]
    i, j = c1.index(u), c2.index(v)
    # u, the v->u face after u, v, the u->v face after v
    merged = [u] + (c2[j:] + c2[:j])[2:] + [v] + (c1[i:] + c1[:i])[2:]
    on_merged = set(merged)
    if len(on_merged) != len(merged):
        return None
    for g in {face_of[(a, b)] for a in merged for b in rot[a]} - {f1, f2}:
        shared = [w for w in faces[g] if w in on_merged]
        if len(shared) > 2:
            return None
        if len(shared) == 2:
            a, b = shared
            if {face_of.get((a, b)), face_of.get((b, a))} not in ({g, f1}, {g, f2}):
                return None
    return merged


def _generate_once(n: int, m: int, rng: random.Random) -> tuple[list[list[int]], int]:
    rot, triangles = _random_triangulation(n, rng)
    faces = dict(enumerate(triangles))
    face_of = {(f[j - 1], v): i for i, f in faces.items() for j, v in enumerate(f)}
    candidates = sorted(e for e in face_of if e[0] < e[1])
    m_cur = 3 * n - 6
    while m_cur > m:
        shuffled = candidates.copy()
        rng.shuffle(shuffled)
        for u, v in shuffled:
            if len(rot[u]) <= 3 or len(rot[v]) <= 3:
                continue
            merged = _merged_face(rot, faces, face_of, u, v)
            if merged is not None:
                f = face_of.pop((u, v))
                del faces[face_of.pop((v, u))]
                faces[f] = merged
                for k, w in enumerate(merged):
                    face_of[(merged[k - 1], w)] = f
                rot[u].remove(v)
                rot[v].remove(u)
                candidates.remove((u, v))
                m_cur -= 1
                break
        else:
            break  # stalled at m_cur
    return rot, m_cur


def generate_planar(
    n: int,
    m: int,
    seed: int,
    attempts: int = 8,
    strict: bool = False,
) -> PlanarEmbedding:
    """Random simple 3-connected planar embedding with n vertices, m edges.

    Grows a random triangulation by repeated vertex insertion into a
    uniformly random face, then deletes uniformly random edges until m
    remain, skipping any deletion that would drop a degree below 3 or lose
    3-connectivity, which only the merged face can show (_merged_face).
    Deterministic for a fixed seed. When deletion stalls, up to `attempts` (>= 1) fresh
    tries run on derived sub-seeds; if none reaches m exactly, the closest
    achieved edge count above m is returned with a logged warning, or
    GenerationStalled is raised when strict.

    Feasible range: n >= 4 and ceil(3n/2) <= m <= 3n - 6. Requests at the
    bottom of the range usually stall and return more edges: at
    m = ceil(3n/2), 71 of 90 requests (seeds 0-29, n = 10, 20, 40) missed m.
    """
    if n < 4:
        raise InfeasibleParams(f"need n >= 4, got n={n}")
    lo, hi = (3 * n + 1) // 2, 3 * n - 6
    if not lo <= m <= hi:
        raise InfeasibleParams(f"need {lo} <= m <= {hi} for n={n}, got m={m}")
    if attempts < 1:
        raise InfeasibleParams(f"need attempts >= 1, got {attempts}")
    best: tuple[list[list[int]], int] | None = None
    for attempt in range(attempts):
        rng = random.Random(seed * 1000003 + attempt)
        rot, achieved = _generate_once(n, m, rng)
        if best is None or achieved < best[1]:
            best = (rot, achieved)
        if achieved == m:
            break
    assert best is not None
    rot, achieved = best
    if achieved != m:
        if strict:
            raise GenerationStalled(
                f"could not thin to m={m} after {attempts} attempts; best was {achieved}"
            )
        log.warning(
            "generation stalled: requested m=%d, returning closest achievable m=%d",
            m,
            achieved,
        )
    emb = PlanarEmbedding(
        n=n,
        rotation=tuple(tuple(r) for r in rot),
        outer_face=(),
    )
    longest = max(map(len, emb.faces))
    outer = min((f for f in emb.faces if len(f) == longest), key=_cycle_key)
    emb = _with_outer_face(emb, outer)
    validate(emb)
    return emb


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def to_dict(emb: PlanarEmbedding) -> dict:
    return {
        "n": emb.n,
        "rotation": [list(r) for r in emb.rotation],
        "outer_face": list(emb.outer_face),
    }


def from_dict(data: object) -> PlanarEmbedding:
    """Build and fully validate an embedding from parsed JSON."""
    if not isinstance(data, dict):
        raise InvalidEmbedding("graph JSON must be an object")
    missing = {"n", "rotation", "outer_face"} - set(data)
    if missing:
        raise InvalidEmbedding(f"graph JSON missing keys: {sorted(missing)}")
    n = data["n"]
    rotation = data["rotation"]
    outer = data["outer_face"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidEmbedding("n must be an integer")
    if not isinstance(rotation, list) or not all(isinstance(r, list) for r in rotation):
        raise InvalidEmbedding("rotation must be a list of lists")
    if not isinstance(outer, list):
        raise InvalidEmbedding("outer_face must be a list")
    emb = PlanarEmbedding(
        n=n,
        rotation=tuple(tuple(r) for r in rotation),
        outer_face=tuple(outer),
    )
    validate(emb)
    return emb


def load_graph(path: str | Path) -> PlanarEmbedding:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # bad JSON, bad UTF-8 (both ValueError), or nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise InvalidEmbedding(f"not valid JSON: {exc}") from exc
    return from_dict(data)


def save_graph(emb: PlanarEmbedding, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(emb)) + "\n", encoding="utf-8")
