"""Planar graphs carried as combinatorial embeddings.

A graph lives here as a rotation system: for every vertex, the cyclic order
of its neighbors as seen in the plane (counterclockwise by convention).
It is held once more as half-edge arrays, the faces are the cycles of
their successor rule, and one face is designated as the outer face.
Everything downstream assumes simple, connected, 3-connected input; the
lone tolerated exception is the triangle, which has no interior vertex to
solve for.
"""
from __future__ import annotations

import json
import logging
import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    EulerViolation,
    GenerationStalled,
    InfeasibleParams,
    InvalidEmbedding,
    MalformedRotation,
)

log = logging.getLogger(__name__)

# Fresh tries generate_planar makes, on derived sub-seeds, when thinning stalls.
_ATTEMPTS = 8

def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected key for an edge."""
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarEmbedding:
    """Rotation system plus a designated outer face.

    rotation[v] holds the neighbors of v in cyclic (counterclockwise)
    order. outer_face is one of the cycles in faces,
    up to rotation and reflection.
    Edges and faces are computed once per object; position i of every (m,)
    weight array in the package belongs to edge i of edge_array.
    """

    n: int
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(map(len, self.rotation)) // 2

    @cached_property
    def _half_edges(self) -> _HalfEdges:
        """The checked rotation as half-edges, built once per embedding."""
        return _check_rotation(self)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Every undirected edge once, as an (m, 2) int array of (lower id,
        higher id) rows sorted by the lower id and then the higher."""
        tail, head = self._arcs
        return np.column_stack((tail, head))[tail < head]

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge in both directions, as (from, to) arrays sorted by
        from and then to: the neighbor lists in increasing id order."""
        he = self._half_edges
        return he.tail[he.order], he.head[he.order]

    @cached_property
    def _connected(self) -> bool:
        """Whether the graph is connected: one strong component, as the rotation is symmetric."""
        he = self._half_edges
        adjacency = csr_matrix((np.ones(len(he.head)), he.head, he.offsets), shape=(self.n, self.n))
        return connected_components(adjacency, connection="strong", return_labels=False) == 1

    @cached_property
    def _face_cycles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cycle, bounds, face): face f is the cycle of the face successor
        cycle[bounds[f]:bounds[f + 1]], and half-edge h lies on face[h]. Each
        is labelled by its least half-edge, listed from it, and the labels
        order the faces. Raises EulerViolation unless n - m + f = 2."""
        nxt = self._half_edges.next
        ids = np.arange(len(nxt))
        # least[h] is the least of the 2**k half-edges from h on, ahead[h]
        # steps on; once a doubling changes nothing, least[h] labels h's face
        least, ahead, jump, span = ids, np.zeros_like(ids), nxt, 1
        while (take := least[jump] < least).any():
            least, ahead = np.where(take, least[jump], least), np.where(take, ahead[jump] + span, ahead)
            jump, span = jump[jump], 2 * span
        leader = least == ids
        if self.n - self.m + (f := int(leader.sum())) != 2:
            raise EulerViolation(f"n={self.n} m={self.m} f={f} violates n - m + f = 2")
        face = (np.cumsum(leader) - 1)[least]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(face))))
        length = np.diff(bounds)[face]
        cycle = np.empty_like(ids)
        cycle[bounds[face] + (length - ahead) % length] = ids
        return cycle, bounds, face

    @cached_property
    def _simple_faces(self) -> bool:
        """Whether every face is a cycle of at least three distinct
        vertices: no (vertex, face) pair occurs twice."""
        _, bounds, face = self._face_cycles
        pairs = face * self.n + self._half_edges.tail
        return bool(np.diff(bounds).min() >= 3 and np.unique(pairs).size == pairs.size)

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        """Every face as a tuple of its vertices in traversal order.

        From directed edge (u, v) a face continues with (v, w), w the
        successor of u in the rotation of v, so with counterclockwise
        rotations interior faces run counterclockwise and the outer face
        clockwise. Faces come in the order of their first directed edges
        in rotation order, each from that edge. Raises EulerViolation
        unless n - m + f = 2, i.e. unless the rotation system is a sphere
        embedding.
        """
        cycle, bounds, _ = self._face_cycles
        flat, ends = self._half_edges.tail[cycle].tolist(), bounds.tolist()
        return [tuple(flat[a:b]) for a, b in zip(ends, ends[1:])]

    @cached_property
    def _face_index(self) -> _FaceIndex:
        """Vertex triples of the planarity and convexity checks, built once
        per embedding: they depend only on the faces and the outer face."""
        return _build_face_index(self)

    @cached_property
    def outer_index(self) -> int:
        """Position in faces of the first face that equals outer_face up to
        rotation and reflection. Only the faces of the half-edges outer[0]
        -> outer[1] and outer[1] -> outer[0] can."""
        he, (cycle, bounds, _) = self._half_edges, self._face_cycles
        key, ends = _cycle_key(self.outer_face), self.outer_face[:2]
        arcs = [he.offsets[u] + self.rotation[u].index(v) for u, v in ((ends, ends[::-1]) if len(ends) == 2 else ())
                if _is_vertex_id(u) and 0 <= u < self.n and v in self.rotation[u]]
        for f in sorted(np.searchsorted(bounds, [np.flatnonzero(cycle == h)[0] for h in arcs], side="right") - 1):
            if _cycle_key(tuple(he.tail[cycle[bounds[f]:bounds[f + 1]]].tolist())) == key:
                return int(f)
        raise InvalidEmbedding("outer face is not a face of the embedding")


class _HalfEdges(NamedTuple):
    """The rotation system as flat arrays: half-edge offsets[v] + i leaves
    tail = v for head = rotation[v][i]. order lists the half-edges sorted by
    (tail, head). next[h], the half-edge after h on its face, leaves head[h]
    for the successor of tail[h] around head[h]: the rotation successor of
    h's twin."""

    offsets: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    order: np.ndarray
    next: np.ndarray


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
    (cycle, bounds, face), outer = emb._face_cycles, emb.outer_index
    flat, starts, lengths = emb._half_edges.tail[cycle], bounds[:-1], np.diff(bounds)
    face_of = face[cycle]
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
        np.cumsum(inner_lengths) - inner_lengths, emb._simple_faces,
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


def _check_rotation(emb: PlanarEmbedding) -> _HalfEdges:
    """The rotation as half-edges, or MalformedRotation unless it is a simple
    symmetric adjacency structure. An empty rotation, an entry that is no
    vertex id in range, a self-loop or a neighbor's second entry is reported
    vertex by vertex, then by position, before any asymmetry."""
    n = emb.n
    if n < 3:
        raise MalformedRotation(f"need at least 3 vertices, got {n}")
    if len(emb.rotation) != n:
        raise MalformedRotation("rotation table length differs from n")
    degree = np.fromiter(map(len, emb.rotation), dtype=np.int64, count=n)
    offsets = np.concatenate(([0], np.cumsum(degree)))
    flat = list(chain.from_iterable(emb.rotation))
    tail = np.repeat(np.arange(n), degree)
    # an entry that is no id gets its own value past n, which repeats nothing
    head = np.array([w if _is_vertex_id(w) and 0 <= w < n else n + i for i, w in enumerate(flat)], dtype=np.int64)
    code = tail * (n + len(flat)) + head
    order = np.argsort(code, kind="stable")
    repeat = np.zeros(len(flat), dtype=bool)
    repeat[order[1:]] = np.diff(code[order]) == 0
    faults = np.flatnonzero((head >= n) | (tail == head) | repeat)
    empty = np.flatnonzero(degree == 0)
    if len(empty) and (not len(faults) or empty[0] < tail[faults[0]]):
        raise MalformedRotation(f"vertex {empty[0]} has no neighbors")
    if len(faults):
        v, w = int(tail[faults[0]]), flat[faults[0]]
        raise MalformedRotation(f"vertex {v} lists invalid neighbor {w!r}" if head[faults[0]] >= n
                                else f"self-loop at vertex {v}" if w == v else f"parallel edge {v}-{w}")
    # the codes are distinct, so the rotation is symmetric when the reversed
    # half-edges sort to the same codes; then order[i] is the twin of by_reverse[i]
    reverse = head * (n + len(flat)) + tail
    by_reverse = np.argsort(reverse)
    if not np.array_equal(code[order], reverse[by_reverse]):
        h = np.flatnonzero(~np.isin(reverse, code))[0]
        raise MalformedRotation(f"edge {tail[h]}-{flat[h]} is not symmetric")
    # the rotation successor of the twin leaves head for the neighbor after tail
    nxt = np.empty_like(order)
    nxt[by_reverse] = order + 1
    wrap = nxt == offsets[head + 1]
    nxt[wrap] = offsets[head[wrap]]
    return _HalfEdges(offsets, tail, head, order, nxt)


def validate_three_connected(emb: PlanarEmbedding) -> bool:
    """Whether removing any two vertices leaves the graph connected.

    Requires n >= 4; a triangle counts as not 3-connected even though the
    rest of the package tolerates it as the degenerate no-interior case.
    The rotation must traverse to a sphere embedding, and the answer comes
    from its faces in O(m), by counting the 4-cycles of the vertex-face
    incidence graph (see _faces_meet_properly). A rotation of minimum
    degree 3 that is malformed raises MalformedRotation before the
    connectivity search reads it; a connected one that is not a sphere
    embedding raises EulerViolation from its faces. A simple sphere
    embedding with m = 3n - 6 edges has only triangular faces, and such a
    triangulation with n >= 4 is 3-connected, so it skips the face test.
    """
    n = emb.n
    if n < 4 or min(map(len, emb.rotation), default=0) < 3:
        return False
    emb._half_edges  # raises on a malformed rotation before the search reads it
    if not emb._connected:
        return False
    emb._face_cycles  # raises unless the rotation is a simple sphere embedding
    if emb.m == 3 * n - 6:
        return True
    return _faces_meet_properly(emb)


def _faces_meet_properly(emb: PlanarEmbedding) -> bool:
    """Whether every face is a simple cycle and no two faces share two
    vertices other than the ends of an edge that lies on both.

    With n >= 4, minimum degree 3 and a connected sphere embedding, this is
    3-connectivity: a 2-cut {u, v} lies on a closed curve through two faces
    that both hold u and v. It is one count on R, the vertex-face incidence
    graph of the (tail, face) pairs of the half-edges. When every face is a
    simple cycle, no pair occurs twice and each edge uv has two distinct
    side faces f and g, so each edge gives its own 4-cycle u-f-v-g: R has
    at least m 4-cycles. Any other is two faces sharing two vertices that
    are not the ends of an edge on both, so R has exactly m iff the faces
    meet properly. The one exception, two faces sharing three vertices, is
    the lone triangle, which validate_three_connected rejects (n < 4).

    With R's nodes ranked by decreasing degree and U keeping each node's
    edges to nodes ranked after it, W = U @ R counts the paths x-y-z with y
    ranked after x; with z after x too, a 4-cycle is two such paths from its
    first node to the opposite one, counted once (Chiba & Nishizeki 1985).
    The work, the sum over R's edges of the lower degree, is linear in m as
    R is planar, even around high-degree hubs.
    """
    if not emb._simple_faces:
        return False
    he, (cycle, bounds, face) = emb._half_edges, emb._face_cycles
    # R as CSR: vertex v's row holds the faces of its half-edges, face f's
    # row the tails along it; face f is node n + f
    indptr = np.concatenate((he.offsets, bounds[1:] + len(face)))
    indices = np.concatenate((face + emb.n, he.tail[cycle]))
    rank = np.empty_like(indptr[1:])
    rank[np.argsort(-np.diff(indptr), kind="stable")] = np.arange(len(rank))
    up = rank[indices] > np.repeat(rank, np.diff(indptr))
    shape, ones = (len(rank),) * 2, np.ones(len(indices), dtype=np.int64)
    u = csr_matrix((ones[up], indices[up], np.concatenate(([0], np.cumsum(up)))[indptr]), shape)
    w = u @ csr_matrix((ones, indices, indptr), shape)
    paths = w.data[rank[w.indices] > np.repeat(rank, np.diff(w.indptr))]
    return int((paths * (paths - 1)).sum()) == 2 * emb.m


def validate(emb: PlanarEmbedding) -> None:
    """Check every embedding invariant, raising on the first failure.

    Checks, in order: well-formed simple rotation system, connectivity,
    Euler consistency of the face traversal, the outer face being one of
    the traversed faces, and 3-connectedness (triangles pass as the
    degenerate base case).
    """
    emb._half_edges  # raises on a malformed rotation
    if not emb._connected:
        raise InvalidEmbedding("graph is disconnected")
    emb._face_cycles  # raises on an Euler violation
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
    if k == 1:
        rotation = [[u, w], [w, 0], [0, u]]
    else:
        # p_j: the next path vertex, u, the previous one, w; each end lacks one
        rotation = [[1, u, w], *([j + 1, u, j - 1, w] for j in range(1, k - 1)), [u, k - 2, w]]
        rotation += [[w, *range(k)], [*range(k - 1, -1, -1), u]]  # u: w, then the path; w: it reversed, u
    emb = PlanarEmbedding(k + 2, tuple(map(tuple, rotation)), ())
    return _with_outer_face(emb, next(f for f in emb.faces if len(f) == 3 and set(f) == {u, w, 0}))


def _with_outer_face(emb: PlanarEmbedding, outer: tuple[int, ...]) -> PlanarEmbedding:
    """emb with another outer face, keeping the checked half-edges and the
    faces: both depend only on the rotation system."""
    out = replace(emb, outer_face=outer)
    out.__dict__.update((k, emb.__dict__[k]) for k in ("_half_edges", "_face_cycles", "faces") if k in emb.__dict__)
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
    rot: Sequence[Sequence[int]], faces: dict[int, list[int]], face_of: dict[tuple[int, int], int],
    u: int, v: int,
) -> list[int] | None:
    """The face left by deleting edge uv from a 3-connected plane graph
    (faces: cycles in traversal order; face_of: the face of each directed
    edge), or None when the graph would lose 3-connectivity.

    Only that face is new, and no other two faces share two vertices but
    the ends of an edge on both (_faces_meet_properly). It is a simple
    cycle, since f1 and f2, the faces beside uv, are simple cycles sharing
    only u and v while the graph is 3-connected. So it stays 3-connected when
    each face around it shares with it at most one vertex, or exactly the
    two ends of an edge that lies on both: one side of that edge in the
    face, the other in f1 or f2."""
    f1, f2 = face_of[(u, v)], face_of[(v, u)]
    c1, c2 = faces[f1], faces[f2]
    i, j = c1.index(u), c2.index(v)
    # u, the v->u face after u, v, the u->v face after v
    merged = [u] + (c2[j:] + c2[:j])[2:] + [v] + (c1[i:] + c1[:i])[2:]
    on_merged = set(merged)
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
    strict: bool = False,
) -> PlanarEmbedding:
    """Random simple 3-connected planar embedding with n vertices, m edges.

    Grows a random triangulation by repeated vertex insertion into a
    uniformly random face, then deletes uniformly random edges until m
    remain, skipping any deletion that would drop a degree below 3 or lose
    3-connectivity, which only the merged face can show (_merged_face).
    Deterministic for a fixed seed. When deletion stalls, up to _ATTEMPTS
    fresh tries run on derived sub-seeds; if none reaches m exactly, the
    closest achieved edge count above m is returned with a logged warning,
    or GenerationStalled is raised when strict.

    Feasible range: n >= 4 and ceil(3n/2) <= m <= 3n - 6. Requests at the
    bottom of the range usually stall and return more edges: at
    m = ceil(3n/2), 71 of 90 requests (seeds 0-29, n = 10, 20, 40) missed m.
    """
    if n < 4:
        raise InfeasibleParams(f"need n >= 4, got n={n}")
    lo, hi = (3 * n + 1) // 2, 3 * n - 6
    if not lo <= m <= hi:
        raise InfeasibleParams(f"need {lo} <= m <= {hi} for n={n}, got m={m}")
    best: tuple[list[list[int]], int] | None = None
    for attempt in range(_ATTEMPTS):
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
                f"could not thin to m={m} after {_ATTEMPTS} attempts; best was {achieved}"
            )
        log.warning(
            "generation stalled: requested m=%d, returning closest achievable m=%d",
            m,
            achieved,
        )
    emb = PlanarEmbedding(n, tuple(map(tuple, rot)), ())
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
    emb = PlanarEmbedding(n, tuple(map(tuple, rotation)), tuple(outer))
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
