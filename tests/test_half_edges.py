"""The half-edge arrays against the loop forms they replaced.

Every view an embedding derives from its rotation (the first rotation
fault, the faces or their Euler fault, the edges, the arcs and the outer
face's position) must equal what the per-vertex loop check, the face walk,
np.unique, the lexsort and the canonical-key scan in conftest give, on
valid rotations and on rotations broken at random positions.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import flip_edges, lexsort_arcs, loop_check_rotation, scan_outer_index, unique_edge_array, walk_faces

from stressdraw import PlanarEmbedding, StressDrawError, generate_planar, graph, worst_case_graph


def _result(fn):
    """fn()'s value, or the class and message of the error it raises."""
    try:
        return fn()
    except StressDrawError as exc:
        return type(exc), str(exc)


def _outer_faces(emb: PlanarEmbedding, faces: list[tuple[int, ...]], rng: random.Random):
    """The embedding's outer face, read backwards and from another vertex,
    up to 12 of its faces as given, one of them reflected, a vertex triple
    that need not be a face, and the degenerate forms."""
    outer = emb.outer_face
    yield from (outer, outer[::-1], outer[1:] + outer[:1], (), outer[:1], outer[:2])
    yield from faces[:12]
    face = rng.choice(faces)
    yield face[::-1]
    yield tuple(rng.sample(range(emb.n), 3))


def assert_views_match(emb: PlanarEmbedding, rng: random.Random) -> None:
    fresh = PlanarEmbedding(emb.n, emb.rotation, emb.outer_face)
    fault = _result(lambda: loop_check_rotation(emb) and None)
    assert _result(lambda: graph._check_rotation(fresh) and None) == fault
    if fault is not None:
        return
    faces = _result(lambda: walk_faces(emb))
    assert _result(lambda: fresh.faces) == faces
    want = unique_edge_array(emb)
    assert fresh.edge_array.dtype == want.dtype and np.array_equal(fresh.edge_array, want)
    for got, arcs in zip(fresh._arcs, lexsort_arcs(emb)):
        assert got.dtype == arcs.dtype and np.array_equal(got, arcs)
    if isinstance(faces, tuple):
        return
    assert fresh.faces == faces
    for outer in _outer_faces(emb, faces, rng):
        other = graph._with_outer_face(fresh, outer)
        assert _result(lambda: other.outer_index) == _result(lambda: scan_outer_index(other, faces)), outer


def _mutated(emb: PlanarEmbedding, rng: random.Random) -> PlanarEmbedding:
    """emb with one to three entries broken at random positions."""
    rot = [list(r) for r in emb.rotation]
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(emb.n)
        i = rng.randrange(len(rot[v]) + 1)
        kind = rng.choice(("true", "float", "negative", "n", "huge", "loop", "repeat", "one-sided",
                           "drop", "empty", "swap"))
        if kind == "empty":
            rot[v] = []
        elif kind == "drop" and rot[v]:
            del rot[v][i % len(rot[v])]  # its neighbor still lists v
        elif kind == "swap" and len(rot[v]) > 2:
            j, k = rng.sample(range(len(rot[v])), 2)
            rot[v][j], rot[v][k] = rot[v][k], rot[v][j]
        else:
            new = {"true": True, "float": 1.5, "negative": -1, "n": emb.n, "huge": 2**70, "loop": v,
                   "repeat": rng.choice(rot[v] or [v]), "one-sided": rng.randrange(emb.n)}.get(kind)
            if new is not None:
                rot[v].insert(i, new)
    return PlanarEmbedding(emb.n, tuple(map(tuple, rot)), emb.outer_face)


def _fixtures(request):
    triangle = ((1, 2), (2, 0), (0, 1))
    # a triangle given both ways: its two faces are one cycle, read both ways
    yield from (request.getfixturevalue(name) for name in ("k4", "octahedron", "two_ring_wheel"))
    yield from (PlanarEmbedding(3, triangle, (0, 1, 2)), PlanarEmbedding(3, triangle, (0, 2, 1)))


def _generated(request):
    for n in (12, 20, 45):
        for m in (3 * n - 6, 5 * n // 2, 2 * n):
            for seed in (0, 1):
                yield generate_planar(n, m, seed)


def _nested(request):
    yield from map(worst_case_graph, (1, 2, 3, 5, 8, 31))


def _flipped(request):
    for n, seed in ((10, 1), (25, 2), (40, 3), (59, 4)):
        yield flip_edges(generate_planar(n, 3 * n - 6, seed), 4 * n, seed)


def _broken(request):
    rng = random.Random(11)
    bases = [generate_planar(12, 30, 2), generate_planar(16, 24, 3), worst_case_graph(6)]
    for _ in range(150):
        yield _mutated(rng.choice(bases), rng)


@pytest.mark.parametrize("family", [_fixtures, _generated, _nested, _flipped, _broken],
                         ids=["fixtures", "generated", "nested", "flipped", "broken"])
def test_views_match_the_loop_forms(family, request):
    """Faces in walk order and from the same vertex, edges, arcs, the outer
    face's position and the first rotation fault (class and message) equal
    the loop forms' on every population."""
    rng = random.Random(7)
    for emb in family(request):
        assert_views_match(emb, rng)
