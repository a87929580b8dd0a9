"""Embedding validation, face traversal, generators, serialization."""
from __future__ import annotations

import ast
import hashlib
import json
import logging
import math
import random
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_three_connected,
    dict_faces_meet_properly,
    disjoint_paths_at_least,
    rotations_cycle_key,
    wheel,
)

import stressdraw
from stressdraw import graph
from stressdraw import (
    EulerViolation,
    GenerationStalled,
    InfeasibleParams,
    InputError,
    InvalidEmbedding,
    MalformedRotation,
    PlanarEmbedding,
    faces_convex,
    from_dict,
    generate_planar,
    load_graph,
    regular_polygon,
    save_graph,
    schnyder_depths,
    to_dict,
    tutte,
    uniform_pipeline,
    validate,
    validate_three_connected,
    worst_case_graph,
)


def _face_key(face):
    # rotation-invariant but orientation-preserving key
    cyc = tuple(face)
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def test_k4_has_four_triangular_faces(k4):
    faces = k4.faces
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)
    assert k4.n - k4.m + len(faces) == 2


def test_octahedron_faces_and_euler(octahedron):
    faces = octahedron.faces
    assert len(faces) == 8
    assert all(len(f) == 3 for f in faces)
    assert octahedron.n - octahedron.m + len(faces) == 2
    keys = {_face_key(f) for f in faces}
    assert _face_key((0, 2, 1)) in keys or _face_key((0, 1, 2)) in keys


def test_two_ring_wheel_faces(two_ring_wheel):
    faces = two_ring_wheel.faces
    assert sorted(len(f) for f in faces) == [3, 3, 3, 3, 4, 4, 4, 4, 4]
    assert two_ring_wheel.n - two_ring_wheel.m + len(faces) == 2


def test_validate_accepts_fixtures(k4, octahedron, two_ring_wheel):
    for emb in (k4, octahedron, two_ring_wheel):
        validate(emb)


def test_validate_accepts_reflected_outer_face(octahedron):
    """The outer cycle may be given in either traversal direction."""
    mirrored = PlanarEmbedding(octahedron.n, octahedron.rotation, (0, 1, 2))
    validate(mirrored)


def test_k5_rotation_violates_euler():
    # K5 with an arbitrary rotation: n=5 m=10 forces f=7 for planarity,
    # but face traversal of this system closes after too few faces.
    rot = tuple(tuple(u for u in range(5) if u != v) for v in range(5))
    emb = PlanarEmbedding(5, rot, (0, 1, 2, 3, 4))
    with pytest.raises(EulerViolation):
        validate(emb)


def test_asymmetric_rotation_rejected():
    emb = PlanarEmbedding(3, ((1, 2), (2,), (0, 1)), (0, 1, 2))
    with pytest.raises(MalformedRotation):
        validate(emb)


def test_self_loop_rejected():
    emb = PlanarEmbedding(3, ((1, 2, 0), (2, 0), (0, 1)), (0, 1, 2))
    with pytest.raises(MalformedRotation):
        validate(emb)


def test_duplicate_neighbor_rejected():
    emb = PlanarEmbedding(3, ((1, 2, 1), (2, 0), (0, 1)), (0, 1, 2))
    with pytest.raises(MalformedRotation):
        validate(emb)


def test_out_of_range_neighbor_rejected():
    emb = PlanarEmbedding(3, ((1, 5), (2, 0), (0, 1)), (0, 1, 2))
    with pytest.raises(MalformedRotation):
        validate(emb)


def test_outer_face_must_be_a_face(octahedron):
    emb = PlanarEmbedding(octahedron.n, octahedron.rotation, (0, 3, 4))
    with pytest.raises(InvalidEmbedding):
        validate(emb)


def test_three_connected_positive(k4, octahedron, two_ring_wheel):
    assert validate_three_connected(k4)
    assert validate_three_connected(octahedron)
    assert validate_three_connected(two_ring_wheel)


def test_validate_searches_connectivity_once(monkeypatch):
    """validate and the 3-connectivity test it runs share one search per
    embedding; two disjoint tetrahedra keep the disconnected message."""
    searches = []
    search = graph.connected_components
    monkeypatch.setattr(graph, "connected_components", lambda *a, **k: searches.append(a) or search(*a, **k))
    emb = generate_planar(30, 70, seed=3)
    searches.clear()
    fresh = PlanarEmbedding(emb.n, emb.rotation, emb.outer_face)
    validate(fresh)
    assert validate_three_connected(fresh)
    assert len(searches) == 1
    tet = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
    two = PlanarEmbedding(8, tet + tuple(tuple(w + 4 for w in r) for r in tet), (0, 2, 1))
    with pytest.raises(InvalidEmbedding, match="^graph is disconnected$"):
        validate(two)
    assert not validate_three_connected(two)
    assert len(searches) == 2


def test_triangulations_skip_the_face_test(monkeypatch):
    """A simple sphere embedding with m = 3n - 6 is a triangulation, hence
    3-connected: the face test runs only on sparser graphs."""
    tests = []
    meet = graph._faces_meet_properly
    cases = [generate_planar(n, 3 * n - 6, seed=n) for n in (4, 12, 40)]
    cases += [worst_case_graph(k) for k in (2, 5, 30)]
    sparse = generate_planar(20, 45, seed=7)
    monkeypatch.setattr(graph, "_faces_meet_properly", lambda emb: tests.append(1) or meet(emb))
    for emb in cases:
        assert emb.m == 3 * emb.n - 6
        assert validate_three_connected(PlanarEmbedding(emb.n, emb.rotation, emb.outer_face))
    assert tests == []
    assert validate_three_connected(PlanarEmbedding(sparse.n, sparse.rotation, sparse.outer_face))
    assert tests == [1]
    # the octahedron's edges under a rotation that is no sphere embedding
    twisted = ((1, 3, 5, 2), (2, 4, 3, 0), (0, 5, 4, 1), (0, 5, 1, 4), (5, 3, 1, 2), (0, 3, 4, 2))
    with pytest.raises(EulerViolation, match=r"^n=6 m=12 f=6 violates"):
        validate_three_connected(PlanarEmbedding(6, twisted, (0, 2, 1)))


def test_cycle_not_three_connected():
    n = 5
    rot = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    emb = PlanarEmbedding(n, rot, tuple(range(n)))
    assert not validate_three_connected(emb)
    # no rotation at all: minimum degree 0, not an error from min()
    assert not validate_three_connected(PlanarEmbedding(n, (), tuple(range(n))))


def test_shared_edge_two_cut():
    # two tetrahedra glued along edge {0,1}: removing 0 and 1 disconnects.
    # Drawn with one tetrahedron above the edge and one below, the outer
    # face 0-2-1-4 meets the inner face 0-3-1 in 0 and 1, and edge 0-1
    # lies on neither of them.
    points = [(0, 0), (4, 0), (2, 3), (2, 1), (2, -3), (2, -1)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    emb = _plane(points, edges)
    assert (emb.n, emb.m, len(emb.faces)) == (6, 11, 7)
    assert not brute_three_connected(emb)
    assert not graph._faces_meet_properly(emb)
    assert not validate_three_connected(emb)
    # the same graph under a rotation that traces a single face is not a
    # sphere embedding, so there are no faces to decide from
    glued = PlanarEmbedding(
        6,
        ((1, 2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 1, 3),
         (0, 1, 2), (0, 1, 5), (0, 1, 4)),
        (2, 0, 4),
    )
    with pytest.raises(EulerViolation, match=r"^n=6 m=11 f=1 violates"):
        validate_three_connected(glued)


def test_three_connectivity_matches_brute_oracle(two_ring_wheel):
    cases = [two_ring_wheel]
    for i in range(8):
        n = 6 + i
        m = min(3 * n - 6, (3 * n) // 2 + i)
        cases.append(generate_planar(n, m, seed=100 + i))
    # edge deletions that keep every degree at least 3: six of ten leave a 2-cut
    thinned = [_thinned_triangulation(10 + i, 300 + i, 0.4, keep_degree=True) for i in range(10)]
    assert sum(map(brute_three_connected, thinned)) == 4
    cases += thinned + [wheel(k) for k in range(3, 12)] + [worst_case_graph(k) for k in (2, 3, 5, 17, 40)]
    for emb in cases:
        truth = brute_three_connected(emb)
        assert _nx_three_connected(emb) == truth
        _assert_verdicts(emb, truth)


def _nx_three_connected(emb: PlanarEmbedding) -> bool:
    g = nx.Graph(emb.edge_array.tolist())
    g.add_nodes_from(range(emb.n))
    return nx.node_connectivity(g) >= 3


def _assert_verdicts(emb: PlanarEmbedding, truth: bool) -> None:
    """validate_three_connected gives truth, and so do the face test's
    4-cycle count and its dict oracle wherever they decide 3-connectivity,
    on connected embeddings of minimum degree 3, triangulations included."""
    assert validate_three_connected(emb) == truth
    if min(map(len, emb.rotation)) >= 3 and emb._connected:
        assert graph._faces_meet_properly(emb) == dict_faces_meet_properly(emb.faces) == truth


def _thinned_triangulation(n: int, seed: int, share: float, keep_degree: bool) -> PlanarEmbedding:
    """A random triangulation less a random share of its edges, deleted
    without checking 3-connectivity. With keep_degree, deletions that would
    leave a vertex of degree below 3 are skipped, so about half the graphs
    fail only through a 2-cut; without, most fail through a low degree."""
    tri = generate_planar(n, 3 * n - 6, seed=seed)
    rot = [list(r) for r in tri.rotation]
    edges = tri.edge_array.tolist()
    random.Random(seed).shuffle(edges)
    for u, v in edges[: int(share * len(edges))]:
        if keep_degree and min(len(rot[u]), len(rot[v])) <= 3:
            continue
        rot[u].remove(v)
        rot[v].remove(u)
    return PlanarEmbedding(n, tuple(map(tuple, rot)), ())


@given(n=st.integers(4, 11), seed=st.integers(0, 10**6), share=st.floats(0.0, 0.5),
       keep_degree=st.booleans())
def test_three_connectivity_matches_brute_on_thinned_triangulations(n, seed, share, keep_degree):
    emb = _thinned_triangulation(n, seed, share, keep_degree)
    _assert_verdicts(emb, brute_three_connected(emb))


@given(n=st.integers(12, 40), seed=st.integers(0, 10**6), share=st.floats(0.0, 0.5))
def test_three_connectivity_matches_networkx(n, seed, share):
    emb = _thinned_triangulation(n, seed, share, keep_degree=True)
    _assert_verdicts(emb, _nx_three_connected(emb))


def _plane(points, edges, outer=()) -> PlanarEmbedding:
    """The embedding of a straight-line drawing: neighbors sorted by angle."""
    nbrs: list[list[int]] = [[] for _ in points]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def angle(v, w):
        return math.atan2(points[w][1] - points[v][1], points[w][0] - points[v][0])

    rot = tuple(tuple(sorted(ws, key=lambda w: angle(v, w))) for v, ws in enumerate(nbrs))
    return PlanarEmbedding(len(points), rot, outer)


def _three_lobes() -> PlanarEmbedding:
    """Hubs 0, 1, 2 joined pairwise by a lobe p-q (a 4-cycle with chord):
    the outer and the inner 6-face share all three hubs."""
    hub = [(2 * math.cos(a), 2 * math.sin(a)) for a in (math.pi / 2, 7 * math.pi / 6, -math.pi / 6)]
    mid = (5 * math.pi / 6, 3 * math.pi / 2, math.pi / 6)
    points = hub + [(2.5 * math.cos(a), 2.5 * math.sin(a)) for a in mid] + [
        (math.cos(a), math.sin(a)) for a in mid]
    edges = []
    for k in range(3):
        u, v, p, q = k, (k + 1) % 3, 3 + k, 6 + k
        edges += [(u, p), (p, v), (u, q), (q, v), (p, q)]
    return _plane(points, edges)


def _two_k4(bridge: bool) -> PlanarEmbedding:
    """Two tetrahedra sharing vertex 0, or joined by the bridge 0-4."""
    left = [(0.0, 0.0), (-2.0, 1.0), (-2.0, -1.0), (-1.4, 0.0)]
    right = [(1.0, 0.0), (3.0, 1.0), (3.0, -1.0), (2.4, 0.0)]
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if bridge:
        edges = k4 + [(u + 4, v + 4) for u, v in k4] + [(0, 4)]
        return _plane(left + right, edges)
    shift = {0: 0, 1: 4, 2: 5, 3: 6}
    return _plane(left + right[1:], k4 + [(shift[u], shift[v]) for u, v in k4])


@pytest.mark.parametrize("build", [_three_lobes, lambda: _two_k4(True), lambda: _two_k4(False)],
                         ids=["faces-share-three", "bridge", "cut-vertex"])
def test_two_cut_sphere_embeddings_not_three_connected(build):
    """Minimum degree 3, connected, Euler-consistent, yet not 3-connected:
    decided from the faces alone."""
    emb = build()
    assert min(map(len, emb.rotation)) >= 3
    emb.faces  # a sphere embedding
    assert not brute_three_connected(emb)
    assert not validate_three_connected(emb)


def test_validate_is_linear_around_hubs():
    """Two apexes of degree 2001: face-based 3-connectivity and the
    position-map rotation check keep validate far from quadratic."""
    hub = worst_case_graph(2000)
    emb = PlanarEmbedding(hub.n, hub.rotation, hub.outer_face)
    start = time.perf_counter()
    validate(emb)
    assert validate_three_connected(emb)
    assert time.perf_counter() - start < 1.0


def test_schnyder_depths_is_linear_around_hubs():
    """Two apexes of degree 2001: the peel keeps a chord count per ring
    vertex instead of rescanning the ring at every step."""
    hub = worst_case_graph(2000)
    start = time.perf_counter()
    schnyder_depths(hub)
    assert time.perf_counter() - start < 1.0


def test_validate_and_uniform_are_linear_on_a_wheel():
    """A rim of 4000 vertices as the outer face: its cycle key tries only
    the rotations from its least vertex, and the placement compares only
    the horizontal edge pairs that balance the caps."""
    emb = wheel(4000)
    start = time.perf_counter()
    validate(emb)
    uniform_pipeline(emb)
    assert time.perf_counter() - start < 1.0


def test_cycle_key_matches_all_rotations():
    """The least rotation from the least element's occurrences equals the
    least of all 2L rotations, with distinct and with repeated elements."""
    rng = random.Random(5)
    for _ in range(3000):
        size = rng.randrange(1, 12)
        if rng.random() < 0.5:
            seq = tuple(rng.sample(range(40), size))
        else:
            seq = tuple(rng.randrange(rng.choice((1, 2, 3))) for _ in range(size))
        assert graph._cycle_key(seq) == rotations_cycle_key(seq), seq


def test_empty_outer_face_matches_no_face(octahedron):
    """An empty outer face keys to (), which no face has, so looking it up
    raises InvalidEmbedding, with or without assertions enabled."""
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    emb = PlanarEmbedding(octahedron.n, octahedron.rotation, ())
    assert graph._cycle_key(()) == ()
    with pytest.raises(InvalidEmbedding, match="^outer face is not a face of the embedding$"):
        emb.outer_index
    with pytest.raises(InvalidEmbedding, match="^outer face is not a face of the embedding$"):
        faces_convex(d, emb)


@pytest.mark.parametrize("rotation, message", [
    (((1, 2, 3), (0, 3, 2), (0, 1, 3)), "rotation table length differs from n"),
    (((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 7)), "vertex 3 lists invalid neighbor 7"),
    (((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1.5)), "vertex 3 lists invalid neighbor 1.5"),
    (((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, -1)), "vertex 3 lists invalid neighbor -1"),
], ids=["short", "too-large", "float", "negative"])
def test_three_connectivity_rejects_a_malformed_rotation(rotation, message):
    """The rotation is checked before the connectivity search reads it:
    no bare IndexError or TypeError, and no answer through negative
    indexing."""
    with pytest.raises(MalformedRotation, match=f"^{message}$"):
        validate_three_connected(PlanarEmbedding(4, rotation, (0, 2, 1)))


def test_validate_checks_rotation_once(monkeypatch, octahedron):
    calls = []
    check = graph._check_rotation
    monkeypatch.setattr(graph, "_check_rotation", lambda emb: calls.append(emb) or check(emb))
    validate(PlanarEmbedding(octahedron.n, octahedron.rotation, octahedron.outer_face))
    assert len(calls) == 1


@pytest.mark.parametrize("rotation, message", [
    (((1, 2), (2,), (0, 1, 1)), "parallel edge 2-1"),
    (((1, 2), (2, 0), (0,)), "edge 1-2 is not symmetric"),
    (((1, 2, 0), (2, 0, 0), (0, 1)), "self-loop at vertex 0"),
    (((1, 7), (2, 0, 2), (0, 1)), "vertex 0 lists invalid neighbor 7"),
    (((), (2,), (1,)), "vertex 0 has no neighbors"),
    (((1, 2), (0, 2), (0, 1), (0,)), "edge 3-0 is not symmetric"),
])
def test_rotation_errors_keep_their_order(rotation, message):
    """Per-vertex faults are reported vertex by vertex before any asymmetry."""
    with pytest.raises(MalformedRotation, match=f"^{message}$"):
        validate(PlanarEmbedding(len(rotation), rotation, (0, 1, 2)))


def test_worst_case_shape():
    emb = worst_case_graph(10)
    assert emb.n == 12
    assert emb.m == 3 * 12 - 6
    validate(emb)
    assert validate_three_connected(emb)
    assert len(emb.outer_face) == 3
    faces = emb.faces
    assert all(len(f) == 3 for f in faces)


def test_worst_case_small_k():
    emb = worst_case_graph(1)
    assert emb.n == 3
    validate(emb)
    # a triangle: a cycle, so not 3-connected
    assert not validate_three_connected(emb)
    with pytest.raises(InfeasibleParams):
        worst_case_graph(0)


def test_generate_deterministic():
    a = generate_planar(10, 24, seed=1)
    b = generate_planar(10, 24, seed=1)
    assert a.rotation == b.rotation
    assert a.outer_face == b.outer_face


def test_generate_triangulation_all_faces_triangles():
    emb = generate_planar(14, 3 * 14 - 6, seed=9)
    assert all(len(f) == 3 for f in emb.faces)


def test_generate_hits_requested_edge_count():
    for n, m, seed in ((20, 50, 3), (24, 60, 5), (40, 100, 11)):
        emb = generate_planar(n, m, seed=seed)
        assert emb.n == n
        assert emb.m == m
        validate(emb)
        assert validate_three_connected(emb)


def test_generate_outer_face_is_largest():
    emb = generate_planar(18, 40, seed=4)
    sizes = [len(f) for f in emb.faces]
    assert len(emb.outer_face) == max(sizes)


def test_generate_infeasible_params():
    with pytest.raises(InfeasibleParams):
        generate_planar(8, 3 * 8 - 5, seed=0)   # above planar maximum
    with pytest.raises(InfeasibleParams):
        generate_planar(8, 11, seed=0)          # below min degree 3 total
    with pytest.raises(InfeasibleParams):
        generate_planar(3, 3, seed=0)


# sha256 of json.dumps(to_dict(generate_planar(n, m, seed))), computed with the
# max-flow thinning that the face test replaced; (20, 30, 0) stalls at m = 33
GOLDEN = {
    (10, 24, 1): "b2986dc388b5ca5da6416b0c8a10975cbba8fcd6972cfc427dcd05e84b1edd42",
    (14, 36, 9): "f4fbbefec23513744f48d4d5ead12e93dff1787cad0c2754980623f6c04f7765",
    (20, 30, 0): "711e3a3f6a839f142c3855228d5378788ca98e50c254933ad32fd82f763005b9",
    (40, 100, 7): "eec06418193d6d5c172bb30a7ddb9a559ba4fa85fe9a909423a880d3af02e90e",
    (60, 120, 3): "8ac57e24c574e780afbc0f017e0f985124922bae96770f06f24b8399ab053283",
    (300, 750, 1): "09166f32c60b59de24e631921f1d03532316d800ad7766c7bedd7ba21e952700",
}


@pytest.mark.parametrize("n, m, seed", GOLDEN)
def test_generate_matches_golden_hash(n, m, seed):
    emb = generate_planar(n, m, seed=seed)
    digest = hashlib.sha256(json.dumps(to_dict(emb)).encode()).hexdigest()
    assert digest == GOLDEN[(n, m, seed)]


def test_generate_stall_returns_closest_and_logs(caplog):
    with caplog.at_level(logging.WARNING, logger="stressdraw.graph"):
        emb = generate_planar(20, 30, seed=0)
    assert emb.m == 33
    assert "generation stalled" in caplog.text
    validate(emb)


def test_generate_strict_stall_raises():
    with pytest.raises(GenerationStalled, match="after 8 attempts; best was 33"):
        generate_planar(20, 30, seed=0, strict=True)


def _thinning_population():
    """(n, m, seed) for n = 5..40 over the feasible m range, ends included."""
    for n in (5, 8, 13, 21, 40):
        lo, hi = (3 * n + 1) // 2, 3 * n - 6
        for m in (lo, (lo + hi) // 2, hi):
            for seed in range(3):
                yield n, m, seed


def test_thinning_decision_matches_disjoint_paths_oracle():
    """Deleting an edge whose ends keep degree >= 3 is accepted by the
    merged-face test exactly when its ends still have three internally
    disjoint paths, and an accepted merged face is a face of the thinned
    graph. Every such edge of graphs across the feasible m range is tried,
    stalled requests at m = ceil(3n/2) among them."""
    outcomes = []
    for n, m, seed in _thinning_population():
        emb = generate_planar(n, m, seed=seed)
        faces = {i: list(f) for i, f in enumerate(emb.faces)}
        face_of = {(f[j - 1], v): i for i, f in faces.items() for j, v in enumerate(f)}
        adj = [set(r) for r in emb.rotation]
        for u, v in emb.edge_array.tolist():
            if min(len(adj[u]), len(adj[v])) <= 3:
                continue
            merged = graph._merged_face(emb.rotation, faces, face_of, u, v)
            adj[u].remove(v)
            adj[v].remove(u)
            assert (merged is not None) == disjoint_paths_at_least(adj, u, v, 3), (n, m, seed, u, v)
            if merged is not None:
                rotation = tuple(tuple(w for w in r if w in a) for r, a in zip(emb.rotation, adj))
                keys = {graph._cycle_key(f) for f in PlanarEmbedding(n, rotation, ()).faces}
                assert graph._cycle_key(tuple(merged)) in keys
            adj[u].add(v)
            adj[v].add(u)
            outcomes.append(merged is not None)
    assert 0 < outcomes.count(False) < outcomes.count(True)


def test_json_roundtrip(octahedron, tmp_path):
    d = to_dict(octahedron)
    back = from_dict(d)
    assert back.rotation == octahedron.rotation
    assert back.outer_face == octahedron.outer_face
    path = tmp_path / "oct.json"
    save_graph(octahedron, path)
    again = load_graph(path)
    assert again.rotation == octahedron.rotation
    assert again.outer_face == octahedron.outer_face


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all", encoding="utf-8")
    with pytest.raises(InvalidEmbedding):
        load_graph(p)
    p.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(InvalidEmbedding):
        load_graph(p)
    p.write_text(json.dumps({"n": 3, "rotation": "nope", "outer_face": [0, 1, 2]}), encoding="utf-8")
    with pytest.raises(InvalidEmbedding):
        load_graph(p)


def _k4_json(rotation0=None, outer=None):
    data = {"n": 4, "rotation": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
            "outer_face": [0, 2, 1]}
    if rotation0 is not None:
        data["rotation"][0] = rotation0
    if outer is not None:
        data["outer_face"] = outer
    return data


@pytest.mark.parametrize("data, error", [
    (_k4_json(rotation0=[True, 2, 3]), MalformedRotation),
    (_k4_json(rotation0=[1.0, 2, 3]), MalformedRotation),
    (_k4_json(outer=[0, 2.0, 1]), InvalidEmbedding),
    (_k4_json(outer=[False, 2, 1]), InvalidEmbedding),
    (_k4_json(outer=[0, "x", 1]), InvalidEmbedding),
    (_k4_json(outer=[0, None, 1]), InvalidEmbedding),
    (_k4_json(outer=[0, [2], 1]), InvalidEmbedding),
], ids=["rotation-true", "rotation-float", "outer-float", "outer-false",
        "outer-string", "outer-null", "outer-list"])
def test_from_dict_rejects_non_integer_ids(data, error):
    """JSON booleans, floats and other non-integers are not vertex ids,
    although true == 1 and 2.0 == 2 in Python."""
    from_dict(_k4_json())
    with pytest.raises(error):
        from_dict(data)


def _glued_tetrahedra_json() -> dict:
    """The two tetrahedra glued along edge {0, 1} of
    test_shared_edge_two_cut, a sphere embedding, with outer face 0-2-1-4."""
    points = [(0, 0), (4, 0), (2, 3), (2, 1), (2, -3), (2, -1)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    emb = _plane(points, edges)
    outer = next(f for f in emb.faces if sorted(f) == [0, 1, 2, 4])
    return to_dict(PlanarEmbedding(emb.n, emb.rotation, outer))


@pytest.mark.parametrize("data, error, message", [
    (_k4_json(outer=[0, 2]), InvalidEmbedding, "outer face has 2 vertices"),
    (_k4_json(outer=[0, 2, 0]), InvalidEmbedding, "outer face repeats a vertex"),
    (_glued_tetrahedra_json(), InvalidEmbedding, "graph is not 3-connected"),
    ({"n": 2, "rotation": [[1], [0]], "outer_face": [0, 1]}, MalformedRotation,
     "need at least 3 vertices, got 2"),
    (_k4_json(outer="021"), InvalidEmbedding, "outer_face must be a list"),
], ids=["two-vertices", "repeat", "two-cut", "n-2", "outer-string"])
def test_from_dict_names_the_failed_invariant(data, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        from_dict(data)


def _networkx_rotation(emb: PlanarEmbedding) -> tuple[tuple[int, ...], ...]:
    """The rotation of emb's graph in the embedding nx.check_planarity
    finds: each vertex's neighbours counterclockwise."""
    planar, found = nx.check_planarity(nx.Graph(emb.edge_array.tolist()))
    assert planar
    return tuple(tuple(list(found.neighbors_cw_order(v))[::-1]) for v in range(emb.n))


def _any_outer_face(n: int, rotation) -> PlanarEmbedding:
    return PlanarEmbedding(n, rotation, PlanarEmbedding(n, rotation, ()).faces[0])


def test_validate_agrees_with_networkx_planarity():
    """networkx's embedding of a generated graph, and its mirror, validate
    with any traversed face outside. A 3-connected planar graph has one
    embedding up to mirror (Whitney), so swapping two neighbours in one
    vertex's rotation raises an InputError: 40 graphs, 20 swaps each."""
    rng = random.Random(12)
    for seed in range(40):
        n = rng.randrange(12, 40)
        emb = generate_planar(n, (3 * n - 6, round(2.5 * n))[seed % 2], seed=seed)
        rotation = _networkx_rotation(emb)
        for rot in (rotation, tuple(nbrs[::-1] for nbrs in rotation)):
            validate(_any_outer_face(n, rot))
        for _ in range(20):
            v = rng.randrange(n)
            nbrs = list(rotation[v])
            i, j = rng.sample(range(len(nbrs)), 2)
            nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
            swapped = rotation[:v] + (tuple(nbrs),) + rotation[v + 1:]
            with pytest.raises(InputError):
                validate(PlanarEmbedding(n, swapped, emb.outer_face))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

MUTATED_BASE = json.dumps(to_dict(generate_planar(9, 20, seed=1)))


def _slots(doc):
    """(container, key) for every value nested in doc, doc itself excluded."""
    if isinstance(doc, (dict, list)):
        for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield doc, key
            yield from _slots(value)


@given(data=st.data())
def test_mutated_graph_json_raises_only_input_errors(data):
    """A valid graph's JSON after one to four random edits (a value
    replaced, deleted or inserted, or two list entries swapped) loads or
    raises an InputError subclass, never any other exception."""
    doc = json.loads(MUTATED_BASE)
    for _ in range(data.draw(st.integers(1, 4))):
        slots = list(_slots(doc))
        edit = data.draw(st.sampled_from(["replace", "delete", "insert", "swap"]))
        if not slots:
            doc = data.draw(JSON_VALUES)
            continue
        container, key = data.draw(st.sampled_from(slots))
        if edit == "delete":
            del container[key]
        elif edit == "insert" and isinstance(container, list):
            container.insert(key, data.draw(JSON_VALUES))
        elif edit == "swap" and isinstance(container, list):
            other = data.draw(st.integers(0, len(container) - 1))
            container[key], container[other] = container[other], container[key]
        else:
            container[key] = data.draw(JSON_VALUES)
    try:
        from_dict(doc)
    except InputError:
        pass


def test_the_graph_module_imports_no_solver_machinery():
    """graph.py holds the embedding only: past the standard library it
    imports numpy, the two sparse tools its checks use and its own errors,
    and the solver's system (its pattern, splu, csc_matrix, SPD_LU,
    SingularSystem) lives in solver.py. PlanarEmbedding lists its edges
    once, as edge_array."""
    tree = ast.parse(Path(graph.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
    outside = {module: names for module, names in imported.items()
               if module.startswith(".") or module.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {
        "numpy": set(),
        "scipy.sparse": {"csr_matrix"},
        "scipy.sparse.csgraph": {"connected_components"},
        ".errors": {"EulerViolation", "GenerationStalled", "InfeasibleParams", "InvalidEmbedding",
                    "MalformedRotation"},
    }
    for name in ("SPD_LU", "_LaplacianPattern", "_build_laplacian_pattern", "_csc_layout", "Edge"):
        assert not hasattr(graph, name), name
    assert not hasattr(PlanarEmbedding, "edges")
    assert not {"Edge", "edge_key"} & set(stressdraw.__all__)
