"""Embedding validation, face traversal, generators, serialization."""
from __future__ import annotations

import json

import pytest

from conftest import brute_three_connected

from stressdraw import (
    EulerViolation,
    InfeasibleParams,
    InvalidEmbedding,
    MalformedRotation,
    PlanarEmbedding,
    from_dict,
    generate_planar,
    load_graph,
    save_graph,
    to_dict,
    traverse_faces,
    validate,
    validate_three_connected,
    worst_case_graph,
)


def _face_key(face):
    # rotation-invariant but orientation-preserving key
    cyc = tuple(face.vertices) if hasattr(face, "vertices") else tuple(face)
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def test_k4_has_four_triangular_faces(k4):
    faces = traverse_faces(k4)
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)
    assert k4.n - k4.m + len(faces) == 2


def test_octahedron_faces_and_euler(octahedron):
    faces = traverse_faces(octahedron)
    assert len(faces) == 8
    assert all(len(f) == 3 for f in faces)
    assert octahedron.n - octahedron.m + len(faces) == 2
    keys = {_face_key(f) for f in faces}
    assert _face_key((0, 2, 1)) in keys or _face_key((0, 1, 2)) in keys


def test_two_ring_wheel_faces(two_ring_wheel):
    faces = traverse_faces(two_ring_wheel)
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


def test_cycle_not_three_connected():
    n = 5
    rot = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    emb = PlanarEmbedding(n, rot, tuple(range(n)))
    assert not validate_three_connected(emb)


def test_shared_edge_two_cut():
    # two tetrahedra glued along edge {0,1}: removing 0 and 1 disconnects
    emb = PlanarEmbedding(
        6,
        ((1, 2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 1, 3),
         (0, 1, 2), (0, 1, 5), (0, 1, 4)),
        (2, 0, 4),
    )
    assert not validate_three_connected(emb)


def test_three_connectivity_matches_brute_oracle(two_ring_wheel):
    cases = [two_ring_wheel]
    for i in range(8):
        n = 6 + i
        m = min(3 * n - 6, (3 * n) // 2 + i)
        cases.append(generate_planar(n, m, seed=100 + i))
    for emb in cases:
        assert validate_three_connected(emb) == brute_three_connected(emb)


def test_worst_case_shape():
    emb = worst_case_graph(10)
    assert emb.n == 12
    assert emb.m == 3 * 12 - 6
    validate(emb)
    assert validate_three_connected(emb)
    assert len(emb.outer_face) == 3
    faces = traverse_faces(emb)
    assert all(len(f) == 3 for f in faces)


def test_worst_case_small_k():
    emb = worst_case_graph(1)
    assert emb.n == 3
    validate(emb)
    with pytest.raises(InfeasibleParams):
        worst_case_graph(0)


def test_generate_deterministic():
    a = generate_planar(10, 24, seed=1)
    b = generate_planar(10, 24, seed=1)
    assert a.rotation == b.rotation
    assert a.outer_face == b.outer_face


def test_generate_triangulation_all_faces_triangles():
    emb = generate_planar(14, 3 * 14 - 6, seed=9)
    assert all(len(f) == 3 for f in traverse_faces(emb))


def test_generate_hits_requested_edge_count():
    for n, m, seed in ((20, 50, 3), (24, 60, 5), (40, 100, 11)):
        emb = generate_planar(n, m, seed=seed)
        assert emb.n == n
        assert emb.m == m
        validate(emb)
        assert validate_three_connected(emb)


def test_generate_outer_face_is_largest():
    emb = generate_planar(18, 40, seed=4)
    sizes = [len(f) for f in traverse_faces(emb)]
    assert len(emb.outer_face) == max(sizes)


def test_generate_infeasible_params():
    with pytest.raises(InfeasibleParams):
        generate_planar(8, 3 * 8 - 5, seed=0)   # above planar maximum
    with pytest.raises(InfeasibleParams):
        generate_planar(8, 11, seed=0)          # below min degree 3 total
    with pytest.raises(InfeasibleParams):
        generate_planar(3, 3, seed=0)


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
    p.write_text("not json at all")
    with pytest.raises(InvalidEmbedding):
        load_graph(p)
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InvalidEmbedding):
        load_graph(p)
    p.write_text(json.dumps({"n": 3, "rotation": "nope", "outer_face": [0, 1, 2]}))
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
