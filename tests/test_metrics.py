"""Edge-length ratio, crossing detection, face convexity."""
from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from conftest import brute_crossing_count

from stressdraw import (
    Drawing,
    OuterPolygon,
    PlanarEmbedding,
    PreconditionError,
    ZeroLengthEdge,
    compute_metrics,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    metrics_json,
    regular_polygon,
    tutte,
    validate,
)
from stressdraw.cli import METHODS, _Context
from stressdraw.metrics import _certified_planar


def _square():
    emb = PlanarEmbedding(4, ((1, 3), (0, 2), (1, 3), (2, 0)), (0, 1, 2, 3))
    poly = OuterPolygon(
        (0, 1, 2, 3),
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)},
    )
    return emb, Drawing(np.array([poly.positions[v] for v in range(4)]), poly, 0.0)


def test_unit_square_ratio_one():
    emb, d = _square()
    assert edge_length_ratio(d, emb) == 1.0


def test_ratio_is_max_over_min():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.0, 0.0), 2: (2.5, 0.0)})
    d = Drawing(np.array([(0.0, 0.0), (2.0, 0.0), (2.5, 0.0)]), poly, 0.0)
    assert abs(edge_length_ratio(d, emb) - 4.0) < 1e-12


def test_zero_length_edge_rejected():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.0, 0.0), 2: (1.0, 0.0)})
    d = Drawing(np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]), poly, 0.0)
    with pytest.raises(ZeroLengthEdge):
        edge_length_ratio(d, emb)


def _two_segments(p1, p3):
    # two disjoint edges 0-2 and 1-3; only crossing_count sees this one
    emb = PlanarEmbedding(4, ((2,), (3,), (0,), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.0, 0.0), 2: (2.0, 0.0)})
    pos = np.array([(0.0, 0.0), p1, (2.0, 0.0), p3])
    return emb, Drawing(pos, poly, 0.0)


def test_proper_crossing_detected():
    emb, d = _two_segments((1.0, -1.0), (1.0, 1.0))
    assert crossing_count(d, emb) == 1


def test_shared_endpoint_not_a_crossing():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.0, 0.0), 2: (1.0, 0.0)})
    d = Drawing(np.array([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]), poly, 0.0)
    assert crossing_count(d, emb) == 0


def test_touching_endpoint_not_a_crossing():
    emb, d = _two_segments((1.0, 0.0), (1.0, 1.0))
    assert crossing_count(d, emb) == 0


def test_collinear_overlap_not_a_crossing():
    emb, d = _two_segments((1.0, 0.0), (3.0, 0.0))
    assert crossing_count(d, emb) == 0


def test_planar_drawing_has_no_crossings(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    assert crossing_count(d, octahedron) == 0


def test_faces_convex_square():
    emb, d = _square()
    assert faces_convex(d, emb)


def test_faces_convex_detects_dented_quad(two_ring_wheel):
    poly = regular_polygon(two_ring_wheel.outer_face)
    d = tutte(two_ring_wheel, poly)
    assert faces_convex(d, two_ring_wheel)
    # reflecting an inner-ring vertex through the hub dents a ring quad
    pos = d.positions.copy()
    hx, hy = pos[0]
    x, y = pos[1]
    pos[1] = (2 * hx - x, 2 * hy - y)
    assert not faces_convex(Drawing(pos, poly, 0.0), two_ring_wheel)


def test_octahedron_tutte_ratio_is_five(octahedron):
    """Symmetric solve puts the inner triangle at a fifth of the radius."""
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    assert abs(edge_length_ratio(d, octahedron) - 5.0) < 1e-9


def test_compute_metrics_fields(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    m = compute_metrics(d, octahedron)
    assert m.crossing_count == 0
    assert m.all_faces_convex
    assert m.min_edge_length > 0
    assert m.max_edge_length >= m.min_edge_length
    assert abs(m.edge_length_ratio - m.max_edge_length / m.min_edge_length) < 1e-12


def test_metrics_json_keys(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    data = json.loads(metrics_json(compute_metrics(d, octahedron)))
    assert set(data) == {"edge_length_ratio", "crossing_count", "all_faces_convex"}
    assert data["crossing_count"] == 0
    assert data["all_faces_convex"] is True


def _nan_interior(pos, emb):
    interior = sorted(set(range(emb.n)) - set(emb.outer_face))
    pos[interior] = np.nan
    return interior[0]


def _one_inf_vertex(pos, emb):
    v = max(set(range(emb.n)) - set(emb.outer_face))
    pos[v, 1] = np.inf
    return v


@pytest.mark.parametrize("spoil", [_nan_interior, _one_inf_vertex], ids=["nan-interior", "inf-vertex"])
@pytest.mark.parametrize("metric", [compute_metrics, edge_length_ratio, crossing_count, faces_convex])
def test_non_finite_positions_rejected(metric, spoil):
    """A drawing with a NaN or infinite coordinate has no crossing count,
    convexity or ratio; the error names the first such vertex."""
    emb = generate_planar(30, 84, 1)
    d = tutte(emb, regular_polygon(emb.outer_face))
    pos = d.positions.copy()
    v = spoil(pos, emb)
    with pytest.raises(PreconditionError, match=f"vertex {v} has non-finite position"):
        metric(Drawing(pos, d.polygon, d.residual), emb)


def test_ratio_similarity_invariance(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    base = edge_length_ratio(d, octahedron)
    c, s = math.cos(1.1), math.sin(1.1)
    rotated = Drawing(d.positions @ np.array([[c, s], [-s, c]]), d.polygon, d.residual)
    assert abs(edge_length_ratio(rotated, octahedron) - base) < 1e-9
    moved = 3.0 * d.positions + [7.0, -2.0]
    shifted = Drawing(moved, d.polygon, d.residual)
    assert abs(edge_length_ratio(shifted, octahedron) - base) < 1e-9


def _certified(d, emb) -> bool:
    """The certificate on crossing_count's unit-box coordinates."""
    pts = d.positions
    span = max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])))
    return _certified_planar((pts - pts.min(axis=0)) / span, emb)


def _method_drawings(sizes):
    """Every CLI method's drawing on generated graphs; every third graph is
    a triangulation, the only input schnyder accepts."""
    for i, n in enumerate(sizes):
        tri = i % 3 == 0
        emb = generate_planar(n, 3 * n - 6 if tri else (5 * n) // 2, seed=60 + i)
        ctx = _Context(emb, regular_polygon(emb.outer_face), r="2")
        for name, method in METHODS.items():
            if name != "schnyder" or tri:
                yield emb, method(ctx)[0]


def test_every_method_certifies_and_matches_brute():
    for emb, d in _method_drawings([12, 20, 31, 45, 64, 80]):
        assert _certified(d, emb)
        assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 0


def test_folded_drawings_match_brute():
    """Moving one interior vertex somewhere else folds most drawings; on
    the n = 130 graph the all-pairs test runs in two row blocks."""
    rng = random.Random(7)
    crossed = total = 0
    for emb, d in _method_drawings([12, 25, 130]):
        inner = sorted(set(range(emb.n)) - set(emb.outer_face))
        pos = d.positions.copy()
        pos[rng.choice(inner)] = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
        folded = Drawing(pos, d.polygon, d.residual)
        count = crossing_count(folded, emb)
        assert count == brute_crossing_count(pos, emb)
        assert count == 0 or not _certified(folded, emb)
        crossed += count > 0
        total += 1
    assert crossed > total // 2


def test_pentagram_rim_does_not_certify():
    """A wheel whose rim is drawn as a pentagram: every corner turns the same
    way, but the outer face winds twice."""
    rim = (1, 2, 3, 4, 5)
    emb = PlanarEmbedding(
        6, (rim, (0, 5, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 1)), (1, 5, 4, 3, 2)
    )
    pos = np.array([(0.0, 0.0)] + [
        (math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)
    ])
    d = Drawing(pos, OuterPolygon(rim, {v: tuple(pos[v]) for v in rim}), 0.0)
    validate(emb)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(pos, emb) == 10


@pytest.mark.parametrize("where", ["outer", "inner"])
def test_straight_angle_falls_back(where):
    """An exactly straight angle leaves a corner or fan triangle with
    orientation 0, so the count comes from the all-pairs test, unchanged."""
    emb = PlanarEmbedding(
        5, ((1, 2, 3, 4), (0, 4, 2), (0, 1, 3), (0, 2, 4), (0, 3, 1)), (1, 4, 3, 2)
    )
    pos = np.array([(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    if where == "outer":
        emb = PlanarEmbedding(
            6, ((1, 2, 3, 4, 5), (0, 5, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 1)),
            (1, 5, 4, 3, 2),
        )
        pos = np.array([(1.0, 0.5), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)])
    else:
        pos[0] = (0.5, 0.0)  # the hub lies on the rim edge 1-2
    d = Drawing(pos, regular_polygon(emb.outer_face), 0.0)
    validate(emb)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(pos, emb) == 0


@pytest.mark.parametrize("p1, p3, crossings", [
    ((1.0, -1.0), (1.0, 1.0), 1),
    ((1.0, 0.0), (1.0, 1.0), 0),
    ((1.0, 0.0), (3.0, 0.0), 0),
])
def test_two_segments_keep_their_count(p1, p3, crossings):
    """The disjoint-edges embedding does not traverse, so it never certifies."""
    emb, d = _two_segments(p1, p3)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == crossings


def test_metrics_at_n_5000():
    """15k edges: the all-pairs test would need about 11 GB; the faces
    certify the drawing in linear time."""
    emb = generate_planar(5000, 14994, seed=1)
    m = compute_metrics(tutte(emb, regular_polygon(emb.outer_face)), emb)
    assert m.crossing_count == 0
    assert m.all_faces_convex


@pytest.mark.parametrize("outer", [(0, 3, 4), (0, None, 1)], ids=["not-a-face", "non-integer"])
def test_outer_face_outside_the_traversal_falls_back(octahedron, outer):
    """crossing_count takes unvalidated embeddings: an outer face that names
    no traversed face leaves nothing to certify, and the count still comes."""
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    emb = PlanarEmbedding(octahedron.n, octahedron.rotation, outer)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 0
