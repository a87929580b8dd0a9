"""Edge-length ratio, crossing detection, face convexity."""
from __future__ import annotations

import json

import numpy as np
import pytest

from stressdraw import (
    Drawing,
    OuterPolygon,
    PlanarEmbedding,
    ZeroLengthEdge,
    compute_metrics,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    metrics_json,
    regular_polygon,
    rotate_drawing,
    tutte,
)


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


def test_ratio_similarity_invariance(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    base = edge_length_ratio(d, octahedron)
    rotated = rotate_drawing(d, 1.1)
    assert abs(edge_length_ratio(rotated, octahedron) - base) < 1e-9
    moved = 3.0 * d.positions + [7.0, -2.0]
    shifted = Drawing(moved, d.polygon, d.residual)
    assert abs(edge_length_ratio(shifted, octahedron) - base) < 1e-9
