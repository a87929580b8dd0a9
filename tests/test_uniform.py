"""Integer x-targets with a constructed convex frame that meets them exactly."""
from __future__ import annotations

import numpy as np
import pytest

from stressdraw import (
    PlanarEmbedding,
    PreconditionError,
    convex_outer_placement,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    uniform_pipeline,
)

TARGET_RTOL = 1e-6


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strictly_convex(poly) -> bool:
    k = len(poly.order)
    signs = set()
    for i in range(k):
        o = poly.positions[poly.order[i]]
        a = poly.positions[poly.order[(i + 1) % k]]
        b = poly.positions[poly.order[(i + 2) % k]]
        c = _cross(o, a, b)
        if c == 0:
            return False
        signs.add(c > 0)
    return len(signs) == 1


def test_st_indices_is_permutation(octahedron):
    idx = uniform_pipeline(octahedron).indices
    assert sorted(idx) == list(range(6))
    assert sorted(idx.values()) == list(range(1, 7))


def test_st_indices_deterministic(octahedron):
    assert uniform_pipeline(octahedron).indices == uniform_pipeline(octahedron).indices


def test_triangle_placement():
    poly = convex_outer_placement((7, 8, 9), {7: 1, 8: 3, 9: 2})
    assert poly.positions[7] == (1.0, 0.0)
    assert poly.positions[8] == (3.0, 0.0)
    # apex centered over the base, half as high as the base is wide
    assert poly.positions[9] == (2.0, 1.0)
    assert _strictly_convex(poly)


def test_quad_placement_two_horizontal_edges():
    poly = convex_outer_placement((0, 1, 2, 3), {0: 1, 1: 2, 2: 4, 3: 3})
    pos = poly.positions
    for v, want in ((0, 1.0), (1, 2.0), (2, 4.0), (3, 3.0)):
        assert pos[v][0] == float(want)
    edges = list(zip(poly.order, poly.order[1:] + poly.order[:1]))
    horizontal = [e for a, b in edges if pos[a][1] == pos[b][1] for e in [(a, b)]]
    assert len(horizontal) == 2
    assert _strictly_convex(poly)


def test_larger_placements_convex_with_x_equal_index():
    for k in (5, 6, 9):
        outer = tuple(range(k))
        indices = {v: v + 1 for v in outer}
        poly = convex_outer_placement(outer, indices)
        for v in outer:
            assert poly.positions[v][0] == float(v + 1)
        assert _strictly_convex(poly)
        pos = poly.positions
        edges = list(zip(poly.order, poly.order[1:] + poly.order[:1]))
        horizontal = sum(1 for a, b in edges if pos[a][1] == pos[b][1])
        assert horizontal == 2


def test_placement_rejects_non_monotone_chains():
    # walking the cycle from index 1 to index 4 passes 3 then 2
    with pytest.raises(PreconditionError):
        convex_outer_placement((0, 1, 2, 3), {0: 1, 1: 3, 2: 2, 3: 4})


def test_placement_rejects_tiny_outer():
    with pytest.raises(PreconditionError):
        convex_outer_placement((0, 1), {0: 1, 1: 2})


def test_pipeline_octahedron_x_are_the_indices(octahedron):
    res = uniform_pipeline(octahedron)
    tol = TARGET_RTOL * res.polygon.radius
    for v, idx in res.indices.items():
        assert abs(res.drawing.positions[v][0] - idx) <= tol
    xs = sorted(res.drawing.positions[:, 0].tolist())
    for i, x in enumerate(xs, start=1):
        assert abs(x - i) <= tol
    assert crossing_count(res.drawing, octahedron) == 0
    assert faces_convex(res.drawing, octahedron)
    assert _strictly_convex(res.polygon)


def test_pipeline_on_generated_graphs():
    for n, m, seed in ((12, 27, 51), (20, 48, 52), (26, 3 * 26 - 6, 53)):
        emb = generate_planar(n, m, seed=seed)
        res = uniform_pipeline(emb)
        tol = TARGET_RTOL * res.polygon.radius
        xs = sorted(res.drawing.positions[:, 0].tolist())
        for i, x in enumerate(xs, start=1):
            assert abs(x - i) <= tol
        assert crossing_count(res.drawing, emb) == 0
        assert faces_convex(res.drawing, emb)
        # unit-ish spacing keeps the ratio modest
        assert edge_length_ratio(res.drawing, emb) <= 3 * n


def test_pipeline_outer_positions_come_from_polygon(octahedron):
    res = uniform_pipeline(octahedron)
    for v in res.polygon.order:
        assert tuple(res.drawing.positions[v].tolist()) == res.polygon.positions[v]


def test_pipeline_deterministic():
    emb = generate_planar(16, 38, seed=54)
    a = uniform_pipeline(emb)
    b = uniform_pipeline(emb)
    assert a.indices == b.indices
    assert np.array_equal(a.drawing.positions, b.drawing.positions)
