"""Integer x-targets with a constructed convex frame that meets them exactly."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dict_polygon, dict_strictly_convex

from stressdraw import (
    OuterPolygon,
    PreconditionError,
    StressDrawError,
    convex_outer_placement,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    regular_polygon,
    st_orient,
    tutte,
    uniform_pipeline,
)
from stressdraw import uniform
from stressdraw.metrics import _convex_ring_turn

TARGET_RTOL = 1e-6


def _x(values: dict[int, int]) -> np.ndarray:
    """An (n,) x-array holding values[v] at each listed vertex v."""
    x = np.zeros(max(values) + 1)
    x[list(values)] = list(values.values())
    return x


def _at(poly, v: int) -> tuple[float, float]:
    return tuple(poly.positions[poly.order.index(v)].tolist())


def _strictly_convex(poly) -> bool:
    """The exact ring test agrees with the float loop it replaced."""
    verdict = _convex_ring_turn(poly.positions) != 0
    assert verdict == dict_strictly_convex(dict_polygon(poly))
    return verdict


def test_st_indices_is_permutation(octahedron):
    idx = uniform_pipeline(octahedron).orientation.rank + 1
    assert sorted(idx.tolist()) == list(range(1, 7))


def test_st_indices_deterministic(octahedron):
    a, b = uniform_pipeline(octahedron), uniform_pipeline(octahedron)
    assert np.array_equal(a.orientation.rank, b.orientation.rank)


def test_triangle_placement():
    poly = convex_outer_placement((7, 8, 9), _x({7: 1, 8: 3, 9: 2}))
    assert _at(poly, 7) == (1.0, 0.0)
    assert _at(poly, 8) == (3.0, 0.0)
    # apex centered over the base, half as high as the base is wide
    assert _at(poly, 9) == (2.0, 1.0)
    assert _strictly_convex(poly)


def test_quad_placement_two_horizontal_edges():
    poly = convex_outer_placement((0, 1, 2, 3), _x({0: 1, 1: 2, 2: 4, 3: 3}))
    pos = dict_polygon(poly).positions
    for v, want in ((0, 1.0), (1, 2.0), (2, 4.0), (3, 3.0)):
        assert pos[v][0] == float(want)
    edges = list(zip(poly.order, poly.order[1:] + poly.order[:1]))
    horizontal = [e for a, b in edges if pos[a][1] == pos[b][1] for e in [(a, b)]]
    assert len(horizontal) == 2
    assert _strictly_convex(poly)


def test_larger_placements_convex_with_x_equal_index():
    for k in (5, 6, 9):
        outer = tuple(range(k))
        poly = convex_outer_placement(outer, np.arange(1, k + 1))
        pos = dict_polygon(poly).positions
        for v in outer:
            assert pos[v][0] == float(v + 1)
        assert _strictly_convex(poly)
        edges = list(zip(poly.order, poly.order[1:] + poly.order[:1]))
        horizontal = sum(1 for a, b in edges if pos[a][1] == pos[b][1])
        assert horizontal == 2


def test_placement_rejects_non_monotone_chains():
    # walking the cycle from index 1 to index 4 passes 3 then 2
    with pytest.raises(PreconditionError):
        convex_outer_placement((0, 1, 2, 3), _x({0: 1, 1: 3, 2: 2, 3: 4}))


def test_placement_rejects_tiny_outer():
    with pytest.raises(PreconditionError):
        convex_outer_placement((0, 1), _x({0: 1, 1: 2}))


def test_placement_raises_when_the_ring_test_fails(monkeypatch):
    """The placed polygon goes through the ring test once; a verdict of 0
    raises."""
    rings = []
    monkeypatch.setattr(uniform, "_convex_ring_turn", lambda ring: rings.append(ring) or 0)
    with pytest.raises(StressDrawError, match="not strictly convex"):
        convex_outer_placement((0, 1, 2, 3), _x({0: 1, 1: 2, 2: 4, 3: 3}))
    assert len(rings) == 1 and rings[0].shape == (4, 2)


def test_pipeline_octahedron_x_are_the_indices(octahedron):
    res = uniform_pipeline(octahedron)
    tol = TARGET_RTOL * res.polygon.radius
    idx = res.orientation.rank + 1
    assert np.abs(res.drawing.positions[:, 0] - idx).max() <= tol
    xs = sorted(res.drawing.positions[:, 0].tolist())
    for i, x in enumerate(xs, start=1):
        assert abs(x - i) <= tol
    assert crossing_count(res.drawing, octahedron) == 0
    assert faces_convex(res.drawing, octahedron)
    assert _strictly_convex(res.polygon)


def test_uniform_polygons_match_dict_oracle():
    """The uniform polygon of generated graphs, seeds 0-59 with n = 20..620
    and the three densities in turn: centroid and radius equal the dict
    form's to the last bit, and the exact ring test gives the float loop's
    verdict."""
    for seed in range(60):
        n = 20 + round(seed * 600 / 59)
        emb = generate_planar(n, (3 * n - 6, 2 * n, round(2.5 * n))[seed % 3], seed=seed)
        o = st_orient(tutte(emb, regular_polygon(emb.outer_face)).positions[:, 0], emb)
        poly = convex_outer_placement(emb.outer_face, o.rank + 1.0)
        old = dict_polygon(poly)
        assert repr((poly.centroid, poly.radius)) == repr((old.centroid, old.radius))
        assert _strictly_convex(poly)


def test_ring_test_verdicts_on_other_polygons():
    """Both checks accept either orientation and reject a straight or a
    reflex corner; only the ring test rejects a pentagram, which turns the
    same way at every corner but winds twice."""
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    cases = {
        "ccw": (square, True),
        "cw": (square[::-1], True),
        "straight": ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)], False),
        "reflex": ([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 1.0), (0.0, 2.0)], False),
    }
    for name, (corners, convex) in cases.items():
        poly = OuterPolygon(tuple(range(len(corners))), np.array(corners))
        assert _strictly_convex(poly) == convex, name
    star = [(math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)]
    poly = OuterPolygon(tuple(range(5)), np.array(star))
    assert dict_strictly_convex(dict_polygon(poly))
    assert _convex_ring_turn(poly.positions) == 0


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
    assert np.array_equal(res.drawing.positions[list(res.polygon.order)], res.polygon.positions)


def test_pipeline_deterministic():
    emb = generate_planar(16, 38, seed=54)
    a = uniform_pipeline(emb)
    b = uniform_pipeline(emb)
    assert np.array_equal(a.orientation.rank, b.orientation.rank)
    assert np.array_equal(a.drawing.positions, b.drawing.positions)
