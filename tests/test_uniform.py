"""Integer x-targets with a constructed convex frame that meets them exactly."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import dict_polygon, dict_strictly_convex, pair_scan_placement

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
NOT_MONOTONE = (
    "outer chain x-coordinates must increase strictly; "
    "x does not come from a convex-position drawing"
)


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
    idx = uniform_pipeline(octahedron).targets
    assert sorted(idx.tolist()) == list(range(1, 7))


def test_st_indices_deterministic(octahedron):
    a, b = uniform_pipeline(octahedron), uniform_pipeline(octahedron)
    assert np.array_equal(a.targets, b.targets)


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


def _outcome(place, outer, x):
    try:
        poly = place(outer, x)
    except StressDrawError as exc:
        return type(exc), str(exc)
    return poly.order, poly.positions.tobytes()


def _convex_position(k: int, values: list, rng: random.Random) -> list:
    """values on a cycle of k that splits into two x-monotone chains."""
    lo, *mid, hi = sorted(values)
    upper = sorted(rng.sample(mid, rng.randrange(len(mid) + 1)))
    lower = sorted(set(mid) - set(upper), reverse=True)
    cyc = [lo, *upper, hi, *lower]
    shift = rng.randrange(k)
    return cyc[shift:] + cyc[:shift]


def test_placement_matches_pair_scan_oracle():
    """Against the dict form that scored every horizontal edge pair: the
    same polygon to the last bit, or the same error, on cycles of 3 to 40
    with convex-position integer ranks, convex-position reals, ties among
    a few integers, and random reals, the ids scattered over 0..k+3.
    Three equal x raise the chain check's PreconditionError, where the
    dicts lost a vertex and raised KeyError."""
    rng = random.Random(3)
    for case in range(2000):
        k = rng.randrange(3, 41)
        values = (
            _convex_position(k, rng.sample(range(1, 3 * k), k), rng),
            _convex_position(k, [rng.uniform(-1e3, 1e3) for _ in range(k)], rng),
            [rng.randrange(4) for _ in range(k)],
            [rng.uniform(-5.0, 5.0) for _ in range(k)],
        )[case % 4]
        outer = tuple(rng.sample(range(k + rng.randrange(4)), k))
        x = np.zeros(max(outer) + 1)
        x[list(outer)] = values
        got = _outcome(convex_outer_placement, outer, x)
        if k == 3 and len(set(values)) == 1:
            assert got == (PreconditionError, NOT_MONOTONE)
            continue
        assert got == _outcome(pair_scan_placement, outer, x), (outer, values)


@pytest.mark.parametrize("outer, x, error, message", [
    ((0, 1, 2), [1.0, math.nan, 2.0], PreconditionError, "outer vertex 1 has non-finite x nan"),
    ((0, 1, 2, 3), [1.0, 2.0, math.inf, 3.0], PreconditionError, "outer vertex 2 has non-finite x inf"),
    ((0, 1, 2, 3), [-math.inf] * 4, PreconditionError, "outer vertex 0 has non-finite x -inf"),
    ((0, 1, 5), [1.0, 2.0, 3.0], PreconditionError, "x has 3 entries, none for outer vertex 5"),
    ((0, 1, -1), [1.0, 2.0, 3.0], PreconditionError, "x has 3 entries, none for outer vertex -1"),
    ((0, 1, 0, 2), [1.0, 2.0, 3.0], PreconditionError, r"outer cycle \[0, 1, 0, 2\] repeats a vertex"),
    ((0, 1, 2), [2.0, 2.0, 2.0], PreconditionError, NOT_MONOTONE),
    ((0, 1, 2, 3), [2.0] * 4, PreconditionError, NOT_MONOTONE),
    ((4, 0, 3, 1, 2), [-1.5] * 5, PreconditionError, NOT_MONOTONE),
    (tuple(range(7)), [0.0] * 7, PreconditionError, NOT_MONOTONE),
    ((0, 1, 2, 3), [1.0, 3.0, 2.0, 4.0], PreconditionError, NOT_MONOTONE),
], ids=["nan", "inf", "minus-inf", "short-x", "negative-id", "repeat",
        "three-equal", "four-equal", "five-equal", "seven-equal", "zigzag"])
def test_placement_rejects_x_it_cannot_place(outer, x, error, message):
    """Bad x raises the package's own errors, with plain float reprs."""
    with pytest.raises(error, match=f"^{message}$") as info:
        convex_outer_placement(outer, np.array(x))
    assert type(info.value) is error


@pytest.mark.parametrize("outer, x", [
    ((0, 1, 2, 3), [1.0, 2.0, 4.0, 3.0]),
    ((0, 1, 2), [1.0, 3.0, 2.0]),
    ((4, 0, 3, 1, 2), [1.0, 5.0, 4.0, 2.0, 3.0]),
], ids=["quad", "triangle", "pentagon"])
def test_placement_is_scale_free(outer, x):
    """x times 2**s places as x does, times 2**s to the last bit, for every
    s in -600..600: the ring test runs on the polygon scaled to a unit box,
    so its products neither overflow nor underflow."""
    x = np.array(x)
    base = convex_outer_placement(outer, x).positions
    for s in range(-600, 601):
        poly = convex_outer_placement(outer, np.ldexp(x, s))
        assert poly.positions.tobytes() == np.ldexp(base, s).tobytes(), s


def test_pipeline_octahedron_x_are_the_indices(octahedron):
    res = uniform_pipeline(octahedron)
    tol = TARGET_RTOL * res.drawing.polygon.radius
    idx = res.targets
    assert np.abs(res.drawing.positions[:, 0] - idx).max() <= tol
    xs = sorted(res.drawing.positions[:, 0].tolist())
    for i, x in enumerate(xs, start=1):
        assert abs(x - i) <= tol
    assert crossing_count(res.drawing, octahedron) == 0
    assert faces_convex(res.drawing, octahedron)
    assert _strictly_convex(res.drawing.polygon)


def test_uniform_polygons_match_dict_oracle():
    """The uniform polygon of generated graphs, seeds 0-59 with n = 20..620
    and the three densities in turn: centroid and radius equal the dict
    form's to the last bit, and the exact ring test gives the float loop's
    verdict."""
    for seed in range(60):
        n = 20 + round(seed * 600 / 59)
        emb = generate_planar(n, (3 * n - 6, 2 * n, round(2.5 * n))[seed % 3], seed=seed)
        o = st_orient(tutte(emb, regular_polygon(emb.outer_face)).positions[None, :, 0], emb)
        idx = o.rank[0] + 1.0
        poly = convex_outer_placement(emb.outer_face, idx)
        old = dict_polygon(poly)
        assert repr((poly.centroid, poly.radius)) == repr((old.centroid, old.radius))
        assert _strictly_convex(poly)
        assert poly.positions.tobytes() == pair_scan_placement(emb.outer_face, idx).positions.tobytes()


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
        tol = TARGET_RTOL * res.drawing.polygon.radius
        xs = sorted(res.drawing.positions[:, 0].tolist())
        for i, x in enumerate(xs, start=1):
            assert abs(x - i) <= tol
        assert crossing_count(res.drawing, emb) == 0
        assert faces_convex(res.drawing, emb)
        # unit-ish spacing keeps the ratio modest
        assert edge_length_ratio(res.drawing, emb) <= 3 * n


def test_pipeline_outer_positions_come_from_polygon(octahedron):
    res = uniform_pipeline(octahedron)
    poly = res.drawing.polygon
    assert np.array_equal(res.drawing.positions[list(poly.order)], poly.positions)


def test_pipeline_deterministic():
    emb = generate_planar(16, 38, seed=54)
    a = uniform_pipeline(emb)
    b = uniform_pipeline(emb)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.drawing.positions, b.drawing.positions)
