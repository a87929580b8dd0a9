"""Polygon pinning and the weighted equilibrium solve."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    dense_stress_positions,
    dict_polygon,
    dict_regular_polygon,
    flip_edges,
    max_position_gap,
    record_solves,
    scratch_factor,
    scratch_solve_stress,
    scratch_system,
    wheel,
)

from stressdraw import (
    NonPositiveWeight,
    OuterPolygon,
    PlanarEmbedding,
    PreconditionError,
    ResidualExceeded,
    SingularSystem,
    StressDrawError,
    ZeroLengthEdge,
    best_r,
    bfs_depths,
    depth_weights,
    edge_length_ratio,
    equilibrium_residual,
    generate_planar,
    kaleidoscope,
    morph_weights,
    regular_polygon,
    schnyder_depths,
    solve_stress,
    solve_stresses,
    spread_pipeline,
    tutte,
    uniform_pipeline,
    worst_case_graph,
    xy_morph,
)
from stressdraw import solver
from stressdraw.graph import edge_key


def test_regular_polygon_triangle():
    poly = regular_polygon((7, 3, 9))
    assert poly.order == (7, 3, 9)
    assert poly.positions.shape == (3, 2)
    x, y = poly.positions[0]
    # first vertex sits at the top of the unit circle
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12
    for px, py in poly.positions[1:]:
        assert abs(math.hypot(px, py) - 1.0) < 1e-12


def test_regular_polygon_square_angles():
    poly = regular_polygon((0, 1, 2, 3))
    angles = []
    for x, y in poly.positions:
        assert abs(math.hypot(x, y) - 1.0) < 1e-12
        angles.append(math.atan2(y, x))
    # consecutive vertices step counter-clockwise by 90 degrees
    for a, b in zip(angles, angles[1:]):
        diff = (b - a) % (2 * math.pi)
        assert abs(diff - math.pi / 2) < 1e-12


def test_regular_polygon_rejects_bad_input():
    with pytest.raises(PreconditionError):
        regular_polygon((0, 1))


def test_regular_polygon_rejects_a_repeated_vertex():
    """Listing a vertex twice would pin it at two places."""
    outer = generate_planar(8, 18, 1).outer_face
    with pytest.raises(PreconditionError, match="repeats a vertex"):
        regular_polygon(outer + (outer[0],))


def test_regular_polygon_matches_dict_oracle():
    """Rows, centroid and radius equal the dict form's to the last bit, for
    3..64 corners and 2**j - 1 .. 2**j + 1 corners up to 2000: on the unit
    circle, and scaled by R, as the tests draw at other radii, for R =
    2**-60 .. 2**60 and a few others; the radius is computed once."""
    ks = [*range(3, 65), *(2**j + d for j in range(7, 11) for d in (-1, 0, 1)), 1999, 2000]
    radii = [2.0**e for e in range(-60, 61, 12)] + [1 / 3, 10.0, 12345.678]
    for k in ks:
        unit = regular_polygon(tuple(range(k, 0, -1)))
        for radius in radii:
            poly = unit if radius == 1.0 else OuterPolygon(unit.order, radius * unit.positions)
            old = dict_regular_polygon(poly.order, radius)
            # float repr round-trips, and tells -0.0 from 0.0
            assert repr(dict_polygon(poly)) == repr(old)
            assert repr((poly.centroid, poly.radius)) == repr((old.centroid, old.radius))
            assert poly.radius is poly.radius


def test_k4_interior_lands_at_centroid(k4):
    poly = regular_polygon(k4.outer_face)
    d = tutte(k4, poly)
    cx = sum(p[0] for p in poly.positions) / 3
    cy = sum(p[1] for p in poly.positions) / 3
    assert abs(d.positions[3][0] - cx) < 1e-12
    assert abs(d.positions[3][1] - cy) < 1e-12


def test_single_interior_weighted_average(k4):
    """One free vertex inside a pinned triangle solves in closed form:
    p3 = (w03 p0 + w13 p1 + w23 p2) / (w03 + w13 + w23) = (4, 3) for
    weights 1, 3 and 4 and corners (0, 0), (0, 8) and (8, 0). A free
    vertex between two pins has no convex polygon to sit in, and raises."""
    poly = OuterPolygon((0, 2, 1), np.array([(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]))
    w = np.ones(k4.m)
    for u, weight in ((0, 1.0), (1, 3.0), (2, 4.0)):
        w[k4.edge_array.tolist().index([u, 3])] = weight
    d = solve_stress(k4, w, poly)
    assert max_position_gap(d.positions[3:], np.array([(4.0, 3.0)])) < 1e-12
    path = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    segment = OuterPolygon((0, 2), np.array([(0.0, 0.0), (1.0, 0.0)]))
    with pytest.raises(PreconditionError, match="strictly convex ring"):
        solve_stress(path, np.array([1.0, 3.0]), segment)


def test_octahedron_matches_dense_oracle(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    w = np.ones(octahedron.m)
    d = tutte(octahedron, poly)
    oracle = dense_stress_positions(octahedron, w, poly)
    assert max_position_gap(d.positions, oracle) < 1e-9
    # the inner triangle sits strictly inside the outer one
    for v in (3, 4, 5):
        assert math.hypot(*d.positions[v]) < 1.0 - 1e-6


def test_weighted_octahedron_matches_dense_oracle(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    w = 0.5 + 0.25 * np.arange(octahedron.m)
    d = solve_stress(octahedron, w, poly)
    oracle = dense_stress_positions(octahedron, w, poly)
    assert max_position_gap(d.positions, oracle) < 1e-9


def test_residual_field_is_recomputable(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    w = np.ones(octahedron.m)
    d = tutte(octahedron, poly)
    r = equilibrium_residual(octahedron, w, d.positions, set(poly.order))
    assert d.residual == r
    assert r <= 1e-8 * poly.radius


def test_residual_matches_vertex_loop(two_ring_wheel):
    """Off equilibrium, the residual is the largest per-vertex, per-axis
    sum of w * (p_u - p_v) over the interior vertices."""
    emb = two_ring_wheel
    poly = regular_polygon(emb.outer_face)
    w = 0.5 + 0.25 * np.arange(emb.m)
    pos = tutte(emb, poly).positions + np.random.default_rng(5).normal(0, 0.1, (emb.n, 2))
    weight_of = dict(zip(map(tuple, emb.edge_array.tolist()), w.tolist()))
    want = 0.0
    for u in set(range(emb.n)) - set(poly.order):
        for axis in (0, 1):
            force = sum(weight_of[edge_key(u, v)] * (pos[u][axis] - pos[v][axis])
                        for v in emb.rotation[u])
            want = max(want, abs(force))
    assert want > 0.01
    got = equilibrium_residual(emb, w, pos, set(poly.order))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("shape", [(11,), (12, 1), (2, 12), ()])
def test_residual_rejects_a_weight_count_that_is_not_m(octahedron, shape):
    """Weights of any shape but (m,) raise solve_stresses' NonPositiveWeight."""
    poly = regular_polygon(octahedron.outer_face)
    pos = tutte(octahedron, poly).positions
    w = np.ones(shape)
    with pytest.raises(NonPositiveWeight) as alone:
        solve_stress(octahedron, w, poly)
    with pytest.raises(NonPositiveWeight) as info:
        equilibrium_residual(octahedron, w, pos, poly.order)
    assert str(info.value) == str(alone.value) == f"need 12 edge weights, got shape {shape}"


@pytest.mark.parametrize("shape", [(5, 2), (6, 3), (6,), (12,), (1, 6, 2)])
def test_residual_rejects_positions_that_are_not_n_rows_of_two(octahedron, shape):
    poly = regular_polygon(octahedron.outer_face)
    with pytest.raises(PreconditionError, match=r"positions need shape \(6, 2\)"):
        equilibrium_residual(octahedron, np.ones(octahedron.m), np.zeros(shape), poly.order)


def test_scale_equivariance(octahedron):
    """Scaling every weight by the same constant leaves positions fixed."""
    poly = regular_polygon(octahedron.outer_face)
    w = np.ones(octahedron.m)
    base = solve_stress(octahedron, w, poly)
    scaled = solve_stress(octahedron, 3.7 * w, poly)
    assert max_position_gap(base.positions, scaled.positions) < 1e-12


def test_weight_validation(k4):
    poly = regular_polygon(k4.outer_face)
    w = np.ones(k4.m)
    i = k4.edge_array.tolist().index([0, 3])
    for bad in (0.0, -1.0, float("nan")):
        broken = w.copy()
        broken[i] = bad
        with pytest.raises(NonPositiveWeight):
            solve_stress(k4, broken, poly)
    missing = np.delete(w, i)
    with pytest.raises(NonPositiveWeight):
        solve_stress(k4, missing, poly)


def test_polygon_must_pin_exactly_the_outer_face(k4):
    poly = OuterPolygon((0, 1), np.array([(0.0, 1.0), (1.0, 0.0)]))
    with pytest.raises(PreconditionError):
        solve_stress(k4, np.ones(k4.m), poly)


def test_polygon_must_list_each_outer_vertex_once_with_one_row_each():
    emb = generate_planar(8, 18, 1)
    outer, rows = emb.outer_face, regular_polygon(emb.outer_face).positions
    bad = [
        OuterPolygon(outer + (outer[0],), np.vstack((rows, rows[:1]))),  # a vertex twice
        OuterPolygon(outer, rows[:-1]),  # a row short
        OuterPolygon(outer, np.hstack((rows, rows))),  # (k, 4)
        OuterPolygon(outer, rows.ravel()),  # flat
    ]
    for poly in bad:
        with pytest.raises(PreconditionError, match="^polygon"):
            solve_stress(emb, np.ones(emb.m), poly)


def _every_draw(emb):
    """Every function that solves on a polygon, as a call on the polygon."""
    return [
        lambda poly: tutte(emb, poly),
        lambda poly: solve_stress(emb, np.ones(emb.m), poly),
        lambda poly: next(solve_stresses(emb, [np.ones(emb.m)], poly)),
        lambda poly: spread_pipeline(emb, poly, 0.0),
        lambda poly: xy_morph(emb, poly),
        lambda poly: kaleidoscope(emb, poly, 45.0),
        lambda poly: best_r(emb, poly, "bfs"),
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_a_non_finite_polygon_corner_raises_before_any_solve(k, monkeypatch):
    """The first NaN or infinite corner, in polygon order, is named before
    anything is solved, by every method that takes a polygon: on
    worst_case_graph(2) the residual gate would compare nan with nan, and
    the triangle worst_case_graph(1), with no interior vertex, would be
    drawn with a NaN vertex and residual 0.0."""
    emb = worst_case_graph(k)
    solved = record_solves(monkeypatch)
    for bad in (math.nan, math.inf, -math.inf):
        rows = regular_polygon(emb.outer_face).positions.copy()
        rows[1, 0], rows[2, 1] = bad, math.nan
        poly = OuterPolygon(emb.outer_face, rows)
        want = rf"^polygon corner 1 \(vertex {emb.outer_face[1]}\) needs finite positions, got \[{bad}, "
        for draw in _every_draw(emb):
            with pytest.raises(PreconditionError, match=want):
                draw(poly)
    assert solved == []


def _pentagon_rows(emb, case):
    """Rows for the five outer-face corners of generate_planar(30, 70, 1)."""
    rows = regular_polygon(emb.outer_face).positions
    if case == "swapped":  # corners 1 and 2 change places: the ring crosses itself
        return rows[[0, 2, 1, 3, 4]]
    if case == "reflex":  # corner 2 pulled in to a tenth of the radius
        return np.vstack((rows[:2], 0.1 * rows[2:3], rows[3:]))
    # a pentagram turns the same way at every corner but winds twice
    return np.array([(math.cos(4 * math.pi * i / 5), math.sin(4 * math.pi * i / 5)) for i in range(5)])


@pytest.mark.parametrize("graph, case, corner", [
    ((30, 70), "swapped", 1),
    ((30, 70), "reflex", 2),
    ((30, 70), "pentagram", 0),
    ((30, 84), "collinear", 0),
    ((3,), "collinear", 0),
], ids=["swapped", "reflex", "pentagram", "collinear", "collinear-triangle"])
def test_a_polygon_that_is_not_strictly_convex_raises_before_any_solve(
    graph, case, corner, monkeypatch,
):
    """A polygon whose corners, in the outer face's cyclic order, are not a
    strictly convex ring that winds once raises PreconditionError naming
    the first bad corner, before anything is solved, from every method
    that takes a polygon. Unchecked, the swapped pentagon was drawn with
    residual 4.4e-16 and 26 crossings, and the reflex one and the
    collinear triangle of generate_planar(30, 84, 1) were reported planar
    and convex; the triangle worst_case_graph(1), which has no interior
    vertex, gets the same check."""
    emb = generate_planar(*graph, 1) if len(graph) == 2 else worst_case_graph(1)
    k = len(emb.outer_face)
    if case == "collinear":
        rows = np.column_stack((np.arange(k, dtype=float), np.arange(k, dtype=float) / 3))
    else:
        rows = _pentagon_rows(emb, case)
    poly = OuterPolygon(emb.outer_face, rows)
    solved = record_solves(monkeypatch)
    want = rf"^polygon corner {corner} \(vertex {emb.outer_face[corner]}\): .* strictly convex ring"
    for draw in _every_draw(emb):
        with pytest.raises(PreconditionError, match=want):
            draw(poly)
    assert solved == []


def test_the_polygon_is_read_in_the_outer_faces_cyclic_order():
    """Only the cyclic order of the outer face decides: a polygon listed
    from another corner or the other way round is drawn as its regular
    polygon is, and the regular polygon listed in another order, which is
    convex in its own order but not in the face's, raises."""
    emb = generate_planar(30, 70, 1)
    poly = regular_polygon(emb.outer_face)
    want = tutte(emb, poly).positions
    for turn in (poly, OuterPolygon(poly.order[2:] + poly.order[:2], np.roll(poly.positions, -2, axis=0)),
                 OuterPolygon(poly.order[::-1], poly.positions[::-1])):
        assert np.array_equal(tutte(emb, turn).positions, want)
    shuffled = OuterPolygon(poly.order[:1] + poly.order[2:3] + poly.order[1:2] + poly.order[3:],
                            poly.positions)
    with pytest.raises(PreconditionError, match="strictly convex ring"):
        tutte(emb, shuffled)


@pytest.mark.parametrize("k", [3, 1000, 100_000])
def test_regular_polygons_pass_the_polygon_check(k):
    """regular_polygon is strictly convex and winds once by exact signs, up
    to the 10^5-gon; the wheels up to k = 1000 are drawn with the hub at
    the centre."""
    emb = wheel(k)
    poly = regular_polygon(emb.outer_face)
    assert solver._pinned(emb, poly) == list(range(k))
    if k <= 1000:
        assert np.abs(tutte(emb, poly).positions[k]).max() < 1e-9


def test_no_interior_vertices():
    tri = PlanarEmbedding(3, ((1, 2), (2, 0), (0, 1)), (0, 1, 2))
    poly = regular_polygon((0, 1, 2))
    d = tutte(tri, poly)
    assert np.array_equal(d.positions, poly.positions)
    assert d.residual == 0.0


def test_tutte_is_unit_weight_solve(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    a = tutte(octahedron, poly)
    b = solve_stress(octahedron, np.ones(octahedron.m), poly)
    assert np.array_equal(a.positions, b.positions)


def _method_weights(emb):
    """(name, weights, polygon) for the weight array of every method."""
    poly = regular_polygon(emb.outer_face)
    out = [
        ("xspread", spread_pipeline(emb, poly, 0.0).weights, poly),
        ("yspread", spread_pipeline(emb, poly, math.pi / 2).weights, poly),
        ("xymorph", xy_morph(emb, poly, 0.0, 0.5)[0], poly),
        ("bfs", depth_weights(bfs_depths(emb), 1.0, 3.0), poly),
    ]
    if emb.m == 3 * emb.n - 6:
        out.append(("schnyder", depth_weights(schnyder_depths(emb), 1.0, 3.0), poly))
    uni = uniform_pipeline(emb)
    out.append(("uniform", uni.weights, uni.drawing.polygon))
    return out


@pytest.mark.parametrize("n, m, seed", [(12, 30, 61), (16, 38, 62), (20, 54, 63)])
def test_method_weights_match_dense_oracle(n, m, seed):
    """Per-edge weights of every method, pinned-pinned edges included, solve
    to the independent dense solution."""
    emb = generate_planar(n, m, seed=seed)
    for name, w, poly in _method_weights(emb):
        assert w.shape == (emb.m,), name
        d = solve_stress(emb, w, poly)
        gap = max_position_gap(d.positions, dense_stress_positions(emb, w, poly))
        assert gap < 1e-9, (name, gap)


@pytest.mark.parametrize("n, m, seed", [(12, 30, 61), (40, 100, 64), (60, 174, 65)])
def test_cached_pattern_matches_scratch_assembly(n, m, seed):
    """Solves through the embedding's cached system pattern give the same
    positions and residual, bit for bit, as assembling the matrix from
    scratch, for spread and BFS decay weights."""
    emb = generate_planar(n, m, seed=seed)
    poly = regular_polygon(emb.outer_face)
    for w in (
        spread_pipeline(emb, poly, 0.3).weights,
        spread_pipeline(emb, poly, 2.0).weights,
        depth_weights(bfs_depths(emb), 1.0, 5.0),
        depth_weights(bfs_depths(emb), 2.0, 1.5),
    ):
        got, want = solve_stress(emb, w, poly), scratch_solve_stress(emb, w, poly)
        assert np.array_equal(got.positions, want.positions)
        assert got.residual == want.residual


def test_pattern_built_once_per_embedding(monkeypatch):
    calls = []
    build = solver._build_laplacian_pattern
    monkeypatch.setattr(solver, "_build_laplacian_pattern", lambda emb: calls.append(emb) or build(emb))
    emb = generate_planar(20, 50, seed=66)
    poly = regular_polygon(emb.outer_face)
    xy_morph(emb, poly, 0.4)  # the reference and the blend: two solves
    solve_stress(emb, depth_weights(bfs_depths(emb), 1.0, 5.0), poly)
    assert calls == [emb]


def _references_solved(monkeypatch) -> list[OuterPolygon]:
    """The polygon of every reference solver._reference solves from now on."""
    solved: list[OuterPolygon] = []
    monkeypatch.setattr(solver, "tutte", lambda emb, poly: solved.append(poly) or tutte(emb, poly))
    return solved


def test_reference_solved_once_per_embedding_and_polygon(monkeypatch):
    """The spread-type methods share one stored reference per embedding: a
    polygon of equal content, built anew, solves none; one of other
    content, a larger radius or turned corners, solves it again and
    replaces it."""
    solved = _references_solved(monkeypatch)
    emb = generate_planar(30, 84, seed=1)
    poly = regular_polygon(emb.outer_face)
    spread_pipeline(emb, poly, 0.3)
    spread_pipeline(emb, regular_polygon(emb.outer_face), 1.1)
    xy_morph(emb, regular_polygon(emb.outer_face), 0.2)
    kaleidoscope(emb, regular_polygon(emb.outer_face), 30.0)
    uniform_pipeline(emb)
    assert solved == [poly]
    others = [OuterPolygon(poly.order, 2.0 * poly.positions),
              OuterPolygon(poly.order, poly.positions @ np.array([[0.6, 0.8], [-0.8, 0.6]])), poly]
    for other in others:
        xy_morph(emb, other, 0.2)
        xy_morph(emb, other, 0.2)
    assert solved == [poly, *others]


def test_stored_reference_is_read_only_and_tutte_is_fresh():
    emb = generate_planar(30, 84, seed=1)
    poly = regular_polygon(emb.outer_face)
    ref = solver._reference(emb, poly)
    assert not ref.positions.flags.writeable
    assert solver._reference(emb, regular_polygon(emb.outer_face)) is ref
    drawings = [tutte(emb, poly), tutte(emb, poly)]
    assert drawings[0].positions is not drawings[1].positions
    for d in drawings:
        assert d.positions.flags.writeable
        assert d.positions.tobytes() == ref.positions.tobytes()


def test_a_failed_reference_is_not_stored(monkeypatch):
    """A polygon whose solve raises is tried afresh on every call and
    leaves the stored reference in place."""
    solved = _references_solved(monkeypatch)
    emb = generate_planar(30, 84, seed=1)
    poly = regular_polygon(emb.outer_face)
    bad = OuterPolygon(poly.order[1:], poly.positions[1:])
    spread_pipeline(emb, poly)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            spread_pipeline(emb, bad)
    spread_pipeline(emb, poly)
    assert solved == [poly, bad, bad]


def test_pattern_follows_the_outer_face():
    """Equal n and m, different outer faces: each embedding gets its own
    pattern, and each solve matches the scratch assembly."""
    emb = generate_planar(20, 54, seed=67)
    other = next(f for f in emb.faces if set(f) != set(emb.outer_face))
    twin = PlanarEmbedding(emb.n, emb.rotation, other)
    assert (twin.n, twin.m) == (emb.n, emb.m)
    for e in (emb, twin, emb):
        poly = regular_polygon(e.outer_face)
        got, want = tutte(e, poly), scratch_solve_stress(e, np.ones(e.m), poly)
        assert np.array_equal(got.positions, want.positions)
        assert set(solver._laplacian_pattern(e).interior.tolist()) == set(range(e.n)) - set(e.outer_face)
    assert solver._laplacian_pattern(emb) is not solver._laplacian_pattern(twin)


def test_overflowing_weights_fail_the_residual_gate():
    """Weights near the float64 maximum overflow the system into NaN rows;
    a NaN residual is not within the bound, so the solve raises."""
    emb = generate_planar(30, 84, seed=1)
    with pytest.raises(ResidualExceeded):
        solve_stress(emb, np.full(emb.m, 1e308), regular_polygon(emb.outer_face))


def test_underflowing_weights_are_a_singular_system():
    """All weights the smallest subnormal: a pivot rounds to exactly zero."""
    emb = generate_planar(30, 84, seed=1)
    with pytest.raises(SingularSystem):
        solve_stress(emb, np.full(emb.m, 5e-324), regular_polygon(emb.outer_face))


def test_interior_cut_off_from_the_outer_face_is_a_singular_system():
    """An interior edge with no path to the pinned triangle: the system is
    singular for any weights, found when its elimination order is."""
    emb = PlanarEmbedding(5, ((1, 2), (2, 0), (0, 1), (4,), (3,)), (0, 1, 2))
    with pytest.raises(SingularSystem):
        solve_stress(emb, np.ones(emb.m), regular_polygon(emb.outer_face))


def test_weights_spanning_600_decades_exceed_the_residual():
    """Weights of 1e-300 and 1e300 mixed at random factor, but refinement
    cannot bring the residual under the bound."""
    emb = generate_planar(30, 84, seed=1)
    w = np.where(np.random.default_rng(0).random(emb.m) < 0.5, 1e-300, 1e300)
    with pytest.raises(ResidualExceeded):
        solve_stress(emb, w, regular_polygon(emb.outer_face))


_POPULATION = [(50, 125, 71), (150, 375, 72), (300, 894, 73), (400, 1000, 74)]


@pytest.mark.parametrize("n, m, seed", _POPULATION)
def test_ordered_solve_matches_colamd_pivoted_solve(n, m, seed):
    """The ordered, unpivoted factorization gives the positions of a solve
    with rows in id order, COLAMD and partial pivoting, to 1e-12 of the
    radius, for spread weights at 0 and 37 degrees and BFS decay r = 5."""
    emb = generate_planar(n, m, seed=seed)
    poly = regular_polygon(emb.outer_face)
    for w in (
        np.ones(emb.m),
        spread_pipeline(emb, poly, 0.0).weights,
        spread_pipeline(emb, poly, math.radians(37.0)).weights,
        depth_weights(bfs_depths(emb), 1.0, 5.0),
    ):
        got = solve_stress(emb, w, poly).positions
        want = scratch_solve_stress(emb, w, poly, ordered=False).positions
        assert max_position_gap(got, want) <= 1e-12 * poly.radius


@pytest.mark.parametrize("n, m", [(400, 1194), (400, 1000)])
def test_elimination_order_fills_no_more_than_colamd(n, m):
    """The factor in the embedding's elimination order has no more nonzeros
    than COLAMD with partial pivoting on the id-ordered system: a fall back
    to the natural id order would fill far more."""
    emb = generate_planar(n, m, seed=1)
    poly = regular_polygon(emb.outer_face)
    w = spread_pipeline(emb, poly, 0.0).weights

    def fill(ordered):
        lu = scratch_factor(scratch_system(emb, w, poly, ordered)[0], ordered)
        return lu.L.nnz + lu.U.nnz

    assert fill(True) <= fill(False)


# ---------------------------------------------------------------------------
# batched solves
# ---------------------------------------------------------------------------

def _batch_graphs():
    return [
        generate_planar(40, 100, seed=81),
        generate_planar(90, 264, seed=82),
        flip_edges(generate_planar(60, 174, seed=83), 300, 83),
        flip_edges(generate_planar(120, 354, seed=86), 300, 86),
    ]


def _stiff_weights(emb, decades, seed=0):
    """Weights spread log-uniformly over 2 * decades decades: at 6 the
    first solve misses the refinement target, at 10 the residual bound."""
    return 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, emb.m)


def _weightings(emb, poly):
    """Spread, morph and decay weights, and one weighting that needs
    refinement passes."""
    spreads = [spread_pipeline(emb, poly, math.radians(d)).weights
               for d in (0, 30, 90, 135)]
    return (spreads + [morph_weights(spreads[0], spreads[2], t) for t in (0.25, 0.5)]
            + [depth_weights(bfs_depths(emb), 1.0, r) for r in (2, 5, 16)]
            + [_stiff_weights(emb, 6)])


def _drain(chunks):
    """The drawings of the chunks solve_stresses yields before it raises,
    in order, and the error. Each chunk's drawings are its positions, row
    for row, without a copy."""
    out = []
    try:
        for positions, drawings in chunks:
            assert len(drawings) == len(positions)
            for p, d in zip(positions, drawings):
                assert np.shares_memory(d.positions, positions) and np.array_equal(d.positions, p)
            out += drawings
    except StressDrawError as exc:
        return out, exc
    return out, None


def _assert_same(got, want):
    assert np.array_equal(got.positions, want.positions)
    assert got.residual == want.residual


@pytest.mark.parametrize("per", [None, 1, 2, 4])
def test_batched_solves_match_solving_alone(monkeypatch, per):
    """Every weighting solved in a batch gives its drawing alone, bit for
    bit in positions and residual: in scipy-sized chunks and in chunks of
    1, 2 and 4 weightings, which the ten weightings cross."""
    for emb in _batch_graphs():
        poly = regular_polygon(emb.outer_face)
        ws = _weightings(emb, poly)
        alone = [solve_stress(emb, w, poly) for w in ws]
        if per is not None:
            monkeypatch.setattr(solver, "BATCH_ROWS", per * len(solver._laplacian_pattern(emb).interior))
        got, error = _drain(solve_stresses(emb, ws, poly))
        assert error is None and len(got) == len(ws)
        for g, a in zip(got, alone):
            _assert_same(g, a)


def test_a_block_needing_refinement_leaves_the_others_alone(monkeypatch):
    """A weighting that needs refinement passes shares a factorization
    with weightings that need none; each comes out as it does alone."""
    from scipy.sparse.linalg import splu

    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(len(rhs))
            return self.lu.solve(rhs)

        def __getattr__(self, name):  # perm_c, which the pattern's ordering reads
            return getattr(self.lu, name)

    monkeypatch.setattr(solver, "splu", lambda *a, **k: Counted(splu(*a, **k)))
    emb = generate_planar(90, 264, seed=82)
    poly = regular_polygon(emb.outer_face)
    easy, stiff = depth_weights(bfs_depths(emb), 1.0, 5.0), _stiff_weights(emb, 6)
    alone, passes = [], []
    for w in (easy, stiff):
        solves.clear()
        alone.append(solve_stress(emb, w, poly))
        passes.append(len(solves))
    assert passes[0] == 1 < passes[1]
    solves.clear()
    got, error = _drain(solve_stresses(emb, [easy, stiff, easy], poly))
    assert error is None and len(solves) == passes[1]
    for g, a in zip(got, [alone[0], alone[1], alone[0]]):
        _assert_same(g, a)


def _broken(emb, poly, kind):
    if kind == "non-positive":
        w = np.ones(emb.m)
        w[solver._laplacian_pattern(emb).half[0]] = -1.0
        return w
    return _stiff_weights(emb, 10, seed=1)


@pytest.mark.parametrize("kind", ["non-positive", "residual"])
@pytest.mark.parametrize("j", [0, 1, 3, 5])
def test_batch_raises_where_solving_one_by_one_would(monkeypatch, kind, j):
    """The j-th weighting fails, and the batch raises the error solving it
    alone raises, in class and message, for its whole chunk: a bad weight
    before the chunk is factored, a residual over the bound after it is
    solved. Either way the batch yields only the drawings of the chunks
    before, each as alone. Chunks of two weightings put j at either end of
    a chunk."""
    emb = generate_planar(40, 100, seed=81)
    poly = regular_polygon(emb.outer_face)
    good = _weightings(emb, poly)
    bad = _broken(emb, poly, kind)
    with pytest.raises(StressDrawError) as alone:
        solve_stress(emb, bad, poly)
    monkeypatch.setattr(solver, "BATCH_ROWS", 2 * len(solver._laplacian_pattern(emb).interior))
    got, error = _drain(solve_stresses(emb, good[:j] + [bad] + good[j:], poly))
    assert len(got) == j - j % 2
    for g, w in zip(got, good):
        _assert_same(g, solve_stress(emb, w, poly))
    assert type(error) is type(alone.value)
    assert str(error) == str(alone.value)


def test_no_factorization_exceeds_the_batch_rows(monkeypatch):
    """With k interior vertices, every splu call factors at most BATCH_ROWS
    rows, max(1, BATCH_ROWS // k) weightings at a time."""
    from scipy.sparse.linalg import splu

    rows = []
    monkeypatch.setattr(solver, "splu", lambda a, **k: rows.append(a.shape[0]) or splu(a, **k))
    for emb in (generate_planar(40, 100, seed=81), generate_planar(700, 2000, seed=87)):
        poly = regular_polygon(emb.outer_face)
        k = len(solver._laplacian_pattern(emb).interior)
        per = max(1, solver.BATCH_ROWS // k)
        rows.clear()
        ws = [depth_weights(bfs_depths(emb), 1.0, r) for r in range(2, 14)]
        got, error = _drain(solve_stresses(emb, ws, poly))
        assert error is None and len(got) == 12
        assert k <= solver.BATCH_ROWS and max(rows) <= solver.BATCH_ROWS
        assert rows == [k * min(per, 12 - i) for i in range(0, 12, per)]


def test_weightings_are_read_one_chunk_at_a_time():
    emb = generate_planar(700, 2000, seed=87)
    poly = regular_polygon(emb.outer_face)
    per = max(1, solver.BATCH_ROWS // len(solver._laplacian_pattern(emb).interior))
    read = []

    def weightings():
        for r in range(2, 100):
            read.append(r)
            yield depth_weights(bfs_depths(emb), 1.0, r)

    chunks = solve_stresses(emb, weightings(), poly)
    assert read == []
    assert len(next(chunks)[1]) == per
    assert len(read) == per


# ---------------------------------------------------------------------------
# scans measured a chunk at a time
# ---------------------------------------------------------------------------

def _scan_outputs(emb, poly, methods):
    """Every row of a 5-degree sweep, the best_r result of each method and
    the x-spread, as bytes, ratios and bases."""
    rows = kaleidoscope(emb, poly, 5.0)
    for row in rows:
        assert row.ratio == edge_length_ratio(row.drawing, emb)
    got = [(r.angle_degrees, r.ratio, r.drawing.residual, r.drawing.positions.tobytes()) for r in rows]
    for method in methods:
        r, d, ratio = best_r(emb, poly, method)
        assert ratio == edge_length_ratio(d, emb)
        got.append((r, ratio, d.residual, d.positions.tobytes()))
    spread = spread_pipeline(emb, poly, 0.3).drawing
    return got + [(spread.residual, spread.positions.tobytes())]


@pytest.mark.parametrize("emb, methods", [
    (generate_planar(40, 3 * 40 - 6, seed=91), ("bfs", "schnyder")),
    (generate_planar(50, 125, seed=92), ("bfs",)),
    (worst_case_graph(15), ("bfs", "schnyder")),
], ids=["tri40", "g50", "nested15"])
def test_chunked_scans_match_one_chunk(monkeypatch, emb, methods):
    """In chunks of four weightings, the 19 rows of a sweep and the 15
    bases of a decay scan split 4 + 4 + 4 + 4 + 3 and 4 + 4 + 4 + 3, and
    every output equals the one-chunk result bit for bit. On nested15 the
    bases 11, 13, 15 and 16 of bfs have a zero-length edge and are
    skipped; of the Schnyder bases only 14 and 15, in the last chunk, have
    none, and 14 wins."""
    poly = regular_polygon(emb.outer_face)
    whole = _scan_outputs(emb, poly, methods)
    assert 19 * len(solver._laplacian_pattern(emb).interior) <= solver.BATCH_ROWS  # one chunk by default
    monkeypatch.setattr(solver, "BATCH_ROWS", 4 * len(solver._laplacian_pattern(emb).interior))
    assert _scan_outputs(emb, poly, methods) == whole


def test_a_zero_length_row_raises_before_the_next_chunk_is_solved(monkeypatch):
    """A sweep row with a zero-length edge raises when its chunk is
    measured: the weightings of later chunks are never read."""
    from stressdraw import morph

    emb = worst_case_graph(20)
    poly = regular_polygon(emb.outer_face)
    collapsed = depth_weights(bfs_depths(emb), 1.0, 4.0)
    with pytest.raises(ZeroLengthEdge):
        edge_length_ratio(solve_stress(emb, collapsed, poly), emb)
    blend = morph.morph_weights
    blends = []

    def second_collapses(w0, w1, t=0.5):
        blends.append(1)
        return collapsed if len(blends) == 2 else blend(w0, w1, t)

    monkeypatch.setattr(morph, "morph_weights", second_collapses)
    monkeypatch.setattr(solver, "BATCH_ROWS", 4 * len(solver._laplacian_pattern(emb).interior))
    solver._reference(emb, poly)
    solved = record_solves(monkeypatch)
    with pytest.raises(ZeroLengthEdge, match="zero length"):
        kaleidoscope(emb, poly, 5.0)
    assert len(solved) == len(blends) == 4
