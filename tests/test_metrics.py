"""Edge-length ratio, crossing detection, face convexity."""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from conftest import (
    arctan2_ring_turn,
    brute_crossing_count,
    folded,
    method_drawings,
    oracle_drawings,
    scratch_certified_planar,
    scratch_faces_convex,
)

from stressdraw import (
    Drawing,
    InputError,
    OuterPolygon,
    PlanarEmbedding,
    PreconditionError,
    ZeroLengthEdge,
    compute_metrics,
    crossing_count,
    edge_length_ratio,
    equilibrium_residual,
    faces_convex,
    generate_planar,
    metrics_json,
    regular_polygon,
    render_svg,
    tutte,
    validate,
)
from stressdraw.graph import _with_outer_face
from stressdraw.metrics import _certified_planar, _convex_ring_turn, _orientation


def _square():
    emb = PlanarEmbedding(4, ((1, 3), (0, 2), (1, 3), (2, 0)), (0, 1, 2, 3))
    poly = OuterPolygon((0, 1, 2, 3), np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    return emb, Drawing(poly.positions.copy(), poly, 0.0)


def test_unit_square_ratio_one():
    emb, d = _square()
    assert edge_length_ratio(d, emb) == 1.0


def test_ratio_is_max_over_min():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), np.array([(0.0, 0.0), (2.5, 0.0)]))
    d = Drawing(np.array([(0.0, 0.0), (2.0, 0.0), (2.5, 0.0)]), poly, 0.0)
    assert abs(edge_length_ratio(d, emb) - 4.0) < 1e-12


def test_zero_length_edge_rejected():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), np.array([(0.0, 0.0), (1.0, 0.0)]))
    d = Drawing(np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]), poly, 0.0)
    with pytest.raises(ZeroLengthEdge):
        edge_length_ratio(d, emb)


def _two_segments(p1, p3):
    # two disjoint edges 0-2 and 1-3; only crossing_count sees this one
    emb = PlanarEmbedding(4, ((2,), (3,), (0,), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), np.array([(0.0, 0.0), (2.0, 0.0)]))
    pos = np.array([(0.0, 0.0), p1, (2.0, 0.0), p3])
    return emb, Drawing(pos, poly, 0.0)


def test_proper_crossing_detected():
    emb, d = _two_segments((1.0, -1.0), (1.0, 1.0))
    assert crossing_count(d, emb) == 1


def test_shared_endpoint_not_a_crossing():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), np.array([(0.0, 0.0), (1.0, 0.0)]))
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
@pytest.mark.parametrize("metric", [compute_metrics, edge_length_ratio, crossing_count, faces_convex, render_svg])
def test_non_finite_positions_rejected(metric, spoil):
    """A drawing with a NaN or infinite coordinate has no crossing count,
    convexity, ratio or SVG; the error names the first such vertex."""
    emb = generate_planar(30, 84, 1)
    d = tutte(emb, regular_polygon(emb.outer_face))
    pos = d.positions.copy()
    v = spoil(pos, emb)
    with pytest.raises(PreconditionError, match=f"vertex {v} has non-finite position"):
        metric(Drawing(pos, d.polygon, d.residual), emb)


@pytest.mark.parametrize("measure", [compute_metrics, edge_length_ratio, crossing_count, faces_convex, render_svg])
def test_positions_of_the_wrong_shape_rejected(measure):
    """Positions that are not n rows of two raise the PreconditionError
    that equilibrium_residual raises for them."""
    emb = generate_planar(30, 84, 1)
    d = tutte(emb, regular_polygon(emb.outer_face))
    for pos in (d.positions[:-1], np.vstack((d.positions, d.positions[:1])), d.positions[:, :1],
                d.positions.ravel()):
        want = f"positions need shape (30, 2), got {pos.shape}"
        with pytest.raises(PreconditionError) as info:
            equilibrium_residual(emb, np.ones(emb.m), pos, emb.outer_face)
        assert str(info.value) == want
        with pytest.raises(PreconditionError) as info:
            measure(Drawing(pos, d.polygon, d.residual), emb)
        assert str(info.value) == want


def test_ratio_similarity_invariance(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    base = edge_length_ratio(d, octahedron)
    c, s = math.cos(1.1), math.sin(1.1)
    rotated = Drawing(d.positions @ np.array([[c, s], [-s, c]]), d.polygon, d.residual)
    assert abs(edge_length_ratio(rotated, octahedron) - base) < 1e-9
    moved = 3.0 * d.positions + [7.0, -2.0]
    shifted = Drawing(moved, d.polygon, d.residual)
    assert abs(edge_length_ratio(shifted, octahedron) - base) < 1e-9


def _unit_box(pts: np.ndarray) -> np.ndarray:
    """The rounded copy in a unit box that crossing_count's all-pairs test reads."""
    return (pts - pts.min(axis=0)) / max(float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1])))


def _certified(d, emb) -> bool:
    """The certificate on crossing_count's input: the stored floats scaled
    by a power of two."""
    pts = d.positions
    return _certified_planar(np.ldexp(pts, -math.frexp(float(np.abs(pts).max()))[1]), emb)


def test_every_method_certifies_and_matches_brute():
    for emb, d in method_drawings([12, 20, 31, 45, 64, 80], seed=60):
        assert _certified(d, emb)
        assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 0


def test_folded_drawings_match_brute():
    """Moving one interior vertex somewhere else folds most drawings; on
    the n = 130 graph the all-pairs test runs in two row blocks."""
    rng = random.Random(7)
    crossed = total = 0
    for emb, d in method_drawings([12, 25, 130], seed=60):
        f = folded(d, emb, rng)
        count = crossing_count(f, emb)
        assert count == brute_crossing_count(f.positions, emb)
        assert count == 0 or not _certified(f, emb)
        crossed += count > 0
        total += 1
    assert crossed > total // 2


def _pentagram():
    """A wheel whose rim is drawn as a pentagram."""
    rim = (1, 2, 3, 4, 5)
    emb = PlanarEmbedding(
        6, (rim, (0, 5, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 1)), (1, 5, 4, 3, 2)
    )
    pos = np.array([(0.0, 0.0)] + [
        (math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)
    ])
    return emb, Drawing(pos, OuterPolygon(rim, pos[list(rim)]), 0.0)


def _straight_angle(where):
    """A wheel drawn with an exactly straight angle on its rim (outer) or
    its hub on a rim edge (inner)."""
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
    return emb, Drawing(pos, regular_polygon(emb.outer_face), 0.0)


def test_pentagram_rim_does_not_certify():
    """A wheel whose rim is drawn as a pentagram: every corner turns the same
    way, but the outer face winds twice."""
    emb, d = _pentagram()
    validate(emb)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 10


def _star(k: int, winding: int, scale: float) -> np.ndarray:
    """k points stepping winding / k of a turn each: a convex polygon for
    winding 1, a star that winds that often otherwise."""
    angles = [2 * math.pi * winding * i / k for i in range(k)]
    return scale * np.array([(math.cos(a), math.sin(a)) for a in angles])


def test_ring_turn_matches_arctan2_oracle():
    """The y-step sign count gives the arctan2 sum's verdict: stars winding
    1 to 4 times in either direction, shifted or not, random lattice rings
    and lattice polygons in angular order, at scales from 1e-200 to
    1e200, where the orientation signs give up first. Stars of every
    winding pass the corner test at some scale, so the winding count is
    what rejects those of winding 2 to 4."""
    rng = random.Random(8)
    turning_stars = set()
    for case in range(3000):
        scale = 10.0 ** rng.randrange(-200, 201)
        if case % 3 == 0:
            w = rng.randrange(1, 5)
            k = next(k for k in range(rng.randrange(2 * w + 1, 2 * w + 20), 99) if math.gcd(k, w) == 1)
            ring = _star(k, w, scale)[:: rng.choice((1, -1))] + rng.choice((0.0, 0.25)) * scale
        elif case % 3 == 1:
            ring = scale * np.array([(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(rng.randrange(3, 12))], float)
        else:
            pts = {(rng.randrange(-20, 21), rng.randrange(-20, 21)) for _ in range(rng.randrange(3, 30))}
            ring = scale * np.array(sorted(pts, key=lambda p: math.atan2(p[1], p[0])), float)[:: rng.choice((1, -1))]
        with np.errstate(all="ignore"):
            turn = _convex_ring_turn(ring)
            assert turn == arctan2_ring_turn(ring), ring.tolist()
            corners = _orientation(np.roll(ring, 1, axis=0), ring, np.roll(ring, -1, axis=0))
        if case % 3 == 0 and abs(int(corners.sum())) == len(ring):
            turning_stars.add(w)
            assert (turn != 0) == (w == 1)
    assert turning_stars == {1, 2, 3, 4}


@pytest.mark.parametrize("where", ["outer", "inner"])
def test_straight_angle_falls_back(where):
    """An exactly straight angle leaves a corner or fan triangle with
    orientation 0, so the count comes from the all-pairs test, unchanged."""
    emb, d = _straight_angle(where)
    validate(emb)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 0


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


@pytest.mark.parametrize("outer", [(0, 3, 4), (0, None, 1), ()], ids=["not-a-face", "non-integer", "empty"])
def test_outer_face_outside_the_traversal_falls_back(octahedron, outer):
    """crossing_count takes unvalidated embeddings: an outer face that names
    no traversed face leaves nothing to certify, and the count still comes."""
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    emb = PlanarEmbedding(octahedron.n, octahedron.rotation, outer)
    assert not _certified(d, emb)
    assert crossing_count(d, emb) == brute_crossing_count(d.positions, emb) == 0


def _bowtie():
    """Two triangles sharing vertex 0, drawn side by side: the outer face
    0-2-1-0-4-3 passes vertex 0 twice, so the face index is not simple."""
    emb = PlanarEmbedding(5, ((3, 2, 1, 4), (0, 2), (1, 0), (0, 4), (3, 0)), ())
    emb = PlanarEmbedding(emb.n, emb.rotation, max(emb.faces, key=len))
    pos = np.array([(0.0, 0.0), (-2.0, -1.0), (-2.0, 1.0), (2.0, 1.0), (2.0, -1.0)])
    return emb, Drawing(pos, OuterPolygon(emb.outer_face, pos[list(emb.outer_face)]), 0.0)


def _fallback_cases(octahedron):
    yield _pentagram()
    yield _straight_angle("outer")
    yield _straight_angle("inner")
    yield _bowtie()
    yield _square()
    for p1, p3 in [((1.0, -1.0), (1.0, 1.0)), ((1.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (3.0, 0.0))]:
        yield _two_segments(p1, p3)
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    for outer in [(0, 3, 4), (0, None, 1)]:
        yield PlanarEmbedding(octahedron.n, octahedron.rotation, outer), d


def _verdict(check, *args):
    try:
        return check(*args)
    except (InputError, TypeError) as exc:  # no traversal, or no such outer face
        return type(exc)


def test_checks_match_per_call_oracles(octahedron):
    """The indexed checks give the verdicts of the per-call face walks, on
    the drawing and on its unit-box copy, for the oracle drawings and every
    fallback case above."""
    verdicts = set()
    for emb, d in chain(oracle_drawings(), _fallback_cases(octahedron)):
        pts = d.positions
        for p in (_unit_box(pts), pts):
            got = _certified_planar(p, emb)
            assert got == scratch_certified_planar(p, emb)
            verdicts.add(("certified", got))
        got = _verdict(faces_convex, d, emb)
        assert got == _verdict(scratch_faces_convex, d, emb)
        verdicts.add(("convex", got))
    assert verdicts >= {("certified", True), ("certified", False), ("convex", True), ("convex", False)}


def test_face_index_built_once_per_embedding(monkeypatch):
    from stressdraw import graph

    calls = []
    build = graph._build_face_index
    monkeypatch.setattr(graph, "_build_face_index", lambda emb: calls.append(emb) or build(emb))
    emb = generate_planar(20, 50, seed=66)
    d = tutte(emb, regular_polygon(emb.outer_face))
    for _ in range(2):
        compute_metrics(d, emb)
        crossing_count(d, emb)
        faces_convex(d, emb)
        render_svg(d, emb)
    assert calls == [emb]


def test_face_index_follows_the_outer_face():
    """A twin embedding with another outer face gets its own index, which
    leaves out its own outer face, and both certify their Tutte drawings."""
    emb = generate_planar(20, 45, seed=67)
    other = next(f for f in emb.faces if set(f) != set(emb.outer_face))
    twin = _with_outer_face(emb, other)
    for e in (emb, twin, emb):
        index = e._face_index
        inner = [f for i, f in enumerate(e.faces) if i != e.outer_index]
        assert index.ring.tolist() == list(e.faces[e.outer_index])
        assert index.fans.T.tolist() == [[f[0], f[j], f[j + 1]] for f in inner for j in range(1, len(f) - 1)]
        assert index.corners.T.tolist() == [[f[j - 2], f[j - 1], f[j]] for f in inner for j in range(len(f))]
        assert index.corners.shape == (3, 2 * e.m - len(e.outer_face))
        assert index.corner_starts.tolist() == np.cumsum([0] + [len(f) for f in inner[:-1]]).tolist()
        assert index.simple
        d = tutte(e, regular_polygon(e.outer_face))
        assert _certified(d, e) and faces_convex(d, e)
    assert emb._face_index is not twin._face_index


def _folded_at(radius):
    """The Tutte drawing of generate_planar(30, 60, 1) at this radius with
    one interior vertex moved out of place: 5 crossings."""
    emb = generate_planar(30, 60, 1)
    d = tutte(emb, regular_polygon(emb.outer_face, radius))
    pos = d.positions.copy()
    pos[min(set(range(emb.n)) - set(emb.outer_face))] = (0.9 * radius, 0.0)
    return emb, Drawing(pos, d.polygon, d.residual)


@pytest.mark.parametrize("radius", [1.0, 1e-150, 1e-170, 1e300])
def test_convexity_is_scale_free(radius):
    """Cross products neither underflow into a convex verdict at tiny radii
    nor overflow the tolerance at huge ones: the Tutte drawing is reported
    as it is."""
    emb, f = _folded_at(radius)
    assert crossing_count(f, emb) == 5
    assert not faces_convex(f, emb)
    d = tutte(emb, f.polygon)
    assert faces_convex(d, emb)
    assert crossing_count(d, emb) == 0


def _exact_sign(o, p, q) -> int:
    """Sign of the orientation determinant of three float points, in exact
    rational arithmetic."""
    (ox, oy), (px, py), (qx, qy) = (map(Fraction, v) for v in (o, p, q))
    det = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
    return (det > 0) - (det < 0)


@pytest.mark.parametrize("pts, planar", [
    # vertex 3 lies a hair outside the edge 0-2 in the stored floats, inside it in the copy
    ([(1.7761060154829345, -2.0441451261823227), (-0.0327589965479369, -2.9927348551589477),
      (1.7448747969901746, 1.6290372073216695), (1.7541736276954312, 0.5353782879070742)], False),
    # vertex 3 lies a hair inside the edge 0-2 in the stored floats, outside it in the copy
    ([(0.10060926132246095, -2.6812397999384814), (-1.6884806516541004, 2.8458149047260033),
      (-0.34414283876728025, -0.16866514745910743), (-0.011116456199952815, -2.050058506313911)], True),
], ids=["folded", "planar"])
def test_certificate_reads_the_stored_floats(k4, pts, planar, monkeypatch):
    """A tetrahedron whose inner vertex sits within rounding of an outer
    edge: the exact sign of the fan triangle (0, 2, 3) flips between the
    stored floats and their unit-box copy, and crossing_count's certificate
    gives the stored floats' verdict."""
    from stressdraw import metrics

    pts = np.array(pts)
    sides = [_exact_sign(*p[[0, 2, 3]]) * _exact_sign(*p[[0, 2, 1]]) for p in (pts, _unit_box(pts))]
    assert sides == ([1, -1] if planar else [-1, 1])  # 1: on the side of vertex 1
    verdicts = []
    certify = metrics._certified_planar
    monkeypatch.setattr(metrics, "_certified_planar", lambda p, emb: verdicts.append(certify(p, emb)) or verdicts[-1])
    poly = OuterPolygon(k4.outer_face, pts[list(k4.outer_face)])
    assert crossing_count(Drawing(pts, poly, 0.0), k4) == 0
    assert verdicts == [planar]
