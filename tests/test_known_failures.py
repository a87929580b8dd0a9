"""Known failures, as strict xfails: the nested family, the 30-degree
x-spread at n = 3 * 10**4, the drawings of a relabelled triangulation
that has several Schnyder woods, and the crossing count of a folded
drawing.

Each test asserts what the method must give, and is marked with the error
it raises today and the ROADMAP item that owns the fix. Strict marks make a
fix fail the suite until its mark is removed, and raises= makes any other
failure fail it too. A check against an exact oracle also runs where the
method is right today, so the oracle is shown to pass there.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import exact_crossing_count, exact_tutte_positions, flip_edges, relabelled, turn

from stressdraw import (
    NotStOrientation,
    ResidualExceeded,
    ZeroLengthEdge,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    morph_weights,
    regular_polygon,
    schnyder_spread,
    spread_pipeline,
    tutte,
    worst_case_graph,
    xy_morph,
)
from stressdraw.metrics import _certified_planar
from stressdraw.solver import Drawing
from stressdraw.spread import TARGET_RTOL


@pytest.mark.xfail(
    strict=True, raises=ZeroLengthEdge,
    reason="the float solve collapses an edge that the rounded exact drawing keeps "
           "(ROADMAP items 5 and 16)",
)
def test_tutte_ratio_on_the_nested_family_is_finite():
    emb = worst_case_graph(31)
    assert math.isfinite(edge_length_ratio(tutte(emb, regular_polygon(emb.outer_face)), emb))


def _ratio(drawing, emb):
    """edge_length_ratio of the drawing, or ZeroLengthEdge where it raises that."""
    try:
        return edge_length_ratio(drawing, emb)
    except ZeroLengthEdge:
        return ZeroLengthEdge


@pytest.mark.parametrize("k", [10, pytest.param(33, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ratio 3.513e+31 where the rounded exact drawing has 2 zero-length edges "
           "(ROADMAP items 5, 16 and 18)",
))])
def test_tutte_ratio_is_the_rounded_exact_drawings(k):
    """tutte on worst_case_graph(k) has the edge-length ratio, within 1e-9,
    of the exact drawing rounded to float64, or raises ZeroLengthEdge where
    that drawing has a zero-length edge."""
    emb = worst_case_graph(k)
    poly = regular_polygon(emb.outer_face)
    want = _ratio(Drawing(np.array(exact_tutte_positions(emb, poly), dtype=float), poly, 0.0), emb)
    got = _ratio(tutte(emb, poly), emb)
    if want is ZeroLengthEdge:
        assert got is ZeroLengthEdge, got
    else:
        assert got is not ZeroLengthEdge and math.isclose(got, want, rel_tol=1e-9), (got, want)


def _hits_targets(res, emb, poly, direction) -> None:
    frame = turn(res.drawing.positions, -direction)
    assert np.abs(frame[:, 0] - res.targets).max() <= TARGET_RTOL * poly.radius
    assert crossing_count(res.drawing, emb) == 0
    assert faces_convex(res.drawing, emb)


@pytest.mark.xfail(
    strict=True, raises=NotStOrientation,
    reason="vertex 30 has no outgoing edge: the orientation is read from the float "
           "drawing (ROADMAP item 2)",
)
def test_y_spread_on_the_nested_family_hits_its_targets():
    emb = worst_case_graph(31)
    poly = regular_polygon(emb.outer_face)
    _hits_targets(spread_pipeline(emb, poly, math.pi / 2), emb, poly, math.pi / 2)


@pytest.mark.xfail(
    strict=True, raises=NotStOrientation,
    reason="vertex 30 has no outgoing edge: the orientation is read from the float "
           "drawing (ROADMAP item 2)",
)
def test_xy_morph_on_the_nested_family_blends_exact_spreads():
    emb = worst_case_graph(31)
    poly = regular_polygon(emb.outer_face)
    weights, drawing = xy_morph(emb, poly)
    spreads = [spread_pipeline(emb, poly, direction) for direction in (0.0, math.pi / 2)]
    for res, direction in zip(spreads, (0.0, math.pi / 2)):
        _hits_targets(res, emb, poly, direction)
    assert np.array_equal(weights, morph_weights(spreads[0].weights, spreads[1].weights))
    assert crossing_count(drawing, emb) == 0
    assert faces_convex(drawing, emb)


@pytest.mark.xfail(
    strict=True, raises=ResidualExceeded,
    reason="equilibrium residual 5.792e-08 exceeds 1.000e-08: the gate is absolute while "
           "the spread weights span ten decades (ROADMAP item 7)",
)
def test_x_spread_at_thirty_degrees_hits_its_targets_at_n_3e4():
    emb = generate_planar(30_000, 90_000 - 6, 1)
    poly = regular_polygon(emb.outer_face)
    direction = math.radians(30)
    res = spread_pipeline(emb, poly, direction)
    frame = turn(res.drawing.positions, -direction)
    assert np.abs(frame[:, 0] - res.targets).max() <= TARGET_RTOL * poly.radius


RELABEL_METHODS = {
    "schnyder": lambda emb, poly: schnyder_spread(emb, poly, r=2.0),
    "xspread": lambda emb, poly: spread_pipeline(emb, poly, 0.0).drawing,
}


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the Schnyder peel and the st-order break ties by vertex id (ROADMAP item 17)",
)
@pytest.mark.parametrize("method", RELABEL_METHODS)
def test_drawings_of_a_flipped_triangulation_do_not_depend_on_vertex_ids(method):
    """A flipped triangulation has several Schnyder woods; drawn after a
    relabelling, it must give the drawing of the graph, relabelled, within
    1e-12 times the radius. Today the two move by 0.066 and 0.049."""
    emb = flip_edges(generate_planar(15, 39, 15), 60, 15)
    perm, twin = relabelled(emb, random.Random(15))
    draw = RELABEL_METHODS[method]
    d = draw(emb, regular_polygon(emb.outer_face))
    twin_d = draw(twin, regular_polygon(twin.outer_face))
    assert np.abs(twin_d.positions[perm] - d.positions).max() <= 1e-12 * d.polygon.radius


def _schnyder_r2(seed: int):
    emb = generate_planar(600, 1794, seed)
    return emb, schnyder_spread(emb, regular_polygon(emb.outer_face), r=2.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="crossing_count forgives crossings under CROSSING_EPS: 0 where the exact count "
           "is 23 (ROADMAP item 4)",
)
def test_crossing_count_of_a_folded_schnyder_drawing_is_exact():
    """schnyder r = 2 on generate_planar(600, 1794, 3101) has 4 inverted
    fan triangles, in float and in exact signs; its proper crossings,
    counted with exact signs, are 23."""
    emb, d = _schnyder_r2(3101)
    assert crossing_count(d, emb) == exact_crossing_count(d.positions, emb)


def test_exact_crossing_count_is_zero_on_a_certified_drawing():
    """schnyder r = 2 on generate_planar(600, 1794, 3001), once listed as
    folded, orients every fan triangle strictly: the certificate holds, and
    the exact oracle finds no crossing either."""
    emb, d = _schnyder_r2(3001)
    assert _certified_planar(d.positions, emb)
    assert exact_crossing_count(d.positions, emb) == 0 == crossing_count(d, emb)
