"""Known failures on the nested family, as strict xfails.

Each test asserts what the method must give, and is marked with the error
it raises today and the ROADMAP item that owns the fix. Strict marks make a
fix fail the suite until its mark is removed, and raises= makes any other
failure fail it too.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import turn

from stressdraw import (
    NotStOrientation,
    ZeroLengthEdge,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    morph_weights,
    regular_polygon,
    spread_pipeline,
    tutte,
    worst_case_graph,
    xy_morph,
)
from stressdraw.spread import TARGET_RTOL


@pytest.mark.xfail(
    strict=True, raises=ZeroLengthEdge,
    reason="the float solve collapses an edge that the rounded exact drawing keeps "
           "(ROADMAP items 5 and 16)",
)
def test_tutte_ratio_on_the_nested_family_is_finite():
    emb = worst_case_graph(31)
    assert math.isfinite(edge_length_ratio(tutte(emb, regular_polygon(emb.outer_face)), emb))


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
