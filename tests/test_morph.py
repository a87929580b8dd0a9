"""Weight interpolation between perpendicular spreads and the angle sweep."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import record_solves

from stressdraw import (
    BadParams,
    EdgeSetMismatch,
    best_row,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    kaleidoscope,
    morph_weights,
    regular_polygon,
    rows_to_csv,
    save_graph,
    spread_pipeline,
    tutte,
    worst_case_graph,
    xy_morph,
)
from stressdraw import cli


def test_morph_endpoints_are_exact():
    w0 = np.array([2.0, 5.0])
    w1 = np.array([6.0, 1.0])
    assert np.array_equal(morph_weights(w0, w1, 0.0), w0)
    assert np.array_equal(morph_weights(w0, w1, 1.0), w1)


def test_morph_midpoint():
    w0 = np.array([2.0])
    w1 = np.array([6.0])
    assert np.array_equal(morph_weights(w0, w1, 0.5), [4.0])


def test_morph_identical_inputs_fixed_point():
    w = np.array([3.25, 0.5])
    for t in (0.0, 0.25, 0.5, 1.0):
        assert np.array_equal(morph_weights(w, w, t), w)


def test_morph_is_convex_combination():
    """morph(t) == (1-t)*w0 + t*w1 bitwise, same expression order."""
    w0 = [2.0, 0.3, 7.5]
    w1 = [9.0, 4.4, 0.2]
    for t in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.875, 1.0):
        got = morph_weights(np.array(w0), np.array(w1), t)
        for e in range(3):
            assert got[e] == (1.0 - t) * w0[e] + t * w1[e]


def test_morph_rejects_mismatched_edges():
    with pytest.raises(EdgeSetMismatch):
        morph_weights(np.array([1.0, 1.0]), np.array([1.0]), 0.5)
    with pytest.raises(EdgeSetMismatch):
        morph_weights(np.array([1.0]), np.array([1.0, 1.0]), 0.5)


def test_morph_rejects_bad_t():
    w = np.array([1.0])
    for t in (-0.1, 1.1, float("nan")):
        with pytest.raises(BadParams):
            morph_weights(w, w, t)


def test_xy_morph_blends_perpendicular_spreads(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    w0 = spread_pipeline(octahedron, poly, direction=0.0).weights
    w1 = spread_pipeline(octahedron, poly, direction=math.pi / 2).weights
    got, d = xy_morph(octahedron, poly, angle=0.0, t=0.5)
    assert np.array_equal(got, morph_weights(w0, w1, 0.5))
    assert crossing_count(d, octahedron) == 0
    assert faces_convex(d, octahedron)


def test_xy_morph_at_t_zero_is_pure_x_spread(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    w, _ = xy_morph(octahedron, poly, angle=0.0, t=0.0)
    assert np.array_equal(w, spread_pipeline(octahedron, poly, direction=0.0).weights)


def test_morph_beats_tutte_on_nested_triangles():
    emb = worst_case_graph(12)
    poly = regular_polygon(emb.outer_face)
    base = edge_length_ratio(tutte(emb, poly), emb)
    _, d = xy_morph(emb, poly, angle=0.0, t=0.5)
    assert edge_length_ratio(d, emb) < base


def test_kaleidoscope_row_count(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    rows = kaleidoscope(octahedron, poly, step_degrees=5.0)
    assert [r.angle_degrees for r in rows] == [5.0 * i for i in range(19)]
    assert all(r.ratio >= 1.0 for r in rows)


@pytest.mark.parametrize("step, spreads", [(5.0, 37), (7.0, 27), (90.0, 3)])
def test_kaleidoscope_spreads_each_direction_once(monkeypatch, step, spreads):
    """Rows blend the spread weights along angle and angle + 90 degrees;
    the 90 degree direction serves two rows and is planned once. No spread
    is solved: the weightings solved are the reference and one blend per
    row. Every row's drawing and ratio equal the xy-morph at its angle."""
    from stressdraw import morph
    from stressdraw.spread import _direction_plans

    emb = generate_planar(14, 32, seed=31)
    poly = regular_polygon(emb.outer_face)
    calls = []

    def counted(emb, reference, directions):
        calls.extend(directions)
        return _direction_plans(emb, reference, directions)

    monkeypatch.setattr(morph, "_direction_plans", counted)
    solved = record_solves(monkeypatch)
    rows = kaleidoscope(emb, poly, step)
    assert len(calls) == len(set(calls)) == spreads
    assert len(rows) == math.ceil(90.0 / step) + 1
    assert len(solved) == 1 + len(rows)
    for row in rows:
        _, d = xy_morph(emb, poly, math.radians(row.angle_degrees))
        assert np.array_equal(row.drawing.positions, d.positions)
        assert row.ratio == edge_length_ratio(d, emb)


def test_xy_morph_solves_only_its_blend(monkeypatch, octahedron):
    """xy_morph solves the unit-weight reference and the blend, nothing
    else; the blend is the weighting returned."""
    poly = regular_polygon(octahedron.outer_face)
    solved = record_solves(monkeypatch)
    w, _ = xy_morph(octahedron, poly, 0.3)
    assert len(solved) == 2 and solved[1] is w
    assert np.array_equal(solved[0], np.ones(octahedron.m))


def test_sweeps_search_once(monkeypatch):
    """One breadth-first search grows the trees of every direction of a
    kaleidoscope, and of both directions of an xy-morph."""
    from stressdraw import spread

    searches = []
    search = spread.breadth_first_order
    monkeypatch.setattr(spread, "breadth_first_order",
                        lambda *a, **k: searches.append(1) or search(*a, **k))
    emb = generate_planar(14, 32, seed=31)
    poly = regular_polygon(emb.outer_face)
    kaleidoscope(emb, poly, 5.0)
    assert len(searches) == 1
    xy_morph(emb, poly, 0.3)
    assert len(searches) == 2


def test_kaleidoscope_appends_endpoint_when_step_misses(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    rows = kaleidoscope(octahedron, poly, step_degrees=7.0)
    angles = [r.angle_degrees for r in rows]
    assert angles == [7.0 * i for i in range(13)] + [90.0]
    rows = kaleidoscope(octahedron, poly, step_degrees=90.0)
    assert [r.angle_degrees for r in rows] == [0.0, 90.0]


@pytest.mark.parametrize("n", [39, 78, 156])
def test_kaleidoscope_has_one_90_degree_row(octahedron, n):
    """At step 90/n, n * step lands a hair below 90: the rows are the n
    multiples of step below it and one 90-degree row, not a second one at
    89.99999999999999."""
    step = 90.0 / n
    assert n * step < 90.0
    rows = kaleidoscope(octahedron, regular_polygon(octahedron.outer_face), step)
    assert [r.angle_degrees for r in rows] == [k * step for k in range(n)] + [90.0]


def test_kaleidoscope_endpoints_agree(octahedron):
    """Sweep angle 0 and sweep angle 90 describe the same blended drawing."""
    poly = regular_polygon(octahedron.outer_face)
    rows = kaleidoscope(octahedron, poly, step_degrees=90.0)
    assert abs(rows[0].ratio - rows[1].ratio) < 1e-6 * max(rows[0].ratio, 1.0)


def test_kaleidoscope_rows_are_planar():
    emb = generate_planar(14, 32, seed=31)
    poly = regular_polygon(emb.outer_face)
    rows = kaleidoscope(emb, poly, step_degrees=30.0)
    for row in rows:
        _, d = xy_morph(emb, poly, angle=math.radians(row.angle_degrees), t=0.5)
        assert crossing_count(d, emb) == 0
        assert abs(edge_length_ratio(d, emb) - row.ratio) < 1e-9 * row.ratio


def test_kaleidoscope_rejects_bad_step(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    for step in (0.0, -5.0, 91.0):
        with pytest.raises(BadParams):
            kaleidoscope(octahedron, poly, step_degrees=step)
    # a subnormal step has no finite row count
    with pytest.raises(BadParams, match=r"^step 5e-324 gives inf rows"):
        kaleidoscope(octahedron, poly, step_degrees=5e-324)


def test_best_and_worst_rows(tmp_path, capsys):
    """best_row is the lowest ratio, and the kaleidoscope command's worst
    row the highest; ties resolve toward the smaller angle."""
    emb = generate_planar(16, 38, seed=33)
    poly = regular_polygon(emb.outer_face)
    rows = kaleidoscope(emb, poly, step_degrees=15.0)
    b = best_row(rows)
    assert b.ratio == min(r.ratio for r in rows)
    first_best = next(r for r in rows if r.ratio == b.ratio)
    assert b.angle_degrees == first_best.angle_degrees
    path = tmp_path / "g.json"
    save_graph(emb, path)
    assert cli.run(["kaleidoscope", str(path), "--step", "15", "--out-csv", str(tmp_path / "rows.csv")]) == 0
    top = max(r.ratio for r in rows)
    w = next(r for r in rows if r.ratio == top)
    assert f" worst_angle={w.angle_degrees:g} worst_ratio={w.ratio:.6f}\n" in capsys.readouterr().out


def test_rows_to_csv_format(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    rows = kaleidoscope(octahedron, poly, step_degrees=45.0)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "angle_degrees,edge_length_ratio"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        a, r = line.split(",")
        assert float(a) == row.angle_degrees
        # ratios are written with six decimal places
        assert abs(float(r) - row.ratio) < 1e-6
