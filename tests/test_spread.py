"""Orientation, path counting, and the directional spread pipeline."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    dict_count_paths,
    dict_spread_weights,
    dict_st_orient,
    dict_target_x,
    enumerate_canonical_paths,
    scratch_solve_stress,
)

from stressdraw import (
    DegeneratePosition,
    Drawing,
    NotStOrientation,
    OuterPolygon,
    PlanarEmbedding,
    PreconditionError,
    ZeroGap,
    count_paths,
    crossing_count,
    ensure_general_position,
    faces_convex,
    generate_planar,
    regular_polygon,
    rotate_drawing,
    spread_pipeline,
    spread_weights,
    st_orient,
    target_x,
    tutte,
)

TARGET_RTOL = 1e-6


def _path_graph():
    emb = PlanarEmbedding(
        5,
        ((1,), (0, 2), (1, 3), (2, 4), (3,)),
        (0, 4),
    )
    poly = OuterPolygon((0, 4), {0: (0.0, 0.0), 4: (1.0, 0.0)})
    pos = np.array([(v / 4 if v != 1 else 0.3, 0.0) for v in range(5)])
    return emb, poly, Drawing(pos, poly, 0.0)


def _house_graph():
    """Four vertices on a line; edge (1,2) belongs to neither extreme tree."""
    emb = PlanarEmbedding(
        4,
        ((1, 2), (0, 2, 3), (0, 1, 3), (1, 2)),
        (0, 3),
    )
    poly = OuterPolygon((0, 3), {0: (0.0, 0.0), 3: (3.0, 0.0)})
    pos = np.array([(0.0, 0.0), (1.0, 0.2), (2.0, -0.1), (3.0, 0.0)])
    return emb, poly, Drawing(pos, poly, 0.0)


def test_general_position_keeps_good_drawing(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    # the symmetric frame itself has an x tie, so pre-rotate off the axis
    d = rotate_drawing(tutte(octahedron, poly), 0.3)
    fixed, angle = ensure_general_position(d)
    assert angle == 0.0
    assert np.array_equal(fixed.positions, d.positions)


def test_general_position_rotates_axis_aligned_square():
    emb = PlanarEmbedding(4, ((1, 3), (0, 2), (1, 3), (2, 0)), (0, 1, 2, 3))
    poly = regular_polygon(emb.outer_face)
    d = Drawing(np.array([poly.positions[v] for v in range(4)]), poly, 0.0)
    xs = sorted(d.positions[:, 0].tolist())
    assert any(abs(a - b) < 1e-12 for a, b in zip(xs, xs[1:]))
    fixed, angle = ensure_general_position(d)
    assert angle != 0.0
    fx = sorted(fixed.positions[:, 0].tolist())
    assert all(b - a > 1e-9 for a, b in zip(fx, fx[1:]))


def test_general_position_gives_up_on_coincident_points(k4):
    poly = regular_polygon(k4.outer_face)
    # vertices 0, 1, 2 are pinned; 3 sits on top of the first of them
    pos = np.array([poly.positions[v] for v in (0, 1, 2, k4.outer_face[0])])
    with pytest.raises(DegeneratePosition):
        ensure_general_position(Drawing(pos, poly, 0.0))


def test_st_orient_k4(k4):
    poly = regular_polygon(k4.outer_face)
    d, _ = ensure_general_position(tutte(k4, poly))
    o = st_orient(d, k4)
    assert set(o.order.tolist()) == set(range(4))
    assert o.rank[o.source] == 0
    assert o.rank[o.sink] == 3
    for u, v in zip(o.tail.tolist(), o.head.tolist()):
        assert o.rank[u] < o.rank[v]
    assert o.out_deg[o.sink] == 0
    assert o.in_deg[o.source] == 0


def test_st_orient_acyclic_on_octahedron(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    d, _ = ensure_general_position(tutte(octahedron, poly))
    o = st_orient(d, octahedron)
    assert sorted(o.rank.tolist()) == list(range(6))
    for u, v in zip(o.tail.tolist(), o.head.tolist()):
        assert o.rank[u] < o.rank[v]
    # every non-extreme vertex has both kinds of incident edges
    for v in range(6):
        if v not in (o.source, o.sink):
            assert o.out_deg[v] > 0 and o.in_deg[v] > 0


def test_st_orient_rejects_interior_extreme():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.5, 0.0), 2: (1.0, 0.0)})
    d = Drawing(np.array([(0.5, 0.0), (0.0, 0.0), (1.0, 0.0)]), poly, 0.0)
    with pytest.raises(NotStOrientation):
        st_orient(d, emb)


def test_targets_single_interior():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), {0: (0.0, 0.0), 2: (1.0, 0.0)})
    d = Drawing(np.array([(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)]), poly, 0.0)
    o = st_orient(d, emb)
    t = target_x(o, poly)
    assert t[0] == 0.0 and t[2] == 1.0
    assert abs(t[1] - 0.5) < 1e-12


def test_targets_even_spacing_on_path():
    emb, poly, d = _path_graph()
    o = st_orient(d, emb)
    t = target_x(o, poly)
    want = {0: 0.0, 1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0}
    for v, x in want.items():
        assert abs(t[v] - x) < 1e-12
    counts = count_paths(o)
    assert all(c == 4 for c in counts.tolist())


def test_house_graph_counts_frozen():
    emb, _, d = _house_graph()
    o = st_orient(d, emb)
    counts = count_paths(o)
    directed = zip(o.tail.tolist(), o.head.tolist())
    assert dict(zip(directed, counts.tolist())) == {
        (0, 1): 3, (0, 2): 2, (1, 2): 1, (1, 3): 2, (2, 3): 3}
    assert np.array_equal(counts, enumerate_canonical_paths(o))


def test_counts_match_enumeration_on_fixtures(k4, octahedron, two_ring_wheel):
    for emb in (k4, octahedron, two_ring_wheel):
        poly = regular_polygon(emb.outer_face)
        d, _ = ensure_general_position(tutte(emb, poly))
        o = st_orient(d, emb)
        assert np.array_equal(count_paths(o), enumerate_canonical_paths(o))


def test_count_sum_identity(octahedron):
    """Total of per-edge counts equals the total length of all canonical paths."""
    poly = regular_polygon(octahedron.outer_face)
    d, _ = ensure_general_position(tutte(octahedron, poly))
    o = st_orient(d, octahedron)
    counts = count_paths(o)
    lengths = 0
    for a, b in zip(o.tail.tolist(), o.head.tolist()):
        up = [a]
        while o.t1_parent[up[-1]] >= 0:
            up.append(o.t1_parent[up[-1]])
        down = [b]
        while o.tn_parent[down[-1]] >= 0:
            down.append(o.tn_parent[down[-1]])
        lengths += len(up) + len(down) - 1
    assert counts.sum() == lengths


def test_spread_weights_formula():
    emb, poly, d = _house_graph()
    o = st_orient(d, emb)
    t = target_x(o, poly)
    counts = count_paths(o)
    w = spread_weights(o, t, counts)
    assert w.shape == (emb.m,)
    gap = t[1] - t[0]
    assert abs(w[emb.edges().index((0, 1))] - 3.0 / gap) < 1e-12
    assert all(v > 0 for v in w)


def test_spread_weights_zero_gap():
    emb, poly, d = _house_graph()
    o = st_orient(d, emb)
    counts = count_paths(o)
    t = np.array([0.0, 0.5, 0.5, 3.0])
    with pytest.raises(ZeroGap):
        spread_weights(o, t, counts)


def test_pipeline_hits_targets_exactly(k4, octahedron):
    for emb in (k4, octahedron):
        poly = regular_polygon(emb.outer_face)
        res = spread_pipeline(emb, poly)
        tol = TARGET_RTOL * poly.radius
        for v, x in enumerate(res.targets.tolist()):
            assert abs(res.frame.positions[v][0] - x) <= tol
        assert all(w > 0 for w in res.weights)


def test_pipeline_direction_rotates_frame(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    a = spread_pipeline(octahedron, poly, direction=0.0)
    b = spread_pipeline(octahedron, poly, direction=math.pi / 2)
    assert a.angle != b.angle
    # final drawings stay planar and convex either way
    for res in (a, b):
        assert crossing_count(res.drawing, octahedron) == 0
        assert faces_convex(res.drawing, octahedron)


def test_spread_drawing_planar_on_generated():
    from stressdraw import generate_planar

    for seed in (21, 22, 23):
        emb = generate_planar(16, 36, seed=seed)
        poly = regular_polygon(emb.outer_face)
        res = spread_pipeline(emb, poly)
        w, d = res.weights, res.drawing
        assert crossing_count(d, emb) == 0
        assert faces_convex(d, emb)
        assert all(v > 0 for v in w)


def test_rotate_drawing_round_trip(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    d = tutte(octahedron, poly)
    r = rotate_drawing(rotate_drawing(d, 0.7), -0.7)
    for v in range(octahedron.n):
        assert abs(r.positions[v][0] - d.positions[v][0]) < 1e-12
        assert abs(r.positions[v][1] - d.positions[v][1]) < 1e-12


# ---------------------------------------------------------------------------
# differential: the array construction against the dict-based oracle
# ---------------------------------------------------------------------------

DIFFERENTIAL_GRAPHS = [(n, m, seed) for n, m in ((8, 12), (20, 54), (45, 110)) for seed in (1, 2, 3)]
DIFFERENTIAL_GRAPHS.append((300, 894, 4))


@pytest.mark.parametrize("n, m, seed", DIFFERENTIAL_GRAPHS)
def test_spread_matches_dict_oracle(n, m, seed):
    """Orientation, both BFS trees, counts, targets, weights and the solved
    drawing equal the dict-based construction with an uncached solve, to
    the last bit, in three directions."""
    emb = generate_planar(n, m, seed=seed)
    poly = regular_polygon(emb.outer_face)
    ref = tutte(emb, poly)
    for direction in (0.0, math.radians(37.0), math.pi / 2):
        res = spread_pipeline(emb, poly, direction, reference=ref)
        pos, _ = ensure_general_position(rotate_drawing(ref, -direction))
        old = dict_st_orient(pos, emb)
        o = res.orientation
        assert o.order.tolist() == list(old.order)
        assert o.rank.tolist() == [old.rank[v] for v in range(n)]
        directed = list(zip(o.tail.tolist(), o.head.tolist()))
        assert sorted(directed) == old.directed_edges()
        assert o.out_deg.tolist() == [len(w) for w in old.out_nbrs]
        assert o.in_deg.tolist() == [len(w) for w in old.in_nbrs]
        assert o.t1_parent.tolist() == [old.t1_parent.get(v, -1) for v in range(n)]
        assert o.tn_parent.tolist() == [old.tn_parent.get(v, -1) for v in range(n)]
        old_counts = dict_count_paths(old)
        assert np.array_equal(count_paths(o), [old_counts[e] for e in directed])
        old_targets = dict_target_x(old, pos.polygon)
        assert np.array_equal(res.targets, [old_targets[v] for v in range(n)])
        old_weights = dict_spread_weights(old, old_targets, old_counts)
        assert np.array_equal(res.weights, old_weights)
        scratch = scratch_solve_stress(emb, old_weights, poly)
        assert np.array_equal(res.drawing.positions, scratch.positions)
        assert res.drawing.residual == scratch.residual


def _orient_both(emb, xs):
    d = Drawing(np.array([(x, 0.1 * v) for v, x in enumerate(xs)]), OuterPolygon((), {}), 0.0)
    return lambda: st_orient(d, emb), lambda: dict_st_orient(d, emb)


def _targets_both(pins):
    emb, _, d = _path_graph()
    poly = OuterPolygon(tuple(pins), {v: (x, 0.0) for v, x in pins.items()})
    return (lambda: target_x(st_orient(d, emb), poly),
            lambda: dict_target_x(dict_st_orient(d, emb), poly))


def _zero_gap_both():
    emb, _, d = _house_graph()
    t = [0.0, 0.5, 0.5, 3.0]
    o, old = st_orient(d, emb), dict_st_orient(d, emb)
    return (lambda: spread_weights(o, np.array(t), count_paths(o)),
            lambda: dict_spread_weights(old, dict(enumerate(t)), dict_count_paths(old)))


_PATH3 = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
# two components: vertices 2 and 3 cannot be reached from the source 0
_SPLIT = PlanarEmbedding(4, ((1,), (0,), (3,), (2,)), (0, 3))

REJECTIONS = {
    "shared-x": (DegeneratePosition, lambda: _orient_both(_PATH3, [0.0, 1.0, 1.0])),
    "interior-extreme": (NotStOrientation, lambda: _orient_both(_PATH3, [0.5, 0.0, 1.0])),
    "unreachable": (NotStOrientation, lambda: _orient_both(_SPLIT, [0.0, 1.0, 2.0, 3.0])),
    "interior-leftmost": (PreconditionError, lambda: _targets_both({1: 0.3, 4: 1.0})),
    "interior-rightmost": (PreconditionError, lambda: _targets_both({0: 0.0, 3: 0.75})),
    "pinned-not-increasing": (PreconditionError, lambda: _targets_both({0: 0.0, 4: -1.0})),
    "zero-gap": (ZeroGap, _zero_gap_both),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections_match_dict_oracle(case):
    """Each rejection raises the same exception class as the oracle."""
    error, both = REJECTIONS[case]
    for call in both():
        with pytest.raises(error) as info:
            call()
        assert info.type is error
