"""Orientation, path counting, and the directional spread pipeline."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    dict_count_paths,
    dict_spread_weights,
    dict_st_orient,
    dict_target_x,
    enumerate_canonical_paths,
    flip_edges,
    record_solves,
    scratch_solve_stress,
    turn,
)

from stressdraw import (
    NotStOrientation,
    OuterPolygon,
    PlanarEmbedding,
    PreconditionError,
    ResidualExceeded,
    StressDrawError,
    ZeroGap,
    count_paths,
    crossing_count,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    kaleidoscope,
    regular_polygon,
    schnyder_wood,
    solve_stress,
    spread_pipeline,
    spread_weights,
    st_orient,
    target_x,
    tutte,
    uniform_pipeline,
    worst_case_graph,
    xy_morph,
)
from stressdraw import spread, uniform
from stressdraw.solver import Drawing
from stressdraw.spread import _direction_plans

TARGET_RTOL = 1e-6


def _path_graph():
    emb = PlanarEmbedding(
        5,
        ((1,), (0, 2), (1, 3), (2, 4), (3,)),
        (0, 4),
    )
    poly = OuterPolygon((0, 4), np.array([(0.0, 0.0), (1.0, 0.0)]))
    x = np.array([v / 4 if v != 1 else 0.3 for v in range(5)])
    return emb, poly, x


def _house_graph():
    """Four vertices on a line; edge (1,2) belongs to neither extreme tree."""
    emb = PlanarEmbedding(
        4,
        ((1, 2), (0, 2, 3), (0, 1, 3), (1, 2)),
        (0, 3),
    )
    poly = OuterPolygon((0, 3), np.array([(0.0, 0.0), (3.0, 0.0)]))
    x = np.array([0.0, 1.0, 2.0, 3.0])
    return emb, poly, x


def test_st_orient_k4(k4):
    poly = regular_polygon(k4.outer_face)
    x = tutte(k4, poly).positions[None, :, 0]
    o = st_orient(x, k4)
    order, rank = o.order[0], o.rank[0]
    assert set(order.tolist()) == set(range(4))
    assert rank[order[0]] == 0
    assert rank[order[-1]] == 3
    for u, v in zip(o.tail[0].tolist(), o.head[0].tolist()):
        assert rank[u] < rank[v]
    assert o.out_deg[0, order[-1]] == 0
    assert o.in_deg[0, order[0]] == 0


def test_st_orient_acyclic_on_octahedron(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    x = tutte(octahedron, poly).positions[None, :, 0]
    o = st_orient(x, octahedron)
    order, rank = o.order[0], o.rank[0]
    assert sorted(rank.tolist()) == list(range(6))
    for u, v in zip(o.tail[0].tolist(), o.head[0].tolist()):
        assert rank[u] < rank[v]
    # every non-extreme vertex has both kinds of incident edges
    for v in range(6):
        if v not in (order[0], order[-1]):
            assert o.out_deg[0, v] > 0 and o.in_deg[0, v] > 0


def test_st_orient_rejects_interior_extreme():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    with pytest.raises(NotStOrientation):
        st_orient(np.array([[0.5, 0.0, 1.0]]), emb)


def test_targets_single_interior():
    emb = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
    poly = OuterPolygon((0, 2), np.array([(0.0, 0.0), (1.0, 0.0)]))
    x = np.array([[0.0, 0.3, 1.0]])
    o = st_orient(x, emb)
    t = target_x(o, x)[0]
    assert t[0] == 0.0 and t[2] == 1.0
    assert abs(t[1] - 0.5) < 1e-12


def test_targets_even_spacing_on_path():
    emb, poly, x = _path_graph()
    o = st_orient(x[None], emb)
    t = target_x(o, x[None])[0]
    want = {0: 0.0, 1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0}
    for v, x in want.items():
        assert abs(t[v] - x) < 1e-12
    counts = count_paths(o)
    assert all(c == 4 for c in counts[0].tolist())


def test_house_graph_counts_frozen():
    emb, _, x = _house_graph()
    o = st_orient(x[None], emb)
    counts = count_paths(o)
    directed = zip(o.tail[0].tolist(), o.head[0].tolist())
    assert dict(zip(directed, counts[0].tolist())) == {
        (0, 1): 3, (0, 2): 2, (1, 2): 1, (1, 3): 2, (2, 3): 3}
    assert np.array_equal(counts, enumerate_canonical_paths(o))


def test_counts_match_enumeration_on_fixtures(k4, octahedron, two_ring_wheel):
    for emb in (k4, octahedron, two_ring_wheel):
        poly = regular_polygon(emb.outer_face)
        x = tutte(emb, poly).positions[None, :, 0]
        o = st_orient(x, emb)
        assert np.array_equal(count_paths(o), enumerate_canonical_paths(o))


def test_count_sum_identity(octahedron):
    """Total of per-edge counts equals the total length of all canonical paths."""
    poly = regular_polygon(octahedron.outer_face)
    x = tutte(octahedron, poly).positions[None, :, 0]
    o = st_orient(x, octahedron)
    counts = count_paths(o)
    t1_parent, tn_parent = o.t1_parent[0], o.tn_parent[0]
    lengths = 0
    for a, b in zip(o.tail[0].tolist(), o.head[0].tolist()):
        up = [a]
        while t1_parent[up[-1]] >= 0:
            up.append(t1_parent[up[-1]])
        down = [b]
        while tn_parent[down[-1]] >= 0:
            down.append(tn_parent[down[-1]])
        lengths += len(up) + len(down) - 1
    assert counts.sum() == lengths


def test_spread_weights_formula():
    emb, poly, x = _house_graph()
    o = st_orient(x[None], emb)
    t = target_x(o, x[None])
    counts = count_paths(o)
    w = spread_weights(o, t, counts)
    assert w.shape == (1, emb.m)
    gap = t[0, 1] - t[0, 0]
    assert abs(w[0, emb.edges().index((0, 1))] - 3.0 / gap) < 1e-12
    assert all(v > 0 for v in w[0])


def test_spread_weights_zero_gap():
    emb, poly, x = _house_graph()
    o = st_orient(x[None], emb)
    counts = count_paths(o)
    t = np.array([[0.0, 0.5, 0.5, 3.0]])
    with pytest.raises(ZeroGap):
        spread_weights(o, t, counts)


def test_spread_weights_reject_unbalanced_counts():
    """Counts that do not balance at an interior vertex, here in the second
    row of a batch, raise ResidualExceeded naming the lowest such vertex:
    no solve could put that vertex on its target."""
    emb, poly, x = _house_graph()
    o = st_orient(np.array([x, x]), emb)
    t, counts = target_x(o, np.array([x, x])), count_paths(o)
    i = int(np.flatnonzero((o.tail[1] == 1) & (o.head[1] == 2))[0])
    counts[1, i] += 1  # one more path leaves 1 and enters 2
    with pytest.raises(ResidualExceeded, match=r"^path counts do not balance at vertex 1: \+1 more leave than enter$"):
        spread_weights(o, t, counts)
    counts[1, i] -= 2
    with pytest.raises(ResidualExceeded, match=r"^path counts do not balance at vertex 1: -1 more leave than enter$"):
        spread_weights(o, t, counts)


def test_steps_reject_arrays_of_the_wrong_shape_or_non_finite_x():
    """Each step raises PreconditionError for an array of another shape
    than the (d, n) or (d, m) it reads, and st_orient for a NaN or
    infinite x, naming the first."""
    emb, _, x = _house_graph()
    o = st_orient(x[None], emb)
    t, counts = target_x(o, x[None]), count_paths(o)
    inf = np.array([x, x])
    inf[1, 2:] = np.inf
    for call, message in (
        (lambda: st_orient(x, emb), "xs needs shape (d, n) = (d >= 1, 4), got (4,)"),
        (lambda: st_orient(x[None, None], emb), "xs needs shape (d, n) = (d >= 1, 4), got (1, 1, 4)"),
        (lambda: st_orient(x[None, :3], emb), "xs needs shape (d, n) = (d >= 1, 4), got (1, 3)"),
        (lambda: st_orient(np.empty((0, 4)), emb), "xs needs shape (d, n) = (d >= 1, 4), got (0, 4)"),
        (lambda: st_orient(np.full((1, 4), np.nan), emb), "vertex 0 has non-finite x nan"),
        (lambda: st_orient(inf, emb), "vertex 2 has non-finite x inf"),
        (lambda: target_x(o, x), "xs needs shape (d, n) = (1, 4), got (4,)"),
        (lambda: target_x(o, np.array([x, x])), "xs needs shape (d, n) = (1, 4), got (2, 4)"),
        (lambda: spread_weights(o, t[0], counts), "targets needs shape (d, n) = (1, 4), got (4,)"),
        (lambda: spread_weights(o, t, counts[:, 1:]), "counts needs shape (d, m) = (1, 5), got (1, 4)"),
        (lambda: spread_weights(o, t, counts[0]), "counts needs shape (d, m) = (1, 5), got (5,)"),
    ):
        assert _raised(call) == (PreconditionError, message)


def test_pipeline_hits_targets_exactly(k4, octahedron):
    for emb in (k4, octahedron):
        poly = regular_polygon(emb.outer_face)
        res, direction = spread_pipeline(emb, poly), 0.0
        tol = TARGET_RTOL * poly.radius
        frame = turn(res.drawing.positions, -direction)
        for v, x in enumerate(res.targets.tolist()):
            assert abs(frame[v][0] - x) <= tol
        assert all(w > 0 for w in res.weights)


def test_pipeline_direction_rotates_frame(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    a = spread_pipeline(octahedron, poly, direction=0.0)
    b = spread_pipeline(octahedron, poly, direction=math.pi / 2)
    # each hits its targets in the frame turned by exactly -direction
    for res, direction in ((a, 0.0), (b, math.pi / 2)):
        frame = turn(res.drawing.positions, -direction)
        assert np.abs(frame[:, 0] - res.targets).max() <= TARGET_RTOL * poly.radius
    assert not np.array_equal(a.targets, b.targets)
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


# ---------------------------------------------------------------------------
# ties in the spread direction
# ---------------------------------------------------------------------------

def _assert_hits_targets(res, emb, poly, direction):
    """Targets hit in the frame turned by exactly -direction; planar, convex."""
    frame = turn(res.drawing.positions, -direction)
    assert np.abs(frame[:, 0] - res.targets).max() <= TARGET_RTOL * poly.radius
    assert crossing_count(res.drawing, emb) == 0
    assert faces_convex(res.drawing, emb)


def test_xspread_on_random_graph_with_x_ties():
    """A random graph whose unit drawing has x-gaps below 1e-9 of the
    radius, in this frame and in frames turned slightly off it."""
    emb = generate_planar(800, 2000, seed=16)
    poly = regular_polygon(emb.outer_face)
    _assert_hits_targets(spread_pipeline(emb, poly, 0.0), emb, poly, 0.0)


@pytest.mark.parametrize("k", [16, 40, 200])
def test_nested_family_xspread_and_uniform(k):
    """The nested family's path vertices tie in x in the unit drawing; the
    x-spread keeps its ratio linear in k and uniform hits 1..n."""
    emb = worst_case_graph(k)
    poly = regular_polygon(emb.outer_face)
    res = spread_pipeline(emb, poly, 0.0)
    _assert_hits_targets(res, emb, poly, 0.0)
    assert edge_length_ratio(res.drawing, emb) <= 3 * (k + 2)
    uni = uniform_pipeline(emb)
    xs = np.sort(uni.drawing.positions[:, 0])
    assert np.abs(xs - np.arange(1, emb.n + 1)).max() <= TARGET_RTOL * uni.drawing.polygon.radius
    assert crossing_count(uni.drawing, emb) == 0
    assert faces_convex(uni.drawing, emb)


@pytest.mark.parametrize("degrees", [0.0, 45.0, 90.0])
def test_tied_corners_hit_targets_in_unturned_frame(octahedron, two_ring_wheel, degrees):
    """Corners of the regular polygon that tie in the spread frame need no
    extra turn: targets are hit in the frame turned by -direction alone."""
    direction = math.radians(degrees)
    for emb in (octahedron, two_ring_wheel):
        poly = regular_polygon(emb.outer_face)
        _assert_hits_targets(spread_pipeline(emb, poly, direction), emb, poly, direction)


def _square_wheel():
    """Outer square 0, 1, 2, 3 around hub 4."""
    return PlanarEmbedding(
        5,
        ((1, 4, 3), (2, 4, 0), (3, 4, 1), (0, 4, 2), (0, 1, 2, 3)),
        (0, 1, 2, 3),
    )


def test_st_orient_keeps_tied_corners_consecutive():
    """Corners 0, 3 and 1, 2 of an axis-aligned square tie within rounding;
    the hub's x lies between the left pair's, yet each pair stays
    consecutive, lowest x first."""
    emb = _square_wheel()
    x = np.array([-1.0, 1.0, 1.0 - 4e-16, -1.0 + 4e-16, -1.0 + 2e-16])
    assert st_orient(x[None], emb).order.tolist() == [[0, 3, 4, 2, 1]]
    assert list(dict_st_orient(x, emb).order) == [0, 3, 4, 2, 1]


def test_exactly_tied_corners_get_finite_weights():
    """Pinned-pinned edges with zero target gap weigh their path count;
    every other edge keeps count / gap."""
    emb = _square_wheel()
    poly = OuterPolygon((0, 1, 2, 3), np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]))
    x = np.array([-1.0, 1.0, 1.0, -1.0, 0.0])
    o = st_orient(x[None], emb)
    assert o.order.tolist() == [[0, 3, 4, 1, 2]]
    t = target_x(o, x[None])
    counts = count_paths(o)
    w = spread_weights(o, t, counts)
    t, counts, w, tail, head = t[0], counts[0], w[0], o.tail[0], o.head[0]
    gap = t[head] - t[tail]
    tied = gap == 0
    assert sorted(map(sorted, zip(tail[tied].tolist(), head[tied].tolist()))) == [[0, 3], [1, 2]]
    assert np.array_equal(w[tied], counts[tied])
    assert np.array_equal(w[~tied], counts[~tied] / gap[~tied])
    old = dict_st_orient(x, emb)
    old_counts = dict_count_paths(old)
    assert np.array_equal(w, dict_spread_weights(old, dict_target_x(old, x, poly.order), old_counts))
    d = solve_stress(emb, w, poly)
    assert np.abs(d.positions[:, 0] - t).max() <= TARGET_RTOL * poly.radius


def test_st_orient_orders_coincident_interior_points():
    """Interior vertices on the same x are ordered by id, not rejected."""
    emb, poly, _ = _path_graph()
    x = np.array([0.0, 0.5, 0.5, 0.5, 1.0])
    o = st_orient(x[None], emb)
    assert o.order[0].tolist() == [0, 1, 2, 3, 4] == list(dict_st_orient(x, emb).order)
    assert np.allclose(target_x(o, x[None]), [[0.0, 0.25, 0.5, 0.75, 1.0]], rtol=0, atol=1e-15)
    assert count_paths(o).tolist() == [[4, 4, 4, 4]]


# ---------------------------------------------------------------------------
# differential: the array construction against the dict-based oracle
# ---------------------------------------------------------------------------

DIFFERENTIAL_GRAPHS = [(n, m, seed) for n, m in ((8, 12), (20, 54), (45, 110)) for seed in (1, 2, 3)]
DIFFERENTIAL_GRAPHS.append((300, 894, 4))


@pytest.mark.parametrize("n, m, seed", DIFFERENTIAL_GRAPHS)
def test_spread_matches_dict_oracle(n, m, seed):
    """Orientation, both BFS trees, counts, targets, weights and the solved
    drawing equal the dict-based construction with an uncached solve, to
    the last bit, in three directions. The pinned targets are the polygon
    corners turned into the spread frame."""
    emb = generate_planar(n, m, seed=seed)
    poly = regular_polygon(emb.outer_face)
    ref = tutte(emb, poly)
    directions = (0.0, math.radians(37.0), math.pi / 2)
    o = _direction_plans(emb, ref, directions)[0]
    counts = count_paths(o)
    for j, direction in enumerate(directions):
        res = spread_pipeline(emb, poly, direction)
        x = turn(ref.positions, -direction)[:, 0]
        corners = turn(poly.positions, -direction)
        assert np.array_equal(x[list(poly.order)], corners[:, 0])
        old_weights = _assert_row_matches_dict(o, j, counts[j], res.targets, res.weights, x, emb, poly)
        scratch = scratch_solve_stress(emb, old_weights, poly)
        assert np.array_equal(res.drawing.positions, scratch.positions)
        assert res.drawing.residual == scratch.residual


def _assert_row_matches_dict(o, j, counts, targets, weights, x, emb, poly) -> np.ndarray:
    """Row j of the orientation o and the given (m,) counts, (n,) targets
    and (m,) weights equal the dict-based construction from the x-values x;
    returns the oracle's weights."""
    n = emb.n
    old = dict_st_orient(x, emb)
    assert o.order[j].tolist() == list(old.order)
    assert o.rank[j].tolist() == [old.rank[v] for v in range(n)]
    assert o.pinned[j].tolist() == [v in old.pinned for v in range(n)]
    directed = list(zip(o.tail[j].tolist(), o.head[j].tolist()))
    assert sorted(directed) == old.directed_edges()
    assert o.out_deg[j].tolist() == [len(w) for w in old.out_nbrs]
    assert o.in_deg[j].tolist() == [len(w) for w in old.in_nbrs]
    assert o.t1_parent[j].tolist() == [old.t1_parent.get(v, -1) for v in range(n)]
    assert o.tn_parent[j].tolist() == [old.tn_parent.get(v, -1) for v in range(n)]
    old_counts = dict_count_paths(old)
    assert np.array_equal(counts, [old_counts[e] for e in directed])
    old_targets = dict_target_x(old, x, poly.order)
    assert np.array_equal(targets, [old_targets[v] for v in range(n)])
    old_weights = dict_spread_weights(old, old_targets, old_counts)
    assert np.array_equal(weights, old_weights)
    return old_weights


def _orient_both(emb, xs):
    x = np.array(xs)
    return lambda: st_orient(x[None], emb), lambda: dict_st_orient(x, emb)


def _targets_both(pins):
    """Orient by the path's x, then pin the given vertices at other x-values."""
    emb, _, x = _path_graph()
    pinned_x = x.copy()
    pinned_x[list(pins)] = list(pins.values())
    mask = np.isin(np.arange(emb.n), list(pins))[None]
    return (lambda: target_x(replace(st_orient(x[None], emb), pinned=mask), pinned_x[None]),
            lambda: dict_target_x(dict_st_orient(x, emb), pinned_x, pins))


def _zero_gap_both():
    emb, _, x = _house_graph()
    t = [0.0, 0.5, 0.5, 3.0]
    o, old = st_orient(x[None], emb), dict_st_orient(x, emb)
    return (lambda: spread_weights(o, np.array([t]), count_paths(o)),
            lambda: dict_spread_weights(old, dict(enumerate(t)), dict_count_paths(old)))


_PATH3 = PlanarEmbedding(3, ((1,), (0, 2), (1,)), (0, 2))
# two components: vertices 2 and 3 cannot be reached from the source 0
_SPLIT = PlanarEmbedding(4, ((1,), (0,), (3,), (2,)), (0, 3))

REJECTIONS = {
    # pinned 2 goes before interior 1 at the same x, so 2 gets no in-edge
    "shared-x": (NotStOrientation, lambda: _orient_both(_PATH3, [0.0, 1.0, 1.0])),
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


# ---------------------------------------------------------------------------
# batches: the directions of a sweep planned at once
# ---------------------------------------------------------------------------

SWEEP = [math.radians(5.0 * i) for i in range(37)]  # 0 to 180 degrees, as a 5-degree kaleidoscope

BATCH_GRAPHS = {
    "tri-30": lambda: generate_planar(30, 84, seed=1),
    "planar-30-75": lambda: generate_planar(30, 75, seed=2),
    "planar-40-80": lambda: generate_planar(40, 80, seed=4),
    "flipped-30": lambda: flip_edges(generate_planar(30, 84, seed=5), 60, seed=5),
    "nested-3": lambda: worst_case_graph(3),
    "nested-10": lambda: worst_case_graph(10),
    "nested-30": lambda: worst_case_graph(30),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("build", BATCH_GRAPHS.values(), ids=BATCH_GRAPHS.keys())
def test_batched_plans_match_one_direction_at_a_time(build):
    """Each row of a 37-direction batch, from the orientation and both BFS
    trees to the targets, counts and weights, is to the last bit what the
    dict-based construction gives for that direction alone."""
    emb = build()
    if emb.m < 3 * emb.n - 6:
        assert len(emb.outer_face) >= 4
    poly = regular_polygon(emb.outer_face)
    ref = tutte(emb, poly)
    o, targets, weights = _direction_plans(emb, ref, SWEEP)
    counts = count_paths(o)
    for j, direction in enumerate(SWEEP):
        x = turn(ref.positions, -direction)[:, 0]
        _assert_row_matches_dict(o, j, counts[j], targets[j], weights[j], x, emb, poly)


@pytest.mark.parametrize("build", BATCH_GRAPHS.values(), ids=BATCH_GRAPHS.keys())
def test_path_counts_balance_on_every_row(build):
    """On every row of a 37-direction plan, as many counted paths leave
    each vertex as enter it, summed in exact integers, but at the source
    and the sink, which one path per edge leaves and enters; so the plan's
    weights are the spread weights of its counts."""
    emb = build()
    poly = regular_polygon(emb.outer_face)
    o, targets, weights = _direction_plans(emb, tutte(emb, poly), SWEEP)
    counts = count_paths(o)
    for j in range(len(SWEEP)):
        flow = np.zeros(emb.n, dtype=np.int64)
        np.add.at(flow, o.tail[j], counts[j])
        np.subtract.at(flow, o.head[j], counts[j])
        ends = np.zeros(emb.n, dtype=np.int64)
        ends[o.order[j, 0]], ends[o.order[j, -1]] = emb.m, -emb.m
        assert np.array_equal(flow, ends), SWEEP[j]
    assert _same_bits(weights, spread_weights(o, targets, counts))


@pytest.mark.parametrize("delta", [1, -1])
def test_unbalanced_counts_raise_before_any_solve(monkeypatch, delta):
    """A path count off by one on an edge with an interior end, in the last
    planned direction, raises ResidualExceeded naming the lowest interior
    end, before anything past the reference is solved: the four calls on
    one embedding and polygon solve the reference once between them. The
    counts are broken in every module that binds count_paths."""
    emb = generate_planar(30, 84, seed=1)
    poly = regular_polygon(emb.outer_face)
    count = spread.count_paths
    broken = []

    def off_by_one(o):
        counts = count(o)
        j = len(counts) - 1
        tail, head, pinned = o.tail[j], o.head[j], o.pinned[j]
        i = int(np.flatnonzero(~(pinned[tail] & pinned[head]))[0])
        counts[j, i] += delta
        t, h = int(tail[i]), int(head[i])
        v = min(u for u in (t, h) if not pinned[u])
        broken.append(f"path counts do not balance at vertex {v}: "
                      f"{delta if v == t else -delta:+d} more leave than enter")
        return counts

    for mod in (spread, uniform):
        monkeypatch.setattr(mod, "count_paths", off_by_one)
    solved = record_solves(monkeypatch)
    for call in (
        lambda: kaleidoscope(emb, poly, 5.0),
        lambda: xy_morph(emb, poly, 0.3),
        lambda: spread_pipeline(emb, poly, 0.3),
        lambda: uniform_pipeline(emb),
    ):
        assert _raised(call) == (ResidualExceeded, broken[-1])
    assert len(solved) == 1
    assert all(_same_bits(w, np.ones(emb.m)) for w in solved)


def _raised(call) -> tuple[type, str]:
    with pytest.raises(StressDrawError) as info:
        call()
    return type(info.value), str(info.value)


def test_sweep_raises_before_it_solves_a_direction(monkeypatch):
    """worst_case_graph(31) has no st-order at 90 degrees: a sweep through
    it raises st_orient's error for that direction and solves nothing past
    the reference."""
    emb = worst_case_graph(31)
    poly = regular_polygon(emb.outer_face)
    ref = tutte(emb, poly)
    alone = _raised(lambda: st_orient(turn(ref.positions, -math.pi / 2)[None, :, 0], emb))
    assert alone[0] is NotStOrientation
    solved = record_solves(monkeypatch)
    sweep = [0.0, math.radians(45.0), math.pi / 2, math.radians(135.0)]
    assert _raised(lambda: _direction_plans(emb, ref, sweep)) == alone
    assert _raised(lambda: kaleidoscope(emb, poly, 45.0)) == alone
    assert all(_same_bits(w, np.ones(emb.m)) for w in solved)
    # with path vertex 1 pulled left, target_x rejects 0 degrees, but
    # st_orient rejects 90 degrees: orientation errors come first
    pulled = ref.positions.copy()
    pulled[1, 0] -= 3.0
    pulled = Drawing(pulled, poly, 0.0)
    assert _raised(lambda: _direction_plans(emb, pulled, [0.0])) == (
        PreconditionError, "leftmost vertex is interior; drawing is not pinned-convex")
    assert _raised(lambda: _direction_plans(emb, pulled, [math.radians(105.0), 0.0, math.pi / 2])) == alone


def test_batch_steps_raise_the_first_rejected_rows_error():
    """Each step raises, for the first row it rejects, the error that row
    raises as a batch of its own, in class and message."""
    good, bad, worse = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.5])
    alone = _raised(lambda: st_orient(bad[None], _PATH3))
    assert alone != _raised(lambda: st_orient(worse[None], _PATH3))
    assert _raised(lambda: st_orient(np.array([good, bad, worse]), _PATH3)) == alone

    emb, poly, x = _path_graph()
    o = st_orient(x[None], emb)
    falling = x.copy()
    falling[4] = -1.0
    left = replace(o, order=np.array([[1, 0, 2, 3, 4]]))  # interior vertex 1 first
    alone = _raised(lambda: target_x(o, falling[None]))
    assert alone != _raised(lambda: target_x(left, x[None]))
    rows = replace(o, order=np.concatenate((o.order, o.order, left.order)), pinned=np.repeat(o.pinned, 3, axis=0))
    assert _raised(lambda: target_x(rows, np.array([x, falling, x]))) == alone

    emb, poly, x = _house_graph()
    o = st_orient(x[None], emb)
    t, counts = target_x(o, x[None]), count_paths(o)
    tied, back = np.array([0.0, 0.5, 0.5, 3.0]), np.array([0.0, 2.0, 1.0, 3.0])
    alone = _raised(lambda: spread_weights(o, tied[None], counts))
    assert alone != _raised(lambda: spread_weights(o, back[None], counts))
    batch = st_orient(np.array([x] * 3), emb)
    assert _raised(lambda: spread_weights(batch, np.array([t[0], tied, back]), np.repeat(counts, 3, axis=0))) == alone


def _depth(parent: np.ndarray) -> int:
    """Most tree edges from any vertex up to the root."""
    up, depth = parent.tolist(), 0
    for v in range(len(up)):
        steps = 0
        while up[v] >= 0:
            v, steps = up[v], steps + 1
        depth = max(depth, steps)
    return depth


def test_counts_match_enumeration_on_a_deep_tree():
    """At 90 degrees the sink tree of worst_case_graph(30) is 29 levels
    deep: the bottom-up sums take one step per level."""
    emb = worst_case_graph(30)
    x = turn(tutte(emb, regular_polygon(emb.outer_face)).positions, -math.pi / 2)[None, :, 0]
    o = st_orient(x, emb)
    assert _depth(o.tn_parent[0]) == 29
    assert np.array_equal(count_paths(o), enumerate_canonical_paths(o))


def test_array_results_compare_by_identity(octahedron):
    """Results holding arrays answer == with a bool (identity), where the
    field-wise comparison would raise on the arrays."""
    poly = regular_polygon(octahedron.outer_face)
    x = tutte(octahedron, poly).positions[None, :, 0]
    for make in (lambda: tutte(octahedron, poly), lambda: st_orient(x, octahedron),
                 lambda: spread_pipeline(octahedron, poly), lambda: uniform_pipeline(octahedron),
                 lambda: schnyder_wood(octahedron)):
        a, b = make(), make()
        assert (a == b) is False
        assert (a == a) is True
        assert (a != b) is True
