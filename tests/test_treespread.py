"""Depth-decay weights from BFS levels and Schnyder trees."""
from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import (
    deque_bfs_depths,
    deque_bfs_levels,
    dict_schnyder_depths,
    dict_schnyder_wood,
    flip_edges,
    max_position_gap,
    record_solves,
    relabelled,
)

from stressdraw import (
    BadParams,
    InvalidEmbedding,
    NonPositiveWeight,
    NotTriangulation,
    PlanarEmbedding,
    bfs_depths,
    best_r,
    crossing_count,
    depth_weights,
    edge_length_ratio,
    faces_convex,
    generate_planar,
    regular_polygon,
    schnyder_depths,
    schnyder_spread,
    schnyder_wood,
    solve_stress,
    ZeroLengthEdge,
    tutte,
    worst_case_graph,
)
from stressdraw.graph import edge_key


def _by_edge(emb, values):
    """An (m,) array as a map from edge key, through emb.edge_array."""
    assert values.shape == (emb.m,)
    return dict(zip(map(tuple, emb.edge_array.tolist()), values.tolist()))


def test_bfs_depths_k4(k4):
    assert _by_edge(k4, bfs_depths(k4)) == {
        (0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 3): 1, (2, 3): 1,
    }


def test_bfs_depths_two_ring_wheel(two_ring_wheel):
    d = _by_edge(two_ring_wheel, bfs_depths(two_ring_wheel))
    # outer ring and spokes touch the boundary; inner ring and hub do not
    for e in ((5, 6), (6, 7), (7, 8), (5, 8), (1, 5), (2, 6), (3, 7), (4, 8)):
        assert d[edge_key(*e)] == 1
    for e in ((1, 2), (2, 3), (3, 4), (1, 4), (0, 1), (0, 2), (0, 3), (0, 4)):
        assert d[edge_key(*e)] == 2


def test_bfs_depths_match_level_recomputation(two_ring_wheel):
    for emb in (two_ring_wheel, generate_planar(24, 58, seed=41)):
        level = deque_bfs_levels(emb)
        got = _by_edge(emb, bfs_depths(emb))
        for v in range(emb.n):
            for u in emb.rotation[v]:
                if u < v:
                    assert got[(u, v)] == min(level[u], level[v]) + 1


def test_bfs_depths_match_queue_oracle(octahedron):
    """Equal to the queue BFS on sparse graphs with outer faces of length
    4 and more, on the nested family and on the octahedron."""
    sparse = [generate_planar(n, round(2.5 * n), seed=s) for n in (20, 50, 120, 300) for s in (1, 2)]
    assert min(len(emb.outer_face) for emb in sparse) >= 4
    nested = [worst_case_graph(k) for k in (1, 2, 3, 10, 200)]
    for emb in [octahedron, *sparse, *nested]:
        got, want = bfs_depths(emb), deque_bfs_depths(emb)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_bfs_depths_reject_a_disconnected_graph():
    two_triangles = PlanarEmbedding(6, ((1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4)), (0, 1, 2))
    with pytest.raises(InvalidEmbedding, match="disconnected"):
        bfs_depths(two_triangles)


def test_depth_weights_overflow_to_a_zero_weight():
    """A power past float64, or a quotient below it, gives the weight 0.0
    without a warning, and the solve names that weight as a plain float."""
    emb = generate_planar(12, 27, 3)
    poly = regular_polygon(emb.outer_face)
    for a, r, want in ((1.0, 1e308, [1e-308, 0.0]), (1e-300, 1e100, [0.0, 0.0])):
        assert depth_weights(np.array([1, 2]), a=a, r=r).tolist() == want
        with pytest.raises(NonPositiveWeight, match=r"got 0\.0$"):
            solve_stress(emb, depth_weights(bfs_depths(emb), a, r), poly)


def test_depth_weights_decay():
    w = depth_weights(np.array([1, 2, 3]), a=1.0, r=5.0)
    assert abs(w[0] - 0.2) < 1e-15
    assert abs(w[1] - 0.04) < 1e-15
    assert w[0] > w[1] > w[2] > 0


def test_depth_weights_rejects_bad_params():
    d = np.array([1])
    with pytest.raises(BadParams):
        depth_weights(d, a=0.0)
    with pytest.raises(BadParams):
        depth_weights(d, r=1.0)
    with pytest.raises(BadParams):
        depth_weights(d, r=-2.0)


def test_bfs_spread_reduces_to_tutte_on_uniform_depths(k4):
    """All depths equal means the decayed weights are a constant multiple
    of unit weights, and constant scaling does not move the solve."""
    poly = regular_polygon(k4.outer_face)
    a = solve_stress(k4, depth_weights(bfs_depths(k4)), poly)
    b = tutte(k4, poly)
    assert max_position_gap(a.positions, b.positions) < 1e-12


def test_bfs_spread_planar_on_generated():
    emb = generate_planar(30, 3 * 30 - 6, seed=42)
    poly = regular_polygon(emb.outer_face)
    d = solve_stress(emb, depth_weights(bfs_depths(emb), r=4.0), poly)
    assert crossing_count(d, emb) == 0
    assert faces_convex(d, emb)


def test_schnyder_wood_k4(k4):
    w = schnyder_wood(k4)
    assert w.roots == (0, 2, 1)
    assert _by_edge(k4, w.color) == {
        (0, 1): 0, (0, 2): 0, (1, 2): 0, (0, 3): 1, (2, 3): 2, (1, 3): 3,
    }
    assert w.parent.tolist() == [[-1, -1, -1, 0], [-1, -1, -1, 2], [-1, -1, -1, 1]]


def test_schnyder_wood_octahedron_frozen(octahedron):
    w = schnyder_wood(octahedron)
    assert w.roots == (0, 2, 1)
    assert _by_edge(octahedron, w.color) == {
        (0, 5): 1, (2, 5): 2, (4, 5): 1, (2, 4): 2, (0, 3): 1,
        (3, 4): 2, (3, 5): 3, (1, 3): 3, (1, 4): 3,
        (0, 1): 0, (0, 2): 0, (1, 2): 0,
    }
    # parent[c - 1, v] for vertices 0..5; the outer ones have none
    assert w.parent.tolist() == [
        [-1, -1, -1, 0, 5, 0],
        [-1, -1, -1, 4, 2, 2],
        [-1, -1, -1, 1, 1, 3],
    ]


def test_schnyder_wood_invariants_on_generated():
    emb = generate_planar(26, 3 * 26 - 6, seed=43)
    w = schnyder_wood(emb)
    outer = set(emb.outer_face)
    interior = [v for v in range(emb.n) if v not in outer]
    color = _by_edge(emb, w.color)
    # interior edges are partitioned; outer triangle edges stay uncolored
    assert sum(1 for c in color.values() if c) == emb.m - 3
    assert all(color[edge_key(u, v)] == 0 for u in outer for v in outer if u != v)
    assert (w.parent[:, sorted(outer)] == -1).all()
    for v in interior:
        assert (w.parent[:, v] >= 0).all()
    # each tree is spanning: walking up any color chain ends at that root
    for c, root in zip((1, 2, 3), w.roots):
        for v in interior:
            seen = set()
            u = v
            while u not in outer:
                assert u not in seen
                seen.add(u)
                assert color[edge_key(u, w.parent[c - 1, u])] == c
                u = w.parent[c - 1, u]
            assert u == root
        tree_edges = [e for e, col in color.items() if col == c]
        assert len(tree_edges) == emb.n - 3


def _oracle_embeddings():
    """Random triangulations n = 4..120, each with its designated outer
    face, that face reflected and two inner triangles as the outer face,
    and the same four after n random flips; then the nested family
    k = 1..60."""
    for n in range(4, 121):
        stacked = generate_planar(n, 3 * n - 6, seed=7000 + n)
        for emb in (stacked, flip_edges(stacked, n, seed=n)):
            yield emb
            yield PlanarEmbedding(n, emb.rotation, emb.outer_face[::-1])
            inner = [f for i, f in enumerate(emb.faces) if i != emb.outer_index]
            for face in inner[:: len(inner) // 2][:2]:
                yield PlanarEmbedding(n, emb.rotation, face)
    for k in range(1, 61):
        yield worst_case_graph(k)


def test_schnyder_wood_and_depths_match_dict_oracle():
    """The chord-counting peel and the pointer-jumping depths agree bit for
    bit with the quadratic peel and the dict-based wood and depths."""
    count = 0
    for emb in _oracle_embeddings():
        roots, colors, parent = dict_schnyder_wood(emb)
        w = schnyder_wood(emb)
        assert w.roots == roots
        assert {e: c for e, c in _by_edge(emb, w.color).items() if c} == colors
        expect = np.full((3, emb.n), -1)
        for v, by_color in parent.items():
            for c, p in by_color.items():
                expect[c - 1, v] = p
        assert np.array_equal(w.parent, expect)
        assert _by_edge(emb, schnyder_depths(emb)) == dict_schnyder_depths(emb)
        count += 1
    assert count == 117 * 8 + 60


def test_schnyder_depths_octahedron_frozen(octahedron):
    d = _by_edge(octahedron, schnyder_depths(octahedron))
    assert d == {
        (0, 5): 1, (2, 5): 1, (4, 5): 2, (2, 4): 1, (0, 3): 1,
        (3, 4): 2, (3, 5): 2, (1, 3): 1, (1, 4): 1,
        (0, 1): 1, (0, 2): 1, (1, 2): 1,
    }


def test_schnyder_requires_triangulation(two_ring_wheel):
    with pytest.raises(NotTriangulation):
        schnyder_wood(two_ring_wheel)
    # triangle outer face but one interior quad also fails
    gap = PlanarEmbedding(
        6,
        ((1, 3, 5, 2), (2, 4, 3, 0), (0, 5, 4, 1),
         (5, 0, 1), (5, 1, 2), (0, 3, 4, 2)),
        (0, 2, 1),
    )
    with pytest.raises(NotTriangulation):
        schnyder_wood(gap)


def test_schnyder_spread_planar_on_generated():
    emb = generate_planar(22, 3 * 22 - 6, seed=44)
    poly = regular_polygon(emb.outer_face)
    d = schnyder_spread(emb, poly, r=3.0)
    assert crossing_count(d, emb) == 0
    assert faces_convex(d, emb)


def test_bfs_usually_at_least_matches_schnyder():
    """Across random triangulations the BFS depths tend to give ratios no
    worse than the Schnyder depths; exact counts are seed-frozen."""
    wins = 0
    for i in range(20):
        n = 10 + 2 * i
        emb = generate_planar(n, 3 * n - 6, seed=4000 + i)
        poly = regular_polygon(emb.outer_face)
        _, _, ratio_bfs = best_r(emb, poly, method="bfs")
        _, _, ratio_sch = best_r(emb, poly, method="schnyder")
        wins += ratio_sch >= ratio_bfs
    assert wins == 14
    assert wins >= 12  # the tendency itself: at least 60 percent


def test_best_r_matches_explicit_scan():
    emb = generate_planar(18, 3 * 18 - 6, seed=45)
    poly = regular_polygon(emb.outer_face)
    r, d, ratio = best_r(emb, poly, method="bfs", r_hi=9)
    scan = []
    for cand in range(2, 10):
        dd = solve_stress(emb, depth_weights(bfs_depths(emb), r=float(cand)), poly)
        scan.append((edge_length_ratio(dd, emb), cand))
    best_ratio, best_cand = min(scan)
    assert ratio == best_ratio
    assert r == best_cand
    assert abs(edge_length_ratio(d, emb) - ratio) < 1e-12 * ratio
    # ties break toward the smaller r
    firsts = [c for rr, c in scan if rr == best_ratio]
    assert r == min(firsts)


@pytest.mark.parametrize("k, method", [(10, "schnyder"), (20, "bfs")])
def test_best_r_skips_bases_with_a_zero_length_edge(k, method):
    """A base whose drawing has a zero-length edge has no ratio: the scan
    picks among the other bases, as an explicit scan that skips it does."""
    emb = worst_case_graph(k)
    poly = regular_polygon(emb.outer_face)
    depths = bfs_depths(emb) if method == "bfs" else schnyder_depths(emb)
    scan = []
    for cand in range(2, 17):
        try:
            drawing = solve_stress(emb, depth_weights(depths, r=float(cand)), poly)
            scan.append((edge_length_ratio(drawing, emb), cand))
        except ZeroLengthEdge:
            pass
    assert 0 < len(scan) < 15
    r, d, ratio = best_r(emb, poly, method)
    assert (ratio, r) == min(scan)
    assert edge_length_ratio(d, emb) == ratio


def test_best_r_raises_when_no_base_has_a_ratio():
    emb = worst_case_graph(30)
    poly = regular_polygon(emb.outer_face)
    with pytest.raises(ZeroLengthEdge, match="zero length"):
        best_r(emb, poly, "bfs")


def test_best_r_stops_at_the_first_base_whose_power_overflows(monkeypatch):
    """The deepest Schnyder edge of worst_case_graph(257) has depth 256, so
    16**256 overflows to a zero weight: the scan solves bases 2..15 only,
    and raises ZeroLengthEdge, since each of them collapses an edge."""
    emb = worst_case_graph(257)
    poly = regular_polygon(emb.outer_face)
    solved = record_solves(monkeypatch)
    with pytest.raises(ZeroLengthEdge, match="zero length"):
        best_r(emb, poly, "schnyder", r_hi=16)
    assert len(solved) == 14


def test_best_r_rejects_bad_range(octahedron):
    poly = regular_polygon(octahedron.outer_face)
    with pytest.raises(BadParams):
        best_r(octahedron, poly, r_hi=1)
    with pytest.raises(BadParams):
        best_r(octahedron, poly, method="nope")
    for r_hi in (2.5, "5", float("nan"), 4.0):
        with pytest.raises(BadParams, match="r_hi must be an integer"):
            best_r(octahedron, poly, "bfs", r_hi=r_hi)


def test_tree_drawings_do_not_depend_on_vertex_ids():
    """Tutte, the BFS spread at r = 5, best_r's BFS drawing and, on
    triangulations, the Schnyder spread at r = 2 of a relabelled graph are
    the drawing of the graph, relabelled, within 1e-12 times the radius:
    BFS depths are distances and a stacked triangulation has one Schnyder
    wood. The x- and xy-spreads and uniform are left out: their orders
    break ties by vertex id."""
    rng = random.Random(8)
    methods = {
        "tutte": tutte,
        "bfs": lambda e, p: solve_stress(e, depth_weights(bfs_depths(e), r=5.0), p),
        "best_r": lambda e, p: best_r(e, p)[1],
        "schnyder": lambda e, p: schnyder_spread(e, p, r=2.0),
    }
    for seed in range(24):
        n = rng.randrange(10, 60)
        emb = generate_planar(n, (3 * n - 6, round(2.5 * n), 2 * n)[seed % 3], seed=seed)
        perm, twin = relabelled(emb, rng)
        for name, method in methods.items():
            if name == "schnyder" and emb.m != 3 * n - 6:
                continue
            d = method(emb, regular_polygon(emb.outer_face))
            twin_d = method(twin, regular_polygon(twin.outer_face))
            assert np.abs(twin_d.positions[perm] - d.positions).max() <= 1e-12 * d.polygon.radius, (seed, name)
