"""Acceptance suite.

Ten checks covering the whole pipeline on deterministic seeded
populations. Each test prints one [acceptance] PASS/FAIL line so the
outcome is visible in plain pytest output.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import enumerate_canonical_paths, turn

import stressdraw as sd
from stressdraw.graph import edge_key

RESIDUAL_RTOL = 1e-8
TARGET_RTOL = 1e-6


@contextmanager
def _criterion(capsys, num: int, slug: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:02d} {slug}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num:02d} {slug}: PASS")


def _suite_params():
    # 50 graphs, n in [20, 100]; every fifth one is a full triangulation
    out = []
    for i in range(50):
        n = 20 + (i * 7919) % 81
        m = 3 * n - 6 if i % 5 == 0 else round(2.5 * n)
        out.append((n, m, 1000 + i))
    return out


@pytest.fixture(scope="module")
def suite():
    graphs = []
    for n, m, seed in _suite_params():
        emb = sd.generate_planar(n, m, seed=seed)
        assert emb.n == n and emb.m == m
        graphs.append((emb, sd.regular_polygon(emb.outer_face)))
    return graphs


@pytest.fixture(scope="module")
def suite_drawings(suite):
    """Every method applied to every suite graph, computed once."""
    rows = []
    for emb, poly in suite:
        ref = sd.tutte(emb, poly)
        row = {
            "emb": emb,
            "poly": poly,
            "tutte": ref,
            "xspread": sd.spread_pipeline(emb, poly, 0.0),
            "yspread": sd.spread_pipeline(
                emb, poly, math.pi / 2.0),
            "xymorph": sd.xy_morph(emb, poly, 0.0, 0.5)[1],
            "bfs": sd.solve_stress(emb, sd.depth_weights(sd.bfs_depths(emb), r=5.0), poly),
            "uniform": sd.uniform_pipeline(emb),
        }
        if emb.m == 3 * emb.n - 6:
            row["schnyder"] = sd.schnyder_spread(emb, poly)
        rows.append(row)
    return rows


def test_criterion_01_equilibrium_residual_and_speed(suite, capsys):
    """Every solve keeps the force residual below 1e-8 of the frame
    radius, and fifty graphs up to n=100 solve in under ten seconds."""
    with _criterion(capsys, 1, "equilibrium-residual-and-speed"):
        start = time.perf_counter()
        drawings = [sd.tutte(emb, poly) for emb, poly in suite]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        for (emb, poly), d in zip(suite, drawings):
            assert d.residual <= RESIDUAL_RTOL * poly.radius
            recomputed = sd.equilibrium_residual(
                emb, np.ones(emb.m), d.positions, set(poly.order))
            assert recomputed <= RESIDUAL_RTOL * poly.radius


def test_criterion_02_planar_convex_everywhere(suite_drawings, capsys):
    """No method ever produces a crossing or a non-convex face."""
    with _criterion(capsys, 2, "planar-convex-everywhere"):
        for row in suite_drawings:
            emb = row["emb"]
            drawings = [
                row["tutte"],
                row["xspread"].drawing,
                row["yspread"].drawing,
                row["xymorph"],
                row["bfs"],
                row["uniform"].drawing,
            ]
            if "schnyder" in row:
                drawings.append(row["schnyder"])
            for d in drawings:
                assert sd.crossing_count(d, emb) == 0
                assert sd.faces_convex(d, emb)


def test_criterion_03_exact_spread_targets(suite_drawings, capsys):
    """Directional spreads hit their per-vertex coordinates, and the
    uniform construction puts the sorted x values at 1..n."""
    with _criterion(capsys, 3, "exact-spread-targets"):
        for row in suite_drawings:
            res, direction = row["xspread"], 0.0
            tol = TARGET_RTOL * row["poly"].radius
            frame = turn(res.drawing.positions, -direction)
            for v, x in enumerate(res.targets.tolist()):
                assert abs(frame[v][0] - x) <= tol
            uni = row["uniform"]
            utol = TARGET_RTOL * uni.drawing.polygon.radius
            xs = sorted(uni.drawing.positions[:, 0].tolist())
            for i, x in enumerate(xs, start=1):
                assert abs(x - i) <= utol


def test_criterion_04_path_counts_match_enumeration(capsys):
    """The closed-form canonical path counter agrees exactly with brute
    enumeration on two hundred random instances."""
    with _criterion(capsys, 4, "path-counts-match-enumeration"):
        for i in range(200):
            rng = random.Random(3000 + i)
            n = rng.randint(4, 12)
            m = rng.randint((3 * n + 1) // 2, 3 * n - 6)
            emb = sd.generate_planar(n, m, seed=3000 + i)
            poly = sd.regular_polygon(emb.outer_face)
            x = sd.tutte(emb, poly).positions[:, 0]
            o = sd.st_orient(x[None], emb)
            assert np.array_equal(sd.count_paths(o), enumerate_canonical_paths(o))


def test_criterion_05_nested_triangle_growth(capsys):
    """Uniform weights degrade geometrically on nested triangles while
    the x-direction spread stays within a linear bound."""
    with _criterion(capsys, 5, "nested-triangle-growth"):
        previous = None
        for k in (4, 6, 8, 10, 12):
            emb = sd.worst_case_graph(k)
            poly = sd.regular_polygon(emb.outer_face)
            ref = sd.tutte(emb, poly)
            rho_t = sd.edge_length_ratio(ref, emb)
            if previous is not None:
                assert rho_t > 1.3 * previous
            previous = rho_t
            res = sd.spread_pipeline(emb, poly, 0.0)
            rho_x = sd.edge_length_ratio(res.drawing, emb)
            assert rho_x <= 3 * (k + 2)


def _ratio_population():
    rows = []
    for i in range(20):
        n = 40 + (i * 13) % 41
        emb = sd.generate_planar(n, round(2.5 * n), seed=2000 + i)
        poly = sd.regular_polygon(emb.outer_face)
        ref = sd.tutte(emb, poly)
        rho_t = sd.edge_length_ratio(ref, emb)
        rho_x = sd.edge_length_ratio(
            sd.spread_pipeline(emb, poly, 0.0).drawing, emb)
        _, _, rho_b = sd.best_r(emb, poly, method="bfs")
        rows.append((n, rho_t, rho_x, rho_b))
    return rows


@pytest.fixture(scope="module")
def ratio_population():
    return _ratio_population()


def test_criterion_06_spread_ratio_linear_in_n(ratio_population, capsys):
    """The x-direction spread keeps the edge-length ratio around n:
    the median of ratio/n sits well inside [0.2, 3]."""
    with _criterion(capsys, 6, "spread-ratio-linear-in-n"):
        quotients = [rho_x / n for n, _, rho_x, _ in ratio_population]
        med = statistics.median(quotients)
        assert 0.2 <= med <= 3.0
        for n, _, rho_x, _ in ratio_population:
            assert rho_x <= 3 * n


def test_criterion_07_improvement_rates(ratio_population, capsys):
    """Across the seeded population the x-spread beats uniform weights on
    every graph and the decay spread with a scanned base on at least 80
    percent."""
    with _criterion(capsys, 7, "improvement-rates"):
        x_wins = sum(rho_x < rho_t for _, rho_t, rho_x, _ in ratio_population)
        bfs_wins = sum(rho_b < rho_t for _, rho_t, _, rho_b in ratio_population)
        assert x_wins == 20
        assert bfs_wins >= 16


def test_criterion_08_angle_sweep_cli(tmp_path, capsys):
    """The command line sweep writes one row per angle from 0 to 90 in
    steps of 5, every blended drawing is planar, and both extreme
    drawings land on disk."""
    from stressdraw.cli import run

    with _criterion(capsys, 8, "angle-sweep-cli"):
        graph = tmp_path / "sweep.json"
        assert run(["generate", "--n", "24", "--m", "60", "--seed", "99",
                    "--out", str(graph)]) == 0
        csv_path = tmp_path / "rows.csv"
        best = tmp_path / "best.svg"
        worst = tmp_path / "worst.svg"
        assert run(["kaleidoscope", str(graph), "--step", "5",
                    "--out-csv", str(csv_path),
                    "--best-svg", str(best), "--worst-svg", str(worst)]) == 0
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "angle_degrees,edge_length_ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(a) for a, _ in rows] == [5.0 * i for i in range(19)]
        assert all(float(r) >= 1.0 for _, r in rows)
        assert best.exists() and worst.exists()
        emb = sd.load_graph(graph)
        poly = sd.regular_polygon(emb.outer_face)
        for a, _ in rows:
            _, d = sd.xy_morph(emb, poly, angle=math.radians(float(a)), t=0.5)
            assert sd.crossing_count(d, emb) == 0


def test_criterion_09_three_tree_invariants(capsys):
    """On twenty random triangulations the three-tree decomposition
    partitions the interior edges, gives each interior vertex exactly one
    outgoing edge per tree, and every tree walk ends at its own root."""
    with _criterion(capsys, 9, "three-tree-invariants"):
        for i in range(20):
            n = 10 + 2 * i
            emb = sd.generate_planar(n, 3 * n - 6, seed=4000 + i)
            wood = sd.schnyder_wood(emb)
            outer = set(emb.outer_face)
            interior = [v for v in range(emb.n) if v not in outer]
            colors = dict(zip(map(tuple, emb.edge_array.tolist()), wood.color.tolist()))
            assert sum(1 for col in colors.values() if col) == emb.m - 3
            assert set(colors.values()) == {0, 1, 2, 3}
            for v in interior:
                assert (wood.parent[:, v] >= 0).all()
            for c, root in zip((1, 2, 3), wood.roots):
                assert sum(1 for col in colors.values() if col == c) == n - 3
                for v in interior:
                    u, hops = v, 0
                    while u not in outer:
                        assert colors[edge_key(u, wood.parent[c - 1, u])] == c
                        u = wood.parent[c - 1, u]
                        hops += 1
                        assert hops <= n
                    assert u == root


def test_criterion_10_morph_is_linear_in_weights(octahedron, capsys):
    """Blended weights are the exact convex combination of the two
    directional spreads, bit for bit, at every tested t."""
    with _criterion(capsys, 10, "morph-linear-in-weights"):
        graphs = [octahedron, sd.generate_planar(18, 44, seed=77)]
        for emb in graphs:
            poly = sd.regular_polygon(emb.outer_face)
            w0 = sd.spread_pipeline(emb, poly, 0.0).weights
            w1 = sd.spread_pipeline(
                emb, poly, math.pi / 2.0).weights
            for t in (0.0, 0.25, 0.5, 1.0):
                got, _ = sd.xy_morph(emb, poly, 0.0, t)
                assert got.shape == w0.shape == (emb.m,)
                for e, (a, b) in enumerate(zip(w0.tolist(), w1.tolist())):
                    assert got[e] == (1.0 - t) * a + t * b
            exact0, _ = sd.xy_morph(emb, poly, 0.0, 0.0)
            exact1, _ = sd.xy_morph(emb, poly, 0.0, 1.0)
            assert np.array_equal(exact0, w0)
            assert np.array_equal(exact1, w1)
