"""End-to-end command behavior, run in process."""
from __future__ import annotations

import json
import math
import sys
from collections import Counter

import pytest

from stressdraw import (
    best_row,
    edge_length_ratio,
    generate_planar,
    kaleidoscope,
    load_graph,
    regular_polygon,
    render_svg,
    save_graph,
    tutte,
    validate,
    validate_three_connected,
    xy_morph,
)
from stressdraw.cli import METHODS, run
from stressdraw.spread import _spreads


@pytest.fixture
def graph_path(tmp_path):
    p = tmp_path / "g.json"
    assert run(["generate", "--n", "12", "--m", "27", "--seed", "3",
                "--out", str(p)]) == 0
    return p


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "t.json"
    assert run(["generate", "--n", "14", "--m", str(3 * 14 - 6), "--seed", "61",
                "--out", str(p)]) == 0
    return p


def test_generate_writes_loadable_graph(tmp_path, capsys):
    p = tmp_path / "fresh.json"
    assert run(["generate", "--n", "12", "--m", "27", "--seed", "3",
                "--out", str(p)]) == 0
    out = capsys.readouterr().out
    assert "n=12 m=27" in out
    assert "valid=yes" in out
    emb = load_graph(p)
    validate(emb)
    assert validate_three_connected(emb)
    assert emb.n == 12 and emb.m == 27


def test_generate_worst_case(tmp_path, capsys):
    p = tmp_path / "w.json"
    assert run(["generate", "--worst-case", "10", "--out", str(p)]) == 0
    assert "n=12 m=30 outer_face_length=3" in capsys.readouterr().out
    emb = load_graph(p)
    assert emb.n == 12 and emb.m == 30


def test_generate_infeasible_exits_2(tmp_path, capsys):
    rc = run(["generate", "--n", "8", "--m", "30", "--seed", "1",
              "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "InfeasibleParams" in err
    assert not (tmp_path / "x.json").exists()


def test_generate_strict_stall_exits_3(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run(["generate", "--n", "20", "--m", "30", "--seed", "0", "--strict",
              "--out", str(out)])
    assert rc == 3
    assert "GenerationStalled" in capsys.readouterr().err
    assert not out.exists()


def test_generate_zero_attempts_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run(["generate", "--n", "10", "--m", "24", "--attempts", "0", "--out", str(out)])
    assert rc == 2
    assert "InfeasibleParams" in capsys.readouterr().err
    assert not out.exists()


def test_draw_tutte_writes_svg(graph_path, capsys):
    assert run(["draw", str(graph_path), "--method", "tutte"]) == 0
    out = capsys.readouterr().out
    assert "method=tutte" in out
    assert "crossing_count=0" in out
    assert "all_faces_convex=true" in out
    svg = graph_path.with_name("g.tutte.svg")
    assert svg.exists()
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<line") == 27
    assert text.count("<circle") == 12


def test_draw_metrics_and_coords(graph_path, tmp_path):
    mpath = tmp_path / "m.json"
    cpath = tmp_path / "c.json"
    assert run(["draw", str(graph_path), "--method", "xspread",
                "--out-metrics", str(mpath), "--out-coords", str(cpath)]) == 0
    metrics = json.loads(mpath.read_text())
    assert set(metrics) == {"edge_length_ratio", "crossing_count",
                            "all_faces_convex"}
    assert metrics["crossing_count"] == 0
    assert metrics["all_faces_convex"] is True
    coords = json.loads(cpath.read_text())
    assert sorted(coords) == sorted(str(v) for v in range(12))
    for xy in coords.values():
        assert len(xy) == 2
        assert all(isinstance(c, float) for c in xy)


def test_draw_xymorph_options(graph_path, tmp_path, capsys):
    mpath = tmp_path / "m.json"
    assert run(["draw", str(graph_path), "--method", "xymorph",
                "--angle", "30", "--t", "0.25",
                "--out-metrics", str(mpath)]) == 0
    assert "method=xymorph" in capsys.readouterr().out
    assert json.loads(mpath.read_text())["crossing_count"] == 0


def test_draw_bfs_best_r(tri_path, capsys):
    assert run(["draw", str(tri_path), "--method", "bfs", "--r", "best"]) == 0
    out = capsys.readouterr().out
    # the scan picks the base, which differs from the default here
    assert "method=bfs r=2 " in out
    assert tri_path.with_name("t.bfs.svg").exists()


def test_draw_schnyder_fixed_r(tri_path, capsys):
    assert run(["draw", str(tri_path), "--method", "schnyder", "--r", "3"]) == 0
    out = capsys.readouterr().out
    # a fixed base is echoed back as plain method output, no r= marker
    assert "method=schnyder n=14" in out
    assert "crossing_count=0" in out


def test_draw_uniform_coords_are_integers(graph_path, tmp_path):
    cpath = tmp_path / "c.json"
    assert run(["draw", str(graph_path), "--method", "uniform",
                "--out-coords", str(cpath)]) == 0
    coords = json.loads(cpath.read_text())
    xs = sorted(xy[0] for xy in coords.values())
    for i, x in enumerate(xs, start=1):
        assert abs(x - i) < 1e-6 * len(xs)


def test_draw_rejects_bad_r(graph_path, capsys):
    assert run(["draw", str(graph_path), "--method", "bfs", "--r", "abc"]) == 2
    assert "BadParams" in capsys.readouterr().err


@pytest.mark.parametrize("method", list(METHODS))
def test_draw_every_method_planar_convex(tri_path, tmp_path, method):
    mpath = tmp_path / "m.json"
    assert run(["draw", str(tri_path), "--method", method,
                "--out-svg", str(tmp_path / "d.svg"),
                "--out-metrics", str(mpath)]) == 0
    metrics = json.loads(mpath.read_text())
    assert metrics["crossing_count"] == 0
    assert metrics["all_faces_convex"] is True


def test_draw_non_integer_vertex_id_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 4, "rotation": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
        "outer_face": [0, "x", 1],
    }))
    assert run(["draw", str(bad), "--method", "tutte"]) == 2
    assert "InvalidEmbedding" in capsys.readouterr().err


# files json.load cannot read: bytes that are not UTF-8, nesting past the
# recursion limit
MALFORMED_FILES = {"not-utf8": b'\xff\xfe{"n": 4}', "deep-nesting": b"[" * 100000}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_draw_malformed_file_exits_2(tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED_FILES[name])
    assert run(["draw", str(bad), "--method", "tutte"]) == 2
    assert "error: InvalidEmbedding: not valid JSON" in capsys.readouterr().err


def test_gallery_records_malformed_files_and_continues(graph_path, tmp_path, capsys):
    paths = []
    for name, data in MALFORMED_FILES.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_bytes(data)
    out_dir = tmp_path / "gal"
    assert run(["gallery", *map(str, paths), str(graph_path), "--out-dir", str(out_dir)]) == 0
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    for name in MALFORMED_FILES:
        assert rows[name][1] == "FAILED:InvalidEmbedding"
    assert float(rows["g"][1]) >= 1.0
    assert capsys.readouterr().err.count("failed") == 2


def test_draw_missing_file_exits_2(tmp_path, capsys):
    assert run(["draw", str(tmp_path / "nope.json"), "--method", "tutte"]) == 2
    assert "error:" in capsys.readouterr().err


def test_kaleidoscope_csv_and_svgs(graph_path, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    best = tmp_path / "best.svg"
    worst = tmp_path / "worst.svg"
    assert run(["kaleidoscope", str(graph_path), "--step", "5",
                "--out-csv", str(csv_path),
                "--best-svg", str(best), "--worst-svg", str(worst)]) == 0
    out = capsys.readouterr().out
    assert "rows=19" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "angle_degrees,edge_length_ratio"
    assert len(lines) == 20
    angles = [float(l.split(",")[0]) for l in lines[1:]]
    assert angles == [5.0 * i for i in range(19)]
    ratios = [float(l.split(",")[1]) for l in lines[1:]]
    assert f"best_ratio={min(ratios):.6f}" in out
    assert best.exists() and worst.exists()


def test_kaleidoscope_best_svg_is_xy_morph_at_best_angle(graph_path, tmp_path):
    best = tmp_path / "best.svg"
    assert run(["kaleidoscope", str(graph_path), "--step", "15",
                "--out-csv", str(tmp_path / "rows.csv"),
                "--best-svg", str(best)]) == 0
    emb = load_graph(graph_path)
    poly = regular_polygon(emb.outer_face)
    angle = best_row(kaleidoscope(emb, poly, 15.0)).angle_degrees
    _, drawing = xy_morph(emb, poly, math.radians(angle))
    assert best.read_text() == render_svg(drawing, emb)


def test_kaleidoscope_svgs_reuse_the_sweep(tmp_path, monkeypatch):
    """The best and worst SVGs draw the sweep's own rows: one reference
    solve and one spread per direction, 13 at a 15-degree step."""
    path = tmp_path / "g.json"
    save_graph(generate_planar(30, 84, 1), path)
    calls = Counter()

    def counted_tutte(*a, **k):
        calls["tutte"] += 1
        return tutte(*a, **k)

    def counted_spreads(emb, poly, plans):
        plans = list(plans)
        calls["directions"] += len(plans)
        return _spreads(emb, poly, plans)

    for name, fn, wrapper in (("tutte", tutte, counted_tutte), ("_spreads", _spreads, counted_spreads)):
        for mod in [m for key, m in sys.modules.items() if key.startswith("stressdraw")]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    assert run(["kaleidoscope", str(path), "--step", "15",
                "--out-csv", str(tmp_path / "rows.csv"),
                "--best-svg", str(tmp_path / "best.svg"),
                "--worst-svg", str(tmp_path / "worst.svg")]) == 0
    assert calls == {"tutte": 1, "directions": 13}


# each value is infinite or NaN; the expected exit code and error class
NON_FINITE = [
    (["--method", "xspread", "--angle", "inf"], 2, "BadParams"),
    (["--method", "yspread", "--angle", "inf"], 2, "BadParams"),
    (["--method", "xymorph", "--angle", "inf"], 2, "BadParams"),
    (["--method", "xspread", "--angle", "nan"], 2, "BadParams"),
    (["--method", "yspread", "--angle=-inf"], 2, "BadParams"),
    (["--method", "bfs", "--a", "inf"], 2, "BadParams"),
    (["--method", "bfs", "--r", "inf"], 2, "BadParams"),
    (["--method", "tutte", "--radius", "inf"], 3, "PreconditionError"),
]


@pytest.mark.parametrize("argv, code, error", NON_FINITE, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_draw_rejects_non_finite_parameters(graph_path, tmp_path, capsys, argv, code, error):
    assert run(["draw", str(graph_path), *argv, "--out-svg", str(tmp_path / "d.svg")]) == code
    assert f"error: {error}:" in capsys.readouterr().err
    assert not (tmp_path / "d.svg").exists()


@pytest.mark.parametrize("radius", ["1e300", "1e-170"])
def test_draw_at_extreme_radius(graph_path, tmp_path, capsys, radius):
    """The convexity tolerance neither overflows at a huge radius nor
    underflows at a tiny one: the Tutte drawing is reported as it is."""
    out = tmp_path / "d.svg"
    assert run(["draw", str(graph_path), "--method", "tutte", "--radius", radius,
                "--out-svg", str(out)]) == 0
    assert "crossing_count=0 all_faces_convex=true" in capsys.readouterr().out
    assert out.read_text().count("<circle") == 12


def test_kaleidoscope_deterministic(graph_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["kaleidoscope", str(graph_path), "--step", "15",
                "--out-csv", str(a)]) == 0
    assert run(["kaleidoscope", str(graph_path), "--step", "15",
                "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kaleidoscope_rejects_bad_step(graph_path, capsys):
    assert run(["kaleidoscope", str(graph_path), "--step", "0",
                "--out-csv", "unused.csv"]) == 2
    assert "BadParams" in capsys.readouterr().err


def test_gallery_summary_and_failure_row(graph_path, tri_path, tmp_path, capsys):
    out_dir = tmp_path / "gal"
    missing = tmp_path / "missing.json"
    rc = run(["gallery", str(graph_path), str(missing), str(tri_path),
              "--out-dir", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "failed" in captured.err
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "graph,tutte,x_spread,y_spread,xy_morph,bfs_spread,bfs_r"
    assert len(summary) == 4
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    assert rows["missing"][1] == "FAILED:FileNotFoundError"
    for name, n in (("g", 12), ("t", 14)):
        cells = rows[name]
        ratios = [float(c) for c in cells[1:6]]
        assert all(r >= 1.0 for r in ratios)
        # the x-direction spread keeps the ratio linear in n
        assert ratios[1] <= 3 * n
        assert cells[6] == str(int(cells[6]))
        for label in ("tutte", "x_spread", "y_spread", "xy_morph", "bfs_spread"):
            assert (out_dir / f"{name}.{label}.svg").exists()


def test_gallery_xy_morph_cell_matches_library(graph_path, tmp_path):
    out_dir = tmp_path / "gal"
    assert run(["gallery", str(graph_path), "--out-dir", str(out_dir)]) == 0
    header, row = (out_dir / "summary.csv").read_text().strip().split("\n")
    cell = row.split(",")[header.split(",").index("xy_morph")]
    emb = load_graph(graph_path)
    _, drawing = xy_morph(emb, regular_polygon(emb.outer_face), 0.0)
    assert cell == f"{edge_length_ratio(drawing, emb):.6f}"
