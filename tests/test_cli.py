"""End-to-end command behavior, run in process, and in a child process
where the locale matters."""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import record_solves

import stressdraw
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
from stressdraw import cli, errors, metrics
from stressdraw.cli import GALLERY_COLUMNS, METHODS, run
from stressdraw.spread import _direction_plans


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


@pytest.mark.parametrize("size", [[], ["--n", "10"], ["--m", "24"]], ids=["neither", "no-m", "no-n"])
def test_generate_without_size_exits_2(tmp_path, capsys, size):
    out = tmp_path / "x.json"
    assert run(["generate", *size, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: BadParams: generate needs --n and --m, or --worst-case K\n")
    assert not out.exists()


def test_draw_tutte_writes_svg(graph_path, capsys):
    assert run(["draw", str(graph_path), "--method", "tutte"]) == 0
    out = capsys.readouterr().out
    assert "method=tutte" in out
    assert "crossing_count=0" in out
    assert "all_faces_convex=true" in out
    svg = graph_path.with_name("g.tutte.svg")
    assert svg.exists()
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<line") == 27
    assert text.count("<circle") == 12


def test_draw_metrics_and_coords(graph_path, tmp_path):
    mpath = tmp_path / "m.json"
    cpath = tmp_path / "c.json"
    assert run(["draw", str(graph_path), "--method", "xspread",
                "--out-metrics", str(mpath), "--out-coords", str(cpath)]) == 0
    metrics = json.loads(mpath.read_text(encoding="utf-8"))
    assert set(metrics) == {"edge_length_ratio", "crossing_count",
                            "all_faces_convex"}
    assert metrics["crossing_count"] == 0
    assert metrics["all_faces_convex"] is True
    coords = json.loads(cpath.read_text(encoding="utf-8"))
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
    assert json.loads(mpath.read_text(encoding="utf-8"))["crossing_count"] == 0


def test_draw_bfs_best_r(tri_path, capsys):
    assert run(["draw", str(tri_path), "--method", "bfs", "--r", "best"]) == 0
    out = capsys.readouterr().out
    # the scan picks the base, which differs from the default here
    assert "method=bfs r=2 " in out
    assert tri_path.with_name("t.bfs.svg").exists()


def test_draw_bfs_best_r_skips_bases_without_a_ratio(tmp_path, capsys):
    """On the nested family at k = 20 most decay bases draw a zero-length
    edge; --r best picks among the rest."""
    p = tmp_path / "w.json"
    assert run(["generate", "--worst-case", "20", "--out", str(p)]) == 0
    assert run(["draw", str(p), "--method", "bfs", "--r", "best"]) == 0
    assert "method=bfs r=2 " in capsys.readouterr().out


def test_draw_reports_a_vanishing_weight_as_a_float(graph_path, tmp_path, capsys, monkeypatch):
    """A decay weight that underflows to zero is named as a plain float. The
    command draws with scale 1, where a / r**depth cannot underflow, so the
    library's depth_weights is called with scale 1e-300."""
    monkeypatch.setattr(cli, "depth_weights", functools.partial(stressdraw.depth_weights, a=1e-300))
    assert run(["draw", str(graph_path), "--method", "bfs", "--r", "1e100",
                "--out-svg", str(tmp_path / "d.svg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NonPositiveWeight: ")
    assert err.endswith("got 0.0\n")


def test_draw_reports_an_overflowing_decay_power_as_a_zero_weight(graph_path, tmp_path, capsys):
    """r**depth past float64 gives the weight 0.0 without a RuntimeWarning,
    which the suite turns into an error."""
    assert run(["draw", str(graph_path), "--method", "bfs", "--r", "1e308",
                "--out-svg", str(tmp_path / "d.svg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NonPositiveWeight: ")
    assert err.endswith("got 0.0\n")


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
    coords = json.loads(cpath.read_text(encoding="utf-8"))
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
    metrics = json.loads(mpath.read_text(encoding="utf-8"))
    assert metrics["crossing_count"] == 0
    assert metrics["all_faces_convex"] is True


def test_draw_non_integer_vertex_id_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 4, "rotation": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
        "outer_face": [0, "x", 1],
    }), encoding="utf-8")
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
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    for name in MALFORMED_FILES:
        assert rows[name][1] == "FAILED:InvalidEmbedding"
    assert float(rows["g"][1]) >= 1.0
    assert capsys.readouterr().err.count("failed") == 2


def test_draw_missing_file_exits_2(tmp_path, capsys):
    assert run(["draw", str(tmp_path / "nope.json"), "--method", "tutte"]) == 2
    assert "error:" in capsys.readouterr().err


def test_draw_to_a_directory_exits_2_and_leaves_no_temp_file(graph_path, tmp_path, capsys):
    """The SVG cannot replace a directory: the sibling temp file written
    for it is removed."""
    (tmp_path / "d.svg").mkdir()
    assert run(["draw", str(graph_path), "--method", "tutte", "--out-svg", str(tmp_path / "d.svg")]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.svg", "g.json"]
    assert list((tmp_path / "d.svg").iterdir()) == []


# every error class of the package, each with the exit code of its tier
TIER_CODES = {errors.InputError: 2, errors.PreconditionError: 3, errors.NumericError: 4}
ERROR_CLASSES = [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.StressDrawError) and c is not errors.StressDrawError
]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_run_exits_with_the_code_of_the_error_tier(error, monkeypatch, capsys):
    """Each error class raised inside run exits with its tier's code and
    prints one `error: Name: message` line, nothing on stdout."""
    [code] = [code for tier, code in TIER_CODES.items() if issubclass(error, tier)]

    def fail(args):
        raise error("what went wrong")

    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert run(["generate", "--out", "unused.json"]) == code
    assert capsys.readouterr() == ("", f"error: {error.__name__}: what went wrong\n")


def test_kaleidoscope_csv_and_svgs(graph_path, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    best = tmp_path / "best.svg"
    worst = tmp_path / "worst.svg"
    assert run(["kaleidoscope", str(graph_path), "--step", "5",
                "--out-csv", str(csv_path),
                "--best-svg", str(best), "--worst-svg", str(worst)]) == 0
    out = capsys.readouterr().out
    assert "rows=19" in out
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
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
    assert best.read_text(encoding="utf-8") == render_svg(drawing, emb)


def test_kaleidoscope_svgs_reuse_the_sweep(tmp_path, monkeypatch):
    """The best and worst SVGs draw the sweep's own rows: one reference
    solve and one plan per direction, 13 at a 15-degree step, and no
    spread solved: the 8 weightings solved are the reference and the 7
    rows' blends."""
    path = tmp_path / "g.json"
    save_graph(generate_planar(30, 84, 1), path)
    calls = Counter()

    def counted_tutte(*a, **k):
        calls["tutte"] += 1
        return tutte(*a, **k)

    def counted_plans(emb, reference, directions):
        calls["directions"] += len(directions)
        return _direction_plans(emb, reference, directions)

    for name, fn, wrapper in (("tutte", tutte, counted_tutte), ("_direction_plans", _direction_plans, counted_plans)):
        for mod in [m for key, m in sys.modules.items() if key.startswith("stressdraw")]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    solved = record_solves(monkeypatch)
    assert run(["kaleidoscope", str(path), "--step", "15",
                "--out-csv", str(tmp_path / "rows.csv"),
                "--best-svg", str(tmp_path / "best.svg"),
                "--worst-svg", str(tmp_path / "worst.svg")]) == 0
    assert calls == {"tutte": 1, "directions": 13}
    assert len(solved) == 1 + 7


# each value is infinite or NaN; the expected exit code and error class
NON_FINITE = [
    (["--method", "xspread", "--angle", "inf"], 2, "BadParams"),
    (["--method", "yspread", "--angle", "inf"], 2, "BadParams"),
    (["--method", "xymorph", "--angle", "inf"], 2, "BadParams"),
    (["--method", "xspread", "--angle", "nan"], 2, "BadParams"),
    (["--method", "yspread", "--angle=-inf"], 2, "BadParams"),
    (["--method", "bfs", "--r", "inf"], 2, "BadParams"),
]


@pytest.mark.parametrize("argv, code, error", NON_FINITE, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_draw_rejects_non_finite_parameters(graph_path, tmp_path, capsys, argv, code, error):
    assert run(["draw", str(graph_path), *argv, "--out-svg", str(tmp_path / "d.svg")]) == code
    assert f"error: {error}:" in capsys.readouterr().err
    assert not (tmp_path / "d.svg").exists()


@pytest.mark.parametrize("radius", ["1e300", "1e-170"])
def test_draw_at_extreme_radius(graph_path, tmp_path, capsys, monkeypatch, radius):
    """The convexity tolerance neither overflows at a huge radius nor
    underflows at a tiny one: the Tutte drawing is reported as it is. The
    command draws on the radius-1 polygon, so the library's polygon is
    scaled under it."""
    monkeypatch.setattr(cli, "regular_polygon",
                        lambda face: regular_polygon(face, float(radius)))
    out = tmp_path / "d.svg"
    assert run(["draw", str(graph_path), "--method", "tutte", "--out-svg", str(out)]) == 0
    assert "crossing_count=0 all_faces_convex=true" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").count("<circle") == 12


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


def test_kaleidoscope_rejects_a_subnormal_step(graph_path, tmp_path, capsys):
    """A step so small that the row count overflows is a bad parameter,
    exit 2, not a traceback, and nothing is written."""
    out = tmp_path / "out"
    out.mkdir()
    assert run(["kaleidoscope", str(graph_path), "--step", "5e-324", "--out-csv", str(out / "k.csv"),
                "--best-svg", str(out / "best.svg")]) == 2
    assert "BadParams: step 5e-324 gives inf rows" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# a subcommand and a scale option it no longer takes: every drawing is at
# radius 1 with decay scale 1
SCALE_OPTIONS = [
    ("draw", "--a"), ("draw", "--radius"), ("kaleidoscope", "--radius"),
    ("gallery", "--radius"), ("gallery", "--a"),
]


@pytest.mark.parametrize("command, option", SCALE_OPTIONS, ids=[" ".join(c) for c in SCALE_OPTIONS])
def test_scale_options_are_not_accepted(graph_path, tmp_path, capsys, command, option):
    """argparse rejects the option, so nothing is written; draw's --a is
    not read as an abbreviation of --angle."""
    out = tmp_path / "out"
    outputs = {"draw": ["--method", "tutte", "--out-svg", str(out)],
               "kaleidoscope": ["--out-csv", str(out)],
               "gallery": ["--out-dir", str(out)]}[command]
    with pytest.raises(SystemExit) as info:
        run([command, str(graph_path), *outputs, option, "2"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_gallery_summary_and_failure_row(graph_path, tri_path, tmp_path, capsys):
    out_dir = tmp_path / "gal"
    missing = tmp_path / "missing.json"
    rc = run(["gallery", str(graph_path), str(missing), str(tri_path),
              "--out-dir", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "failed" in captured.err
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
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


def test_gallery_writes_a_non_ascii_name_under_the_c_locale(graph_path, tmp_path):
    """Under the C locale the default encoding is ASCII: the summary and
    its graph name are still written, as UTF-8."""
    src = tmp_path / "größe.json"
    src.write_bytes(graph_path.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    package_root = str(Path(stressdraw.__file__).resolve().parents[1])
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "stressdraw.cli", "gallery", str(src), "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8").split("\n")
    assert summary[1].startswith("größe,")


def test_gallery_xy_morph_cell_matches_library(graph_path, tmp_path):
    out_dir = tmp_path / "gal"
    assert run(["gallery", str(graph_path), "--out-dir", str(out_dir)]) == 0
    header, row = (out_dir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
    cell = row.split(",")[header.split(",").index("xy_morph")]
    emb = load_graph(graph_path)
    _, drawing = xy_morph(emb, regular_polygon(emb.outer_face), 0.0)
    assert cell == f"{edge_length_ratio(drawing, emb):.6f}"


def test_gallery_measures_only_the_ratio(graph_path, tri_path, tmp_path, monkeypatch):
    """A gallery row prints only each drawing's edge-length ratio, so it
    runs neither the crossing count nor the convexity check."""
    def fail(*args):
        raise AssertionError("gallery ran a check it does not print")

    monkeypatch.setattr(metrics, "crossing_count", fail)
    monkeypatch.setattr(metrics, "faces_convex", fail)
    out_dir = tmp_path / "gal"
    assert run(["gallery", str(graph_path), str(tri_path), "--out-dir", str(out_dir)]) == 0
    assert "FAILED" not in (out_dir / "summary.csv").read_text(encoding="utf-8")


def test_gallery_solves_tutte_once_per_row(graph_path, tri_path, tmp_path, monkeypatch):
    """The tutte column and the spreads and the morph after it share one
    reference solve per graph."""
    solved = record_solves(monkeypatch)
    assert run(["gallery", str(graph_path), str(tri_path), "--out-dir", str(tmp_path / "gal")]) == 0
    # the unit weightings solved, by edge count: one for each graph (m = 27, 36)
    assert [len(w) for w in solved if np.all(w == 1.0)] == [27, 36]


def test_methods_on_a_warm_embedding_match_a_fresh_one():
    """The stored reference changes no output bit: a second run
    of every method on one embedding equals the first run on another."""
    def outputs(emb):
        poly = regular_polygon(emb.outer_face)
        got = []
        for r in ("best", "3"):
            params = argparse.Namespace(angle=30.0, t=0.25, r=r)
            for method in METHODS.values():
                drawing, chosen = method(emb, poly, params)
                got += [drawing.positions.tobytes(), chosen]
        for row in kaleidoscope(emb, poly, 15.0):
            got += [row.ratio, row.drawing.positions.tobytes()]
        return got + [xy_morph(emb, poly, 0.7)[0].tobytes()]

    warm = generate_planar(40, 3 * 40 - 6, seed=5)
    outputs(warm)
    assert outputs(warm) == outputs(generate_planar(40, 3 * 40 - 6, seed=5))


@pytest.mark.parametrize("path", ["graph_path", "tri_path"])
def test_gallery_svgs_match_draw(path, tmp_path, request):
    """Every gallery column's SVG is byte for byte the one draw writes with
    that column's method and the gallery's options (bfs with --r best)."""
    graph = request.getfixturevalue(path)
    out_dir = tmp_path / "gal"
    assert run(["gallery", str(graph), "--out-dir", str(out_dir)]) == 0
    for label, method in GALLERY_COLUMNS:
        svg = tmp_path / f"{label}.svg"
        best = ["--r", "best"] if method == "bfs" else []
        assert run(["draw", str(graph), "--method", method, *best, "--out-svg", str(svg)]) == 0
        assert svg.read_bytes() == (out_dir / f"{graph.stem}.{label}.svg").read_bytes(), label


def test_the_cli_imports_only_what_a_draw_uses():
    """A cold draw is almost all import: importing the command line in a
    fresh interpreter loads no public scipy subpackage but scipy.sparse and
    scipy.linalg, and neither networkx nor hypothesis."""
    code = (
        "import json, sys, stressdraw.cli\n"
        "names = [n for n, mod in sys.modules.items() if n.count('.') == 1 and hasattr(mod, '__path__')]\n"
        "print(json.dumps([sorted(n for n in names if n.startswith('scipy.')),"
        " sorted({n.split('.')[0] for n in sys.modules} & {'networkx', 'hypothesis'})]))\n"
    )
    env = dict(os.environ)
    package_root = str(Path(stressdraw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    scipy_packages, optional = json.loads(done.stdout)
    public = [n for n in scipy_packages if not n.split(".")[1].startswith("_")]
    assert set(public) <= {"scipy.linalg", "scipy.sparse"}, public
    assert optional == []
