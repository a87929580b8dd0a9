"""The three workloads: their operations, how each runs, and how its output
is checked. See bench/README.md for why each workload exists.

An operation either runs in this process through the library (`sweep-mid`,
`small-batch`) or as one `python -m stressdraw.cli draw` child (`draw-large`).
Every operation returns its products; `check_products` turns those into a
list of problems, outside the timed span.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import check

METHODS = ("tutte", "xspread", "yspread", "xymorph", "bfs", "schnyder", "uniform")
# the methods that need the unit-weight drawing in general position
SPREAD_METHODS = ("xspread", "yspread", "xymorph", "uniform")
# Decay base for Schnyder weights in every timed operation. Larger bases drive
# the weights of deep edges below float resolution: at the CLI default r = 5,
# n = 1000 triangulations draw with edge-length ratios of 1e13 to 1e16 or
# raise ZeroLengthEdge, and the default best_r scan (r = 2..16) raises
# ZeroLengthEdge on some triangulations from n = 80 up. The `schnyder-r5` and
# `schnyder-scan` probes keep both visible in the failure census.
SCHNYDER_R = 2
KALEIDOSCOPE_STEP = 5.0


@dataclass(frozen=True)
class Op:
    graph: str
    family: str
    kind: str  # a method name, "sweep", or a probe kind


@dataclass
class Product:
    """One drawing an operation produced, with what the program claimed."""

    method: str
    xy: np.ndarray
    ratio: float | None = None
    svg: str | None = None
    extra: dict = field(default_factory=dict)


def spread_directions(workload: str) -> list[float]:
    """Directions, in degrees, in which the workload's operations spread the
    unit-weight drawing: the kaleidoscope's xy-morphs spread along every
    angle and the angle plus 90; xspread, yspread, xymorph and uniform along
    0 and 90."""
    if workload == "sweep-mid":
        count = int(90 / KALEIDOSCOPE_STEP)
        return [KALEIDOSCOPE_STEP * i for i in range(2 * count + 1)]
    return [0.0, 90.0]


def _methods_for(family: str) -> tuple[str, ...]:
    return METHODS if family != "random" else tuple(m for m in METHODS if m != "schnyder")


def timed_ops(workload: str, manifest: list[dict]) -> list[Op]:
    """One pass over the workload, in the order it runs: round-robin over the
    graphs, so that each graph's operations are spread over the whole pass
    rather than over one stretch of the machine's varying speed."""
    timed = [g for g in manifest if g["timed"]]
    if workload == "sweep-mid":
        return [Op(g["name"], g["family"], "sweep") for g in timed]
    per_graph = [[Op(g["name"], g["family"], method) for method in _methods_for(g["family"])]
                 for g in timed]
    return [op for row in itertools.zip_longest(*per_graph) for op in row if op is not None]


def probe_ops(workload: str, manifest: list[dict]) -> list[Op]:
    """Operations run once, untimed, to record what fails (the census): the
    default Schnyder settings on the timed triangulations, every method on
    the nested family, and the operations that spread the unit-weight
    drawing on each random graph the input screen turned away."""
    timed = [g for g in manifest if g["timed"]]
    if workload == "draw-large":
        probes = [Op("tri600", "random-tri", "schnyder-r5")]
    else:
        probes = [Op(g["name"], g["family"], "schnyder-scan")
                  for g in timed if g["family"] == "random-tri"]
    kinds = ["sweep"] if workload == "sweep-mid" else SPREAD_METHODS
    for g in manifest:
        if g["family"] == "nested":
            probes += [Op(g["name"], g["family"], method) for method in METHODS]
        elif not g["timed"]:
            probes += [Op(g["name"], g["family"], kind) for kind in kinds]
    return probes


def _xy(drawing, n: int) -> np.ndarray:
    return np.array([drawing.positions[v] for v in range(n)], dtype=float)


# ---------------------------------------------------------------------------
# in-process operations
# ---------------------------------------------------------------------------

def run_library(sd, op: Op, emb) -> list:
    """Run one operation through the library. Returns raw results, which
    `library_products` turns into checkable products outside the timer."""
    poly = sd.regular_polygon(emb.outer_face)
    if op.kind == "sweep":
        rows = sd.kaleidoscope(emb, poly, KALEIDOSCOPE_STEP)
        best = sd.best_row(rows)
        _w, morph = sd.xy_morph(emb, poly, math.radians(best.angle_degrees))
        found = [("xymorph", morph, best.ratio, rows), ("bfs", *sd.best_r(emb, poly, "bfs")[1:], None)]
        if op.family == "random-tri":
            r = sd.best_r(emb, poly, "schnyder", r_hi=SCHNYDER_R)
            found.append(("schnyder", r[1], r[2], None))
        winner = min(found, key=lambda f: f[2])
        svg = sd.render_svg(winner[1], emb)
        return [found, winner[0], svg]
    if op.kind == "schnyder-scan":
        _r, drawing, ratio = sd.best_r(emb, poly, "schnyder")
        return [[("schnyder", drawing, ratio, None)], None, None]
    if op.kind == "schnyder-r5":
        drawing = sd.schnyder_spread(emb, poly, 1.0, 5.0)
        return [[("schnyder", drawing, sd.edge_length_ratio(drawing, emb), None)], None, None]
    method = op.kind
    if method == "tutte":
        drawing = sd.tutte(emb, poly)
    elif method in ("xspread", "yspread"):
        direction = 0.0 if method == "xspread" else math.pi / 2
        drawing = sd.spread_pipeline(emb, poly, direction).drawing
    elif method == "xymorph":
        drawing = sd.xy_morph(emb, poly)[1]
    elif method == "bfs":
        drawing = sd.best_r(emb, poly, "bfs")[1]
    elif method == "schnyder":
        drawing = sd.best_r(emb, poly, "schnyder", r_hi=SCHNYDER_R)[1]
    else:
        drawing = sd.uniform_pipeline(emb).drawing
    met = sd.compute_metrics(drawing, emb)
    return [[(method, drawing, met.edge_length_ratio, met)], method, sd.render_svg(drawing, emb)]


def library_products(raw: list, n: int) -> list[Product]:
    found, svg_of, svg = raw
    out = []
    for method, drawing, ratio, extra in found:
        p = Product(method, _xy(drawing, n), ratio, svg if method == svg_of else None)
        if isinstance(extra, list):  # kaleidoscope rows
            p.extra["rows"] = [(r.angle_degrees, r.ratio) for r in extra]
        elif extra is not None:  # DrawingMetrics
            p.extra["crossing_count"] = extra.crossing_count
            p.extra["all_faces_convex"] = extra.all_faces_convex
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# command-line operations
# ---------------------------------------------------------------------------

def cli_args(op: Op, graph_path: str, out_stem: str) -> list[str]:
    args = [
        "draw", graph_path, "--method", op.kind,
        "--out-svg", out_stem + ".svg",
        "--out-metrics", out_stem + ".metrics.json",
        "--out-coords", out_stem + ".coords.json",
    ]
    if op.kind == "schnyder":
        args += ["--r", str(SCHNYDER_R)]
    return args


def cli_products(
    method: str, stdout: str, out_stem: str, n: int
) -> tuple[list[Product], list[str]]:
    """Read what one CLI draw wrote; problems if any piece is missing."""
    fields = dict(
        tok.split("=", 1) for tok in (stdout.strip().splitlines() or [""])[-1].split() if "=" in tok
    )
    try:
        with open(out_stem + ".coords.json", encoding="utf-8") as fh:
            coords = json.load(fh)
        with open(out_stem + ".metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        with open(out_stem + ".svg", encoding="utf-8") as fh:
            svg = fh.read()
        printed = float(fields["edge_length_ratio"])
        xy = np.array([coords[str(v)] for v in range(n)], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return [], [f"CLI output incomplete: {type(exc).__name__}: {exc}"]
    p = Product(method, xy, metrics.get("edge_length_ratio"), svg)
    p.extra = {
        "printed_ratio": printed,
        "crossing_count": metrics.get("crossing_count"),
        "all_faces_convex": metrics.get("all_faces_convex"),
    }
    return [p], []


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_products(
    g: check.Graph, products: list[Product], stats: dict, need_svg: bool
) -> tuple[list[str], list[float]]:
    """Problems across an operation's products, and the recomputed ratios."""
    problems, ratios = [], []
    for p in products:
        found, counts = check.check_drawing(g, p.xy, p.method)
        for key, val in counts.items():
            stats[key] = stats.get(key, 0) + val
        problems += [f"{p.method}: {msg}" for msg in found]
        if found:
            continue
        ratio = check.edge_length_ratio(p.xy, g.edges)
        ratios.append(ratio)
        if p.ratio is None or not check.close(p.ratio, ratio):
            problems.append(f"{p.method}: claimed ratio {p.ratio!r}, recomputed {ratio!r}")
        if "printed_ratio" in p.extra and not check.close(
            p.extra["printed_ratio"], ratio, atol=5e-7
        ):
            problems.append(f"{p.method}: printed ratio {p.extra['printed_ratio']} != {ratio!r}")
        if "crossing_count" in p.extra and (
            p.extra["crossing_count"] != 0 or p.extra["all_faces_convex"] is not True
        ):
            problems.append(f"{p.method}: program reports crossings or non-convex faces")
        rows = p.extra.get("rows")
        if rows is not None:
            angles = [a for a, _ in rows]
            want = [min(KALEIDOSCOPE_STEP * i, 90.0) for i in range(int(90 / KALEIDOSCOPE_STEP) + 1)]
            if angles != want or not all(r >= 1.0 and math.isfinite(r) for _, r in rows):
                problems.append("kaleidoscope rows have wrong angles or ratios")
            elif not check.close(min(r for _, r in rows), ratio):
                problems.append("best kaleidoscope row does not match its redrawn ratio")
        if p.svg is not None:
            problems += check.check_svg(p.svg, g)
    if need_svg and not any(p.svg is not None for p in products):
        problems.append("operation rendered no SVG")
    return problems, ratios


def graph_path(input_dir: str, name: str) -> str:
    return os.path.join(input_dir, f"{name}.json")
