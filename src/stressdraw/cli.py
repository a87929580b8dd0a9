"""Command-line front end.

Subcommands: generate (random or worst-case graphs), draw (one method, SVG
plus metrics), kaleidoscope (angle sweep CSV), gallery (method-by-graph
ratio table). Exit codes: 0 success; on a package error, the exit_code of
its tier (2 bad input or parameters, 3 violated algorithmic precondition,
4 numeric failure); 2 when a file cannot be read or written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .errors import BadParams, StressDrawError
from .graph import (
    PlanarEmbedding,
    generate_planar,
    load_graph,
    save_graph,
    worst_case_graph,
)
from .metrics import compute_metrics, edge_length_ratio, metrics_json
from .morph import best_row, kaleidoscope, rows_to_csv, xy_morph
from .solver import Drawing, OuterPolygon, _reference, regular_polygon, solve_stress
from .spread import spread_pipeline
from .svg import render_svg
from .treespread import best_r, bfs_depths, depth_weights, schnyder_depths
from .uniform import uniform_pipeline


def _write_text(path: str, text: str) -> None:
    """Write UTF-8 through a sibling temp file and an atomic rename. A file
    name the locale could not decode, as a gallery row's graph name, goes
    out as its own bytes."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.worst_case is not None:
        emb = worst_case_graph(args.worst_case)
    else:
        if args.n is None or args.m is None:
            raise BadParams("generate needs --n and --m, or --worst-case K")
        emb = generate_planar(
            args.n, args.m, args.seed, attempts=args.attempts, strict=args.strict
        )
    save_graph(emb, args.out)
    print(
        f"wrote {args.out}: n={emb.n} m={emb.m} "
        f"outer_face_length={len(emb.outer_face)} valid=yes"
    )
    return 0


def _parse_r(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise BadParams(f"--r must be a number or 'best', got {raw!r}") from None


def _decay(emb: PlanarEmbedding, poly: OuterPolygon, p: argparse.Namespace,
           method: str) -> tuple[Drawing, int | None]:
    if p.r == "best":
        r, drawing, _rho = best_r(emb, poly, method)
        return drawing, r
    r = _parse_r(p.r)
    depths = bfs_depths(emb) if method == "bfs" else schnyder_depths(emb)
    return solve_stress(emb, depth_weights(depths, r=r), poly), None


def _spread(emb: PlanarEmbedding, poly: OuterPolygon, direction: float) -> tuple[Drawing, int | None]:
    return spread_pipeline(emb, poly, direction).drawing, None


# Every drawing method by CLI name, on the graph, its polygon and the draw
# options: the drawing, and the decay base `--r best` chose (None otherwise).
METHODS = {
    "tutte": lambda emb, poly, p: (_reference(emb, poly), None),
    "xspread": lambda emb, poly, p: _spread(emb, poly, math.radians(p.angle)),
    "yspread": lambda emb, poly, p: _spread(emb, poly, math.radians(p.angle) + math.pi / 2.0),
    "xymorph": lambda emb, poly, p: (xy_morph(emb, poly, math.radians(p.angle), p.t)[1], None),
    "bfs": lambda emb, poly, p: _decay(emb, poly, p, "bfs"),
    "schnyder": lambda emb, poly, p: _decay(emb, poly, p, "schnyder"),
    "uniform": lambda emb, poly, p: (uniform_pipeline(emb).drawing, None),
}


def cmd_draw(args: argparse.Namespace) -> int:
    emb = load_graph(args.graph)
    poly = regular_polygon(emb.outer_face)
    drawing, chosen_r = METHODS[args.method](emb, poly, args)
    met = compute_metrics(drawing, emb)

    out_svg = args.out_svg
    if out_svg is None:
        stem, _ = os.path.splitext(args.graph)
        out_svg = f"{stem}.{args.method}.svg"
    _write_text(out_svg, render_svg(drawing, emb))
    if args.out_metrics:
        _write_text(args.out_metrics, metrics_json(met) + "\n")
    if args.out_coords:
        coords = {str(v): xy for v, xy in enumerate(drawing.positions.tolist())}
        _write_text(args.out_coords, json.dumps(coords, indent=1) + "\n")

    chosen = f" r={chosen_r}" if chosen_r is not None else ""
    print(
        f"method={args.method}{chosen} n={emb.n} m={emb.m} "
        f"edge_length_ratio={met.edge_length_ratio:.6f} "
        f"crossing_count={met.crossing_count} "
        f"all_faces_convex={'true' if met.all_faces_convex else 'false'} "
        f"svg={out_svg}"
    )
    return 0


def cmd_kaleidoscope(args: argparse.Namespace) -> int:
    emb = load_graph(args.graph)
    rows = kaleidoscope(emb, regular_polygon(emb.outer_face), args.step)
    _write_text(args.out_csv, rows_to_csv(rows))
    best = best_row(rows)
    worst = max(rows, key=lambda r: (r.ratio, -r.angle_degrees))
    for path, row in ((args.best_svg, best), (args.worst_svg, worst)):
        if path:
            _write_text(path, render_svg(row.drawing, emb))
    print(
        f"rows={len(rows)} csv={args.out_csv} "
        f"best_angle={best.angle_degrees:g} best_ratio={best.ratio:.6f} "
        f"worst_angle={worst.angle_degrees:g} worst_ratio={worst.ratio:.6f}"
    )
    return 0


# gallery column label and the method drawn in it
GALLERY_COLUMNS = (("tutte", "tutte"), ("x_spread", "xspread"), ("y_spread", "yspread"),
                   ("xy_morph", "xymorph"), ("bfs_spread", "bfs"))


def _gallery_row(emb: PlanarEmbedding, name: str, out_dir: str) -> str:
    poly = regular_polygon(emb.outer_face)
    params = argparse.Namespace(angle=0.0, t=0.5, r="best")
    drawings = {label: METHODS[method](emb, poly, params) for label, method in GALLERY_COLUMNS}
    cells = [name]
    for label, (drawing, _r) in drawings.items():
        ratio = edge_length_ratio(drawing, emb)
        _write_text(
            os.path.join(out_dir, f"{name}.{label}.svg"), render_svg(drawing, emb)
        )
        cells.append(f"{ratio:.6f}")
    cells.append(str(drawings["bfs_spread"][1]))
    return ",".join(cells)


def cmd_gallery(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    lines = ["graph," + ",".join(label for label, _ in GALLERY_COLUMNS) + ",bfs_r"]
    for path in args.graphs:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            emb = load_graph(path)
            lines.append(_gallery_row(emb, name, args.out_dir))
        except (StressDrawError, OSError) as exc:
            # record the failure and keep going with the remaining graphs
            print(f"gallery: {path} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            lines.append(f"{name},FAILED:{type(exc).__name__},,,,,")
    csv_path = os.path.join(args.out_dir, "summary.csv")
    _write_text(csv_path, "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"summary={csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stressdraw",
        description="Convex planar drawings from weighted stress embeddings.",
    )
    # options are spelled out in full: --a would otherwise abbreviate --angle
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", allow_abbrev=False,
                       help="generate a 3-connected planar graph as JSON")
    g.add_argument("--n", type=int, help="vertex count")
    g.add_argument("--m", type=int, help="edge count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--worst-case", type=int, metavar="K",
        help="emit the k-path double-apex graph instead of a random one",
    )
    g.add_argument("--attempts", type=int, default=8)
    g.add_argument(
        "--strict", action="store_true",
        help="fail when the target edge count cannot be hit exactly",
    )
    g.add_argument("--out", required=True)

    d = sub.add_parser("draw", allow_abbrev=False, help="draw one graph with one method")
    d.add_argument("graph", help="graph JSON path")
    d.add_argument("--method", required=True, choices=list(METHODS))
    d.add_argument("--angle", type=float, default=0.0, help="spread direction, degrees")
    d.add_argument("--t", type=float, default=0.5, help="morph parameter in [0, 1]")
    d.add_argument("--r", default="5", help="depth decay base > 1, or 'best'")
    d.add_argument("--out-svg", help="default: <graph>.<method>.svg")
    d.add_argument("--out-metrics", help="metrics JSON path")
    d.add_argument("--out-coords", help="coordinates JSON path")

    k = sub.add_parser("kaleidoscope", allow_abbrev=False,
                       help="sweep morph angles, write angle/ratio CSV")
    k.add_argument("graph")
    k.add_argument("--step", type=float, default=5.0, help="angle step, degrees")
    k.add_argument("--out-csv", required=True)
    k.add_argument("--best-svg", help="render the lowest-ratio angle here")
    k.add_argument("--worst-svg", help="render the highest-ratio angle here")

    ga = sub.add_parser("gallery", allow_abbrev=False, help="run all methods over several graphs")
    ga.add_argument("graphs", nargs="+", help="graph JSON paths")
    ga.add_argument("--out-dir", required=True)
    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": cmd_generate,
        "draw": cmd_draw,
        "kaleidoscope": cmd_kaleidoscope,
        "gallery": cmd_gallery,
    }[args.command]
    try:
        return handler(args)
    except StressDrawError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
