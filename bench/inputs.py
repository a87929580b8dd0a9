"""Generate one workload's input graphs from a seed and write them as JSON.

    python3 bench/inputs.py WORKLOAD SEED OUT_DIR [SPAN_FILE]

Runs as its own process, so that the benchmark's set-up time covers the
package import as well as generation. Writes OUT_DIR/<name>.json for every
input and OUT_DIR/manifest.json listing name, family, n, m, outer-face
length and general-position margin. With SPAN_FILE, the package's public
functions are traced and the spans written there.

Each random graph is screened with the benchmark's own Tutte solve
(`check.x_gap_margin`) in the spread directions its workload uses. A graph
whose margin is not above SCREEN_MARGIN_FACTOR times the spread pipeline's
general-position floor makes that pipeline raise DegeneratePosition (the
known defect of ROADMAP item 2) or comes close to it; it becomes a census
input, run untimed, and its slot is drawn again from a later generator
seed. The last line of
standard output gives the seconds spent screening and generating the
census inputs, which the caller leaves out of the set-up time.
"""
from __future__ import annotations

import json
import os
import sys
import time

# A timed input's margin must exceed the pipeline's floor this many times
# over, so that the program's own solve, which rounds differently, cannot
# fall below the floor where the screen's does not.
SCREEN_MARGIN_FACTOR = 10
# generator seed of the j-th redraw of a slot; slots differ by less than this
REDRAW_STRIDE = 100
MAX_REDRAWS = 9


def plan(workload: str, seed: int) -> list[tuple[str, str, int, int, int]]:
    """(name, family, n, m, generator seed) for every input; m = 0 marks a
    nested graph, whose n is k + 2. Sizes are fixed per workload so that
    every seed gives the same workload shape; the seed picks the graphs."""
    if workload == "draw-large":
        return [
            ("tri600", "random-tri", 600, 1794, seed * 1000 + 1),
            # as many edges as tri600, so that all draws cost about the same
            # and the median operation falls inside one cluster of times
            ("g620", "random", 620, 1794, seed * 1000 + 2),
        ]
    if workload == "sweep-mid":
        out = []
        # an odd count puts the median operation inside one graph's times,
        # not at the gap between two sizes
        for i in range(9):
            n = 150 + round(i * 250 / 8)
            tri = i % 2 == 0
            m = 3 * n - 6 if tri else round(2.5 * n)
            out.append((f"mid{i}-n{n}", "random-tri" if tri else "random", n, m, seed * 1000 + i))
        return out
    if workload == "small-batch":
        out = []
        for i in range(60):
            n = 20 + round(i * 80 / 59)
            if i % 3 == 0:
                family, m = "random-tri", 3 * n - 6
            else:
                family, m = "random", 2 * n if i % 3 == 1 else round(2.5 * n)
            out.append((f"small{i}-n{n}", family, n, m, seed * 1000 + i))
        out += [(f"nested{k}", "nested", k + 2, 0, 0) for k in range(3, 41)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    span_file = argv[3] if len(argv) > 3 else None
    import stressdraw as sd

    # the screen's own imports count as screening, not as set-up
    start = time.perf_counter()
    import check
    import workloads as wl

    screen_s = time.perf_counter() - start
    floor = SCREEN_MARGIN_FACTOR * check.GENERAL_POSITION_RTOL
    rec = None
    if span_file:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    os.makedirs(out_dir, exist_ok=True)
    directions = wl.spread_directions(workload)
    manifest = []

    def save(emb, name: str, family: str, timed: bool, margin: float | None) -> None:
        path = os.path.join(out_dir, f"{name}.json")
        sd.save_graph(emb, path)
        manifest.append(
            {"name": name, "family": family, "n": emb.n, "m": emb.m,
             "outer": len(emb.outer_face), "timed": timed, "margin": margin,
             "file": f"{name}.json"}
        )

    for name, family, n, m, gseed in plan(workload, seed):
        if rec is not None:
            rec.op = f"{name}:setup"
        if family == "nested":
            save(sd.worst_case_graph(n - 2), name, family, False, None)
            continue
        for redraw in range(MAX_REDRAWS + 1):
            start = time.perf_counter()
            emb = sd.generate_planar(n, m, gseed + redraw * REDRAW_STRIDE, strict=True)
            screened = time.perf_counter()
            margin = check.x_gap_margin(check.Graph(sd.graph.to_dict(emb)), directions)
            if margin > floor:
                screen_s += time.perf_counter() - screened
                save(emb, name, family, True, margin)
                break
            save(emb, f"{name}-census{redraw}", family, False, margin)
            screen_s += time.perf_counter() - start
        else:
            raise RuntimeError(f"no screened graph for {name} in {MAX_REDRAWS + 1} draws")
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    if rec is not None:
        rec.dump(span_file)
    print(f"screen_s={screen_s!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
