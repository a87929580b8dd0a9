"""Spans around the package's public functions, recorded from outside it.

`patches` pairs every public function of every stressdraw module with a
wrapper that records a span, in every namespace that binds it: modules
import one another's functions by name (`from .solver import solve_stress`),
so patching only the defining module would miss most calls. `switch` binds
the wrappers or the originals; `install` does both. Spans stay in memory
and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import time
from collections import defaultdict

LAYERS = ("graph", "solver", "spread", "morph", "treespread", "uniform", "metrics", "svg", "cli")
# Bytes per edge pair of crossing_count's all-pairs arrays, computed rather
# than measured: the pair indices i, j (2 x 8), the shared-endpoint mask (1),
# the four orientation arrays (4 x 8) and the three gathered endpoint arrays
# of one orientation test (3 x 16).
CROSSING_PAIR_BYTES = 2 * 8 + 1 + 4 * 8 + 3 * 16
# Per-edge helpers called inside the other functions' loops: a span each
# would multiply the span count a hundredfold and time mostly the wrapper.
UNTRACED = {"graph.edge_key"}


def _annotate(name: str, args: tuple, result: object) -> dict[str, float]:
    """Derived counts for the few calls whose arguments or result carry them.

    Keys ending in `_min` aggregate by minimum, `_share` by mean over calls,
    everything else by sum.
    """
    if name == "solver.solve_stress":
        emb, _weights, poly = args[:3]
        out = {"solver.interior_vertices": emb.n - len(poly.positions)}
        if result.residual > 0:
            from stressdraw import solver

            bound = solver.RESIDUAL_RTOL * poly.radius
            out["solver.residual_margin_min"] = math.log10(bound / result.residual)
        return out
    if name == "spread.ensure_general_position":
        return {"spread.nudge_share": float(result[1] > 0)}
    if name == "metrics.crossing_count":
        m = args[1].m
        pairs = m * (m - 1) // 2
        return {"metrics.crossing_count.pairs": pairs,
                "metrics.crossing_count.bytes": pairs * CROSSING_PAIR_BYTES}
    if name == "svg.render_svg":
        return {"svg.render_svg.bytes": len(result)}
    return {}


class Recorder:
    """In-memory span list: [name, start, end, parent index, op id, error
    name or None, derived counts or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = None

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op, None, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            span[5] = type(exc).__name__
            raise
        else:
            span[2] = time.perf_counter()
            span[6] = _annotate(name, args, result) or None
            return result
        finally:
            self.stack.pop()

    def dump(self, path: str, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def patches(rec: Recorder) -> list[tuple]:
    """(namespace, name, function, wrapper) for every public function defined
    in a stressdraw module, in every namespace that binds it."""
    import stressdraw

    modules = [stressdraw] + [
        importlib.import_module(f"stressdraw.{info.name}")
        for info in pkgutil.iter_modules(stressdraw.__path__)
    ]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and short in LAYERS
                and f"{short}.{attr}" not in UNTRACED
            ):
                wrappers[fn] = _wrap(rec, f"{short}.{attr}", fn)
    return [
        (mod, attr, value, wrappers[value])
        for mod in modules
        for attr, value in vars(mod).items()
        if inspect.isfunction(value) and value in wrappers
    ]


def switch(patched: list[tuple], on: bool) -> None:
    """Bind the wrappers (on) or the original functions (off)."""
    for mod, attr, fn, wrapper in patched:
        setattr(mod, attr, wrapper if on else fn)


def install(rec: Recorder) -> list[tuple]:
    patched = patches(rec)
    switch(patched, True)
    return patched


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    return traced


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-function calls, s, self_s and fail, per-layer self_s, and the
    derived counts. Spans index their parent within the same list."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    derived: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _parent, _op, fail, extra) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child[i]
        out[f"{name}.fail"] += fail is not None
        out[f"{name.partition('.')[0]}.self_s"] += dur - child[i]
        for key, val in (extra or {}).items():
            derived[key].append(val)
    for key, vals in derived.items():
        if key.endswith("_min"):
            out[key] = min(vals)
        elif key.endswith("_share"):
            out[key] = sum(vals) / len(vals)
        else:
            out[key] = sum(vals)
    return dict(out)


def load_spans(path: str) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["meta"], data["spans"]


def merge(into: list[list], spans: list[list], op: object = None) -> None:
    """Append spans from another list, re-basing parent indices; `op`, when
    given, replaces their operation id."""
    base = len(into)
    for name, start, end, parent, span_op, fail, extra in spans:
        parent = parent + base if parent >= 0 else -1
        into.append([name, start, end, parent, span_op if op is None else op, fail, extra])
