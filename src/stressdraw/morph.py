"""Per-edge interpolation between spread weightings, and the angle sweep.

Both only blend spread weights, so neither solves a spread: each plans
its directions in one batch (spread._direction_plans), whose
spread_weights checks exactly that every direction's path counts
balance, and then solves only its blends, the sweep all of its rows in
one solve_stresses batch. A direction that cannot be planned raises
before anything past the reference is solved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import BadParams, EdgeSetMismatch
from .graph import PlanarEmbedding
from .metrics import _length_range, _ratios
from .solver import Drawing, OuterPolygon, _reference, _solve_chunks, solve_stress
from .spread import _check_direction, _direction_plans


def morph_weights(
    w0: np.ndarray,
    w1: np.ndarray,
    t: float = 0.5,
) -> np.ndarray:
    """Per-edge (1-t)*w0 + t*w1. Endpoints reproduce the inputs exactly."""
    if np.shape(w0) != np.shape(w1):
        raise EdgeSetMismatch(f"weight arrays of shapes {np.shape(w0)} and {np.shape(w1)}")
    if not 0.0 <= t <= 1.0:
        raise BadParams(f"t must lie in [0, 1], got {t}")
    return (1.0 - t) * np.asarray(w0) + t * np.asarray(w1)


def xy_morph(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    angle: float = 0.0,
    t: float = 0.5,
) -> tuple[np.ndarray, Drawing]:
    """Blend the spreads along `angle` and `angle + pi/2`, then solve.

    The default t = 1/2 averages the two weightings. Both spreads read the
    same unit-weight reference drawing, tutte(emb, poly), solved once per
    embedding and polygon. The two directions are planned in one batch,
    each weighted as spread_pipeline weights it, and only the blend is
    solved, after the reference when the embedding does not hold it yet.
    """
    _check_direction(angle)
    ref = _reference(emb, poly)
    _, _, (w0, w1) = _direction_plans(emb, ref, [angle, angle + math.pi / 2])
    weights = morph_weights(w0, w1, t)
    return weights, solve_stress(emb, weights, poly)


@dataclass(frozen=True)
class KaleidoscopeRow:
    angle_degrees: float
    ratio: float
    drawing: Drawing = field(compare=False, repr=False)  # the xy-morph at this angle


def kaleidoscope(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    step_degrees: float = 5.0,
) -> list[KaleidoscopeRow]:
    """The xy-morph and its edge-length ratio at angles 0, step, 2 * step,
    ... below 90 - 1e-9, and at 90: one row per angle, 90 included once.

    Each row blends the spread weights along its angle and the angle + 90
    degrees, so directions meet across rows (0 + 90 is the 90-degree row's
    own direction); every distinct direction is planned once. The
    directions, in the order the rows first use them, are planned in one
    batch, which solves nothing, and the rows' blends are solved in one
    solve_stresses batch and measured a chunk at a time. The reference,
    tutte(emb, poly), is solved once per embedding and polygon, so a sweep
    solves one system per row, plus the reference when the embedding does
    not hold it yet. A direction that cannot be planned raises before any
    blend is solved (spread_pipeline).
    """
    if not 0.0 < step_degrees <= 90.0:
        raise BadParams(f"step must lie in (0, 90], got {step_degrees}")
    # a multiple of step within 1e-9 of 90 is the 90-degree row itself
    if not math.isfinite(below := (90.0 - 1e-9) / step_degrees):
        raise BadParams(f"step {step_degrees} gives {below} rows below 90 degrees")
    ref = _reference(emb, poly)
    angles = [k * step_degrees for k in range(math.ceil(below))] + [90.0]
    pairs = [(math.radians(deg), math.radians(deg) + math.pi / 2) for deg in angles]
    directions = list(dict.fromkeys(chain.from_iterable(pairs)))
    weights = dict(zip(directions, _direction_plans(emb, ref, directions)[2]))
    blends = (morph_weights(weights[a], weights[b]) for a, b in pairs)
    rows: list[KaleidoscopeRow] = []
    for positions, drawings in _solve_chunks(emb, blends, poly):
        ratios = _ratios(*_length_range(positions, emb))
        rows += map(KaleidoscopeRow, angles[len(rows):], ratios, drawings)
    return rows


def best_row(rows: list[KaleidoscopeRow]) -> KaleidoscopeRow:
    return min(rows, key=lambda r: (r.ratio, r.angle_degrees))


def rows_to_csv(rows: list[KaleidoscopeRow]) -> str:
    lines = ["angle_degrees,edge_length_ratio"]
    lines += [f"{r.angle_degrees:.6f},{r.ratio:.6f}" for r in rows]
    return "\n".join(lines) + "\n"
