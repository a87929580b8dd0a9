"""Per-edge interpolation between spread weightings, and the angle sweep.

Both solve in batches (solve_stresses): the xy-morph its two spreads, the
sweep every distinct direction's spread and then every row's blend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import BadParams, EdgeSetMismatch
from .graph import PlanarEmbedding
from .metrics import edge_length_ratio
from .solver import Drawing, OuterPolygon, solve_stress, solve_stresses, tutte
from .spread import _check_direction, _direction_plans, _spreads


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
    reference: Drawing | None = None,
) -> tuple[np.ndarray, Drawing]:
    """Blend the spreads along `angle` and `angle + pi/2`, then solve.

    The default t = 1/2 averages the two weightings. Both spreads start
    from the same unit-weight reference drawing, which is deterministic,
    so passing a precomputed reference only saves the repeated solve. The
    two spreads are solved in one batch, each as spread_pipeline draws it.
    """
    _check_direction(angle)
    ref = reference if reference is not None else tutte(emb, poly)
    s0, s1 = _spreads(emb, poly, _direction_plans(emb, poly, ref, [angle, angle + math.pi / 2]))
    weights = morph_weights(s0.weights, s1.weights, t)
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
    """The xy-morph and its edge-length ratio at angles 0, step, ..., 90
    inclusive.

    Each row blends the spreads along its angle and the angle + 90 degrees,
    so directions meet across rows (0 + 90 is the 90-degree row's own
    direction); every distinct direction is spread once. The spreads, in
    the order the rows first use them, are solved in one batch, and the
    rows' blends in another (solve_stresses).
    """
    if not 0.0 < step_degrees <= 90.0:
        raise BadParams(f"step must lie in (0, 90], got {step_degrees}")
    ref = tutte(emb, poly)
    angles: list[float] = []
    k = 0
    while k * step_degrees <= 90.0 + 1e-9:
        angles.append(min(k * step_degrees, 90.0))
        k += 1
    if angles[-1] < 90.0:
        angles.append(90.0)
    pairs = [(math.radians(deg), math.radians(deg) + math.pi / 2) for deg in angles]
    directions = list(dict.fromkeys(chain.from_iterable(pairs)))
    spreads = _spreads(emb, poly, _direction_plans(emb, poly, ref, directions))
    weights = dict(zip(directions, (s.weights for s in spreads)))
    blends = (morph_weights(weights[a], weights[b]) for a, b in pairs)
    return [
        KaleidoscopeRow(deg, edge_length_ratio(d, emb), d)
        for deg, d in zip(angles, solve_stresses(emb, blends, poly))
    ]


def best_row(rows: list[KaleidoscopeRow]) -> KaleidoscopeRow:
    return min(rows, key=lambda r: (r.ratio, r.angle_degrees))


def worst_row(rows: list[KaleidoscopeRow]) -> KaleidoscopeRow:
    return max(rows, key=lambda r: (r.ratio, -r.angle_degrees))


def rows_to_csv(rows: list[KaleidoscopeRow]) -> str:
    lines = ["angle_degrees,edge_length_ratio"]
    lines += [f"{r.angle_degrees:.6f},{r.ratio:.6f}" for r in rows]
    return "\n".join(lines) + "\n"
