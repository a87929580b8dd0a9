"""Per-edge interpolation between spread weightings, and the angle sweep."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, EdgeSetMismatch
from .graph import PlanarEmbedding
from .metrics import edge_length_ratio
from .solver import Drawing, OuterPolygon, solve_stress, tutte
from .spread import spread_pipeline


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
    so passing a precomputed reference only saves the repeated solve.
    """
    ref = reference if reference is not None else tutte(emb, poly)
    s0 = spread_pipeline(emb, poly, angle, reference=ref)
    s1 = spread_pipeline(emb, poly, angle + math.pi / 2, reference=ref)
    weights = morph_weights(s0.weights, s1.weights, t)
    return weights, solve_stress(emb, weights, poly)


@dataclass(frozen=True)
class KaleidoscopeRow:
    angle_degrees: float
    ratio: float


def kaleidoscope(
    emb: PlanarEmbedding,
    poly: OuterPolygon,
    step_degrees: float = 5.0,
) -> list[KaleidoscopeRow]:
    """Edge-length ratio of the xy-morph at angles 0, step, ..., 90 inclusive."""
    if not 0.0 < step_degrees <= 90.0:
        raise BadParams(f"step must lie in (0, 90], got {step_degrees}")
    ref = tutte(emb, poly)
    rows: list[KaleidoscopeRow] = []
    k = 0
    while True:
        deg = k * step_degrees
        if deg > 90.0 + 1e-9:
            break
        deg = min(deg, 90.0)
        _, d = xy_morph(emb, poly, math.radians(deg), reference=ref)
        rows.append(KaleidoscopeRow(deg, edge_length_ratio(d, emb)))
        k += 1
    if rows[-1].angle_degrees < 90.0:
        _, d = xy_morph(emb, poly, math.radians(90.0), reference=ref)
        rows.append(KaleidoscopeRow(90.0, edge_length_ratio(d, emb)))
    return rows


def best_row(rows: list[KaleidoscopeRow]) -> KaleidoscopeRow:
    return min(rows, key=lambda r: (r.ratio, r.angle_degrees))


def worst_row(rows: list[KaleidoscopeRow]) -> KaleidoscopeRow:
    return max(rows, key=lambda r: (r.ratio, -r.angle_degrees))


def rows_to_csv(rows: list[KaleidoscopeRow]) -> str:
    lines = ["angle_degrees,edge_length_ratio"]
    lines += [f"{r.angle_degrees:.6f},{r.ratio:.6f}" for r in rows]
    return "\n".join(lines) + "\n"
