"""Scaling the outer polygon's radius by a power of two scales the drawing;
scaling the decay weights by one leaves it as it is."""
from __future__ import annotations

import math

import numpy as np
import pytest

from stressdraw import (
    OuterPolygon,
    ResidualExceeded,
    best_r,
    bfs_depths,
    depth_weights,
    generate_planar,
    regular_polygon,
    schnyder_depths,
    schnyder_spread,
    solve_stress,
    spread_pipeline,
    tutte,
    worst_case_graph,
    xy_morph,
)

GRAPHS = {
    "g30": lambda: generate_planar(30, 60, 1),
    "tri40": lambda: generate_planar(40, 114, 2),
    "nested15": lambda: worst_case_graph(15),
}
EXPONENTS = range(-60, 61, 5)


def _drawings(emb, radius: float) -> tuple[dict, tuple]:
    """The positions of every method whose weights do not depend on the
    radius, Schnyder on triangulations only, and the decay base best_r
    picks with its ratio."""
    unit = regular_polygon(emb.outer_face)
    poly = OuterPolygon(unit.order, radius * unit.positions)
    r, best, ratio = best_r(emb, poly, "bfs")
    got = {
        "tutte": tutte(emb, poly).positions,
        "bfs": solve_stress(emb, depth_weights(bfs_depths(emb), r=5.0), poly).positions,
        "best_r": best.positions,
    }
    if emb.m == 3 * emb.n - 6:
        got["schnyder"] = schnyder_spread(emb, poly, r=2.0).positions
    return got, (r, ratio)


@pytest.mark.parametrize("build", GRAPHS.values(), ids=GRAPHS.keys())
def test_fixed_weight_drawings_scale_with_the_radius(build):
    """At radius 2**s each drawing is the radius-1 drawing times 2**s, bit
    for bit, and best_r picks the same base with the same ratio."""
    emb = build()
    base, choice = _drawings(emb, 1.0)
    for s in EXPONENTS:
        got, got_choice = _drawings(emb, 2.0**s)
        assert got_choice == choice, s
        assert got.keys() == base.keys()
        for name, want in base.items():
            assert got[name].tobytes() == np.ldexp(want, s).tobytes(), (name, s)


@pytest.mark.parametrize("build", GRAPHS.values(), ids=GRAPHS.keys())
def test_decay_drawings_ignore_the_weight_scale(build):
    """Depth weights 2**s / r**depth give the drawing of 1 / r**depth bit
    for bit, and its residual times 2**s: the equilibrium system is
    homogeneous in the weights."""
    emb = build()
    poly = regular_polygon(emb.outer_face)
    decays = {"bfs": (bfs_depths(emb), 5.0)}
    if emb.m == 3 * emb.n - 6:
        decays["schnyder"] = (schnyder_depths(emb), 2.0)
    for name, (depths, r) in decays.items():
        base = solve_stress(emb, depth_weights(depths, 1.0, r), poly)
        for s in range(-60, 15):
            got = solve_stress(emb, depth_weights(depths, 2.0**s, r), poly)
            assert got.positions.tobytes() == base.positions.tobytes(), (name, s)
            assert got.residual == math.ldexp(base.residual, s), (name, s)


SPREADS = {
    "xspread": lambda emb, poly: spread_pipeline(emb, poly, 0.0).drawing,
    "yspread": lambda emb, poly: spread_pipeline(emb, poly, math.pi / 2).drawing,
    "xymorph": lambda emb, poly: xy_morph(emb, poly, 0.0)[1],
}


@pytest.mark.xfail(
    strict=True, raises=ResidualExceeded,
    reason="spread weights grow as 1/radius, but the residual bound is "
           "absolute: at radius 2**-30 no float64 drawing meets it (ROADMAP item 7)",
)
@pytest.mark.parametrize("draw", SPREADS.values(), ids=SPREADS.keys())
def test_spreads_scale_with_the_radius(draw):
    emb = GRAPHS["g30"]()
    unit = regular_polygon(emb.outer_face)
    base = draw(emb, unit).positions
    got = draw(emb, OuterPolygon(unit.order, 2.0**-30 * unit.positions)).positions
    assert got.tobytes() == np.ldexp(base, -30).tobytes()
