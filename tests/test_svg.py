"""Standalone checks of the SVG rendering."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import oracle_drawings, scratch_render_svg

from stressdraw import generate_planar, regular_polygon, render_svg, tutte


def test_render_counts_and_envelope(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    text = render_svg(d, octahedron)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<line") == octahedron.m
    assert text.count("<circle") == octahedron.n
    nums = [float(x) for x in re.findall(r'c[xy]="([-0-9.]+)"', text)]
    # everything stays inside the canvas with its margin
    assert all(0.0 <= v <= 1000.0 for v in nums)


def test_render_flips_y_axis(octahedron):
    """The topmost vertex of the drawing gets the smallest pixel y."""
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    text = render_svg(d, octahedron)
    top = int(d.positions[:, 1].argmax())
    circles = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', text)
    assert len(circles) == octahedron.n
    ys = [float(cy) for _, cy in circles]
    # circles are rendered in vertex order
    assert ys[top] == min(ys)


def test_render_is_deterministic(octahedron):
    d = tutte(octahedron, regular_polygon(octahedron.outer_face))
    assert render_svg(d, octahedron) == render_svg(d, octahedron)


def test_render_matches_line_by_line_oracle():
    drawings = 0
    for emb, d in oracle_drawings():
        assert render_svg(d, emb) == scratch_render_svg(d, emb)
        drawings += 1
    assert drawings > 100


@pytest.mark.parametrize("radius", [1e-13, 1e-170])
def test_tiny_drawings_fill_the_canvas(radius):
    """Drawings narrower than 1e-12 are scaled to the canvas like any other:
    the wider axis spans the margins, 20 to 980."""
    emb = generate_planar(30, 60, 1)
    text = render_svg(tutte(emb, regular_polygon(emb.outer_face, radius)), emb)
    circles = np.array(re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', text), dtype=float)
    lo, hi = circles.min(axis=0), circles.max(axis=0)
    wide = int(np.argmax(hi - lo))
    assert (lo[wide], hi[wide]) == (20.0, 980.0)
