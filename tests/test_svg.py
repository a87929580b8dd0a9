"""Standalone checks of the SVG rendering."""
from __future__ import annotations

import re

from stressdraw import regular_polygon, render_svg, tutte


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
