"""Tests for the SVG loop renderer.

The palette fixture has loops of lengths 10, 6, and 6 so the tie between
the two hexagon loops must fall to the one with the smaller first edge.
A golden file freezes the exact bytes of one loop picture.
"""

import pathlib
import re

from hexloop.lattice import hexagon_ball, hexagon_edges
from hexloop.render import render_loops

GOLDEN = pathlib.Path(__file__).parent / "golden"


def three_loops():
    """A 10-edge loop and two 6-edge loops, pairwise disjoint."""
    two_cell = frozenset(hexagon_edges((-1, 0))) ^ frozenset(hexagon_edges((-1, 1)))
    return (two_cell
            | frozenset(hexagon_edges((1, 0)))
            | frozenset(hexagon_edges((2, -2))))


def highlight_paths(svg):
    return re.findall(r'<path d="([^"]+)" fill="none" stroke="([a-z]+)"', svg)


def plain_paths(svg):
    return re.findall(r'<path d="([^"]+)"/>', svg)


def segment_count(d):
    return d.count("L ") + d.count("Z")


class TestRenderLoops:
    def test_empty_config_is_outline_only(self):
        svg = render_loops([], 5)
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert "<path" not in svg
        assert svg.count("<polygon") == len(hexagon_ball(2))

    def test_single_hexagon_loop(self):
        svg = render_loops(hexagon_edges((0, 0)), 1)
        paths = highlight_paths(svg)
        assert len(paths) == 1
        d, color = paths[0]
        assert color == "red"
        assert d.strip().endswith("Z")
        assert segment_count(d) == 6

    def test_palette_order_and_tie_break(self):
        svg = render_loops(three_loops(), 5, hexagons=hexagon_ball(2))
        paths = highlight_paths(svg)
        assert [color for _, color in paths] == ["red", "blue", "green"]
        assert [segment_count(d) for d, _ in paths] == [10, 6, 6]
        # The tie between the two hexagon loops falls to (1, 0), whose
        # smallest vertex precedes every vertex of (2, -2); its path data
        # is the same as when that loop is rendered alone.
        alone = highlight_paths(render_loops(hexagon_edges((1, 0)), 1))
        assert paths[1][0] == alone[0][0]

    def test_highlight_cap(self):
        svg = render_loops(three_loops(), 0)
        assert not highlight_paths(svg)
        assert len(plain_paths(svg)) == 3
        svg = render_loops(three_loops(), 99)
        assert len(highlight_paths(svg)) == 3
        assert not plain_paths(svg)

    def test_golden_loops(self):
        svg = render_loops(three_loops(), 5, hexagons=hexagon_ball(2))
        assert svg == (GOLDEN / "loops_sample.svg").read_text()
