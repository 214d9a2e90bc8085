"""Deterministic SVG pictures of loop configurations.

Loops are drawn over a faint lattice outline; the longest ones are
highlighted in a fixed palette ordered by length, with ties broken by the
smallest edge in lexicographic order.  :func:`render_loops` is a pure
function from configuration to SVG 1.1 text: identical inputs give
byte-identical documents.
"""

import math
from typing import Iterable

from .configs import edge_components
from .lattice import (
    HexEdge,
    TriVertex,
    edge,
    edge_hexagons,
    hex_xy,
    hexagon_ball,
    hexagon_corners,
)

SCALE = 24.0
MARGIN = 16.0

HIGHLIGHT_PALETTE = ("red", "blue", "green", "purple", "orange")

LATTICE_STROKE = "#cccccc"
LOOP_STROKE = "#222222"


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point(v) -> tuple[float, float]:
    """Picture coordinates of a lattice vertex (unit edge length, scaled)."""
    x, y = hex_xy(v)
    return (x * math.sqrt(3.0) / 2.0 * SCALE, -(y / 2.0) * SCALE)


def _component_path(component: frozenset[HexEdge]) -> str:
    """SVG path data tracing one component, closed when it is a cycle.

    The walk starts at the smallest endpoint (smallest odd-degree vertex
    for an open path) and always leaves along the smallest unused edge, so
    the path data is a pure function of the edge set.
    """
    adjacency: dict = {}
    for u, v in component:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for nbrs in adjacency.values():
        nbrs.sort()
    odd = sorted(v for v, nbrs in adjacency.items() if len(nbrs) % 2 == 1)
    start = odd[0] if odd else min(adjacency)
    unused = set(component)
    points = [start]
    current = start
    while unused:
        for w in adjacency[current]:
            e = (current, w) if current < w else (w, current)
            if e in unused:
                unused.remove(e)
                points.append(w)
                current = w
                break
        else:
            break
    closed = not odd and points[-1] == start
    if closed:
        points = points[:-1]
    parts = []
    for i, v in enumerate(points):
        x, y = _point(v)
        parts.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    if closed:
        parts.append("Z")
    return " ".join(parts)


def render_loops(omega: Iterable[HexEdge], highlight_top: int = 5, *,
                 hexagons: Iterable[TriVertex] | None = None) -> str:
    """SVG picture of a loop configuration.

    The ``highlight_top`` longest loops are colored from the fixed palette
    in order of decreasing length; the rest stay dark.  ``hexagons`` sets
    the outlined backdrop; by default it is the faces touched by the
    configuration, or a small ball when the configuration is empty.
    """
    edges = frozenset(edge(u, v) for u, v in omega)
    if hexagons is not None:
        faces = frozenset(tuple(h) for h in hexagons)
    elif edges:
        faces = frozenset(h for e in edges for h in edge_hexagons(e))
    else:
        faces = hexagon_ball(2)

    components = sorted(edge_components(edges), key=min)
    by_length = sorted(components, key=lambda comp: (-len(comp), min(comp)))
    cap = max(0, min(int(highlight_top), len(HIGHLIGHT_PALETTE)))
    highlighted = by_length[:cap]
    plain = [comp for comp in components
             if not any(comp is picked for picked in highlighted)]

    body = [f'<g fill="none" stroke="{LATTICE_STROKE}" stroke-width="1">']
    body.extend('<polygon points="' + " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in map(_point, hexagon_corners(h)))
        + '"/>' for h in sorted(faces))
    body.append('</g>')
    if plain:
        body.append(f'<g fill="none" stroke="{LOOP_STROKE}" stroke-width="2" '
                    'stroke-linecap="round" stroke-linejoin="round">')
        body.extend(f'<path d="{_component_path(comp)}"/>' for comp in plain)
        body.append('</g>')
    for comp, color in zip(highlighted, HIGHLIGHT_PALETTE):
        body.append(f'<path d="{_component_path(comp)}" fill="none" '
                    f'stroke="{color}" stroke-width="3" '
                    'stroke-linecap="round" stroke-linejoin="round"/>')

    points = [_point(c) for h in faces for c in hexagon_corners(h)]
    points.extend(_point(u) for e in edges for u in e)
    xs, ys = zip(*points)
    x0, y0 = min(xs) - MARGIN, min(ys) - MARGIN
    width, height = max(xs) + MARGIN - x0, max(ys) + MARGIN - y0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
