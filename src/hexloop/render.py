"""Deterministic SVG pictures of loop and spin configurations.

Loops are drawn over a faint lattice outline; the longest ones are
highlighted in a fixed palette ordered by length, with ties broken by the
smallest edge in lexicographic order.  Spin pictures fill the dual hexagons
with one of two colors (frozen hexagons at reduced opacity) and can overlay
the cluster walls, whose path geometry matches the loop picture exactly.

Both entry points are pure functions from configuration to SVG 1.1 text:
identical inputs give byte-identical documents.
"""

from typing import Iterable

from .configs import SpinSystem, edge_components, loops_from_json, spins_to_loops
from .lattice import (
    HexEdge,
    TriVertex,
    edge_hexagons,
    hex_position,
    hexagon_ball,
    hexagon_corners,
)

SCALE = 24.0
MARGIN = 16.0

HIGHLIGHT_PALETTE = ("red", "blue", "green", "purple", "orange")

LATTICE_STROKE = "#cccccc"
LOOP_STROKE = "#222222"
PLUS_FILL = "#4878b0"
MINUS_FILL = "#f5f0e6"
FRAME_OPACITY = "0.45"


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point(v) -> tuple[float, float]:
    x, y = hex_position(v)
    return (x * SCALE, -y * SCALE)


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


def _hexagon_points(h: TriVertex) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}"
                    for x, y in map(_point, hexagon_corners(h)))


def _document(body: list[str], points: Iterable[tuple[float, float]]) -> str:
    xs, ys = zip(*points)
    x0, y0 = min(xs) - MARGIN, min(ys) - MARGIN
    width, height = max(xs) + MARGIN - x0, max(ys) + MARGIN - y0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
    ]
    lines.extend(body)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_loops(omega: Iterable[HexEdge], highlight_top: int = 5, *,
                 hexagons: Iterable[TriVertex] | None = None) -> str:
    """SVG picture of a loop configuration.

    The ``highlight_top`` longest loops are colored from the fixed palette
    in order of decreasing length; the rest stay dark.  ``hexagons`` sets
    the outlined backdrop; by default it is the faces touched by the
    configuration, or a small ball when the configuration is empty.
    """
    edges = loops_from_json(omega)  # canonical edges from any vertex pairs
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
    body.extend(f'<polygon points="{_hexagon_points(h)}"/>'
                for h in sorted(faces))
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
    return _document(body, points)


def render_spins(system: SpinSystem, spins, *, overlay: bool = False) -> str:
    """SVG picture of a spin configuration on the dual hexagons.

    Free hexagons are filled at full opacity, frozen context hexagons at
    reduced opacity, with one color per sign.  With ``overlay`` the walls
    of the configuration are drawn on top as cluster boundaries.
    """
    full = system.full_spins(spins)
    index = system._index
    free = set(system.free)

    body = ['<g stroke="none">']
    for h in system.context:
        fill = PLUS_FILL if full[index[h]] == 1 else MINUS_FILL
        opacity = "" if h in free else f' fill-opacity="{FRAME_OPACITY}"'
        body.append(f'<polygon points="{_hexagon_points(h)}" '
                    f'fill="{fill}"{opacity}/>')
    body.append('</g>')
    if overlay:
        walls = spins_to_loops(system, spins)
        if walls:
            body.append(f'<g fill="none" stroke="{LOOP_STROKE}" '
                        'stroke-width="2" stroke-linecap="round" '
                        'stroke-linejoin="round">')
            body.extend(f'<path d="{_component_path(comp)}"/>'
                        for comp in sorted(edge_components(walls), key=min))
            body.append('</g>')

    points = [_point(c) for h in system.context for c in hexagon_corners(h)]
    return _document(body, points)
