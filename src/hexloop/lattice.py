"""Geometry of the hexagonal lattice, its triangular dual, and finite domains.

Vertices of the hexagonal lattice are addressed as ``(r, s, c)`` where
``c = 0`` marks the sublattice whose neighbours sit up-right, up-left and
straight below ("up" vertices) and ``c = 1`` the other sublattice ("down"
vertices).  Hexagonal faces carry axial coordinates ``(r, s)``; they are at
the same time the sites of the triangular lattice.

Everything is anchored to an integer embedding in doubled coordinates::

    up   (r, s) -> (X, Y) = (2r + s + 1, 3s + 1)
    down (r, s) -> (X, Y) = (2r + s + 2, 3s + 2)
    face (r, s) -> (X, Y) = (2r + s,     3s)

with real position ``(X * sqrt(3) / 2, Y / 2)`` (unit edge length).  Every
geometric predicate
in this module (interiors, reflections, direction classes, windings) is
evaluated in these integer coordinates, so the lattice layer is free of
floating-point error.  Hexagons are pointy-side-up; the vertical edges are
the pairs ``{up(r, s), down(r, s - 1)}``.

A :class:`Domain` is the region bounded by a self-avoiding polygon: its
interior vertices, the edge set incident to them, the boundary vertices, and
the hexagons whose corners are all interior.  Domains are built from an
interior vertex set, from a union of hexagons (their corners) or as
triangles with marked sides; the polygon is the wall around the hexagons at
the interior vertices, traced once.  Balls, rhombi and rectangles of
hexagons are given as hexagon sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .errors import (
    DisconnectedInterior,
    EmptyInterior,
    NotAPath,
    NotSelfAvoiding,
    OddSide,
    OutOfRange,
    PathNotInDomain,
)

TriVertex = tuple[int, int]
HexVertex = tuple[int, int, int]
HexEdge = tuple[HexVertex, HexVertex]

UP = 0
DOWN = 1


# ---------------------------------------------------------------------------
# vertices, edges, faces
# ---------------------------------------------------------------------------

def hex_xy(v: HexVertex) -> tuple[int, int]:
    """Integer doubled coordinates of a lattice vertex."""
    r, s, c = v
    if c == UP:
        return (2 * r + s + 1, 3 * s + 1)
    if c == DOWN:
        return (2 * r + s + 2, 3 * s + 2)
    raise OutOfRange(f"vertex class must be 0 or 1, got {c!r}")


def hex_neighbors(v: HexVertex) -> tuple[HexVertex, HexVertex, HexVertex]:
    """The three lattice neighbours of a vertex."""
    r, s, c = v
    if c == UP:
        return ((r, s, DOWN), (r - 1, s, DOWN), (r, s - 1, DOWN))
    return ((r, s, UP), (r + 1, s, UP), (r, s + 1, UP))


def are_adjacent(u: HexVertex, v: HexVertex) -> bool:
    return v in hex_neighbors(u)


def edge(u: HexVertex, v: HexVertex) -> HexEdge:
    """Canonical (sorted) form of the edge between two adjacent vertices."""
    if not are_adjacent(u, v):
        raise OutOfRange(f"{u} and {v} are not adjacent")
    return (u, v) if u < v else (v, u)


def vertex_hexagons(v: HexVertex) -> tuple[TriVertex, TriVertex, TriVertex]:
    """The three hexagons meeting at a vertex."""
    r, s, c = v
    if c == UP:
        return ((r, s), (r + 1, s), (r, s + 1))
    return ((r + 1, s), (r + 1, s + 1), (r, s + 1))


def hexagon_corners(h: TriVertex) -> tuple[HexVertex, ...]:
    """The six corners of a hexagon, counterclockwise from 30 degrees."""
    r, s = h
    return (
        (r, s, UP),
        (r - 1, s, DOWN),
        (r - 1, s, UP),
        (r - 1, s - 1, DOWN),
        (r, s - 1, UP),
        (r, s - 1, DOWN),
    )


def hexagon_edges(h: TriVertex) -> tuple[HexEdge, ...]:
    """The six edges of a hexagon, canonical form, counterclockwise."""
    cs = hexagon_corners(h)
    return tuple(edge(cs[i], cs[(i + 1) % 6]) for i in range(6))


def edge_hexagons(e: HexEdge) -> tuple[TriVertex, TriVertex]:
    """The two hexagons separated by an edge, in the order of
    :func:`vertex_hexagons` at its up end (r, s): all three but the first,
    second or third for a down end at (r, s), (r - 1, s) or (r, s - 1)."""
    (r, s, c), (p, q, d) = e if e[0][2] == UP else e[::-1]
    dr, ds = r - p, s - q
    if (c, d) != (UP, DOWN) or (dr, ds) not in ((0, 0), (1, 0), (0, 1)):
        raise OutOfRange(f"{e} is not an edge")
    return (r + 1 - dr - ds, s), (r + ds, s + 1 - ds)


def tri_neighbors(h: TriVertex) -> tuple[TriVertex, ...]:
    """The six hexagons sharing an edge with ``h``."""
    r, s = h
    return ((r + 1, s), (r - 1, s), (r, s + 1), (r, s - 1),
            (r + 1, s - 1), (r - 1, s + 1))


def tri_distance(a: TriVertex, b: TriVertex) -> int:
    """Graph distance on the triangular lattice of hexagons."""
    dr = a[0] - b[0]
    ds = a[1] - b[1]
    return (abs(dr) + abs(ds) + abs(dr + ds)) // 2


@lru_cache(maxsize=128)
def hexagon_ball(radius: int) -> frozenset[TriVertex]:
    """All hexagons within triangular-lattice distance ``radius`` of the
    origin.

    Cached: event predicates ask for the same balls on every sample."""
    if radius < 0:
        raise OutOfRange("radius must be nonnegative")
    around = range(-radius, radius + 1)
    return frozenset({(r, s) for r in around for s in around
                      if tri_distance((r, s), (0, 0)) <= radius})


def hexagon_components(hexagons: Iterable[TriVertex], neighbors=tri_neighbors,
                       ) -> list[frozenset[TriVertex]]:
    """Connected components of a hexagon set under edge adjacency, or of a
    vertex set with ``neighbors=hex_neighbors``."""
    left = set(hexagons)
    out = []
    while left:
        comp = {left.pop()}
        frontier = set(comp)
        while frontier:
            frontier = {g for h in frontier for g in neighbors(h)} & left
            left -= frontier
            comp |= frontier
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# directions, turns, windings
# ---------------------------------------------------------------------------

# Direction class j of a step u -> v: the step's angle is 30 + 60 j degrees.
# Classes 0, 2, 4 go up -> down; classes 1, 3, 5 go down -> up.
_DIRECTION_BY_DELTA = {(1, 1): 0, (0, 2): 1, (-1, 1): 2, (-1, -1): 3,
                       (0, -2): 4, (1, -1): 5}


def direction_class(u: HexVertex, v: HexVertex) -> int:
    """Direction class (0..5) of the step from ``u`` to its neighbour ``v``."""
    xu, yu = hex_xy(u)
    xv, yv = hex_xy(v)
    try:
        return _DIRECTION_BY_DELTA[(xv - xu, yv - yu)]
    except KeyError:
        raise OutOfRange(f"{u} -> {v} is not a lattice step") from None


def turn_sign(j_in: int, j_out: int) -> int:
    """+1 for a left (counterclockwise) turn, -1 for a right turn.

    Consecutive steps of a lattice walk always turn by exactly 60 degrees
    one way or the other, so any other pair of classes is an error.
    """
    d = (j_out - j_in) % 6
    if d == 1:
        return 1
    if d == 5:
        return -1
    raise OutOfRange(f"direction classes {j_in} -> {j_out} are not consecutive")


def is_path(vertices: Sequence[HexVertex]) -> bool:
    """True if the sequence is a self-avoiding walk in the lattice."""
    return len(set(vertices)) == len(vertices) and all(
        are_adjacent(vertices[i], vertices[i + 1])
        for i in range(len(vertices) - 1))


def path_edges(vertices: Sequence[HexVertex]) -> tuple[HexEdge, ...]:
    """Canonical edges traversed by a walk (validates the walk)."""
    if not is_path(vertices):
        raise NotAPath(f"not a self-avoiding lattice walk: {list(vertices)!r}")
    return tuple(edge(vertices[i], vertices[i + 1])
                 for i in range(len(vertices) - 1))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def mirror_tri(h: TriVertex, axis_x: int = 0) -> TriVertex:
    """Reflect a hexagon about the vertical line X = axis_x (doubled coords)."""
    r, s = h
    return (axis_x - r - s, s)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Keeper:
    """Results kept for an object's life, unseen by equality and hashing."""

    def kept(self, key, build: Callable[[], object]):
        """``build()``, run once per key and kept for every later call."""
        kept = self.__dict__.setdefault("_kept", {})
        if key not in kept:
            kept[key] = build()
        return kept[key]


@dataclass(frozen=True)
class Domain(Keeper):
    """A finite region of the hexagonal lattice bounded by a polygon.

    Built by :func:`domain_from_interior`, which checks that the given
    interior is exactly what the polygon encloses.

    Attributes
    ----------
    polygon:
        The bounding self-avoiding cycle, canonically rotated (starts at its
        smallest vertex, then towards the smaller cycle neighbour).
    interior:
        Vertices strictly inside the polygon, in the disc it bounds.
    edges:
        All lattice edges with at least one endpoint in the interior, in
        canonical sorted order.  This is the edge set configurations live on.
    boundary:
        Endpoints of ``edges`` that are not interior (all lie on the
        polygon), sorted.
    interior_hexagons:
        Hexagons whose six corners are all interior.
    """

    polygon: tuple[HexVertex, ...]
    interior: frozenset[HexVertex]
    edges: tuple[HexEdge, ...]
    boundary: tuple[HexVertex, ...]
    interior_hexagons: frozenset[TriVertex]

    @cached_property
    def edge_index(self) -> dict[HexEdge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def vertex_edges(self) -> dict[HexVertex, tuple[HexEdge, ...]]:
        out: dict[HexVertex, list[HexEdge]] = {}
        for e in self.edges:
            out.setdefault(e[0], []).append(e)
            out.setdefault(e[1], []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def spokes(self) -> dict[HexVertex, HexEdge]:
        """The unique domain edge at each boundary vertex."""
        out = {}
        for b in self.boundary:
            es = self.vertex_edges[b]
            if len(es) != 1:
                raise NotSelfAvoiding(
                    f"boundary vertex {b} has {len(es)} domain edges")
            out[b] = es[0]
        return out

    def degree(self, v: HexVertex) -> int:
        return len(self.vertex_edges.get(v, ()))

    def __repr__(self) -> str:  # the dataclass default is unreadably large
        return (f"Domain(|interior|={len(self.interior)}, "
                f"|edges|={len(self.edges)}, |boundary|={len(self.boundary)})")


# (dr, ds) of the hexagon across the edge from corner i to corner i + 1 of
# hexagon_corners
_ACROSS = ((0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0))


def domain_from_interior(interior: Iterable[HexVertex]) -> Domain:
    """Build the domain whose interior is exactly the given vertex set.

    Raises if the set is empty, disconnected, or admits no bounding
    self-avoiding polygon (for instance horseshoe shapes whose notch pinches
    down to a single vertex).  The polygon is the wall of the patch, the
    hexagons at the set's vertices.  When the wall is one cycle the patch is
    the disc it bounds, and the set must be its corners off the wall.
    """
    want = {tuple(v) for v in interior}
    if not want:
        raise EmptyInterior("interior set is empty")
    if len(hexagon_components(want, hex_neighbors)) != 1:
        raise DisconnectedInterior("interior set is not connected")

    patch = {h for v in want for h in vertex_hexagons(v)}
    # each wall edge is met once, from its patch side; a vertex meets three
    # hexagons, so the wall has degree 2 at each of its vertices
    adj: dict[HexVertex, list[HexVertex]] = {}
    corners: set[HexVertex] = set()
    inner_hexagons = []
    for h in patch:
        r, s = h
        cs = hexagon_corners(h)
        corners.update(cs)
        inner = True
        for i, (dr, ds) in enumerate(_ACROSS):
            g = (r + dr, s + ds)
            if g not in patch:
                inner = False
                adj.setdefault(cs[i], []).append(cs[i - 5])
                adj.setdefault(cs[i - 5], []).append(cs[i])
        if inner:
            inner_hexagons.append(h)

    # from the smallest wall vertex towards its smaller neighbour: the
    # canonical rotation and orientation of the polygon
    start = min(adj)
    cycle = [start, min(adj[start])]
    while True:
        a, b = cycle[-2], cycle[-1]
        nxt = adj[b][0] if adj[b][0] != a else adj[b][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adj):
        raise NotSelfAvoiding(
            "interior set admits no bounding polygon (wall is not one cycle)")

    # the wall is a Jordan polygon around the patch, so the disc it bounds
    # holds the patch corners off the wall: they must be the set's vertices
    if len(corners) != len(want) + len(adj):
        if len(hexagon_components(corners - adj.keys(), hex_neighbors)) != 1:
            raise DisconnectedInterior(
                "the polygon pinches its interior into several components")
        raise NotSelfAvoiding(
            "interior set admits no bounding polygon (trace disagrees)")

    edges = set()
    boundary = set()
    for v in want:
        for w in hex_neighbors(v):
            edges.add((v, w) if v < w else (w, v))
            if w not in want:
                boundary.add(w)
    return Domain(
        polygon=tuple(cycle),
        interior=frozenset(want),
        edges=tuple(sorted(edges)),
        boundary=tuple(sorted(boundary)),
        interior_hexagons=frozenset(inner_hexagons),
    )


def domain_from_hexagons(hexagons: Iterable[TriVertex]) -> Domain:
    """Domain whose interior is the corner set of the given hexagons."""
    hs = {tuple(h) for h in hexagons}
    if not hs:
        raise EmptyInterior("no hexagons given")
    corners = {c for h in hs for c in hexagon_corners(h)}
    return domain_from_interior(corners)


# ---------------------------------------------------------------------------
# triangle domains with marked sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleDomain:
    """A triangular domain with its three sides marked.

    ``side`` is the (even) number of hexagons along each side of the
    triangle.  ``bottom/left/right_hexagons`` are the hexagons whose centers
    the three cut lines pass through, listed corner to corner (the corner
    hexagons belong to two sides).  ``bottom/left/right_boundary`` are the
    boundary vertices on each side; every boundary vertex of the domain is
    in exactly one of them, and all spokes on one side are parallel: they
    leave the domain at 270 degrees (bottom), 150 degrees (left) and
    30 degrees (right).  ``start_vertex`` is the middle bottom boundary
    vertex and ``start_edge`` its (vertical) spoke.
    """

    domain: Domain
    side: int
    bottom_hexagons: tuple[TriVertex, ...]
    left_hexagons: tuple[TriVertex, ...]
    right_hexagons: tuple[TriVertex, ...]
    bottom_boundary: tuple[HexVertex, ...]
    left_boundary: tuple[HexVertex, ...]
    right_boundary: tuple[HexVertex, ...]
    start_vertex: HexVertex
    start_edge: HexEdge


def triangle_domain(side: int) -> TriangleDomain:
    """Build the triangular domain of even side length ``side`` >= 2.

    The interior is cut out by three straight lines through the centers of
    the side hexagons; in doubled coordinates the interior is exactly
    ``{Y > 0} & {Y < 3X} & {Y < 6(side-1) - 3X}``.
    """
    if side < 2:
        raise OutOfRange("triangle side must be at least 2")
    if side % 2 != 0:
        raise OddSide("triangle side must be even")

    k = side
    interior = set()
    for s in range(0, 2 * k):
        for r in range(-1, 2 * k):
            for c in (UP, DOWN):
                x, y = hex_xy((r, s, c))
                if y > 0 and y < 3 * x and y < 6 * (k - 1) - 3 * x:
                    interior.add((r, s, c))
    dom = domain_from_interior(interior)

    bottom_h = tuple((r, 0) for r in range(k))
    left_h = tuple((0, s) for s in range(k))
    right_h = tuple((k - 1 - s, s) for s in range(k))
    bottom_b = tuple((r, -1, DOWN) for r in range(k - 1))
    left_b = tuple((-1, s, DOWN) for s in range(k - 1))
    right_b = tuple((k - 2 - s, s, DOWN) for s in range(k - 1))

    marked = set(bottom_b) | set(left_b) | set(right_b)
    if marked != set(dom.boundary):
        raise NotSelfAvoiding("triangle boundary does not match its marks")

    a = ((k - 2) // 2, -1, DOWN)
    return TriangleDomain(
        domain=dom,
        side=k,
        bottom_hexagons=bottom_h,
        left_hexagons=left_h,
        right_hexagons=right_h,
        bottom_boundary=bottom_b,
        left_boundary=left_b,
        right_boundary=right_b,
        start_vertex=a,
        start_edge=edge(a, ((k - 2) // 2, 0, UP)),
    )


# ---------------------------------------------------------------------------
# removing paths from a domain
# ---------------------------------------------------------------------------

def config_degrees(edges: Iterable[HexEdge]) -> dict[HexVertex, int]:
    """Degree of every vertex of an edge set."""
    deg: dict[HexVertex, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def edge_components(edges: Iterable[HexEdge]) -> tuple[frozenset[HexEdge], ...]:
    """Connected components of an edge set, as frozensets of edges, in the
    order of their first edge in ``edges``.  Each vertex maps to the member
    list of its component, and an edge joining two components moves the
    shorter list into the longer (union by size), so no root is searched."""
    es = list(edges)
    members: dict[HexVertex, list[HexVertex]] = {}
    for u, v in es:
        mu, mv = members.get(u), members.get(v)
        if mu is None:
            if mv is None:
                mv = members[v] = [v]
            mv.append(u)
            members[u] = mv
        elif mv is None:
            mu.append(v)
            members[v] = mu
        elif mu is not mv:
            if len(mu) < len(mv):
                mu, mv = mv, mu
            mu += mv
            for w in mv:
                members[w] = mu
    groups: dict[int, list[HexEdge]] = {}
    for e in es:
        groups.setdefault(id(members[e[0]]), []).append(e)
    return tuple(frozenset(g) for g in groups.values())


def remove_paths(region: Domain | Iterable[HexEdge],
                 paths: Sequence[Sequence[HexVertex]],
                 ) -> tuple[tuple[HexEdge, ...], ...]:
    """Remove a union of vertex-disjoint self-avoiding walks from an edge set.

    Removes each walk's edges together with every remaining edge at its two
    endpoint vertices (at most two each; a boundary endpoint has none).
    Edges elsewhere stay, including edges at inner walk vertices that end up
    with a dangling endpoint; no even configuration takes such an edge, and
    the sweep engine drops it before it plans a sweep.  A walk with fewer
    than two vertices removes nothing.

    ``region`` is a :class:`Domain`, whose edges must contain every walk
    edge, or a raw edge set, from which the removal is set-theoretic: a walk
    may overhang edges that are already missing, as happens when a longer
    walk is peeled off one piece at a time.

    Returns the remaining edges as connected components, each sorted,
    sorted overall.
    """
    pool = (region.edges if isinstance(region, Domain)
            else sorted({edge(u, v) for u, v in region}))
    removed: set[HexEdge] = set()
    used: set[HexVertex] = set()
    for path in paths:
        verts = [tuple(v) for v in path]
        if used & set(verts):
            raise NotAPath("walks in a union must be vertex-disjoint")
        used.update(verts)
        if len(verts) < 2:
            continue
        walk = path_edges(verts)
        if isinstance(region, Domain):
            for e in walk:
                if e not in region.edge_index:
                    raise PathNotInDomain(f"edge {e} is not in the domain")
        removed.update(walk)
        ends = (verts[0], verts[-1])
        removed.update(e for e in pool if e[0] in ends or e[1] in ends)
    comps = edge_components(e for e in pool if e not in removed)
    return tuple(sorted(tuple(sorted(c)) for c in comps))


# ---------------------------------------------------------------------------
# standard hexagon families and the ball-with-annulus pair
# ---------------------------------------------------------------------------

def rhombus_hexagons(k: int) -> frozenset[TriVertex]:
    """The rhombus of hexagons {(r, s): 0 <= r, s <= k}."""
    if k < 0:
        raise OutOfRange("rhombus size must be nonnegative")
    return frozenset((r, s) for r in range(k + 1) for s in range(k + 1))


def rectangle_hexagons(width: int, height: int) -> frozenset[TriVertex]:
    """An axial box of hexagons, ``width`` columns by ``height`` rows."""
    if width < 1 or height < 1:
        raise OutOfRange("rectangle sides must be positive")
    return frozenset((r, s) for r in range(width) for s in range(height))


def ball_and_annulus(k: int) -> tuple[frozenset[TriVertex], frozenset[HexEdge]]:
    """The ball of radius ``k`` and the edge annulus around it.

    Returns ``(ball, annulus)`` where ``ball`` is the radius-``k`` ball of
    hexagons around the origin and ``annulus`` is the set of lattice edges
    both of whose endpoints are corners of ring hexagons at distance
    ``k+1 .. 2k`` from the origin.  Every annulus edge borders a hexagon
    within distance ``2k + 1``.
    """
    if k < 1:
        raise OutOfRange("annulus radius must be at least 1")
    ball = hexagon_ball(k)
    ring = hexagon_ball(2 * k) - ball
    ring_corners = {c for h in ring for c in hexagon_corners(h)}
    annulus = set()
    for v in ring_corners:
        for w in hex_neighbors(v):
            if w in ring_corners:
                annulus.add((v, w) if v < w else (w, v))
    return ball, frozenset(annulus)
