"""Lattice geometry tests.

The numeric values frozen here (edge counts, boundary sizes, polygon
lengths) were derived by hand from the integer embedding before the module
was written: Euler counts for polyhex patches, explicit corner lists for the
small triangles.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexloop.errors import (
    DisconnectedInterior,
    EmptyInterior,
    HexloopError,
    NotAPath,
    NotSelfAvoiding,
    OddSide,
    OutOfRange,
    PathNotInDomain,
)
from hexloop.exact import sweep_table
from hexloop.lattice import (
    DOWN,
    UP,
    ball_and_annulus,
    config_degrees,
    direction_class,
    domain_from_hexagons,
    domain_from_interior,
    edge,
    edge_components,
    edge_hexagons,
    hex_neighbors,
    hex_xy,
    hexagon_ball,
    hexagon_components,
    hexagon_corners,
    hexagon_edges,
    is_path,
    mirror_tri,
    path_edges,
    rectangle_hexagons,
    remove_paths,
    tri_distance,
    tri_neighbors,
    triangle_domain,
    turn_sign,
    vertex_hexagons,
)
from hexloop.fixtures import load_domains, load_monotone_pairs
from oracles import (
    bfs_edge_components,
    build_domain,
    flood_fill_domain,
    hex_position,
)

SAMPLE_VERTICES = [(r, s, c) for r in range(-3, 4) for s in range(-3, 4)
                   for c in (UP, DOWN)]
SAMPLE_HEXAGONS = [(r, s) for r in range(-3, 4) for s in range(-3, 4)]


def test_adjacency_is_symmetric_and_cubic():
    for v in SAMPLE_VERTICES:
        ns = hex_neighbors(v)
        assert len(set(ns)) == 3
        for w in ns:
            assert v in hex_neighbors(w)


def test_neighbors_are_at_unit_distance():
    for v in SAMPLE_VERTICES:
        px, py = hex_position(v)
        for w in hex_neighbors(v):
            qx, qy = hex_position(w)
            assert math.hypot(qx - px, qy - py) == pytest.approx(1.0, abs=1e-12)


def test_hexagon_corners_form_a_cycle_of_the_right_shape():
    for h in SAMPLE_HEXAGONS:
        cs = hexagon_corners(h)
        assert len(set(cs)) == 6
        x, y = 2 * h[0] + h[1], 3 * h[1]  # the face embedding
        cx, cy = x * math.sqrt(3) / 2, y / 2
        for i, c in enumerate(cs):
            nxt = cs[(i + 1) % 6]
            assert nxt in hex_neighbors(c)
            px, py = hex_position(c)
            # corners sit at unit distance from the center, first at 30deg
            assert math.hypot(px - cx, py - cy) == pytest.approx(1.0, abs=1e-12)
            ang = math.atan2(py - cy, px - cx) % (2 * math.pi)
            assert ang == pytest.approx(
                (math.pi / 6 + i * math.pi / 3) % (2 * math.pi), abs=1e-12)


def test_vertex_hexagons_matches_corner_lists():
    for v in SAMPLE_VERTICES:
        for h in vertex_hexagons(v):
            assert v in hexagon_corners(h)
    for h in SAMPLE_HEXAGONS:
        for c in hexagon_corners(h):
            assert h in vertex_hexagons(c)


def test_edge_hexagons_matches_hexagon_edges():
    for h in SAMPLE_HEXAGONS:
        for e in hexagon_edges(h):
            assert h in edge_hexagons(e)
    # the two hexagons of an edge are adjacent on the triangular lattice
    for v in SAMPLE_VERTICES:
        for w in hex_neighbors(v):
            a, b = edge_hexagons(edge(v, w))
            assert b in tri_neighbors(a)


def test_edge_hexagons_closed_form_is_the_corner_intersection():
    # on every edge of ball r = 6, in either order of its ends, the two
    # hexagons are those at both ends, in up-end order; no other pair of
    # vertices is an edge
    edges = {e for h in hexagon_ball(6) for e in hexagon_edges(h)}
    assert len(edges) == 420
    for e in edges:
        up, down = sorted(e, key=lambda v: v[2])
        want = tuple(h for h in vertex_hexagons(up)
                     if h in vertex_hexagons(down))
        assert edge_hexagons(e) == edge_hexagons(e[::-1]) == want
    for u, v in [((0, 0, UP), (0, 0, UP)), ((0, 0, UP), (1, 0, DOWN)),
                 ((0, 0, UP), (0, 1, DOWN)), ((0, 0, UP), (5, 5, DOWN)),
                 ((0, 0, DOWN), (1, 0, DOWN)), ((0, 0, 2), (0, 0, DOWN))]:
        with pytest.raises(OutOfRange, match="is not an edge"):
            edge_hexagons((u, v))


def test_tri_distance_is_a_metric_matching_neighbors():
    for h in SAMPLE_HEXAGONS:
        assert tri_distance(h, h) == 0
        for g in tri_neighbors(h):
            assert tri_distance(h, g) == 1
    assert tri_distance((0, 0), (1, 1)) == 2
    assert tri_distance((0, 0), (2, -1)) == 2
    assert tri_distance((0, 0), (-2, -1)) == 3


def test_ball_sizes():
    # 1 + 3k(k+1) hexagons in the radius-k ball
    for k in range(5):
        assert len(hexagon_ball(k)) == 1 + 3 * k * (k + 1)
    assert len(hexagon_ball(17)) == 919


def test_direction_classes_and_turns():
    for v in SAMPLE_VERTICES:
        for w in hex_neighbors(v):
            j = direction_class(v, w)
            assert direction_class(w, v) == (j + 3) % 6
            # up vertices send odd steps out? classes 0,2,4 from up vertices
            assert j % 2 == (0 if v[2] == UP else 1)
    assert turn_sign(0, 1) == 1
    assert turn_sign(1, 0) == -1
    assert turn_sign(5, 0) == 1
    with pytest.raises(OutOfRange):
        turn_sign(0, 3)


def test_winding_of_a_hexagon_is_six():
    # the turns of a walk, as parafermion_field adds them, total six round
    # a hexagon counterclockwise and -6 clockwise
    def winding(walk):
        steps = [direction_class(u, v) for u, v in zip(walk, walk[1:])]
        return sum(turn_sign(i, j) for i, j in zip(steps, steps[1:]))

    cs = list(hexagon_corners((0, 0)))
    closed = cs + cs[:2]  # repeat two vertices to close all six turns
    assert winding(closed) == 6
    closed.reverse()
    assert winding(closed) == -6


def test_path_helpers():
    p = [(0, 0, UP), (0, 0, DOWN), (1, 0, UP)]
    assert is_path(p)
    assert path_edges(p) == (edge(p[0], p[1]), edge(p[1], p[2]))
    assert not is_path([(0, 0, UP), (2, 2, UP)])
    assert not is_path([(0, 0, UP), (0, 0, DOWN), (0, 0, UP)])


def test_mirror_and_swap_are_adjacency_preserving_involutions():
    # the r <-> s swap of vertices and hexagons preserves adjacency and
    # maps the corners of a hexagon to the corners of its image
    for v in SAMPLE_VERTICES:
        for w in hex_neighbors(v):
            assert (w[1], w[0], w[2]) in hex_neighbors((v[1], v[0], v[2]))
    for h in SAMPLE_HEXAGONS:
        assert {(c[1], c[0], c[2]) for c in hexagon_corners(h)} == set(
            hexagon_corners((h[1], h[0])))
    # mirror_tri reflects about X = 4: the corners of the image are the
    # corners of h with X mapped to 8 - X
    for h in SAMPLE_HEXAGONS:
        assert mirror_tri(mirror_tri(h, 4), 4) == h
        assert {hex_xy(c) for c in hexagon_corners(mirror_tri(h, 4))} == {
            (8 - x, y) for x, y in map(hex_xy, hexagon_corners(h))}


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_one_hexagon_domain():
    dom = domain_from_hexagons([(0, 0)])
    assert dom.interior == frozenset(hexagon_corners((0, 0)))
    assert len(dom.polygon) == 18
    assert len(dom.edges) == 12
    assert len(dom.boundary) == 6
    assert dom.interior_hexagons == frozenset({(0, 0)})
    # six face edges + six spokes; every boundary vertex has one spoke
    face = set(hexagon_edges((0, 0)))
    assert face <= set(dom.edges)
    assert all(dom.degree(b) == 1 for b in dom.boundary)
    assert all(dom.degree(v) == 3 for v in dom.interior)


def _corners(hexagons):
    return {c for h in hexagons for c in hexagon_corners(h)}


def test_domains_equal_the_flood_fill_route():
    # every domain the checks build, balls, rectangles and triangles: the
    # same polygon rotation, edge and boundary order as the oracle's
    patches = [f.hexagons for f in load_domains()]
    patches += [side for p in load_monotone_pairs()
                for side in (p.inner, p.outer)]
    patches += [hexagon_ball(k) for k in range(5)]
    patches += [rectangle_hexagons(w, h) for w in range(1, 9)
                for h in range(1, 9)]
    for hexagons in patches:
        assert domain_from_hexagons(hexagons) == flood_fill_domain(
            _corners(hexagons))
    for side in range(2, 15, 2):
        dom = triangle_domain(side).domain
        assert dom == flood_fill_domain(dom.interior)


def _outcome(build, arg):
    try:
        return build(arg)
    except HexloopError as err:
        return type(err)


BALL3 = sorted(hexagon_ball(3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hexagons=st.sets(st.sampled_from(BALL3)))
@example(hexagons=set())
@example(hexagons={(0, 0), (3, 0)})                          # disconnected
@example(hexagons=set(hexagon_ball(3) - hexagon_ball(1)))    # holed
@example(hexagons={(-1, 1), (-1, 2), (0, 2), (1, 2), (1, 1)})  # horseshoe
@example(hexagons={(0, 0), (1, 1)})             # pinched to one edge
def test_domain_from_hexagons_matches_the_flood_fill_route(hexagons):
    # random subsets of ball r=3, mostly disconnected, holed or pinched: the
    # same domain or the same exception class
    assert _outcome(domain_from_hexagons, hexagons) == _outcome(
        flood_fill_domain, _corners(hexagons))


def _inside(hexagons):
    """The vertices whose three hexagons are all given."""
    hs = set(hexagons)
    return {c for c in _corners(hs)
            if all(h in hs for h in vertex_hexagons(c))}


# a channel from the rim of ball r=3 into a pocket: the wall runs along
# both sides of the channel, and the pocket vertex (-2, 0, 1), whose three
# hexagons are removed, lies outside the disc it bounds
NOTCHED = hexagon_ball(3) - {(-3, 2), (-3, 3), (-2, 1), (-1, 0), (-1, 1)}
# the same pocket reached by a shorter channel, and two pockets on other
# sides of the ball
POCKETS = [NOTCHED] + [hexagon_ball(3) - removed for removed in (
    {(-3, 1), (-2, 1), (-1, 0), (-1, 1)},
    {(1, -1), (1, 0), (2, -1), (3, -1)},
    {(0, -1), (1, -3), (1, -2), (1, -1)})]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(removed=st.sets(st.sampled_from(BALL3), max_size=6))
@example(removed=hexagon_ball(3) - NOTCHED)
def test_domain_from_interior_matches_the_flood_fill_route(removed):
    # the vertices inside ball r=3 minus a few hexagons: notches, channels,
    # holes and walled-in pockets
    interior = _inside(hexagon_ball(3) - removed)
    assert _outcome(domain_from_interior, interior) == _outcome(
        flood_fill_domain, interior)


BALL4 = hexagon_ball(4)
RIM4 = sorted(h for h in BALL4 if tri_distance(h, (0, 0)) == 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.sampled_from(RIM4),
       turns=st.lists(st.integers(0, 5), max_size=7))
@example(start=(-4, 0), turns=[0, 0, 0, 3])     # a pocket at (-2, -1, 1)
def test_carved_balls_match_the_flood_fill_route(start, turns):
    # ball r=4 minus a walk of 1-8 hexagons from its rim, which carves
    # channels, pockets walled in by both sides of a channel, and pinches
    walk = [start]
    for turn in turns:
        walk.append(tri_neighbors(walk[-1])[turn])
    interior = _inside(BALL4 - set(walk))
    assert _outcome(domain_from_interior, interior) == _outcome(
        flood_fill_domain, interior)


def test_domain_from_interior_accepts_a_walled_in_pocket():
    found = []
    for hexagons in POCKETS:
        interior = _inside(hexagons)
        dom = domain_from_interior(interior)
        assert dom.interior == interior
        assert len(dom.spokes) == len(dom.boundary)
        # with no defects the even subgraphs are the cycle space
        verts = {u for e in dom.edges for u in e}
        rank = len(dom.edges) - len(verts) + len(edge_components(dom.edges))
        assert sum(sweep_table(dom.edges).values()) == 2 ** rank
        # one vertex off the polygon has its three neighbours on it
        poly = set(dom.polygon)
        pocket = {w for v in poly for w in hex_neighbors(v)
                  if w not in poly and poly.issuperset(hex_neighbors(w))}
        assert len(pocket) == 1 and not pocket & dom.interior
        found.append((rank, pocket))
    assert found[0] == (9, {(-2, 0, 1)})


def test_build_domain_canonicalizes_rotation_and_orientation():
    dom = domain_from_hexagons([(0, 0)])
    poly = list(dom.polygon)
    rotated = poly[7:] + poly[:7]
    reversed_ = list(reversed(rotated))
    assert build_domain(rotated) == dom
    assert build_domain(reversed_) == dom


def test_build_domain_rejects_bad_polygons():
    with pytest.raises(NotSelfAvoiding):
        build_domain([(0, 0, UP), (0, 0, DOWN), (1, 0, UP)])  # too short
    with pytest.raises(NotSelfAvoiding):
        build_domain([(0, 0, UP)] * 6)
    # a single hexagon face encloses nothing
    with pytest.raises(EmptyInterior):
        build_domain(list(hexagon_corners((0, 0))))


def test_domain_from_interior_rejects_bad_sets():
    with pytest.raises(EmptyInterior):
        domain_from_interior([])
    with pytest.raises(DisconnectedInterior):
        domain_from_interior([(0, 0, UP), (3, 3, UP)])


def test_domain_from_interior_rejects_horseshoe():
    # five hexagons around (0,1) leave a notch whose only free corner is
    # pinched between two interior vertices: no bounding polygon exists
    horseshoe = [(-1, 1), (-1, 2), (0, 2), (1, 2), (1, 1)]
    corners = {c for h in horseshoe for c in hexagon_corners(h)}
    with pytest.raises(NotSelfAvoiding):
        domain_from_interior(corners)


def test_ball_one_domain():
    dom = domain_from_hexagons(hexagon_ball(1))
    assert len(dom.interior) == 24
    # patch Euler count: 30 internal edges + 12 spokes
    assert len(dom.edges) == 42
    assert len(dom.boundary) == 12
    assert dom.interior_hexagons == hexagon_ball(1)
    assert len(dom.polygon) == 30


def test_triangle_domain_side_two_is_the_tripod():
    tri = triangle_domain(2)
    dom = tri.domain
    assert dom.interior == frozenset({(0, 0, UP)})
    assert len(dom.edges) == 3
    assert len(dom.boundary) == 3
    assert len(dom.polygon) == 12
    assert dom.interior_hexagons == frozenset()
    assert tri.start_vertex == (0, -1, DOWN)
    assert tri.bottom_boundary == ((0, -1, DOWN),)
    assert tri.left_boundary == ((-1, 0, DOWN),)
    assert tri.right_boundary == ((0, 0, DOWN),)
    assert tri.bottom_hexagons == ((0, 0), (1, 0))
    assert tri.left_hexagons == ((0, 0), (0, 1))
    assert tri.right_hexagons == ((1, 0), (0, 1))


def test_triangle_domain_side_four():
    tri = triangle_domain(4)
    dom = tri.domain
    assert len(dom.interior) == 9
    assert len(dom.edges) == 18
    assert len(dom.boundary) == 9
    assert len(dom.polygon) == 24
    assert dom.interior_hexagons == frozenset({(1, 1)})
    assert tri.start_vertex == (1, -1, DOWN)
    assert tri.start_edge == edge((1, -1, DOWN), (1, 0, UP))
    assert set(tri.bottom_boundary) | set(tri.left_boundary) | set(
        tri.right_boundary) == set(dom.boundary)


def test_triangle_spokes_are_parallel_by_side():
    tri = triangle_domain(6)
    dom = tri.domain
    # exit direction class of the spoke seen from the interior endpoint
    def exit_class(b):
        e = dom.spokes[b]
        inner = e[0] if e[0] in dom.interior else e[1]
        return direction_class(inner, b)
    assert {exit_class(b) for b in tri.bottom_boundary} == {4}  # 270 degrees
    assert {exit_class(b) for b in tri.left_boundary} == {2}    # 150 degrees
    assert {exit_class(b) for b in tri.right_boundary} == {0}   # 30 degrees
    assert len(dom.boundary) == 3 * (6 - 1)


def test_triangle_rejects_bad_sides():
    with pytest.raises(OddSide):
        triangle_domain(3)
    with pytest.raises(OutOfRange):
        triangle_domain(0)


def test_ball_and_annulus_geometry():
    ball, annulus = ball_and_annulus(2)
    assert ball == hexagon_ball(2)
    assert annulus
    reach = hexagon_ball(5)
    ring = hexagon_ball(4) - hexagon_ball(2)
    ring_corners = {c for h in ring for c in hexagon_corners(h)}
    for e in annulus:
        assert set(e) <= ring_corners
        assert set(edge_hexagons(e)) <= reach


def test_remove_path_on_one_hexagon_domain():
    dom = domain_from_hexagons([(0, 0)])
    v = hexagon_corners((0, 0))
    # Third neighbour (the spoke end) of each corner, in corner order.
    w = [next(u for u in hex_neighbors(c)
              if u not in v) for c in v]

    comps = remove_paths(dom, [[w[0], v[0], v[1], w[1]]])
    assert len(comps) == 1
    rest = comps[0]
    assert len(rest) == 9
    faces = {edge(v[i], v[(i + 1) % 6]) for i in range(1, 5)} | {edge(v[5], v[0])}
    spokes = {edge(v[i], w[i]) for i in range(2, 6)}
    assert set(rest) == faces | spokes
    # 9 edges on 10 vertices in one component: a tree, no cycle survives.
    assert len({u for e in rest for u in e}) == 10

    # and exactly the domain of the four corners the walk left interior
    assert set(domain_from_interior(v[2:6]).edges) == set(rest)


def test_remove_path_identities_and_errors():
    dom = domain_from_hexagons([(0, 0)])
    v = hexagon_corners((0, 0))
    w1 = next(u for u in hex_neighbors(v[0]) if u not in v)

    assert remove_paths(dom, [[]]) == (dom.edges,)
    assert remove_paths(dom, []) == (dom.edges,)
    # a raw edge set gives the same pieces as the domain it came from
    assert remove_paths(dom, [[w1, v[0], v[1]]]) == \
        remove_paths(list(dom.edges), [[w1, v[0], v[1]]])

    # An endpoint strictly inside leaves a dangling piece that is no domain:
    # every domain edge touches an interior vertex, of degree three, but the
    # spokes at v[1] and v[5], which keep two edges each, touch none.
    comps = remove_paths(dom, [[w1, v[0]]])
    assert len(comps) == 1 and len(comps[0]) == 9
    deg = config_degrees(comps[0])
    stray = {e for e in comps[0] if 3 not in (deg[e[0]], deg[e[1]])}
    assert {u for e in stray for u in e} - set(dom.boundary) == {v[1], v[5]}

    with pytest.raises(PathNotInDomain):
        remove_paths(dom, [[(1, 0, UP), (0, 0, DOWN)]])
    with pytest.raises(NotAPath):
        remove_paths(dom, [[v[0], v[1], v[0]]])
    with pytest.raises(NotAPath):
        remove_paths(dom, [[w1, v[0]], [v[0], v[5]]])


def test_remove_path_splits_triangle_into_two_domains():
    dom = triangle_domain(4).domain
    cut = [(1, -1, DOWN), (1, 0, UP), (0, 0, DOWN), (0, 1, UP), (-1, 1, DOWN)]
    comps = remove_paths(dom, [cut])
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [3, 11]
    # the pieces are the domains of the interior on either side of the cut
    left = {(0, 0, UP)}
    right = dom.interior - set(cut) - left
    assert set(comps) == {domain_from_interior(left).edges,
                          domain_from_interior(right).edges}
    # Both endpoints sit on the boundary, so only the walk itself was cut.
    removed = set(dom.edges) - {e for c in comps for e in c}
    assert removed == set(path_edges(cut))


# ---------------------------------------------------------------------------
# property tests on random domains inside the radius-2 ball
# ---------------------------------------------------------------------------

BALL2 = sorted(hexagon_ball(2))


def _reachability_classes(cells):
    """Components by transitive closure of the distance-one relation."""
    reach = {a: {b for b in cells if tri_distance(a, b) <= 1} for a in cells}
    changed = True
    while changed:
        changed = False
        for a in cells:
            grown = set().union(*(reach[b] for b in reach[a]))
            if grown != reach[a]:
                reach[a] = grown
                changed = True
    return {frozenset(r) for r in reach.values()}


@st.composite
def ball2_domains(draw):
    """A connected hexagon set grown inside the ball, and its domain."""
    cells = {draw(st.sampled_from(BALL2))}
    for _ in range(draw(st.integers(0, 12))):
        grow = sorted({g for h in cells for g in tri_neighbors(h)
                       if g in hexagon_ball(2)} - cells)
        if not grow:
            break
        cells.add(draw(st.sampled_from(grow)))
    try:
        dom = domain_from_hexagons(cells)
    except HexloopError:
        assume(False)
    return frozenset(cells), dom


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_hexagon_components_match_reachability(data):
    cells, _ = data.draw(ball2_domains())
    kept = frozenset(data.draw(st.sets(st.sampled_from(sorted(cells)))))
    for sub in (cells, kept):
        got = hexagon_components(sub)
        assert len(got) == len(set(got))
        assert set(got) == _reachability_classes(sub)


BALL3_EDGES = domain_from_hexagons(hexagon_ball(3)).edges


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shuffled=st.permutations(BALL3_EDGES),
       size=st.integers(0, len(BALL3_EDGES)))
def test_edge_components_match_breadth_first_search(shuffled, size):
    # a random subset of ball r=3 in random order, often disconnected: the
    # same components, each in the order of its first edge
    edges = shuffled[:size]
    assert edge_components(edges) == bfs_edge_components(edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_carver_agrees_on_domain_and_raw_edges(data):
    _, dom = data.draw(ball2_domains())
    walks = []
    used = set()
    for _ in range(data.draw(st.integers(1, 2))):
        start = sorted({u for e in dom.edges for u in e} - used)
        walk = [data.draw(st.sampled_from(start))]
        for _ in range(data.draw(st.integers(0, 10))):
            steps = sorted(w for w in hex_neighbors(walk[-1])
                           if edge(walk[-1], w) in dom.edge_index
                           and w not in walk and w not in used)
            if not steps:
                break
            walk.append(data.draw(st.sampled_from(steps)))
        walks.append(walk)
        used.update(walk)
    comps = remove_paths(dom, walks)
    assert comps == remove_paths(list(dom.edges), walks)
    kept = {e for c in comps for e in c}
    for walk in walks:
        if len(walk) >= 2:
            assert not kept & set(path_edges(walk))
