"""Test oracles for the exact layer: the configuration table by exhaustive
search, the defect-pair sum and the defect-pair table added up walk by
walk, table evaluation through complex log-sum-exp
and through a list of term logs added in Python, the final sweep states
unpacked field by field, the sweep width by counting edge intervals, the
edges the sweep keeps by a naive fixpoint and by a worklist of vertex
tuples, the sweep plan on vertex tuples with edges as its frontier, and the
three-term relation of the edge-midpoint observable; for the lattice, vertex
positions in the plane, edge components by breadth-first search, the edge
two hexagons share by intersecting their edge sets, and domains
whose interior is the disc that their bounding polygon keeps a flood of
hexagons out of; for the chain, a heat-bath sweep that walks the walls at
every multi-arc site; for the spin layer, a system's index structures by
hexagon lookups in dicts, event truths and wall sets read assignment by
assignment in product order, and the spin connectivity events by a flood
over a sign mapping; and the builtin ``sum`` of Python 3.12 and
later, which compensates float rounding."""

import math
from bisect import bisect_left
from collections import Counter, deque
from itertools import product
from typing import Container, Iterable, Mapping

from hexloop.configs import (
    _CYCLE,
    _LOCAL,
    Params,
    SpinCounts,
    SpinSystem,
    _multi_arc_dk,
    spins_to_loops,
)
from hexloop.errors import (
    DisconnectedInterior,
    DomainTooSmall,
    EmptyInterior,
    NotSelfAvoiding,
    OutOfRange,
    TooLarge,
)
from hexloop.exact import (
    PathSum,
    Table,
    WeightSum,
    _brute_table,
    _targets,
    parafermion_field,
    relative_weight,
    sweep_table,
)
from hexloop.lattice import (
    Domain,
    HexEdge,
    HexVertex,
    TriVertex,
    are_adjacent,
    edge,
    edge_hexagons,
    hex_neighbors,
    hex_xy,
    hexagon_ball,
    hexagon_components,
    hexagon_corners,
    hexagon_edges,
    rhombus_hexagons,
    tri_distance,
    tri_neighbors,
    vertex_hexagons,
)
from hexloop.observables import ORIGIN, crossing_rectangle


def _connected(vertices: set[HexVertex]) -> bool:
    """Whether a vertex set is nonempty and connected, by depth-first
    search."""
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in hex_neighbors(v):
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def walks_to(vertex_edges, a: HexVertex, targets: frozenset[HexVertex]):
    """Yield every self-avoiding walk from ``a`` to a target along the edges
    that ``vertex_edges`` lists at each vertex."""
    walk = [a]
    on_walk = {a}

    def rec(v: HexVertex):
        for e in vertex_edges.get(v, ()):
            w = e[1] if e[0] == v else e[0]
            if w in on_walk:
                continue
            walk.append(w)
            on_walk.add(w)
            if w in targets:
                yield tuple(walk)
            yield from rec(w)
            on_walk.discard(w)
            walk.pop()

    yield from rec(a)


def walk_path_sum(domain: Domain, a: HexVertex, b,
                  params: Params) -> PathSum:
    """The oracle of ``exact.path_sum``: the relative weights of every
    self-avoiding walk from ``a`` to a target, enumerated one by one."""
    a, targets = _targets(domain, a, b)
    weights = [relative_weight(domain, walk, params)
               for walk in walks_to(domain.vertex_edges, a, targets)]
    return PathSum(sum(weights), len(weights))


#: edges that the brute-force oracle takes at most
MAX_BRUTE_EDGES = 26


def brute_force_table(edges, defects=()) -> Table:
    """The exhaustive oracle of ``exact.sweep_table``: the configuration
    table by depth-first search with degree pruning (``exact._brute_table``),
    on at most ``MAX_BRUTE_EDGES`` edges."""
    es = tuple(sorted({edge(u, v) for u, v in edges}))
    if len(es) > MAX_BRUTE_EDGES:
        raise TooLarge(f"{len(es)} edges exceed the brute-force cap "
                       f"of {MAX_BRUTE_EDGES}")
    return _brute_table(es, frozenset(tuple(d) for d in defects))


def walk_pair_table(edges, a: HexVertex, b: HexVertex) -> dict:
    """The oracle of ``sweep_table(edges, [a, b])``: over the self-avoiding
    walks from ``a`` to ``b``, the defect-free table of the edges that touch
    no vertex of the walk, shifted by the walk's edge count."""
    edges = {edge(u, v) for u, v in edges}
    vertex_edges: dict[HexVertex, list[HexEdge]] = {}
    for e in sorted(edges):
        for u in e:
            vertex_edges.setdefault(u, []).append(e)
    table: dict[tuple[int, int], int] = {}
    for walk in walks_to(vertex_edges, a, frozenset([b])):
        on_walk = set(walk)
        rest = [e for e in edges if on_walk.isdisjoint(e)]
        for (m, loops), count in sweep_table(rest).items():
            key = (m + len(walk) - 1, loops)
            table[key] = table.get(key, 0) + count
    return table


def sum_terms(terms) -> WeightSum:
    """Log-sum-exp of ``(log magnitude, phase)`` terms, scaled by the
    largest magnitude so intermediate exponentials stay tame: at phase 1,
    bit for bit :meth:`WeightSum.sum_logs`."""
    live = [(lg, ph) for lg, ph in terms if ph != 0 and lg != float("-inf")]
    top = max((lg for lg, _ in live), default=0.0)
    acc = 0j
    for lg, ph in live:
        acc += ph * math.exp(lg - top)
    if acc == 0:
        return WeightSum.zero()
    mag = abs(acc)
    return WeightSum(top + math.log(mag), acc / mag)


def sum_terms_evaluate_table(table: dict, params: Params) -> WeightSum:
    """The oracle of ``exact.evaluate_table``: every term in key order as a
    ``(log, 1 + 0j)`` pair, added by :func:`sum_terms`."""
    log_x = math.log(params.x)
    log_n = math.log(params.n)
    return sum_terms((m * log_x + l * log_n + math.log(c), 1.0 + 0j)
                     for (m, l), c in sorted(table.items()))


def loop_sum_logs(logs) -> WeightSum:
    """The oracle of :meth:`WeightSum.sum_logs`: the largest log and each
    log less it formed in Python, the exps added in order."""
    if not logs:
        return WeightSum.zero()
    top, acc = max(logs), 0.0
    for lg in logs:
        acc += math.exp(lg - top)
    return WeightSum(top + math.log(acc))


def list_evaluate_table(table: Mapping, params: Params) -> WeightSum:
    """The list route of ``exact.evaluate_table``: each term's log
    ``m log x + l log n + log c`` formed in a Python list in key order, then
    added in Python by :func:`loop_sum_logs`."""
    log_x = math.log(params.x)
    log_n = math.log(params.n)
    return loop_sum_logs([m * log_x + l * log_n + math.log(c)
                          for (m, l), c in sorted(table.items()) if c])


def sliced_unpack(states: dict, rows: int, nbytes: int) -> dict:
    """The oracle of ``exact._unpack``: every field of each final state's
    int sliced out and compared with zero, and a nonzero one converted; field
    i counts slot offset + i, which holds loop level l and row r at
    l * rows + r."""
    terms, zero = {}, bytes(nbytes)
    for parity, (offset, packed) in states.items():
        raw = packed.to_bytes(-(-packed.bit_length() // 8), "little")
        for at in range(0, len(raw), nbytes):
            field = raw[at:at + nbytes]  # the top field may be short
            if field != zero:
                loops, row = divmod(offset + at // nbytes, rows)
                terms[2 * row + parity, loops] = int.from_bytes(field,
                                                                "little")
    return terms


def interval_sweep_width(edges, turns: int = 0) -> int:
    """The oracle of ``exact.sweep_width`` in one direction: with the
    vertices in order of ``hex_xy`` turned ``turns`` times by 60 degrees
    about the origin hexagon, a turn at a time, each edge spans the cuts
    between its two endpoints, and the width is the most spans over one
    cut, from a difference array."""
    def turned(v):
        x, y = hex_xy(v)
        for _ in range(turns):
            x, y = (x - y) // 2, (3 * x + y) // 2
        return x, y

    es = {edge(u, v) for u, v in edges}
    verts = sorted({u for e in es for u in e}, key=turned)
    order = {v: i for i, v in enumerate(verts)}
    open_at = [0] * (len(verts) + 1)
    for u, v in es:
        lo, hi = sorted((order[u], order[v]))
        open_at[lo + 1] += 1
        open_at[hi + 1] -= 1
    width = best = 0
    for d in open_at:
        width += d
        best = max(best, width)
    return best


def peeled_edges(edges, defects=()) -> tuple[HexEdge, ...]:
    """The oracle of the edges ``exact._sweep_table`` keeps: every edge with
    an endpoint of degree one that is not a defect is dropped, in passes
    over the whole set, each counting the degrees anew, until a pass drops
    nothing; sorted."""
    es = sorted({edge(u, v) for u, v in edges})
    defects = {tuple(d) for d in defects}
    while True:
        degree = Counter(u for e in es for u in e)
        kept = [e for e in es
                if all(degree[u] > 1 or u in defects for u in e)]
        if kept == es:
            return tuple(es)
        es = kept


def _usable(edges: tuple[HexEdge, ...], defects: frozenset[HexVertex],
            ) -> tuple[HexEdge, ...]:
    """The peel of ``exact._plan`` on vertex tuples: the edges less every edge
    at a vertex of degree one that is not a defect, dropped again and again
    from a worklist of vertices until none is left, in the given order."""
    incident: dict[HexVertex, list[HexEdge]] = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    live, degree = set(edges), {v: len(es) for v, es in incident.items()}
    leaves = [v for v, d in degree.items() if d == 1 and v not in defects]
    while leaves:
        v = leaves.pop()
        for e in incident[v]:
            if e in live:
                live.remove(e)
                w = e[1] if e[0] == v else e[0]
                degree[w] -= 1
                if degree[w] == 1 and w not in defects:
                    leaves.append(w)
    return tuple(e for e in edges if e in live)


def _frontier_plan(edges: tuple[HexEdge, ...], defects: frozenset[HexVertex],
                   ) -> tuple[list[HexVertex], list[tuple], int]:
    """The oracle of the plan of ``exact._plan``, on the edges it keeps
    (:func:`_usable`), with vertex tuples and edges as the frontier:
    the vertices in order of ``hex_xy``; per plan step ``(lo, hi, fresh,
    kind)``, one vertex or the two ends of a vertical edge when neither is
    a defect, the step's arriving edges' slots ``lo:hi``, which its
    ``fresh`` forward edges take, and its vertex kinds; and the most edges
    on the frontier at once.  Slots go by edge midpoint height in doubled
    coordinates, then midpoint abscissa, found by bisection on a height
    key."""
    xy = {v: hex_xy(v) for v in {u for e in edges for u in e}}
    verts = sorted(xy, key=xy.__getitem__)
    order = {v: i for i, v in enumerate(verts)}
    height = {(u, v): (xy[u][1] + xy[v][1], xy[u][0] + xy[v][0])
              for u, v in edges}.__getitem__
    arriving: list[list[HexEdge]] = [[] for _ in verts]
    fresh: list[list[HexEdge]] = [[] for _ in verts]
    for e in sorted(edges, key=height):
        i, j = order[e[0]], order[e[1]]
        if i > j:
            i, j = j, i
        fresh[i].append(e)
        arriving[j].append(e)

    frontier: list[HexEdge] = []
    plan = []
    width = 0
    vertical = None  # the last vertex's vertical fresh edge, if no defect
    for v, came, new in zip(verts, arriving, fresh):
        lo = (frontier.index(came[0]) if came
              else bisect_left(frontier, height(new[0]), key=height))
        hi = lo + len(came)
        assert frontier[lo:hi] == came, f"{v}: arriving slots apart"
        frontier[lo:hi] = new
        width = max(width, len(frontier))
        kind = (hi - lo, len(new), v in defects)
        if came and came[0] == vertical and not kind[2]:  # its upper end
            lo, hi, out, lower = plan.pop()
            plan.append((lo, hi + len(came) - 1, out - 1 + len(new),
                         lower + (kind,)))
        else:
            plan.append((lo, hi, len(new), (kind,)))
        vertical = (new[-1] if new and not kind[2]
                    and xy[new[-1][0]][0] == xy[new[-1][1]][0] else None)
    return verts, plan, width


def bfs_edge_components(edges) -> tuple[frozenset[HexEdge], ...]:
    """The oracle of ``lattice.edge_components``: from the first edge not yet
    reached, in the given order, the edges reachable from it by
    breadth-first search over shared endpoints."""
    edges = list(edges)
    at: dict[HexVertex, list[HexEdge]] = {}
    for e in edges:
        for u in e:
            at.setdefault(u, []).append(e)
    reached: set[HexEdge] = set()
    comps = []
    for first in edges:
        if first in reached:
            continue
        comp = {first}
        queue = deque(first)
        while queue:
            for e in at[queue.popleft()]:
                if e not in comp:
                    comp.add(e)
                    queue.extend(e)
        reached |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def shared_edge(a: TriVertex, b: TriVertex) -> HexEdge:
    """The oracle of the wall edges of ``SpinSystem._wall_probes``: the
    unique lattice edge separating two adjacent hexagons, as the one edge
    that their six edges have in common."""
    common = set(hexagon_edges(a)) & set(hexagon_edges(b))
    if len(common) != 1:
        raise OutOfRange(f"hexagons {a} and {b} are not adjacent")
    return next(iter(common))


def _canonical_cycle(cycle) -> tuple[HexVertex, ...]:
    k = min(range(len(cycle)), key=lambda i: cycle[i])
    rot = tuple(cycle[(k + i) % len(cycle)] for i in range(len(cycle)))
    if rot[-1] < rot[1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def _interior_of_polygon(polygon) -> frozenset[HexVertex]:
    """The Jordan interior: a flood of hexagons from the rim of a padded
    box, crossing every edge but the polygon's, and then the corners of the
    hexagons it never reaches, less the polygon's own vertices."""
    walls = {edge(u, v) for u, v in zip(polygon, polygon[1:] + polygon[:1])}
    rs, ss = zip(*(h for v in polygon for h in vertex_hexagons(v)))
    box = {(r, s) for r in range(min(rs) - 1, max(rs) + 2)
           for s in range(min(ss) - 1, max(ss) + 2)}
    outside = {h for h in box if not box.issuperset(tri_neighbors(h))}
    stack = list(outside)
    while stack:
        h = stack.pop()
        for g in tri_neighbors(h):
            if (g in box and g not in outside
                    and shared_edge(h, g) not in walls):
                outside.add(g)
                stack.append(g)
    return frozenset({c for h in box - outside for c in hexagon_corners(h)}
                     - set(polygon))


def build_domain(polygon) -> Domain:
    """The domain bounded by a self-avoiding polygon, given as a cyclic
    vertex sequence (without the repeated closing vertex) in either
    orientation and any rotation: its Jordan interior from a flood of
    hexagons, everything else derived from the interior."""
    poly = [tuple(v) for v in polygon]
    if len(poly) < 6:
        raise NotSelfAvoiding("a lattice polygon has at least 6 vertices")
    if len(set(poly)) != len(poly):
        raise NotSelfAvoiding("polygon repeats a vertex")
    for i, v in enumerate(poly):
        w = poly[(i + 1) % len(poly)]
        if not are_adjacent(v, w):
            raise NotSelfAvoiding(f"{v} and {w} are consecutive but not "
                                  "adjacent")

    interior = _interior_of_polygon(poly)
    if not interior:
        raise EmptyInterior("the polygon encloses no vertices")
    if not _connected(set(interior)):
        raise DisconnectedInterior(
            "the polygon pinches its interior into several components")

    pset = set(poly)
    edges = set()
    for v in interior:
        for w in hex_neighbors(v):
            edges.add((v, w) if v < w else (w, v))
    edges_t = tuple(sorted(edges))

    boundary = sorted({u for e in edges_t for u in e} - interior)
    for b in boundary:
        if b not in pset:
            raise NotSelfAvoiding(
                f"vertex {b} touches the interior but is not on the polygon")

    candidates = {h for v in interior for h in vertex_hexagons(v)}
    interior_hex = frozenset(
        h for h in candidates if all(c in interior for c in hexagon_corners(h)))

    return Domain(
        polygon=_canonical_cycle(poly),
        interior=interior,
        edges=edges_t,
        boundary=tuple(boundary),
        interior_hexagons=interior_hex,
    )


def flood_fill_domain(interior) -> Domain:
    """The oracle of ``lattice.domain_from_interior``: the wall of the
    hexagons at the given vertices, traced edge by edge, then
    :func:`build_domain` of the traced cycle, whose Jordan interior must be
    the given set."""
    want = {tuple(v) for v in interior}
    if not want:
        raise EmptyInterior("interior set is empty")
    if not _connected(want):
        raise DisconnectedInterior("interior set is not connected")

    patch = {h for v in want for h in vertex_hexagons(v)}
    wall_edges = set()
    for h in patch:
        for e in hexagon_edges(h):
            a, b = edge_hexagons(e)
            if (b if a == h else a) not in patch:
                wall_edges.add(e)

    adj: dict[HexVertex, list[HexVertex]] = {}
    for u, v in wall_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(ns) != 2 for ns in adj.values()):
        raise NotSelfAvoiding("the wall has a vertex of degree other than 2")

    start = min(adj)
    cycle = [start, min(adj[start])]
    while True:
        a, b = cycle[-2], cycle[-1]
        nxt = adj[b][0] if adj[b][0] != a else adj[b][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adj):
        raise NotSelfAvoiding("the wall is not one cycle")

    dom = build_domain(cycle)
    if dom.interior != frozenset(want):
        raise NotSelfAvoiding("the traced polygon encloses another set")
    return dom


def hex_position(v: HexVertex) -> tuple[float, float]:
    """Real-plane position of a lattice vertex (unit edge length)."""
    x, y = hex_xy(v)
    return (x * math.sqrt(3.0) / 2.0, y / 2.0)


def _midpoint(e: HexEdge) -> complex:
    pu = hex_position(e[0])
    pv = hex_position(e[1])
    return complex((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)


def vertex_relation_residual(domain: Domain, z0: HexEdge, v: HexVertex,
                             params: Params, sigma: float | None = None, *,
                             field=None) -> complex:
    """Residual of the three-term midpoint relation around an interior vertex.

    Returns ``sum over the three edges e at v of (mid(e) - v) F(e)``, which
    vanishes exactly at the critical edge weight.  A precomputed ``field``
    (from ``exact.parafermion_field`` with the same start) avoids re-running
    the walk enumeration for every vertex.
    """
    v = tuple(v)
    if v not in domain.interior:
        raise OutOfRange(f"{v} is not an interior vertex")
    if field is None:
        field = parafermion_field(domain, z0, params, sigma)
    pv = complex(*hex_position(v))
    res = 0j
    for e in domain.vertex_edges[v]:
        res += (_midpoint(e) - pv) * field.get(e, 0j)
    return res


def heat_bath_plus(params: Params, dk: int, de: int, dr: int, dtw: int,
                   s: int) -> float:
    """The heat-bath probability of +1 at a site of sign s whose flip
    changes the counts by (dk, de, dr, dtw), in the chain's float
    expression, so that it equals the chain's probability bit for bit."""
    dlog = (dk * math.log(params.n) + de * math.log(params.x)
            + params.h * dr + params.hp * dtw * 0.5)
    gap = dlog if s == 1 else -dlog
    if gap > 700.0:
        return 0.0
    if gap < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(gap))


def ring_entry(full, cu: int, nbs) -> tuple:
    """The ``configs._LOCAL`` entry (s, de, dr, dtw, dk, plan) of the site
    at context index ``cu`` with ring ``nbs`` on the framed sign array."""
    return _LOCAL[64 * (full[cu] == 1)
                  + sum(1 << i for i, c in enumerate(nbs) if full[c] == 1)]


def change_probabilities(params: Params, full, cu: int,
                         nbs) -> tuple[int, list[float]]:
    """The sign s of the site at context index ``cu`` with ring ``nbs`` on
    the framed sign array, and its heat-bath probability of +1 under each
    cluster-count change that its ring pattern allows: the ring table's dk,
    or each change that its wall plan can return."""
    s, de, dr, dtw, dk, plan = ring_entry(full, cu, nbs)
    dks = [dk] if plan is None else sorted(set(plan[2].values()))
    return s, [heat_bath_plus(params, c, de, dr, dtw, s) for c in dks]


def reference_sweep(system: SpinSystem, params: Params, full,
                    us) -> tuple[int, SpinCounts]:
    """One heat-bath sweep over the free sites of ``system`` in order, on
    the framed sign array ``full`` (changed in place) with uniforms ``us``.
    Every site with two or more ring arcs of each sign walks the walls; a
    site of sign s keeps it when ``(u < p) == (s == 1)``, p its probability
    of +1.  Returns the flip count and the summed count changes."""
    flips, total = 0, (0, 0, 0, 0)
    for cu, nbs, u in zip(system._free_ctx, system._nb6, us):
        s, de, dr, dtw, dk, plan = ring_entry(full, cu, nbs)
        if plan is not None:
            dk = _multi_arc_dk(plan, full, cu, nbs, system._walls)
        if (u < heat_bath_plus(params, dk, de, dr, dtw, s)) == (s == 1):
            continue
        full[cu] = -s
        flips += 1
        total = tuple(a + b for a, b in zip(total, (dk, de, dr, dtw)))
    return flips, SpinCounts(*total)


def product_truth(system: SpinSystem, event, side: str) -> bytes:
    """Whether the event holds (1) or not (0) at each assignment, visited in
    ``itertools.product`` order, each read from a sign mapping, a framed
    sign array or a wall set of its own: the route that the one Gray-code
    walk of ``exact._truth`` replaced."""
    configs = (spins_to_loops(system, signs) if side == "loops"
               else system.framed_spins(signs) if side == "framed"
               else dict(zip(system.free, signs))
               for signs in product((-1, 1), repeat=len(system.free)))
    return bytes(bool(event(c)) for c in configs)


def product_wall_sets(system: SpinSystem) -> list[frozenset]:
    """The domain walls of every assignment in ``itertools.product`` order,
    each from ``spins_to_loops``: the route that ``configs.wall_masks``
    replaced."""
    return [spins_to_loops(system, signs)
            for signs in product((-1, 1), repeat=len(system.free))]


def dict_spin_structure(system: SpinSystem) -> dict:
    """The index structures of a spin system by attribute name, each built
    from hexagon lookups in dicts and ``tri_neighbors``: the route that
    the neighbour table ``SpinSystem._ring`` replaced."""
    ctx, fset = system.context, set(system.free)
    idx = {h: i for i, h in enumerate(ctx)}
    pairs = tuple(sorted({(idx[h], idx[g]) for h in ctx for g in
                          tri_neighbors(h) if idx.get(g, -1) > idx[h]}))
    free_pairs = tuple((i, j) for i, j in pairs
                       if ctx[i] in fset or ctx[j] in fset)
    probes = tuple((edge(c[k - 1], c[k]), i, j) for i, j in free_pairs
                   for c, k in [(hexagon_corners(ctx[i]), _CYCLE.index(
                       (ctx[j][0] - ctx[i][0], ctx[j][1] - ctx[i][1])))])
    # the outer sea and each hole, found by a flood over the bounding box
    # of the context and a margin, whose corner lies in the outer sea
    rs, ss = zip(*ctx)
    r0, s0 = min(rs) - 1, min(ss) - 1
    beyond = {(r, s) for r in range(r0, max(rs) + 2)
              for s in range(s0, max(ss) + 2)} - set(ctx)
    parts = sorted(hexagon_components(beyond),
                   key=lambda comp: (r0, s0) not in comp)
    part = {g: p for p, comp in enumerate(parts) for g in comp}
    touching = tuple(sorted({(idx[h], part[g]) for h in ctx
                             for g in tri_neighbors(h) if g not in idx}))
    counted = tuple(sorted(idx[h] for h in fset.union(
        *map(tri_neighbors, fset))))
    corners = {c for h in fset for c in hexagon_corners(h)}
    triangles = tuple(sorted({tuple(sorted(idx[t] for t in vertex_hexagons(c)))
                              for c in corners}))
    nb6 = tuple(tuple(idx[(r + dr, s + ds)] for dr, ds in _CYCLE)
                for r, s in system.free)
    frame = tuple(sorted({g for h in ctx for g in tri_neighbors(h)}
                         - set(ctx)))
    framed = {h: i for i, h in enumerate(ctx + frame)}
    ahead = [framed.get((r + dr, s + ds), -1) for r, s in framed
             for dr, ds in _CYCLE[1:] + _CYCLE[:1]]
    keep = [f + 1 if f % 6 < 5 else f - 5 for f in range(len(ahead))]
    move = [6 * c + (f - 1) % 6 if c >= 0 else -1
            for f, c in enumerate(ahead)]
    return {"_pairs": pairs, "_free_pairs": free_pairs,
            "_wall_probes": probes, "_exterior_touching": touching,
            "_counted": counted, "_triangles": triangles,
            "_free_ctx": tuple(idx[h] for h in system.free), "_nb6": nb6,
            "_sea_frame": frame, "_framed_index": framed,
            "_walls": (ahead, keep, move)}


def _check_coverage(sigma: Mapping[TriVertex, int],
                    cells: Iterable[TriVertex], what: str) -> None:
    missing = [h for h in cells if h not in sigma]
    if missing:
        raise DomainTooSmall(
            f"{what} needs spins on {len(missing)} more hexagons, "
            f"e.g. {sorted(missing)[:3]}")


def _sign_crossing(sigma: Mapping[TriVertex, int],
                   cells: Container[TriVertex],
                   sources: Iterable[TriVertex],
                   targets: frozenset[TriVertex], sign: int) -> bool:
    """Whether ``sign`` cells connect sources to targets inside ``cells``."""
    seen = set()
    queue: deque[TriVertex] = deque()
    for h in sources:
        if sigma[h] == sign:
            seen.add(h)
            queue.append(h)
    while queue:
        h = queue.popleft()
        if h in targets:
            return True
        for g in tri_neighbors(h):
            if g in cells and g not in seen and sigma[g] == sign:
                seen.add(g)
                queue.append(g)
    return False


def plus_circuit_event(sigma: Mapping[TriVertex, int], k: int) -> bool:
    """Whether pluses form a circuit in the ring between radii k and 2k that
    surrounds the radius-k ball.

    A circuit of pluses blocks every path from the center to the outside of
    the radius-2k ball, and on a triangulated lattice the converse holds as
    well, so the test asks whether non-plus ring hexagons join distance
    k + 1, next to the inner ball, to distance 2k.
    """
    if k < 1:
        raise OutOfRange("circuit scale must be at least 1")
    outer = hexagon_ball(2 * k)
    _check_coverage(sigma, outer, f"the circuit event at scale {k}")
    ring = outer - hexagon_ball(k)
    return not _sign_crossing(
        sigma, ring, [h for h in ring if tri_distance(h, ORIGIN) == k + 1],
        frozenset(h for h in ring if tri_distance(h, ORIGIN) == 2 * k), -1)


def crossing_event(sigma: Mapping[TriVertex, int],
                   rect: tuple[int, float, float]) -> bool:
    """Left-right plus crossing of the slanted box named by (k, rho, eps).

    The crossing itself runs inside the core box (eps = 0) from the r = 0
    column to the r = k column; the padding only widens the support that
    ``sigma`` must cover.
    """
    k, rho, eps = rect
    k = int(k)
    padded = crossing_rectangle(k, rho, eps)
    _check_coverage(sigma, padded, f"the crossing event at scale {k}")
    core = crossing_rectangle(k, rho, 0.0)
    sources = [h for h in core if h[0] == 0]
    targets = frozenset(h for h in core if h[0] == k)
    return _sign_crossing(sigma, core, sources, targets, 1)


def trapeze_crossing_event(sigma: Mapping[TriVertex, int], k: int,
                           sign: int = 1, vertical: bool = True) -> bool:
    """Crossing of the slanted box {(r, s): 0 <= r, s <= k} by one sign.

    ``vertical`` connects the top row (s = k) to the bottom row (s = 0);
    otherwise the left column (r = 0) to the right column (r = k).  On this
    triangulated box exactly one of "vertical plus crossing" and
    "horizontal minus crossing" occurs in any configuration.
    """
    if k < 1:
        raise OutOfRange("box scale must be at least 1")
    if sign not in (-1, 1):
        raise OutOfRange("sign must be -1 or +1")
    box = rhombus_hexagons(k)
    _check_coverage(sigma, box, f"the size-{k} box crossing")
    if vertical:
        sources = [h for h in box if h[1] == k]
        targets = frozenset(h for h in box if h[1] == 0)
    else:
        sources = [h for h in box if h[0] == 0]
        targets = frozenset(h for h in box if h[0] == k)
    return _sign_crossing(sigma, box, sources, targets, sign)


def two_point_event(sigma: Mapping[TriVertex, int], v) -> bool:
    """Whether the origin hexagon is connected to ``v`` by adjacent pluses.

    The path must stay inside the support of ``sigma``; both endpoints must
    carry a spin.
    """
    target = (int(v[0]), int(v[1]))
    if ORIGIN not in sigma:
        raise DomainTooSmall("the origin hexagon has no spin")
    if target not in sigma:
        raise DomainTooSmall(f"hexagon {target} has no spin")
    return _sign_crossing(sigma, sigma, (ORIGIN,), frozenset([target]), 1)


def compensated_sum(iterable, start=0):
    """The builtin ``sum`` as CPython 3.12 and later compute it: ints
    exactly; once the total is a float, each float term with Neumaier's
    compensation and each int term as a plain float addition; the
    compensation is added at the end, or before a term of another type,
    which is added generically from then on."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    c = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                c += (total - t) + item
            else:
                c += (item - t) + total
            total = t
        elif type(item) is int:
            total += float(item)
        else:
            total = (total + c if c and math.isfinite(c) else total) + item
            for item in items:
                total = total + item
            return total
    return total + c if c and math.isfinite(c) else total
