"""Test oracles for the exact layer: the defect-pair sum and the defect-pair
table added up walk by walk, and the three-term relation of the
edge-midpoint observable."""

from hexloop.configs import Params
from hexloop.errors import OutOfRange
from hexloop.exact import (
    MAX_FIELD_EDGES,
    PathSum,
    Table,
    _targets,
    parafermion_field,
    relative_weight,
    sweep_table,
)
from hexloop.lattice import Domain, HexEdge, HexVertex, edge, hex_position


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


def walk_pair_table(edges, a: HexVertex, b: HexVertex) -> Table:
    """The oracle of ``sweep_table(edges, [a, b])``: over the self-avoiding
    walks from ``a`` to ``b``, the defect-free table of the edges that touch
    no vertex of the walk, shifted by the walk's edge count."""
    edges = {edge(u, v) for u, v in edges}
    vertex_edges: dict[HexVertex, list[HexEdge]] = {}
    for e in sorted(edges):
        for u in e:
            vertex_edges.setdefault(u, []).append(e)
    table: Table = {}
    for walk in walks_to(vertex_edges, a, frozenset([b])):
        on_walk = set(walk)
        rest = [e for e in edges if on_walk.isdisjoint(e)]
        for (m, loops), count in sweep_table(rest).items():
            key = (m + len(walk) - 1, loops)
            table[key] = table.get(key, 0) + count
    return table


def _midpoint(e: HexEdge) -> complex:
    pu = hex_position(e[0])
    pv = hex_position(e[1])
    return complex((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)


def vertex_relation_residual(domain: Domain, z0: HexEdge, v: HexVertex,
                             params: Params, sigma: float | None = None, *,
                             field=None,
                             max_edges: int = MAX_FIELD_EDGES) -> complex:
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
        field = parafermion_field(domain, z0, params, sigma,
                                  max_edges=max_edges)
    pv = complex(*hex_position(v))
    res = 0j
    for e in domain.vertex_edges[v]:
        res += (_midpoint(e) - pv) * field.get(e, 0j)
    return res
