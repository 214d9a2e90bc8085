"""Configurations: loop configurations on edges, spin configurations on hexagons.

A *loop configuration* is a set of lattice edges in which every vertex has
even degree (0 or 2), except for a designated set of defect vertices of
degree 1.  Its weight is ``x^(#edges) * n^(#loops)`` where a loop is a
connected component containing no defect.

A *spin configuration* assigns ``+1`` or ``-1`` to every hexagon.  A
:class:`SpinSystem` fixes the scene: a set of *free* hexagons, a *context*
superset whose remaining spins are frozen, and a uniform *sea* sign filling
the rest of the plane (the exterior beyond the context is assumed
connected).  The weight of an assignment is::

    n^k * x^e * exp(h * r + hp * rp)

where, writing Q for the free hexagons together with their neighbours,

- ``k + 1``  is the number of monochromatic clusters meeting Q (the sea
  merges same-sign context hexagons that touch the exterior; a cluster made
  of the sea alone does not count),
- ``e``      is the number of unequal adjacent pairs touching a free hexagon,
- ``r``      is the sum of the free spins,
- ``rp``     is half the difference between the numbers of all-plus and
  all-minus triangles touching a free hexagon (triangles of hexagons
  correspond one-to-one to lattice vertices).

Counts change locally under a single flip.  Everything a flip changes is a
function of seven signs, the site's and its six neighbours' in rotational
order (``_CYCLE``), so one 128-entry table (``_LOCAL``) holds the wall,
magnetization and triangle deltas and the same-sign arcs of the neighbour
ring for each sign pattern.  The cluster-count delta is the number of arcs
of the old sign minus that of the new sign when each sign has at most one
arc; otherwise a bounded breadth-first search (``_arc_groups``) counts the
groups the arcs form without the site, and :func:`spin_counts` recounts
when the search exceeds its budget.  The heat-bath chain
(``sampler.ChainState``) updates its counts this way, and
:func:`assignment_counts` walks all 2^m assignments of a system in
Gray-code order, one flip per step, and keeps the result on the system.

Spins and loops are two views of the same model: the domain walls of a spin
assignment form an even edge set on the edges bordering the free hexagons,
and with a constant fixed boundary the correspondence is one to one
(:func:`spins_to_loops` / :func:`loops_to_spins`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InconsistentParity, OutOfRange, TooLarge
from .lattice import (
    HexEdge,
    HexVertex,
    TriVertex,
    config_degrees,
    edge_components,
    edge_hexagons,
    hexagon_corners,
    hexagon_edges,
    shared_edge,
    tri_neighbors,
    vertex_hexagons,
)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Loop-weight ``n``, edge-weight ``x``, and external fields ``h, hp``."""

    n: float
    x: float
    h: float = 0.0
    hp: float = 0.0

    def __post_init__(self):
        for name in ("n", "x", "h", "hp"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if not (self.n > 0):
            raise OutOfRange(f"loop weight n must be positive, got {self.n}")
        if not (self.x > 0):
            raise OutOfRange(f"edge weight x must be positive, got {self.x}")

    @property
    def in_monotone_region(self) -> bool:
        """True where the spin measure is monotone (FKG): n >= 1 and
        n * x^2 <= exp(-|hp|)."""
        return self.n >= 1.0 and self.n * self.x * self.x <= math.exp(-abs(self.hp))


# ---------------------------------------------------------------------------
# loop configurations
# ---------------------------------------------------------------------------

def is_even_config(edges: Iterable[HexEdge],
                   defects: Iterable[HexVertex] = ()) -> bool:
    """True if every vertex has degree 0 or 2, except the defects which must
    have degree exactly 1."""
    dset = set(defects)
    deg = config_degrees(edges)
    if any(deg.get(d, 0) != 1 for d in dset):
        return False
    return all(c == 2 for v, c in deg.items() if v not in dset)


def loop_count(edges: Iterable[HexEdge],
               defects: Iterable[HexVertex] = ()) -> int:
    """Number of loops: components that contain no defect vertex."""
    dset = set(defects)
    count = 0
    for comp in edge_components(edges):
        if not any(u in dset for e in comp for u in e):
            count += 1
    return count


def log_loop_weight(params: Params, n_edges: int, n_loops: int) -> float:
    return n_edges * math.log(params.x) + n_loops * math.log(params.n)


# ---------------------------------------------------------------------------
# spin systems
# ---------------------------------------------------------------------------

def border_edges(hexagons: Iterable[TriVertex]) -> tuple[HexEdge, ...]:
    """All lattice edges bordering at least one of the given hexagons."""
    hs = set(hexagons)
    out = {e for h in hs for e in hexagon_edges(h)}
    return tuple(sorted(out))


# neighbor offsets in rotational order: consecutive offsets are themselves
# adjacent, so same-sign runs around a site are connected sets
_CYCLE = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _check_spin(value) -> int:
    if value not in (-1, 1):
        raise OutOfRange(f"spins must be +1 or -1, got {value!r}")
    return int(value)


class SpinSystem:
    """Free hexagons inside a frozen context, with a uniform sea beyond.

    Parameters
    ----------
    free:
        The hexagons whose spins vary.
    fixed:
        Spins for context hexagons.  May cover any superset of the
        neighbours of ``free`` (minus ``free`` itself); hexagons of the
        neighbourhood not listed default to the sea sign.
    sea:
        Sign of every hexagon beyond the context (default ``+1``).  The
        exterior of the context must be connected; the constructors used in
        this package only build such systems.
    """

    def __init__(self, free: Iterable[TriVertex],
                 fixed: Mapping[TriVertex, int] | int | None = None,
                 sea: int = 1):
        self.sea = _check_spin(sea)
        self.free: tuple[TriVertex, ...] = tuple(sorted({tuple(h) for h in free}))
        if not self.free:
            raise OutOfRange("a spin system needs at least one free hexagon")
        fset = set(self.free)
        ring = {g for h in fset for g in tri_neighbors(h)} - fset

        if fixed is None:
            fixed_map: dict[TriVertex, int] = {}
        elif isinstance(fixed, int):
            fixed_map = {h: _check_spin(fixed) for h in ring}
        else:
            fixed_map = {tuple(h): _check_spin(v) for h, v in fixed.items()}
            overlap = set(fixed_map) & fset
            if overlap:
                raise OutOfRange(f"fixed spins overlap free hexagons: {overlap}")
        for h in ring:
            fixed_map.setdefault(h, self.sea)
        self.fixed: dict[TriVertex, int] = fixed_map
        self.context: tuple[TriVertex, ...] = tuple(sorted(fset | set(fixed_map)))

    # -- cached structure ---------------------------------------------------

    @cached_property
    def _index(self) -> dict[TriVertex, int]:
        return {h: i for i, h in enumerate(self.context)}

    @cached_property
    def free_index(self) -> dict[TriVertex, int]:
        return {h: i for i, h in enumerate(self.free)}

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """Adjacent context pairs (i < j by context index)."""
        idx = self._index
        out = set()
        for h in self.context:
            i = idx[h]
            for g in tri_neighbors(h):
                j = idx.get(g)
                if j is not None and i < j:
                    out.add((i, j))
        return tuple(sorted(out))

    @cached_property
    def _free_pairs(self) -> tuple[tuple[int, int], ...]:
        """Adjacent context pairs with at least one free hexagon."""
        fset = set(self.free)
        return tuple((i, j) for i, j in self._pairs
                     if self.context[i] in fset or self.context[j] in fset)

    @cached_property
    def _exterior_touching(self) -> tuple[int, ...]:
        ctx = set(self.context)
        return tuple(self._index[h] for h in self.context
                     if any(g not in ctx for g in tri_neighbors(h)))

    @cached_property
    def _counted(self) -> tuple[int, ...]:
        """Indices of hexagons in free union neighbours-of-free."""
        fset = set(self.free)
        q = set(fset)
        for h in fset:
            q.update(tri_neighbors(h))
        return tuple(sorted(self._index[h] for h in q))

    @cached_property
    def _triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Index triples of triangles touching a free hexagon.

        Triangles of hexagons are in bijection with lattice vertices: the
        three hexagons meeting at a vertex are pairwise adjacent.
        """
        fset = set(self.free)
        idx = self._index
        seen = set()
        out = []
        for h in self.free:
            for corner in hexagon_corners(h):
                if corner in seen:
                    continue
                seen.add(corner)
                tri = vertex_hexagons(corner)
                if any(t in fset for t in tri):
                    out.append(tuple(sorted(idx[t] for t in tri)))
        return tuple(sorted(set(out)))

    # -- single-flip structure -------------------------------------------------

    @cached_property
    def _free_ctx(self) -> tuple[int, ...]:
        """Context index of each free hexagon."""
        return tuple(self._index[h] for h in self.free)

    @cached_property
    def _nb6(self) -> tuple[tuple[int, ...], ...]:
        """Context indices of each free hexagon's six neighbours in
        ``_CYCLE`` order (all of them lie in the context by construction)."""
        idx = self._index
        return tuple(tuple(idx[(r + dr, s + ds)] for dr, ds in _CYCLE)
                     for r, s in self.free)

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """Context neighbours of each context hexagon, in ``_CYCLE`` order."""
        idx = self._index
        return tuple(tuple(idx[g] for g in ((r + dr, s + ds)
                                            for dr, ds in _CYCLE) if g in idx)
                     for r, s in self.context)

    @cached_property
    def _exterior(self) -> tuple[bool, ...]:
        """Whether each context hexagon touches the exterior."""
        touching = set(self._exterior_touching)
        return tuple(i in touching for i in range(len(self.context)))

    @cached_property
    def _budget(self) -> int:
        """Default step budget of a cluster search: four per free hexagon."""
        return 4 * len(self.free)

    @cached_property
    def _assignment_counts(self) -> tuple[SpinCounts, ...]:
        return _gray_counts(self, self._budget)

    # -- assignments ----------------------------------------------------------

    def full_spins(self, spins) -> list[int]:
        """Spins for the whole context, from free spins given as a mapping or
        a sequence aligned with ``self.free``."""
        if isinstance(spins, Mapping):
            missing = [h for h in self.free if h not in spins]
            if missing:
                raise OutOfRange(f"no spin given for free hexagon {missing[0]}")
            values = [_check_spin(spins[h]) for h in self.free]
        else:
            values = [_check_spin(v) for v in spins]
            if len(values) != len(self.free):
                raise OutOfRange(
                    f"expected {len(self.free)} spins, got {len(values)}")
        full = [0] * len(self.context)
        for i, h in enumerate(self.context):
            if h in self.free_index:
                full[i] = values[self.free_index[h]]
            else:
                full[i] = self.fixed[h]
        return full

    def __repr__(self) -> str:
        return (f"SpinSystem(|free|={len(self.free)}, "
                f"|context|={len(self.context)}, sea={self.sea:+d})")


@dataclass(frozen=True)
class SpinCounts:
    """Integer statistics of a spin assignment.

    ``twice_rp`` is kept doubled so that everything stays integral; the
    field term uses ``rp = twice_rp / 2``.
    """

    k: int
    e: int
    r: int
    twice_rp: int

    @property
    def rp(self) -> float:
        return self.twice_rp / 2.0


def cluster_find(system: SpinSystem,
                 full: Sequence[int]) -> Callable[[int], int]:
    """Same-sign clusters of a context assignment, as a union-find.

    ``full`` is aligned with ``system.context``.  Adjacent equal spins are
    joined, and so are exterior-touching hexagons of the sea's sign, through
    an extra node at index ``len(full)`` that stands for the sea.  Returns
    the find function: two indices share a cluster when it maps them to the
    same root.
    """
    m = len(full)
    parent = list(range(m + 1))  # last slot is the sea
    sea_node = m

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i, j in system._pairs:
        if full[i] == full[j]:
            union(i, j)
    for i in system._exterior_touching:
        if full[i] == system.sea:
            union(i, sea_node)
    return find


def spin_counts(system: SpinSystem, spins) -> SpinCounts:
    """Cluster, wall, magnetization and triangle counts of an assignment."""
    full = system.full_spins(spins)
    find = cluster_find(system, full)
    k = len({find(i) for i in system._counted}) - 1

    e = 0
    for i, j in system._free_pairs:
        if full[i] != full[j]:
            e += 1

    fidx = system._index
    r = sum(full[fidx[h]] for h in system.free)

    twice_rp = 0
    for a, b, c in system._triangles:
        t = full[a] + full[b] + full[c]
        if t == 3:
            twice_rp += 1
        elif t == -3:
            twice_rp -= 1

    return SpinCounts(k=k, e=e, r=r, twice_rp=twice_rp)


# ---------------------------------------------------------------------------
# single-flip count changes
# ---------------------------------------------------------------------------

def _ring_arcs(sgn, sign) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of ``sign`` around the ring, as position tuples; a run
    through position 5 into position 0 is one arc, listed first."""
    arcs = []
    current: list[int] = []
    for i in range(6):
        if sgn[i] == sign:
            current.append(i)
        elif current:
            arcs.append(current)
            current = []
    if current:
        if arcs and sgn[0] == sign:
            arcs[0] = current + arcs[0]
        else:
            arcs.append(current)
    return tuple(map(tuple, arcs))


def _local_entry(key: int):
    """(s, de, dr, dtw, old-sign arcs, new-sign arcs) for flipping a site
    whose sign is bit 6 of ``key`` and whose i-th ring neighbor's is bit i
    (a set bit is +1)."""
    s = 1 if key >> 6 & 1 else -1
    sgn = [1 if key >> i & 1 else -1 for i in range(6)]
    de = 2 * sgn.count(s) - 6
    dr = -2 * s
    dtw = 0
    for i in range(6):
        # the triangle of the site and its ring neighbors i and i + 1
        t = s + sgn[i] + sgn[i - 5]
        tp = t - 2 * s
        if tp == 3:
            dtw += 1
        elif tp == -3:
            dtw -= 1
        if t == 3:
            dtw -= 1
        elif t == -3:
            dtw += 1
    return s, de, dr, dtw, _ring_arcs(sgn, s), _ring_arcs(sgn, -s)


_LOCAL = tuple(_local_entry(key) for key in range(128))


def _arc_groups(system: SpinSystem, full, seeds, sign: int, skip: int,
                budget: int):
    """Number of connected groups the seed arcs form in the sign's
    subgraph of the context, with one site removed.

    ``full`` holds the context spins.  Seeds are disjoint site lists; the
    virtual sea links exterior sites of the sea's sign.  Searches breadth
    first from all seeds in rotation, so a merge is noticed where regions
    meet and a split as soon as the smallest region is exhausted: an
    exhausted region is maximal, hence final, except that a live search may
    still join it through the sea.  Returns None when the budget runs out.
    """
    a = len(seeds)
    parent = list(range(a + 1))
    sea_slot = a

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    owner: dict[int, int] = {}
    fronts = []
    adj = system._adj
    exterior = system._exterior
    sea_linked = sign == system.sea
    for ai, seed in enumerate(seeds):
        fronts.append(deque(seed))
        for site in seed:
            owner[site] = ai
            if sea_linked and exterior[site]:
                ra, rb = find(ai), find(sea_slot)
                if ra != rb:
                    parent[ra] = rb
    live = list(range(a))

    def settled():
        """The final count, or None while merges are still possible."""
        roots = {find(x) for x in range(a)}
        if len(roots) == 1:
            return 1
        live_roots = {find(x) for x in live}
        if not live_roots:
            return len(roots)
        if len(live_roots) == 1:
            if not sea_linked:
                return len(roots)
            sr = find(sea_slot)
            if sr not in roots or sr in live_roots:
                return len(roots)
        return None

    done = settled()
    if done is not None:
        return done

    spent = 0
    p = 0
    while live:
        ai = live[p]
        front = fronts[ai]
        site = front.popleft()
        spent += 1
        if spent > budget:
            return None
        changed = False
        for w in adj[site]:
            if w == skip or full[w] != sign:
                continue
            prev = owner.get(w)
            if prev is None:
                owner[w] = ai
                front.append(w)
                if sea_linked and exterior[w]:
                    ra, rb = find(ai), find(sea_slot)
                    if ra != rb:
                        parent[ra] = rb
                        changed = True
            elif prev != ai:
                ra, rb = find(prev), find(ai)
                if ra != rb:
                    parent[ra] = rb
                    changed = True
        if front:
            p += 1
        else:
            live.pop(p)
            changed = True
        if p >= len(live):
            p = 0
        if changed:
            done = settled()
            if done is not None:
                return done
    return len({find(x) for x in range(a)})


def _multi_arc_dk(system: SpinSystem, full, iu: int, entry, budget: int):
    """Cluster-count change of flipping the iu-th free spin, for a ``_LOCAL``
    entry whose ring has two or more arcs of each sign: q - t, where q and t
    are the groups the old-sign and the new-sign arcs form without the site.
    None when a search exceeds the budget."""
    s, old, new = entry[0], entry[4], entry[5]
    cu = system._free_ctx[iu]
    nbs = system._nb6[iu]
    q = _arc_groups(system, full, [[nbs[i] for i in arc] for arc in old],
                    s, cu, budget)
    if q is None:
        return None
    t = _arc_groups(system, full, [[nbs[i] for i in arc] for arc in new],
                    -s, cu, budget)
    return None if t is None else q - t


def _gray_counts(system: SpinSystem, budget: int) -> tuple[SpinCounts, ...]:
    """Counts of every assignment in ``product((-1, 1), repeat=m)`` order.

    Walks the assignments in Gray-code order from all minus.  Step t flips
    the spin of Gray bit j, the lowest set bit of t; bit j of a product
    index is the sign of free hexagon m - 1 - j.  Each step takes its count
    changes from ``_LOCAL``, from the arc search with the given budget, or
    from a recount when the search runs out.
    """
    m = len(system.free)
    signs = [-1] * m
    full = system.full_spins(signs)
    start = spin_counts(system, signs)
    k, e, r, tw = start.k, start.e, start.r, start.twice_rp
    out = [start] * (1 << m)
    free_ctx = system._free_ctx
    nb6 = system._nb6
    for step in range(1, 1 << m):
        iu = m - (step & -step).bit_length()
        cu = free_ctx[iu]
        n0, n1, n2, n3, n4, n5 = nb6[iu]
        key = (64 * full[cu] + 32 * full[n5] + 16 * full[n4] + 8 * full[n3]
               + 4 * full[n2] + 2 * full[n1] + full[n0] + 127) >> 1
        s, de, dr, dtw, old, new = entry = _LOCAL[key]
        signs[iu] = -s
        if len(old) < 2:
            dk = len(old) - len(new)
        else:
            dk = _multi_arc_dk(system, full, iu, entry, budget)
            if dk is None:
                dk = spin_counts(system, signs).k - k
        full[cu] = -s
        k += dk
        e += de
        r += dr
        tw += dtw
        out[step ^ (step >> 1)] = SpinCounts(k=k, e=e, r=r, twice_rp=tw)
    return tuple(out)


def assignment_index(signs) -> int:
    """Position of a free-spin assignment, given as a sign sequence aligned
    with ``system.free``, in :func:`assignment_counts`."""
    index = 0
    for s in signs:
        index = 2 * index + (s == 1)
    return index


def assignment_counts(system: SpinSystem,
                      max_sites: int) -> tuple[SpinCounts, ...]:
    """Counts of all 2^m free-spin assignments of the system, aligned with
    ``itertools.product((-1, 1), repeat=m)`` over ``system.free`` (see
    :func:`assignment_index`).

    Raises :class:`TooLarge` when m exceeds ``max_sites``, before any
    enumeration.  The Gray-code walk runs once per system and its result is
    kept on the instance, so every later call reads the same tuple.
    """
    m = len(system.free)
    if m > max_sites:
        raise TooLarge(f"{m} free hexagons exceed the enumeration cap "
                       f"of {max_sites}")
    return system._assignment_counts


def log_spin_weight(params: Params, counts: SpinCounts) -> float:
    return (counts.k * math.log(params.n)
            + counts.e * math.log(params.x)
            + params.h * counts.r
            + params.hp * (counts.twice_rp / 2.0))


# ---------------------------------------------------------------------------
# spins <-> loops
# ---------------------------------------------------------------------------

def spins_to_loops(system: SpinSystem, spins) -> frozenset[HexEdge]:
    """Domain walls of an assignment, on the edges bordering the free set."""
    full = system.full_spins(spins)
    idx = system._index
    fset = set(system.free)
    walls = set()
    for h in system.free:
        sh = full[idx[h]]
        for e in hexagon_edges(h):
            a, b = edge_hexagons(e)
            other = b if a == h else a
            if other in fset and other < h:
                continue  # counted from the other side
            so = full[idx[other]] if other in idx else system.sea
            if so != sh:
                walls.add(e)
    return frozenset(walls)


def loops_to_spins(system: SpinSystem, walls: Iterable[HexEdge]) -> dict[TriVertex, int]:
    """Reconstruct free spins from their domain walls.

    The wall set must be a subset of the edges bordering the free hexagons;
    propagation starts from the fixed spins, and any contradiction (a wall
    set that is not realizable with these boundary spins) raises
    :class:`InconsistentParity`.
    """
    wset = set(walls)
    allowed = set(border_edges(system.free))
    if not wset <= allowed:
        raise InconsistentParity(
            "wall set uses edges that do not border the free hexagons")

    fset = set(system.free)
    sigma: dict[TriVertex, int] = dict(system.fixed)
    stack = list(system.fixed)
    assigned_free: dict[TriVertex, int] = {}

    # breadth-first propagation over pairs touching a free hexagon
    while stack:
        h = stack.pop()
        for g in tri_neighbors(h):
            if not (h in fset or g in fset):
                continue
            if g not in fset and g not in sigma:
                continue
            sign = -1 if shared_edge(h, g) in wset else 1
            want = sigma[h] * sign
            if g in sigma:
                if sigma[g] != want:
                    raise InconsistentParity(
                        f"walls are inconsistent at hexagon {g}")
            else:
                sigma[g] = want
                if g in fset:
                    assigned_free[g] = want
                stack.append(g)

    if len(assigned_free) != len(fset):
        missing = fset - set(assigned_free)
        raise InconsistentParity(f"walls leave hexagons unassigned: {missing}")

    # every wall edge must actually be a wall of the reconstruction
    for e in allowed:
        a, b = edge_hexagons(e)
        sa = sigma.get(a, system.sea)
        sb = sigma.get(b, system.sea)
        if (sa != sb) != (e in wset):
            raise InconsistentParity(f"walls are inconsistent across {e}")

    return {h: assigned_free[h] for h in system.free}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def loops_to_json(edges: Iterable[HexEdge]) -> list:
    return [[list(u), list(v)] for u, v in sorted(edges)]


def loops_from_json(data: Iterable) -> frozenset[HexEdge]:
    out = set()
    for u, v in data:
        a, b = tuple(u), tuple(v)
        out.add((a, b) if a < b else (b, a))
    return frozenset(out)


def spins_to_json(system: SpinSystem, spins) -> dict:
    full = system.full_spins(spins)
    idx = system._index
    return {
        "free": [[*h, full[idx[h]]] for h in system.free],
        "fixed": [[*h, s] for h, s in sorted(system.fixed.items())],
        "sea": system.sea,
    }


def spins_from_json(data: Mapping) -> tuple[SpinSystem, dict[TriVertex, int]]:
    """Invert :func:`spins_to_json`: rebuild the system and its assignment."""
    spins = {(q, r): s for q, r, s in data["free"]}
    fixed = {(q, r): s for q, r, s in data.get("fixed", [])}
    system = SpinSystem(spins, fixed or None, sea=data.get("sea", 1))
    return system, spins
