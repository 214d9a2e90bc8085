"""Configurations: loop configurations on edges, spin configurations on hexagons.

A *loop configuration* is a set of lattice edges in which every vertex has
even degree (0 or 2), except for a designated set of defect vertices of
degree 1.  Its weight is ``x^(#edges) * n^(#loops)`` where a loop is a
connected component containing no defect.

A *spin configuration* assigns ``+1`` or ``-1`` to every hexagon.  A
:class:`SpinSystem` fixes the scene: a set of *free* hexagons, a *context*
superset whose remaining spins are frozen, and a uniform *sea* sign filling
the rest of the plane, holes of the context included.  The weight of an
assignment is::

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

Counts change locally under a single flip.  The wall, magnetization and
triangle deltas are functions of seven signs, the site's and its six
neighbours' in rotational order (``_CYCLE``), so one 128-entry table
(``_LOCAL``) holds them for each sign pattern.  So does the cluster-count
delta when each sign has at most one arc of the neighbour ring: the number
of arcs of the old sign minus that of the new sign.  Otherwise, with a >= 2
arcs of each sign, the walls leaving the site pair its 2a sign changes
outside it, and the pairing fixes how many groups the arcs of each sign
form.  :func:`_multi_arc_dk` finds it by walking along the walls, the
perimeter walk of Ziff, Cummings and Stell, on the context and its sea
frame (the hexagons beyond it that touch it); a walk always ends.  The
count rests on planarity, which a context with a hole breaks (the hole
joins the sea, see :func:`cluster_find`), so there :func:`spin_counts`
recounts.  The heat-bath chain (``sampler.ChainState``) updates its counts
this way, and :func:`assignment_counts` walks all 2^m assignments of a
system in Gray-code order, one flip per step, and keeps the result on the
system.

Spins and loops are two views of the same model: the domain walls of a spin
assignment form an even edge set on the edges bordering the free hexagons,
and with a constant fixed boundary the correspondence is one to one
(:func:`spins_to_loops` / :func:`loops_to_spins`).
"""

from __future__ import annotations

import math
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
    hexagon_components,
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
        Sign of every hexagon beyond the context (default ``+1``).  A hole,
        that is, hexagons beyond the context that the context encloses,
        counts as sea too, and its hexagons join the outer sea: same-sign
        context hexagons that touch a hole are in the sea's cluster.
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
    def _sea_frame(self) -> tuple[TriVertex, ...]:
        """Hexagons beyond the context that touch it."""
        ctx = set(self.context)
        return tuple(sorted({g for h in ctx for g in tri_neighbors(h)} - ctx))

    @cached_property
    def _framed_index(self) -> dict[TriVertex, int]:
        """Positions in :meth:`framed_spins` by hexagon."""
        return {h: i for i, h in enumerate(self.context + self._sea_frame)}

    @cached_property
    def _sea_connected(self) -> bool:
        """Whether the context has no hole: whether its Euler
        characteristic, hexagons less adjacent pairs plus triangles of
        hexagons, equals its number of components (that less its holes)."""
        ctx = set(self.context)
        triangles = sum(((r, s + 1) in ctx) + ((r + 1, s - 1) in ctx)
                        for r, s in ctx if (r + 1, s) in ctx)
        euler = len(ctx) - len(self._pairs) + triangles
        return euler == len(hexagon_components(ctx))

    @cached_property
    def _walls(self):
        """Step tables ``(ahead, keep, move)`` of the wall walk over the
        context and its sea frame (:func:`_multi_arc_dk`).

        A strand state 6A + j stands for cell A and the wall between A and
        its neighbour B in direction j, walked towards the vertex they
        share with A's neighbour j + 1, the cell ahead.  When the cell
        ahead has A's sign, the wall bends round B and the state becomes
        (cell ahead, j - 1); otherwise it bends round A: (A, j + 1).
        Entries that leave the sea frame are -1; no walk reads them, since
        every wall has a context hexagon on one side.  Holes lie in the
        frame, and only the cluster count of :func:`_multi_arc_dk` needs a
        context without one.
        """
        idx = self._framed_index
        ahead = [idx.get((r + dr, s + ds), -1) for r, s in idx
                 for dr, ds in _CYCLE[1:] + _CYCLE[:1]]
        keep = [f + 1 if f % 6 < 5 else f - 5 for f in range(len(ahead))]
        move = [6 * c + (f - 1) % 6 if c >= 0 else -1
                for f, c in enumerate(ahead)]
        return ahead, keep, move

    @cached_property
    def _assignment_counts(self) -> tuple[SpinCounts, ...]:
        return _gray_counts(self)

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

    def framed_spins(self, spins) -> list[int]:
        """:meth:`full_spins` followed by the sea sign of every hexagon of
        the sea frame, the sign array of the wall walk."""
        return self.full_spins(spins) + [self.sea] * len(self._sea_frame)

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

    ``full`` is aligned with ``system.context`` and may run on into its
    sea frame.  Adjacent equal spins are joined, and so are
    exterior-touching hexagons of the sea's sign, holes included, through
    an extra node at index ``len(full)`` that stands for the sea.  Returns
    the find function: two indices share a cluster when it maps them to
    the same root.
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

def _non_crossing(points):
    """The non-crossing perfect matchings of points in cyclic order."""
    if not points:
        yield []
        return
    for k in range(1, len(points), 2):
        for inner in _non_crossing(points[1:k]):
            for outer in _non_crossing(points[k + 1:]):
                yield [(points[0], points[k])] + inner + outer


def _wall_plan(sgn, s: int, corners):
    """Strand starts and verdicts of the wall walk for flipping a site of
    sign s whose ring ``sgn`` changes sign at the 2a >= 4 ``corners``.

    Corner i of the site is the vertex it shares with ring neighbours i
    and i + 1.  The walls that leave the site at its corners pair them up
    outside it without crossing.  Together with the pairs of corners
    across each new-sign arc, a pairing forms L cycles, one per group of
    new-sign arcs, so the old-sign arcs form q = a + 1 - L groups and the
    flip changes the cluster count by q - L.

    Returns (sa, starts, verdicts).  The walk follows the strands from the
    first and third corners, which lie on distinct walls; each starts as
    (ring position of its cell A, direction j) and keeps cells of sign
    ``sa`` on its A side.  A strand x that comes back at corner c sets bit
    6x + c of a mask, and ``verdicts`` maps each mask that leaves one
    possible change to it, as both returns always do.
    """
    starts = corners[0], corners[2]
    across = [(corners[i - 1], c) for i, c in enumerate(corners)
              if sgn[c] != s]
    arc = {u: w for pair in across for u, w in (pair, pair[::-1])}
    changes: dict[int, set] = {}
    for pairing in _non_crossing(corners):
        chord = {u: w for pair in pairing for u, w in (pair, pair[::-1])}
        cycles, seen = 0, set()
        for u in corners:
            cycles += u not in seen
            while u not in seen:
                seen.update((u, chord[u]))
                u = arc[chord[u]]
        dk = len(corners) // 2 + 1 - 2 * cycles
        first, third = (1 << 6 * x + chord[c] for x, c in enumerate(starts))
        for mask in (first, third, first | third):
            changes.setdefault(mask, set()).add(dk)
    verdicts = {mask: dks.pop() for mask, dks in changes.items()
                if len(dks) == 1}
    return (sgn[(corners[0] + 1) % 6],
            tuple(((c + 1) % 6, (c - 1) % 6) for c in starts), verdicts)


def _local_entry(key: int):
    """(s, de, dr, dtw, dk, plan) for flipping a site whose sign is bit 6
    of ``key`` and whose i-th ring neighbour's is bit i (a set bit is +1).

    When each sign has at most one ring arc, dk is the number of old-sign
    arcs minus that of new-sign arcs and ``plan`` is None.  Otherwise dk is
    None and ``plan`` is the :func:`_wall_plan` of the ring.
    """
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
    corners = [i for i in range(6) if sgn[i] != sgn[i - 5]]
    if len(corners) < 4:
        return s, de, dr, dtw, 0 if corners else sgn[0] * s, None
    return s, de, dr, dtw, None, _wall_plan(sgn, s, corners)


_LOCAL = tuple(_local_entry(key) for key in range(128))


def _multi_arc_dk(plan, full, cu: int, nbs, walls) -> int:
    """Cluster-count change of flipping the site at context index ``cu``,
    whose ring (context indices ``nbs``) has two or more arcs of each sign.

    Walks the two wall strands of ``plan`` (see :func:`_wall_plan`) in
    lockstep over the sign array ``full``, the context spins followed by
    the sea frame, and the other strand alone if the first return leaves
    the change open.  A strand at flat state 6A + j has cell A on its sign
    side and the wall between A and its neighbour j; one sign comparison
    with the cell ahead gives its next state (``SpinSystem._walls``).
    Walls are closed in the plane without the site, so every strand comes
    back: the cell ahead is the site, and the strand ends at the site's
    corner between A and its neighbour j, corner j + 4.
    """
    sa, ((p, j), (p3, j3)), verdicts = plan
    ahead, keep, move = walls
    f = 6 * nbs[p] + j
    g = 6 * nbs[p3] + j3
    while True:
        c = ahead[f]
        if c == cu:
            mask, rest, x = 1 << (f + 4) % 6, g, 6
            break
        f = move[f] if full[c] == sa else keep[f]
        c = ahead[g]
        if c == cu:
            mask, rest, x = 1 << 6 + (g + 4) % 6, f, 0
            break
        g = move[g] if full[c] == sa else keep[g]
    dk = verdicts.get(mask)
    if dk is not None:
        return dk
    while True:
        c = ahead[rest]
        if c == cu:
            return verdicts[mask | 1 << x + (rest + 4) % 6]
        rest = move[rest] if full[c] == sa else keep[rest]


def _gray_counts(system: SpinSystem) -> tuple[SpinCounts, ...]:
    """Counts of every assignment in ``product((-1, 1), repeat=m)`` order.

    Walks the assignments in Gray-code order from all minus.  Step t flips
    the spin of Gray bit j, the lowest set bit of t; bit j of a product
    index is the sign of free hexagon m - 1 - j.  Each step takes its count
    changes from ``_LOCAL`` and, for a ring with two or more arcs of each
    sign, its cluster-count change from the wall walk, or from a recount
    when the context has a hole.
    """
    m = len(system.free)
    signs = [-1] * m
    full = system.framed_spins(signs)
    start = spin_counts(system, signs)
    k, e, r, tw = start.k, start.e, start.r, start.twice_rp
    out = [start] * (1 << m)
    free_ctx = system._free_ctx
    nb6 = system._nb6
    walls = system._walls if system._sea_connected else None
    for step in range(1, 1 << m):
        iu = m - (step & -step).bit_length()
        cu = free_ctx[iu]
        n0, n1, n2, n3, n4, n5 = nbs = nb6[iu]
        key = (64 * full[cu] + 32 * full[n5] + 16 * full[n4] + 8 * full[n3]
               + 4 * full[n2] + 2 * full[n1] + full[n0] + 127) >> 1
        s, de, dr, dtw, dk, plan = _LOCAL[key]
        signs[iu] = -s
        if dk is None:
            if walls is None:
                dk = spin_counts(system, signs).k - k
            else:
                dk = _multi_arc_dk(plan, full, cu, nbs, walls)
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
