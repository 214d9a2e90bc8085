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

- ``k + 1``  is the number of monochromatic clusters meeting Q (the outer
  sea merges same-sign context hexagons that touch it, and so does each
  hole of the context, apart from the others; a cluster made of sea alone
  does not count),
- ``e``      is the number of unequal adjacent pairs touching a free hexagon,
- ``r``      is the sum of the free spins,
- ``rp``     is half the difference between the numbers of all-plus and
  all-minus triangles touching a free hexagon (triangles of hexagons
  correspond one-to-one to lattice vertices).

A system has one sign array, :meth:`SpinSystem.framed_spins`: the context's
spins, then the sea sign on its sea frame (the hexagons beyond the context
that touch it).  It has one neighbour table over that array, ``_ring``,
six positions per hexagon in ``_CYCLE`` order, and every index structure
is read off it: the adjacent pairs and their wall edges, the hexagons
counted, the triangles, each free site's ring and the step tables of the
wall walk.

Counts change locally under a single flip.  The wall, magnetization and
triangle deltas are functions of seven signs, the site's and its six
neighbours' in rotational order (``_CYCLE``), so one 128-entry table
(``_LOCAL``) holds them for each sign pattern.  So does the cluster-count
delta when each sign has at most one arc of the neighbour ring: the number
of arcs of the old sign minus that of the new sign.  Otherwise, with a >= 2
arcs of each sign, the walls leaving the site pair its 2a sign changes
outside it, and the pairing fixes how many groups the arcs of each sign
form.  :func:`_multi_arc_dk` finds it by walking along the walls, the
perimeter walk of Ziff, Cummings and Stell, on the sign array; a walk
always ends.  The count rests on planarity, which holds on every context,
since each hole is a cluster node of its own (:func:`cluster_find`).  The
heat-bath chain (``sampler.ChainState``) updates its counts this way, and
:func:`assignment_counts` walks all 2^m assignments of a system in
Gray-code order, one flip per step, and keeps the result on the system as
one tuple per assignment (:class:`SpinCounts`), with its
distinct tuples, few next to 2^m, so that :func:`assignment_log_weights`
evaluates each weight once.  ``exact`` reads event truths, and
:func:`wall_masks` the wall sets as int masks, off walks in the same
order, the spin layer's only one.

Spins and loops are two views of the same model: the domain walls of a spin
assignment form an even edge set on the edges bordering the free hexagons,
and with a constant fixed boundary the correspondence is one to one
(:func:`spins_to_loops` for one assignment) and ``k`` is the number of
loops the walls form, on a context with holes too.  With the hexagons at
distance 2 from the origin free and minus, and the frame and sea plus, the
context has a hole at the origin, and :func:`spin_counts` gives k = 2: the
plus hexagons inside the ring form a cluster with the hole, apart from the
outer sea's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import OutOfRange, TooLarge
from .lattice import (
    HexEdge,
    HexVertex,
    Keeper,
    TriVertex,
    config_degrees,
    edge,
    edge_components,
    hexagon_components,
    hexagon_corners,
    hexagon_edges,
    tri_neighbors,
)

#: free hexagons that an enumeration of all 2^m spin assignments takes at most
MAX_SPIN_SITES = 16


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

    # the weights' logs, computed once per parameter point; cached_property
    # stores them beside the fields, so equality and hash stay the fields'
    @cached_property
    def log_n(self) -> float:
        return math.log(self.n)

    @cached_property
    def log_x(self) -> float:
        return math.log(self.x)

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
    return sum(not any(u in dset for e in comp for u in e)
               for comp in edge_components(edges))


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
    if isinstance(value, bool) or value not in (-1, 1):
        raise OutOfRange(f"spins must be +1 or -1, got {value!r}")
    return int(value)


class SpinSystem(Keeper):
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
        has the sea sign too but is a cluster of its own: same-sign context
        hexagons that touch it share its cluster, not the outer sea's.

    Its structure is read off one neighbour table, ``_ring``, over the
    positions of :meth:`framed_spins`; the parts of the plane beyond the
    context (:attr:`_exterior_touching`) take a flood of their own, as a
    hole more than one hexagon wide reaches past the sea frame.
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
    def negated(self) -> SpinSystem:
        """The system with every frozen spin and the sea negated."""
        return SpinSystem(self.free, {h: -s for h, s in self.fixed.items()},
                          sea=-self.sea)

    @cached_property
    def free_index(self) -> dict[TriVertex, int]:
        return {h: i for i, h in enumerate(self.free)}

    @cached_property
    def _sea_frame(self) -> tuple[TriVertex, ...]:
        """Hexagons beyond the context that touch it."""
        ctx = set(self.context)
        return tuple(sorted({g for h in ctx for g in tri_neighbors(h)} - ctx))

    @cached_property
    def _framed_index(self) -> dict[TriVertex, int]:
        """Positions in :meth:`framed_spins` by hexagon: the context's
        hexagons in order, then those of its sea frame."""
        return {h: i for i, h in enumerate(self.context + self._sea_frame)}

    @cached_property
    def _ring(self) -> list[int]:
        """The neighbour table: entry 6A + j is the position of cell A's
        neighbour in direction ``_CYCLE[j]``, or -1 past the sea frame."""
        get = self._framed_index.get
        return [get((r + dr, s + ds), -1) for r, s in self._framed_index
                for dr, ds in _CYCLE]

    @cached_property
    def _free_ctx(self) -> tuple[int, ...]:
        """Context index of each free hexagon."""
        return tuple(self._framed_index[h] for h in self.free)

    @cached_property
    def _nb6(self) -> tuple[tuple[int, ...], ...]:
        """Context indices of each free hexagon's six neighbours in
        ``_CYCLE`` order (all of them lie in the context by construction)."""
        ring = self._ring
        return tuple(tuple(ring[6 * u:6 * u + 6]) for u in self._free_ctx)

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """Adjacent context pairs (i < j by context index)."""
        ring, m = self._ring, len(self.context)
        return tuple(sorted((i, j) for i in range(m)
                            for j in ring[6 * i:6 * i + 6] if i < j < m))

    @cached_property
    def _free_pairs(self) -> tuple[tuple[int, int], ...]:
        """Adjacent context pairs with at least one free hexagon."""
        free = set(self._free_ctx)
        return tuple((i, j) for i, j in self._pairs if i in free or j in free)

    @cached_property
    def _wall_probes(self) -> tuple[tuple[HexEdge, int, int], ...]:
        """``(edge, i, j)`` per :attr:`_free_pairs`, a wall if the spins differ:
        corners k - 1 and k of hexagon i, the side to j, which sits in slot
        k of i's row of the neighbour table."""
        ctx, ring = self.context, self._ring
        return tuple((edge(c[k - 1], c[k]), i, j) for i, j in self._free_pairs
                     for c, k in [(hexagon_corners(ctx[i]),
                                   ring.index(j, 6 * i) - 6 * i)])

    @cached_property
    def _exterior_touching(self) -> tuple[tuple[int, int], ...]:
        """``(i, part)`` for each context index i and each part of the
        plane beyond the context that its hexagon touches: part 0 is the
        outer sea, and each hole has its own number from 1."""
        ctx = set(self.context)
        rs, ss = zip(*ctx)
        r0, s0 = min(rs) - 1, min(ss) - 1
        # beyond the context inside its bounding box and a margin, where
        # the corner (r0, s0) reaches the outer sea
        beyond = {(r, s) for r in range(r0, max(rs) + 2)
                  for s in range(s0, max(ss) + 2)} - ctx
        parts = sorted(hexagon_components(beyond),
                       key=lambda comp: (r0, s0) not in comp)
        part = {g: p for p, comp in enumerate(parts) for g in comp}
        # a neighbour of a context hexagon at position m or later lies in
        # the sea frame
        frame, ring, m = self._sea_frame, self._ring, len(self.context)
        return tuple(sorted({(i, part[frame[g - m]]) for i in range(m)
                             for g in ring[6 * i:6 * i + 6] if g >= m}))

    @cached_property
    def _counted(self) -> tuple[int, ...]:
        """Indices of hexagons in free union neighbours-of-free."""
        return tuple(sorted(set(self._free_ctx).union(*self._nb6)))

    @cached_property
    def _triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Index triples of triangles touching a free hexagon.

        Triangles of hexagons are in bijection with lattice vertices: the
        three hexagons meeting at a corner of a free hexagon are the free
        hexagon and its ring neighbours k - 1 and k, which are adjacent.
        """
        return tuple(sorted({tuple(sorted((u, nbs[k - 1], nbs[k])))
                             for u, nbs in zip(self._free_ctx, self._nb6)
                             for k in range(6)}))

    @cached_property
    def _walls(self):
        """Step tables ``(ahead, keep, move)`` of the wall walk over the
        context and its sea frame (:func:`_multi_arc_dk`), read off the
        neighbour table ``_ring``.

        A strand state 6A + j stands for cell A and the wall between A and
        its neighbour B in direction j, walked towards the vertex they
        share with A's neighbour j + 1, the cell ahead.  When the cell
        ahead has A's sign, the wall bends round B and the state becomes
        (cell ahead, j - 1); otherwise it bends round A: (A, j + 1).
        Entries that leave the sea frame are -1; no walk reads them, since
        every wall has a context hexagon on one side.  The frame takes in
        the hexagons of holes that touch the context.
        """
        ring = self._ring
        keep = [f + 1 if f % 6 < 5 else f - 5 for f in range(len(ring))]
        ahead = [ring[f] for f in keep]
        move = [6 * c + (f - 1) % 6 if c >= 0 else -1
                for f, c in enumerate(ahead)]
        return ahead, keep, move

    # -- assignments ----------------------------------------------------------

    def framed_spins(self, spins) -> list[int]:
        """The sign array of the system, in :attr:`_framed_index` order:
        the context's spins, with the free ones given as a mapping of the
        free hexagons and no other, or as a sequence aligned with
        ``self.free``, then the sea sign of every hexagon of the sea frame."""
        at = self.free_index
        if isinstance(spins, Mapping):
            stray = [h for h in spins if h not in at]
            if stray:
                raise OutOfRange(f"{stray[0]} is not a free hexagon")
            missing = [h for h in self.free if h not in spins]
            if missing:
                raise OutOfRange(f"no spin given for free hexagon {missing[0]}")
            spins = [spins[h] for h in self.free]
        values = [_check_spin(v) for v in spins]
        if len(values) != len(self.free):
            raise OutOfRange(
                f"expected {len(self.free)} spins, got {len(values)}")
        return [values[at[h]] if h in at else self.fixed[h]
                for h in self.context] + [self.sea] * len(self._sea_frame)

    def __repr__(self) -> str:
        return (f"SpinSystem(|free|={len(self.free)}, "
                f"|context|={len(self.context)}, sea={self.sea:+d})")


class SpinCounts(NamedTuple):
    """Integer statistics of a spin assignment, as one plain tuple.

    ``twice_rp`` is kept doubled so that everything stays integral; the
    field term uses ``rp = twice_rp / 2``.
    """

    k: int
    e: int
    r: int
    twice_rp: int


def cluster_find(system: SpinSystem,
                 full: Sequence[int]) -> Callable[[int], int]:
    """Same-sign clusters of a context assignment, as a union-find.

    ``full`` is the system's sign array (:meth:`SpinSystem.framed_spins`),
    whose context part is read.  Adjacent equal spins are joined, and so
    are hexagons of the sea's sign with the part of the plane beyond the
    context that they touch: the outer sea, a node at index ``len(full)``,
    or a hole, one node each after it.  Returns the find function: two indices share a
    cluster when it maps them to the same root.
    """
    m = len(full)
    touching = system._exterior_touching
    parent = list(range(m + 1 + max(p for _, p in touching)))

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
    for i, p in touching:
        if full[i] == system.sea:
            union(i, m + p)
    return find


def spin_counts(system: SpinSystem, spins) -> SpinCounts:
    """Cluster, wall, magnetization and triangle counts of an assignment."""
    full = system.framed_spins(spins)
    find = cluster_find(system, full)
    k = len({find(i) for i in system._counted}) - 1

    e = sum(full[i] != full[j] for i, j in system._free_pairs)
    r = sum(full[i] for i in system._free_ctx)
    twice_rp = sum(_one_sign(full[a] + full[b] + full[c])
                   for a, b, c in system._triangles)
    return SpinCounts(k, e, r, twice_rp)


def _one_sign(t: int) -> int:
    """+1 when a triangle's spins, which sum to ``t``, are all plus, -1
    when they are all minus, and 0 otherwise."""
    return (t == 3) - (t == -3)


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
    # the triangles of the site and its ring neighbours i and i + 1, whose
    # spin sums the flip moves from t to t - 2s
    dtw = sum(_one_sign(t - 2 * s) - _one_sign(t)
              for t in (s + sgn[i] + sgn[i - 5] for i in range(6)))
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
    sign, its cluster-count change from the wall walk.
    """
    m = len(system.free)
    full = system.framed_spins([-1] * m)
    k, e, r, tw = start = spin_counts(system, [-1] * m)
    out = [start] * (1 << m)
    free_ctx, nb6, walls = system._free_ctx, system._nb6, system._walls
    for step in range(1, 1 << m):
        iu = m - (step & -step).bit_length()
        cu = free_ctx[iu]
        n0, n1, n2, n3, n4, n5 = nbs = nb6[iu]
        key = (64 * full[cu] + 32 * full[n5] + 16 * full[n4] + 8 * full[n3]
               + 4 * full[n2] + 2 * full[n1] + full[n0] + 127) >> 1
        s, de, dr, dtw, dk, plan = _LOCAL[key]
        if dk is None:
            dk = _multi_arc_dk(plan, full, cu, nbs, walls)
        full[cu] = -s
        k += dk
        e += de
        r += dr
        tw += dtw
        out[step ^ step >> 1] = SpinCounts(k, e, r, tw)
    return tuple(out)


def assignment_index(signs) -> int:
    """Position of a free-spin assignment, given as a sign sequence aligned
    with ``system.free``, in :func:`assignment_counts`."""
    index = 0
    for s in signs:
        index = 2 * index + (s == 1)
    return index


def free_sites(system: SpinSystem, max_sites: int = MAX_SPIN_SITES,
               cap: str = "enumeration cap") -> int:
    """The number m of free hexagons of a system; :class:`TooLarge` when m
    exceeds ``max_sites``, by default the one cap of every spin enumeration,
    named ``cap`` in the message."""
    m = len(system.free)
    if m > max_sites:
        raise TooLarge(f"{m} free hexagons exceed the {cap} of {max_sites}")
    return m


def assignment_counts(system: SpinSystem) -> tuple[SpinCounts, ...]:
    """Counts of all 2^m free-spin assignments of the system, aligned with
    ``itertools.product((-1, 1), repeat=m)`` over ``system.free`` (see
    :func:`assignment_index`).

    Raises :class:`TooLarge` when m exceeds ``MAX_SPIN_SITES``, before any
    enumeration.  The Gray-code walk runs once per system and its result is
    kept on the instance, so every later call reads the same tuple.
    """
    free_sites(system)
    return system.kept("counts", lambda: _gray_counts(system))


def log_spin_weight(params: Params, counts: SpinCounts) -> float:
    return (counts.k * params.log_n + counts.e * params.log_x
            + params.h * counts.r + params.hp * (counts.twice_rp / 2.0))


def _distinct_counts(counts) -> tuple[tuple[SpinCounts, ...], Callable]:
    """The distinct counts in first-seen order, and a reader that picks
    each assignment's entry out of a list aligned with them."""
    first: dict[SpinCounts, int] = {}
    index = [first.setdefault(c, len(first)) for c in counts]
    return tuple(first), itemgetter(*index)


def assignment_log_weights(system: SpinSystem,
                           params: Params) -> tuple[float, ...]:
    """:func:`log_spin_weight` of every assignment, in
    :func:`assignment_counts` order, kept on the system per ``params``.
    The weight is evaluated once per distinct count, which the system keeps
    with each assignment's index among them, so every assignment of one
    count reads the same float."""
    def weigh() -> tuple[float, ...]:
        distinct, pick = system.kept("distinct counts", lambda: (
            _distinct_counts(assignment_counts(system))))
        return pick([log_spin_weight(params, c) for c in distinct])

    return system.kept(("log weights", params), weigh)


# ---------------------------------------------------------------------------
# spins <-> loops
# ---------------------------------------------------------------------------

def spins_to_loops(system: SpinSystem, spins) -> frozenset[HexEdge]:
    """Domain walls of an assignment, on the edges bordering the free set."""
    full = system.framed_spins(spins)
    return frozenset(e for e, i, j in system._wall_probes
                     if full[i] != full[j])


def wall_masks(system: SpinSystem) -> tuple[int, ...]:
    """Domain walls of every assignment, in :func:`assignment_counts`
    order, as ints: bit i is edge i of ``border_edges(system.free)``, with
    edge 0 the highest bit, so that ascending masks are in edge-inclusion
    order (each edge left out before it is taken).

    One walk in the Gray-code order of :func:`_gray_counts` from the walls
    of all minus: a flip toggles the walls of the six edges of its hexagon.
    Kept on the system; :class:`TooLarge` above ``MAX_SPIN_SITES``.
    """
    m = free_sites(system)

    def walk() -> tuple[int, ...]:
        edges = border_edges(system.free)
        bit = {e: 1 << len(edges) - 1 - i for i, e in enumerate(edges)}
        mask = sum(bit[e] for e in spins_to_loops(system, [-1] * m))
        six = [sum(bit[e] for e in hexagon_edges(h)) for h in system.free]
        out = [mask] * (1 << m)
        for step in range(1, 1 << m):
            mask ^= six[m - (step & -step).bit_length()]
            out[step ^ step >> 1] = mask
        return tuple(out)

    return system.kept("walls", walk)


def sign_flood(system: SpinSystem, cells: Iterable[TriVertex],
               starts: Iterable[TriVertex], ends, sign: int) -> Callable:
    """Predicate on the framed sign array (:meth:`SpinSystem.framed_spins`):
    whether hexagons of ``sign`` join one of ``starts`` to one of ``ends``
    inside ``cells``, by a flood over their indices, set up once, whose
    neighbour lists are read off the system's neighbour table."""
    cells, idx, ring = sorted(cells), system._framed_index, system._ring
    at = [idx[h] for h in cells]
    pos = {a: i for i, a in enumerate(at)}
    nbrs = [[pos[g] for g in ring[6 * a:6 * a + 6] if g in pos] for a in at]
    goal, entry = [h in ends for h in cells], [pos[idx[h]] for h in starts]

    def joined(full) -> bool:
        seen, todo = bytearray(len(cells)), entry[:]
        while todo:
            i = todo.pop()
            if seen[i] or full[at[i]] != sign:
                continue
            if goal[i]:
                return True
            seen[i] = 1
            todo += nbrs[i]
        return False

    return joined
