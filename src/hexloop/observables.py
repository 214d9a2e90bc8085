"""Geometric observables of loop and spin configurations.

Loop-side statistics (sizes, diameters, circuits around the origin) and
spin-side connectivity events (circuits of pluses, box crossings, two-point
connections).  A small JSON grammar names events so that the sampler, the
exact enumerator and the command line share one vocabulary.

Every evaluator is a pure function of the configuration passed in, and the
geometric decisions are integer-exact.  "Surrounding" is decided by the
crossing parity of a horizontal ray from the hexagon's center: the ray meets
only vertical lattice edges, transversally, so the parity equals the winding
number test for the simple cycles that make up an even configuration.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Container, Iterable, Mapping

from .configs import SpinSystem, border_edges, edge_components, is_even_config
from .errors import (
    DomainTooSmall,
    InconsistentParity,
    OutOfDomain,
    OutOfRange,
)
from .lattice import (
    Domain,
    HexEdge,
    TriVertex,
    ball_and_annulus,
    edge,
    edge_hexagons,
    hexagon_ball,
    rhombus_hexagons,
    tri_distance,
    tri_neighbors,
)

ORIGIN: TriVertex = (0, 0)


def _canonical_edges(omega: Iterable[HexEdge]) -> frozenset[HexEdge]:
    return frozenset(edge(u, v) for u, v in omega)


def _vertical_rows(loop: Iterable[HexEdge]) -> dict[int, list[int]]:
    """Columns of the vertical edges of a loop, keyed by hexagon row.

    The vertical edge between the down vertex (r, s-1, 1) and the up vertex
    (r, s, 0) is the only edge type that crosses the horizontal line through
    the centers of row-s hexagons; it sits just right of column r.
    """
    rows: dict[int, list[int]] = {}
    for u, v in loop:
        if u[2] == 1 and v[2] == 0 and u[0] == v[0]:
            rows.setdefault(v[1], []).append(u[0])
    for rs in rows.values():
        rs.sort()
    return rows


def loop_surrounds(loop: Iterable[HexEdge], h: TriVertex = ORIGIN) -> bool:
    """Whether a loop winds around the hexagon ``h``.

    Decided by the parity of crossings of the rightward ray from the
    hexagon's center, which the loop's edges can only meet transversally.
    """
    a, b = h
    rs = _vertical_rows(_canonical_edges(loop)).get(b)
    if not rs:
        return False
    return (len(rs) - bisect_left(rs, a)) % 2 == 1


def enclosed_hexagons(loop: Iterable[HexEdge]) -> frozenset[TriVertex]:
    """The hexagons inside a loop (ray-parity test, row by row)."""
    rows = _vertical_rows(_canonical_edges(loop))
    inside = set()
    for s, rs in rows.items():
        m = len(rs)
        for r in range(rs[0], rs[-1] + 1):
            if (m - bisect_left(rs, r)) % 2 == 1:
                inside.add((r, s))
    return frozenset(inside)


def tri_diameter(hexagons: Iterable[TriVertex]) -> int:
    """Size of a hexagon set measured across: max pairwise distance plus one.

    The empty set has diameter 0 and a single hexagon has diameter 1, so
    nested loops always get strictly increasing diameters.
    """
    hs = sorted({tuple(h) for h in hexagons})
    if not hs:
        return 0
    best = 0
    for a, b in combinations(hs, 2):
        d = tri_distance(a, b)
        if d > best:
            best = d
    return best + 1


@dataclass(frozen=True)
class LoopStats:
    """Per-loop statistics of a defect-free configuration.

    The three tuples are aligned, with loops ordered by decreasing edge
    count (ties broken by smallest edge).  ``R`` is the largest diameter
    among the loops that surround the origin hexagon, 0 if there is none.
    """

    loop_sizes: tuple[int, ...]
    diameters: tuple[int, ...]
    surrounds_origin: tuple[bool, ...]
    R: int


def loop_stats(omega: Iterable[HexEdge]) -> LoopStats:
    """Cycle decomposition of an even configuration with size statistics."""
    edges = _canonical_edges(omega)
    if not is_even_config(edges):
        raise InconsistentParity(
            "loop statistics need a defect-free configuration")
    loops = sorted(edge_components(edges), key=lambda c: (-len(c), min(c)))
    sizes = [len(loop) for loop in loops]
    diameters = [tri_diameter(enclosed_hexagons(loop)) for loop in loops]
    surrounds = [loop_surrounds(loop) for loop in loops]
    best = max((d for d, s in zip(diameters, surrounds) if s), default=0)
    return LoopStats(tuple(sizes), tuple(diameters), tuple(surrounds), best)


# ---------------------------------------------------------------------------
# loop events
# ---------------------------------------------------------------------------

def _support_edges(support) -> frozenset[HexEdge]:
    """Edge set of a support argument: a domain, edges, or hexagons."""
    if isinstance(support, Domain):
        return frozenset(support.edges)
    items = list(support)
    if not items:
        return frozenset()
    if isinstance(items[0][0], int):
        return frozenset(border_edges(tuple(h) for h in items))
    return frozenset(edge(u, v) for u, v in items)


def annulus_loop_event(omega: Iterable[HexEdge], k: int,
                       support=None) -> bool:
    """Whether some loop lies inside the radius-k edge annulus and winds
    around the origin.

    The annulus is the edge set of :func:`lattice.ball_and_annulus`.  The
    caller is responsible for evaluating on a configuration whose domain
    covers the annulus; passing the domain (or its edges, or its hexagons)
    as ``support`` turns that into a checked precondition.
    """
    _, annulus = ball_and_annulus(k)
    if support is not None:
        missing = annulus - _support_edges(support)
        if missing:
            raise DomainTooSmall(
                f"support misses {len(missing)} of the {len(annulus)} "
                f"annulus edges at scale {k}")
    edges = _canonical_edges(omega)
    if not is_even_config(edges):
        raise InconsistentParity(
            "the surrounding-loop event needs a defect-free configuration")
    for loop in edge_components(edges):
        if loop <= annulus and loop_surrounds(loop):
            return True
    return False


# ---------------------------------------------------------------------------
# spin events
# ---------------------------------------------------------------------------

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
    well, so the test floods from the origin through the inner ball and the
    non-plus ring hexagons and reports whether the flood stays trapped.
    """
    if k < 1:
        raise OutOfRange("circuit scale must be at least 1")
    outer = hexagon_ball(2 * k)
    _check_coverage(sigma, outer, f"the circuit event at scale {k}")
    inner = hexagon_ball(k)
    seen = {ORIGIN}
    queue = deque(seen)
    while queue:
        h = queue.popleft()
        for g in tri_neighbors(h):
            if g in seen:
                continue
            if g not in outer:
                return False
            if g not in inner and sigma[g] > 0:
                continue
            seen.add(g)
            queue.append(g)
    return True


def crossing_rectangle(k: int, rho: float = 1.0,
                       eps: float = 0.0) -> frozenset[TriVertex]:
    """The slanted box of hexagons (r, s) with -εk <= r <= (1+ε)k and
    -εk <= s <= (ρ+ε)k; ε = 0 gives the core box that crossings traverse."""
    if k < 1:
        raise OutOfRange("box scale must be at least 1")
    if rho <= 0:
        raise OutOfRange("aspect ratio must be positive")
    if eps < 0:
        raise OutOfRange("padding must be nonnegative")
    tol = 1e-9
    lo = math.ceil(-eps * k - tol)
    rmax = math.floor((1 + eps) * k + tol)
    smax = math.floor((rho + eps) * k + tol)
    return frozenset((r, s)
                     for r in range(lo, rmax + 1)
                     for s in range(lo, smax + 1))


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
        raise OutOfDomain("the origin hexagon has no spin")
    if target not in sigma:
        raise OutOfDomain(f"hexagon {target} has no spin")
    return _sign_crossing(sigma, sigma, (ORIGIN,), frozenset([target]), 1)


# ---------------------------------------------------------------------------
# named events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventSpec:
    """A named event, with everything needed to route and validate it.

    ``side`` says which representation the predicate consumes: "spins" gets
    a mapping from free hexagons to signs, "loops" gets the set of domain
    wall edges.  The required fields give the support the predicate relies
    on, and ``suggested_free`` is a simply connected free set large enough
    to estimate the event by sampling.  ``sampler.run_chain`` evaluates the
    kinds ``annulus_loop`` and ``plus_circuit`` on its own sign array, by
    kind and scale, and calls the predicate of every other spec.
    """

    kind: str
    side: str
    params: tuple[tuple[str, object], ...]
    predicate: Callable[[object], bool] = field(compare=False)
    required_hexagons: frozenset[TriVertex] = field(
        default=frozenset(), compare=False)
    required_edges: frozenset[HexEdge] = field(
        default=frozenset(), compare=False)
    suggested_free: frozenset[TriVertex] = field(
        default=frozenset(), compare=False)

    def __call__(self, config) -> bool:
        return self.predicate(config)

    def to_json(self) -> dict:
        return {"type": self.kind, **dict(self.params)}

    def validate_support(self, system: SpinSystem) -> None:
        """Raise unless the system's free set can express the event.

        Spin events read free spins only, so their required hexagons must
        be free; wall events need each required edge to border a free
        hexagon, otherwise its wall state is frozen rather than sampled.
        """
        free = set(system.free)
        if self.side == "spins":
            missing = set(self.required_hexagons) - free
            if missing:
                raise DomainTooSmall(
                    f"event {self.kind} needs {len(missing)} more free "
                    f"hexagons, e.g. {sorted(missing)[:3]}")
        else:
            for e in self.required_edges:
                a, b = edge_hexagons(e)
                if a not in free and b not in free:
                    raise DomainTooSmall(
                        f"event {self.kind} needs walls on {e}, which "
                        f"borders no free hexagon")


def _integer(value, what: str) -> int:
    """``value`` as an int; OutOfRange unless it is an integral number."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRange(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_scale(obj: Mapping, kind: str) -> int:
    k = _integer(obj.get("k"), f"the scale k of event {kind!r}")
    if k < 1:
        raise OutOfRange(f"event {kind!r} needs a scale k >= 1")
    return k


def event_from_json(obj: Mapping) -> EventSpec:
    """Build an :class:`EventSpec` from its JSON description.

    Accepted forms:
      {"type": "annulus_loop", "k": 4}
      {"type": "plus_circuit", "k": 4}
      {"type": "crossing", "k": 4, "rho": 1.0, "eps": 0.25}
      {"type": "trapeze", "k": 4, "sign": 1, "vertical": true}
      {"type": "two_point", "v": [3, 1]}
    """
    kind = obj.get("type")
    if kind == "annulus_loop":
        k = _require_scale(obj, kind)
        _, annulus = ball_and_annulus(k)
        return EventSpec(
            kind=kind, side="loops", params=(("k", k),),
            predicate=lambda walls: annulus_loop_event(walls, k),
            required_edges=annulus,
            suggested_free=hexagon_ball(2 * k + 1))
    if kind == "plus_circuit":
        k = _require_scale(obj, kind)
        outer = hexagon_ball(2 * k)
        return EventSpec(
            kind=kind, side="spins", params=(("k", k),),
            predicate=lambda sg: plus_circuit_event(sg, k),
            required_hexagons=outer, suggested_free=outer)
    if kind == "crossing":
        k = _require_scale(obj, kind)
        rho = float(obj.get("rho", 1.0))
        eps = float(obj.get("eps", 0.0))
        padded = crossing_rectangle(k, rho, eps)
        return EventSpec(
            kind=kind, side="spins",
            params=(("k", k), ("rho", rho), ("eps", eps)),
            predicate=lambda sg: crossing_event(sg, (k, rho, eps)),
            required_hexagons=padded, suggested_free=padded)
    if kind == "trapeze":
        k = _require_scale(obj, kind)
        sign = _integer(obj.get("sign", 1), "the sign of event 'trapeze'")
        vertical = bool(obj.get("vertical", True))
        if sign not in (-1, 1):
            raise OutOfRange("sign must be -1 or +1")
        box = rhombus_hexagons(k)
        return EventSpec(
            kind=kind, side="spins",
            params=(("k", k), ("sign", sign), ("vertical", vertical)),
            predicate=lambda sg: trapeze_crossing_event(sg, k, sign, vertical),
            required_hexagons=box, suggested_free=box)
    if kind == "two_point":
        v = obj.get("v")
        if v is None or len(v) != 2:
            raise OutOfRange("event 'two_point' needs a hexagon v = [r, s]")
        target = tuple(_integer(c, "a coordinate of v") for c in v)
        radius = max(tri_distance(ORIGIN, target), 1)
        return EventSpec(
            kind=kind, side="spins", params=(("v", target),),
            predicate=lambda sg: two_point_event(sg, target),
            required_hexagons=frozenset((ORIGIN, target)),
            suggested_free=hexagon_ball(radius))
    raise OutOfRange(f"unknown event type {kind!r}")
