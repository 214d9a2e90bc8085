"""Geometric observables of loop and spin configurations.

Loop-side events (loops that surround the origin inside an annulus) and
spin-side connectivity events (circuits of pluses, box crossings, two-point
connections).  A small JSON grammar names events so that the sampler, the
exact enumerator and the command line share one vocabulary.
:func:`event_from_json` is the one place that knows each connectivity
event's geometry: the cells, starts, ends and sign of its flood, which the
spec builds on a system's framed sign array with :func:`configs.sign_flood`
for the chain and the exact route alike.

Every evaluator is a pure function of the configuration passed in, and the
geometric decisions are integer-exact.  "Surrounding" is decided by the
crossing parity of a horizontal ray from the hexagon's center: the ray meets
only vertical lattice edges, transversally, so the parity equals the winding
number test for the simple cycles that make up an even configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .configs import (
    SpinSystem,
    border_edges,
    edge_components,
    is_even_config,
    sign_flood,
)
from .errors import DomainTooSmall, InconsistentParity, OutOfRange
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
)

ORIGIN: TriVertex = (0, 0)


def _canonical_edges(omega: Iterable[HexEdge]) -> frozenset[HexEdge]:
    return frozenset(edge(u, v) for u, v in omega)


def loop_surrounds(loop: Iterable[HexEdge], h: TriVertex = ORIGIN) -> bool:
    """Whether a loop winds around the hexagon ``h``.

    Decided by the parity of crossings of the rightward ray from the
    hexagon's center, which the loop's edges can only meet transversally.
    The vertical edge between the down vertex (r, s-1, 1) and the up vertex
    (r, s, 0) is the only edge type that crosses the horizontal line
    through the centers of row-s hexagons; it sits just right of column r.
    """
    a, b = h
    crossings = sum(1 for u, v in _canonical_edges(loop)
                    if u[2] == 1 and v[2] == 0 and u[0] == v[0] >= a
                    and v[1] == b)
    return crossings % 2 == 1


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

def crossing_rectangle(k: int, rho: float = 1.0,
                       eps: float = 0.0) -> frozenset[TriVertex]:
    """The slanted box of hexagons (r, s) with -εk <= r <= (1+ε)k and
    -εk <= s <= (ρ+ε)k; ε = 0 gives the core box that crossings traverse."""
    if k < 1:
        raise OutOfRange("box scale must be at least 1")
    if not (math.isfinite(rho) and math.isfinite(eps)):
        raise OutOfRange(f"aspect ratio and padding must be finite, got "
                         f"rho={rho}, eps={eps}")
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


# ---------------------------------------------------------------------------
# named events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventSpec:
    """A named event, with everything needed to route and validate it.

    ``side`` says which representation the event reads: "spins" the signs
    of the free hexagons, "loops" the set of domain wall edges, which is
    what ``predicate`` gets (for "spins" a mapping from free hexagon to
    sign).  A spin connectivity kind has no predicate but ``framed``
    instead: given a :class:`SpinSystem`, it builds the event's predicate
    on the system's framed sign array, one :func:`configs.sign_flood`,
    which ``sampler.run_chain`` and ``exact.exact_event_probability`` both
    call.  The required fields give the support the event relies on.
    Equality reads kind, side, params and predicate; the builder takes no
    part, since one kind and params build one flood.
    """

    kind: str
    side: str
    params: tuple[tuple[str, object], ...]
    predicate: Callable[[object], bool] | None = None
    required_hexagons: frozenset[TriVertex] = field(
        default=frozenset(), compare=False)
    required_edges: frozenset[HexEdge] = field(
        default=frozenset(), compare=False)
    framed: Callable[[SpinSystem], Callable] | None = field(
        default=None, compare=False)

    def __call__(self, config) -> bool:
        return self.predicate(config)

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


def _real(value, what: str) -> float:
    """``value`` as a float; OutOfRange unless it is a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRange(f"{what} must be a number, got {value!r}")
    return float(value)


def _require_scale(obj: Mapping, kind: str) -> int:
    k = _integer(obj.get("k"), f"the scale k of event {kind!r}")
    if k < 1:
        raise OutOfRange(f"event {kind!r} needs a scale k >= 1")
    return k


def _flood_spec(kind: str, params, required, cells, starts, ends,
                sign: int, negate: bool = False) -> EventSpec:
    """A spin event that ``sign`` hexagons join one of ``starts`` to one of
    ``ends`` inside ``cells`` (every free hexagon if None), or with
    ``negate`` that they do not."""
    def framed(system: SpinSystem) -> Callable:
        joined = sign_flood(system, system.free if cells is None else cells,
                            starts, ends, sign)
        return (lambda full: not joined(full)) if negate else joined

    return EventSpec(kind=kind, side="spins", params=params,
                     required_hexagons=required, framed=framed)


#: the keys that each event kind reads; any other key is refused
_KEYS = {"annulus_loop": {"type", "k"}, "plus_circuit": {"type", "k"},
         "crossing": {"type", "k", "rho", "eps"},
         "trapeze": {"type", "k", "sign", "vertical"},
         "two_point": {"type", "v"}}


def event_from_json(obj: Mapping) -> EventSpec:
    """Build an :class:`EventSpec` from its JSON description.

    Accepted forms, each with its event:
      {"type": "annulus_loop", "k": 4}: a loop inside the radius-k edge
        annulus (:func:`lattice.ball_and_annulus`) winds around the origin;
      {"type": "plus_circuit", "k": 4}: pluses circle the radius-k ball in
        the ring out to radius 2k, that is, on a triangulated lattice, no
        non-plus ring hexagons join distance k + 1 to distance 2k;
      {"type": "crossing", "k": 4, "rho": 1.0, "eps": 0.25}: pluses cross
        the core box (eps = 0) of :func:`crossing_rectangle` from column
        r = 0 to r = k; eps only widens the support that must be free;
      {"type": "trapeze", "k": 4, "sign": 1, "vertical": true}: ``sign``
        hexagons cross the box {(r, s): 0 <= r, s <= k} from row s = k to
        s = 0, or from column r = 0 to r = k, and exactly one of a vertical
        plus and a horizontal minus crossing occurs;
      {"type": "two_point", "v": [3, 1]}: free pluses join the origin to v.
    A key that the kind does not read raises :class:`OutOfRange`.
    """
    kind = obj.get("type")
    if isinstance(kind, str) and kind in _KEYS:
        stray = sorted(set(obj) - _KEYS[kind], key=str)
        if stray:
            raise OutOfRange(f"event {kind!r} reads no key {stray[0]!r}")
    if kind == "annulus_loop":
        k = _require_scale(obj, kind)
        _, annulus = ball_and_annulus(k)
        return EventSpec(
            kind=kind, side="loops", params=(("k", k),),
            predicate=lambda walls: annulus_loop_event(walls, k),
            required_edges=annulus)
    if kind == "plus_circuit":
        k = _require_scale(obj, kind)
        outer = hexagon_ball(2 * k)
        ring = outer - hexagon_ball(k)
        return _flood_spec(
            kind, (("k", k),), outer, ring,
            [h for h in ring if tri_distance(h, ORIGIN) == k + 1],
            {h for h in ring if tri_distance(h, ORIGIN) == 2 * k}, -1,
            negate=True)
    if kind == "crossing":
        k = _require_scale(obj, kind)
        rho = _real(obj.get("rho", 1.0), "the aspect ratio rho")
        eps = _real(obj.get("eps", 0.0), "the padding eps")
        core = crossing_rectangle(k, rho, 0.0)
        return _flood_spec(
            kind, (("k", k), ("rho", rho), ("eps", eps)),
            crossing_rectangle(k, rho, eps), core,
            [h for h in core if h[0] == 0], {h for h in core if h[0] == k}, 1)
    if kind == "trapeze":
        k = _require_scale(obj, kind)
        sign = _integer(obj.get("sign", 1), "the sign of event 'trapeze'")
        vertical = obj.get("vertical", True)
        if sign not in (-1, 1):
            raise OutOfRange("sign must be -1 or +1")
        if not isinstance(vertical, bool):
            raise OutOfRange(f"'vertical' of event 'trapeze' must be true or "
                             f"false, got {vertical!r}")
        box = rhombus_hexagons(k)
        axis = 1 if vertical else 0
        return _flood_spec(
            kind, (("k", k), ("sign", sign), ("vertical", vertical)),
            box, box, [h for h in box if h[axis] == k],
            {h for h in box if h[axis] == 0}, sign)
    if kind == "two_point":
        v = obj.get("v")
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise OutOfRange("event 'two_point' needs a hexagon v = [r, s]")
        target = tuple(_integer(c, "a coordinate of v") for c in v)
        return _flood_spec(kind, (("v", target),),
                           frozenset((ORIGIN, target)), None, [ORIGIN],
                           {target}, 1)
    raise OutOfRange(f"unknown event type {kind!r}")
