"""Mechanical verification of finite inequalities of the loop and spin models.

Every function here checks one exact statement (a correlation inequality, a
measure identity, or a weight bound) by exhaustive enumeration on a small
instance and returns a :class:`CheckReport`.  The enumeration does not
depend on the weights: a spin check takes a prebuilt :class:`SpinSystem`,
which keeps what it enumerates (see ``exact``), and a triangle check a
prebuilt ``TriangleDomain``, so a sweep of a parameter grid enumerates each
instance once.  Nothing is sampled, so the verdicts are exact up to
floating-point tolerances.  ``ALGEBRAIC_TOL`` covers identities between
O(1) quantities; ``SERIES_TOL`` covers quantities from large weighted sums.

Reports never raise on a false inequality; they record it.  Exceptions are
reserved for malformed inputs: oversized instances, unordered boundary
conditions, events that are not increasing, or regions without the symmetry
a check requires.  Each report carries an ``in_region`` flag telling whether
the parameters sit in the regime where the statement is asserted; outside of
it a failing report is unremarkable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping

from .configs import (
    Params,
    SpinSystem,
    assignment_index,
    assignment_log_weights,
    border_edges,
    edge_components,
    free_sites,
    sign_flood,
    wall_masks,
)
from .errors import DomainNotSymmetric, EventNotIncreasing, OutOfRange
from .exact import (
    _as_walks,
    _edges_of,
    _free_hexagons,
    _log_Z,
    _region,
    _spin_system,
    _truth,
    catalan,
    exact_event_probability,
    path_sum,
    relative_weight,
    sigma_exponent,
    spin_partition,
    sum_in_order,
    x_critical,
)
from .lattice import (
    Domain,
    TriangleDomain,
    hex_xy,
    hexagon_components,
    mirror_tri,
    tri_neighbors,
    triangle_domain,
)

ALGEBRAIC_TOL = 1e-12
SERIES_TOL = 1e-9
#: free hexagons whose assignments and pairs check_fkg_lattice scans at most
MAX_PAIR_SCAN_SITES = 12


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(value):
    # Mapping last, after dict: an isinstance test against typing's Mapping
    # goes through its slow subclass hook
    if isinstance(value, float):
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (dict, Mapping)):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class CheckReport:
    """Verdict of one check: what was tested, whether it held, and numbers.

    ``in_region`` records whether the parameters lie in the regime where the
    inequality is claimed; a failure outside it is expected, one inside it is
    a real failure.
    """

    name: str
    holds: bool
    in_region: bool
    details: dict

    @property
    def failed_in_region(self) -> bool:
        return self.in_region and not self.holds

    def to_json(self) -> dict:
        return {"name": self.name, "holds": bool(self.holds),
                "in_region": bool(self.in_region),
                "details": _jsonable(self.details)}


def _loop_region(params: Params) -> bool:
    """The regime n >= 1, x <= 1/sqrt(n) without external fields."""
    return (params.h == 0.0 and params.hp == 0.0 and params.n >= 1.0
            and params.x <= params.n ** -0.5 + ALGEBRAIC_TOL)


# ---------------------------------------------------------------------------
# the lattice condition and its consequences
# ---------------------------------------------------------------------------

def check_fkg_lattice(region, tau, params: Params) -> CheckReport:
    """Scan every assignment and pair of free hexagons for the lattice
    condition: weight(both up) * weight(both down) must be at least the
    product of the two mixed weights.

    On failure the report carries a witness: the surrounding assignment, the
    offending pair, and the quadruple of weights.
    """
    system = _spin_system(region, tau)
    m = free_sites(system, MAX_PAIR_SCAN_SITES, "pair-scan cap")
    weights = assignment_log_weights(system, params)
    logw = [weights[i] for i in _bit_order(m)]

    worst, at = math.inf, None
    for iu in range(m):
        bu = 1 << iu
        for iv in range(iu + 1, m):
            bv = 1 << iv
            both = bu | bv
            for bits in range(1 << m):
                if bits & both:
                    continue
                gap = (logw[bits | both] + logw[bits]
                       - logw[bits | bu] - logw[bits | bv])
                if gap < worst:
                    worst = gap
                    at = (iu, iv, bits)

    holds = worst >= -ALGEBRAIC_TOL
    witness = None
    if not holds:
        iu, iv, bits = at
        rest = {h: (1 if bits >> i & 1 else -1)
                for i, h in enumerate(system.free) if i not in (iu, iv)}
        witness = {
            "u": system.free[iu],
            "v": system.free[iv],
            "sigma": rest,
            "weights": tuple(math.exp(logw[b]) for b in
                             (bits | (1 << iu) | (1 << iv), bits,
                              bits | (1 << iu), bits | (1 << iv))),
        }
    return CheckReport(
        name="fkg_lattice", holds=holds,
        in_region=params.in_monotone_region,
        details={"worst_log_gap": worst, "witness": witness,
                 "n_assignments": 1 << m, "n_pairs": m * (m - 1) // 2})


@lru_cache(maxsize=MAX_PAIR_SCAN_SITES + 1)
def _bit_order(m: int) -> tuple[int, ...]:
    """``assignment_index`` of each assignment whose bit i is the sign of
    free hexagon i (1 for plus), in the pair scan's order of bits."""
    return tuple(assignment_index([bits >> i & 1 or -1 for i in range(m)])
                 for bits in range(1 << m))


def _verify_increasing(system: SpinSystem, event: Callable, name: str) -> None:
    """Raise unless the event is monotone under raising any single spin."""
    truth = _truth(system, event, "spins")
    m = len(system.free)
    for index, holds in enumerate(truth):
        for i in range(m):
            bit = 1 << m - 1 - i
            if holds and not index & bit and not truth[index | bit]:
                raise EventNotIncreasing(
                    f"event {name!r} is lost when the spin at "
                    f"{system.free[i]} is raised")


def check_cbc(region, tau_low, tau_high, params: Params,
              events) -> CheckReport:
    """Compare boundary conditions: under a pointwise larger frame, every
    increasing event must be at least as likely.

    ``events`` maps names to predicates on the free-spin assignment (or is
    one predicate).  Each predicate is first verified, once per system, to
    be increasing over every assignment.  Either frame may be given as the
    prebuilt SpinSystem of the region in it.
    """
    low = _spin_system(region, tau_low)
    high = _spin_system(region, tau_high)
    keys = set(low.fixed) | set(high.fixed)
    ordered = low.free == high.free and low.sea <= high.sea and all(
        low.fixed.get(h, low.sea) <= high.fixed.get(h, high.sea)
        for h in keys)
    if not ordered:
        raise OutOfRange("frames are not pointwise ordered on one region")

    named = (list(events.items()) if isinstance(events, Mapping)
             else [(getattr(events, "__name__", "event"), events)])
    if not named:
        raise OutOfRange("no events to compare")

    total_low = spin_partition(low, params)
    total_high = spin_partition(high, params)
    rows = []
    for name, fn in named:
        low.kept(("increasing", fn), lambda: _verify_increasing(low, fn, name))
        p_low = exact_event_probability(low, None, params, fn,
                                        total=total_low)
        p_high = exact_event_probability(high, None, params, fn,
                                         total=total_high)
        rows.append({"event": name, "low": p_low, "high": p_high,
                     "gap": p_high - p_low})
    holds = all(row["gap"] >= -ALGEBRAIC_TOL for row in rows)
    return CheckReport(
        name="cbc", holds=holds, in_region=params.in_monotone_region,
        details={"events": rows})


def check_several_faces(region, tau, faces_a, faces_b,
                        params: Params) -> CheckReport:
    """Verify the two-face inequality: the chance that both hexagon sets are
    all plus times the chance both are all minus dominates the product of
    the two mixed chances."""
    system = _spin_system(region, tau)
    fa = frozenset(tuple(h) for h in faces_a)
    fb = frozenset(tuple(h) for h in faces_b)
    free = set(system.free)
    if not fa or not fb:
        raise OutOfRange("both hexagon sets must be nonempty")
    if not fa <= free or not fb <= free:
        raise OutOfRange("both hexagon sets must consist of free hexagons")

    total = spin_partition(system, params)
    at = system._framed_index

    def joint(sign_a, sign_b):
        # one kept event per face sets and signs: index tests on the array
        wants = [(at[h], sign_a) for h in fa] + [(at[h], sign_b) for h in fb]
        event = system.kept(("faces", fa, fb, sign_a, sign_b), lambda: (
            lambda full: all(full[i] == s for i, s in wants)))
        return exact_event_probability(system, None, params, event,
                                       side="framed", total=total)

    p_pp, p_mm, p_pm, p_mp = (joint(a, b) for a, b in
                              ((1, 1), (-1, -1), (1, -1), (-1, 1)))
    lhs = p_pp * p_mm
    rhs = p_pm * p_mp
    return CheckReport(
        name="several_faces", holds=lhs >= rhs - ALGEBRAIC_TOL,
        in_region=params.in_monotone_region,
        details={"p_pp": p_pp, "p_mm": p_mm, "p_pm": p_pm, "p_mp": p_mp,
                 "lhs": lhs, "rhs": rhs, "gap": lhs - rhs})


# ---------------------------------------------------------------------------
# measure identities
# ---------------------------------------------------------------------------

def check_domain_markov_and_duality(region, sub_region, tau,
                                    params: Params) -> CheckReport:
    """Check two exact identities of the spin measure.

    First, conditioning the measure on the region to the frame's values
    outside a sub-region reproduces the measure on the sub-region.  For a
    mapping ``tau`` the values on ``region`` minus ``sub_region`` must be
    supplied by the mapping; a constant ``tau`` fills everything.  Second,
    flipping every spin carries the measure to the one with negated frame
    and negated external fields.
    """
    free = set(_free_hexagons(region))
    sub = {tuple(h) for h in sub_region}
    if not sub:
        raise OutOfRange("the sub-region must be nonempty")
    if not sub <= free:
        raise OutOfRange("the sub-region must consist of free hexagons")

    shell = free - sub
    if isinstance(tau, Mapping):
        # the mapping plays two roles: frame for the region, and
        # conditioning values on the part of the region outside the
        # sub-region
        values = {tuple(h): int(s) for h, s in tau.items()}
        clash = sorted(h for h in values if h in sub)
        if clash:
            raise OutOfRange(f"tau must leave the sub-region free: {clash}")
        missing = sorted(h for h in shell if h not in values)
        if missing:
            raise OutOfRange("tau must fix every hexagon of the region "
                             f"outside the sub-region; missing {missing}")
        shell_signs = {h: values[h] for h in shell}
        outer = _spin_system(
            region, {h: s for h, s in values.items() if h not in free})
    else:
        shell_signs = {h: int(tau) for h in shell}
        outer = _spin_system(region, tau)
    m = free_sites(outer)

    def restrict() -> tuple[SpinSystem, list[int]]:
        # the inner system keeps the whole known exterior as fixed context,
        # so that connections running through it are counted the same way;
        # each inner assignment's index among the outer ones goes with it
        inner = SpinSystem(sub, {**outer.fixed, **shell_signs}, sea=outer.sea)
        index = []
        for sub_signs in product((-1, 1), repeat=len(inner.free)):
            signs = {**shell_signs, **dict(zip(inner.free, sub_signs))}
            index.append(assignment_index(signs[h] for h in outer.free))
        return inner, index

    inner, index = outer.kept(("inner", frozenset(shell_signs.items())),
                              restrict)
    outer_logw = assignment_log_weights(outer, params)
    cond = [math.exp(outer_logw[at]) for at in index]
    direct = [math.exp(logw) for logw in assignment_log_weights(inner, params)]
    zc, zd = sum_in_order(cond), sum_in_order(direct)
    markov_gap = max(abs(c / zc - d / zd) for c, d in zip(cond, direct))

    neg = Params(n=params.n, x=params.x, h=-params.h, hp=-params.hp)
    # negating every spin reverses the product order of the assignments
    w_out = [math.exp(logw) for logw in outer_logw]
    w_flip = [math.exp(logw) for logw in
              reversed(assignment_log_weights(outer.negated, neg))]
    zo, zf = sum_in_order(w_out), sum_in_order(w_flip)
    flip_gap = max(abs(a / zo - b / zf) for a, b in zip(w_out, w_flip))

    holds = markov_gap <= ALGEBRAIC_TOL and flip_gap <= ALGEBRAIC_TOL
    return CheckReport(
        name="domain_markov_and_duality", holds=holds, in_region=True,
        details={"markov_gap": markov_gap, "flip_gap": flip_gap,
                 "n_sub_assignments": 1 << len(inner.free),
                 "n_assignments": 1 << m})


def check_bijection(region, tau, params: Params) -> CheckReport:
    """Push the spin measure through the domain-wall map and compare it,
    configuration by configuration, with the loop measure on the bordering
    edges.

    The free set must be simply connected, so the edges have cycle rank m
    and hold exactly 2^m even subgraphs: the 2^m wall sets are all of them
    exactly when they are distinct even subsets of the edges.  The wall
    sets are int masks over the edges (``configs.wall_masks``, one Gray-code
    walk).  The loop side is the even wall sets, weighted by edge count and
    loop count, both read off the masks alone (:func:`_even_wall_sets`);
    ``n_configs`` counts them, 2^m whenever the check holds.  Needs a
    constant frame and no external fields.
    """
    if params.h != 0.0 or params.hp != 0.0:
        raise OutOfRange("the spin-loop correspondence needs h = hp = 0")
    system = _spin_system(region, tau)
    if len(set(system.fixed.values()) | {system.sea}) != 1:
        raise OutOfRange("the correspondence check needs a constant frame")
    m = free_sites(system)

    edges = border_edges(system.free)
    verts = {v for e in edges for v in e}
    cycle_rank = len(edges) - len(verts) + len(edge_components(edges))
    if cycle_rank != m:
        raise OutOfRange("the free set must fill a simply connected region "
                         f"(cycle rank {cycle_rank} for {m} hexagons)")

    spin_side: dict[int, float] = {}
    masks = wall_masks(system)
    for walls, logw in zip(masks, assignment_log_weights(system, params)):
        spin_side[walls] = spin_side.get(walls, 0.0) + math.exp(logw)
    z_spin = sum_in_order(spin_side.values())

    # ascending masks are in edge-inclusion order, which fixes the
    # rounding of z_loop
    log_x, log_n = params.log_x, params.log_n
    loop_side = {cfg: math.exp(size * log_x + loops * log_n)
                 for cfg, size, loops in system.kept(
                     "loop side", lambda: _even_wall_sets(edges, masks))}
    z_loop = sum_in_order(loop_side.values())

    support_match = len(loop_side) == 1 << m
    max_diff = math.inf
    if support_match:
        max_diff = max(abs(spin_side[c] / z_spin - loop_side[c] / z_loop)
                       for c in loop_side)
    empty = loop_side.get(0, 0.0) / z_loop
    return CheckReport(
        name="bijection",
        holds=support_match and max_diff <= ALGEBRAIC_TOL,
        in_region=True,
        details={"n_configs": len(loop_side), "support_match": support_match,
                 "max_diff": max_diff, "empty_probability": empty})


def _even_wall_sets(edges, masks) -> list[tuple[int, int, int]]:
    """``(mask, edge count, loop count)`` of each distinct even mask, in
    ascending order, where bit i of a mask is edge i with edge 0 the
    highest bit.  A set is even when it takes 0 or 2 of the edges at each
    vertex, by a popcount against the vertex's mask of incident edges; its
    loops are the parts that a flood over touching edges finds."""
    top = len(edges) - 1
    at_vertex: dict = {}
    for i, e in enumerate(edges):
        for v in e:
            at_vertex[v] = at_vertex.get(v, 0) | 1 << top - i
    stars = tuple(at_vertex.values())
    touching = [0] * len(edges)  # by bit: the edges that share a vertex
    for star in stars:
        for i in range(len(edges)):
            if star >> i & 1:
                touching[i] |= star
    out = []
    for cfg in sorted(set(masks)):
        if not all((cfg & star).bit_count() in (0, 2) for star in stars):
            continue
        loops, rest = 0, cfg
        while rest:
            seen = todo = rest & -rest
            while todo:
                low = todo & -todo
                todo ^= low
                new = touching[low.bit_length() - 1] & rest & ~seen
                seen |= new
                todo |= new
            rest ^= seen
            loops += 1
        out.append((cfg, cfg.bit_count(), loops))
    return out


# ---------------------------------------------------------------------------
# weight bounds
# ---------------------------------------------------------------------------

def check_catalan_bound(domain, defect_vertices,
                        params: Params) -> CheckReport:
    """Bound the defect partition ratio by the Catalan number over the
    square root of the loop weight to the number of defect pairs."""
    inner = _region(domain)
    edges = _edges_of(inner)
    defects = tuple(sorted({tuple(v) for v in defect_vertices}))
    if len(defects) % 2:
        raise OutOfRange("the defect set must have even size")
    if isinstance(inner, Domain):
        off = [d for d in defects if d not in set(inner.boundary)]
        if off:
            raise OutOfRange(f"defects must lie on the domain boundary: {off}")

    pairs = len(defects) // 2
    bound = catalan(pairs) / params.n ** (pairs / 2.0)
    log_full = _log_Z(edges, frozenset(), params)
    log_defect = _log_Z(edges, frozenset(defects), params)
    ratio = math.exp(log_defect - log_full)
    return CheckReport(
        name="catalan_bound", holds=ratio <= bound + SERIES_TOL,
        in_region=_loop_region(params),
        details={"ratio": ratio, "bound": bound, "slack": bound - ratio,
                 "n_pairs": pairs})


def _nested_domains(inner, outer) -> tuple[Domain, Domain]:
    """Both regions as Domains; raise unless the first lies in the second."""
    dom_in, dom_out = _region(inner), _region(outer)
    if not isinstance(dom_in, Domain) or not isinstance(dom_out, Domain):
        raise OutOfRange("both regions must be bounded domains")
    if not set(dom_in.edges) <= set(dom_out.edges):
        raise OutOfRange("the domains are not nested")
    return dom_in, dom_out


def check_domain_monotonicity(inner, outer, gamma,
                              params: Params) -> CheckReport:
    """Compare the relative weight of one walk in two nested domains.

    The weight in the larger domain may exceed the weight in the smaller by
    at most a factor of two, and by nothing at all when the walk starts and
    ends on the shared boundary.
    """
    dom_in, dom_out = _nested_domains(inner, outer)
    w_in = relative_weight(dom_in, gamma, params)
    w_out = relative_weight(dom_out, gamma, params)

    walks = _as_walks(gamma)
    shared = set(dom_in.boundary) & set(dom_out.boundary)
    at_boundary = bool(walks) and all(
        w[0] in shared and w[-1] in shared for w in walks)
    factor_two = w_out <= 2.0 * w_in * (1.0 + SERIES_TOL)
    strengthened = (w_out <= w_in * (1.0 + SERIES_TOL)) if at_boundary else None
    holds = factor_two and strengthened is not False
    return CheckReport(
        name="domain_monotonicity", holds=holds,
        in_region=_loop_region(params),
        details={"w_inner": w_in, "w_outer": w_out,
                 "ratio": (w_out / w_in) if w_in > 0 else math.inf,
                 "endpoints_on_shared_boundary": at_boundary,
                 "factor_two": factor_two, "strengthened": strengthened})


def check_triangle_lower_bound(side, n: float) -> CheckReport:
    """At the critical edge weight, the sum of relative weights of walks
    from the bottom-middle boundary vertex a of a triangular domain to its
    left side, ``sum_b Z^{a,b} / Z`` read off defect-pair tables by
    :func:`path_sum`, is at least the critical weight squared.  ``side``
    is the side length or the prebuilt TriangleDomain."""
    tri = side if isinstance(side, TriangleDomain) else triangle_domain(side)
    x = x_critical(n)
    params = Params(n=n, x=x)
    ps = path_sum(tri.domain, tri.start_vertex, tri.left_boundary, params)
    threshold = x * x
    return CheckReport(
        name="triangle_lower_bound",
        holds=ps.value >= threshold * (1.0 - SERIES_TOL),
        in_region=1.0 <= n <= 2.0,
        details={"value": ps.value, "threshold": threshold,
                 "side": tri.side, "x": x})


def check_contour_identity(side, n: float, x: float) -> CheckReport:
    """Sum the edge observable over the three sides of a triangular domain
    with cube-root-of-unity phases.

    At the critical weight the phased sum vanishes to rounding; away from it
    the residual is macroscopic.  The unphased bottom sum must stay real and
    at least one (the start edge contributes exactly one).

    All walks from the start a to a boundary vertex b share one winding W,
    so the observable at the spoke of b is 1 for b = a and otherwise
    ``x^-1 Z^{a,b} / Z exp(-i sigma W)``, from defect-pair tables
    (:func:`path_sum`), with W = pi/3 on the left side, -pi/3 on the right
    side, and +pi (-pi) on the bottom left (right) of a.  ``side`` is as
    in :func:`check_triangle_lower_bound`.
    """
    tri = side if isinstance(side, TriangleDomain) else triangle_domain(side)
    params = Params(n=n, x=x)
    a = tri.start_vertex
    sigma = sigma_exponent(n)
    # the triangle is symmetric about the vertical through a, and a
    # boundary vertex and its mirror image give equal defect-pair tables
    at = {hex_xy(v): v for v in tri.domain.boundary}
    xa = hex_xy(a)[0]
    pair_sums: dict = {}

    def field(b, winding: float) -> complex:
        if b == a:
            return 1.0 + 0j
        xb, yb = hex_xy(b)
        b = min(b, at[2 * xa - xb, yb])
        if b not in pair_sums:
            pair_sums[b] = path_sum(tri.domain, a, b, params).value
        return pair_sums[b] / x * cmath.exp(-1j * sigma * winding)

    left = [field(b, math.pi / 3) for b in tri.left_boundary]
    right = [field(b, -math.pi / 3) for b in tri.right_boundary]
    bottom = [field(b, math.pi if hex_xy(b)[0] < hex_xy(a)[0] else -math.pi)
              for b in tri.bottom_boundary]
    bottom_sum = sum_in_order(bottom)
    lhs = (cmath.exp(-2j * math.pi / 3) * sum_in_order(left)
           + cmath.exp(2j * math.pi / 3) * sum_in_order(right) + bottom_sum)
    magnitude = sum_in_order(abs(f) for f in left + right + bottom)
    residual = abs(lhs)
    relative = residual / magnitude if magnitude > 0 else math.inf
    xc = x_critical(n)
    holds = (relative <= SERIES_TOL
             and bottom_sum.real >= 1.0 - SERIES_TOL
             and abs(bottom_sum.imag) <= SERIES_TOL)
    return CheckReport(
        name="contour_identity", holds=holds,
        in_region=abs(x - xc) <= ALGEBRAIC_TOL,
        details={"residual": residual, "relative_residual": relative,
                 "magnitude": magnitude, "bottom_sum": bottom_sum,
                 "side": tri.side, "x_critical": xc})


# ---------------------------------------------------------------------------
# crossings of symmetric regions
# ---------------------------------------------------------------------------

def check_symmetric_domain(region, plus_arcs, n: float,
                           x: float) -> CheckReport:
    """Crossing bound for a mirror-symmetric region with mixed boundary.

    ``plus_arcs`` is a pair of contiguous runs of boundary hexagons that are
    frozen to plus; every other hexagon outside the region, the sea
    included, is frozen to minus.  The region must be symmetric under a
    vertical mirror that carries the minus part of the boundary ring into
    the plus arcs.  The probability that the two plus arcs are joined by a
    path of pluses is then at least 1/(1+n).  ``region`` may be the
    prebuilt SpinSystem of the region in that frame, where the crossing is
    an index flood over its framed sign array (``configs.sign_flood``);
    the system keeps the validated arcs and mirror, and the flood, per
    pair of arcs.
    """
    try:
        arc_a, arc_b = plus_arcs
    except (TypeError, ValueError):
        raise OutOfRange("plus_arcs must be a pair of hexagon runs") from None
    sa = frozenset(tuple(h) for h in arc_a)
    sb = frozenset(tuple(h) for h in arc_b)
    if isinstance(region, SpinSystem):
        system = region
        axis, n_runs = system.kept(("symmetric frame", sa, sb), lambda:
                                   _symmetric_frame(system.free, sa, sb,
                                                    system.fixed))
    else:
        free = frozenset(_free_hexagons(region))
        axis, n_runs = _symmetric_frame(free, sa, sb)
        system = SpinSystem(free, {h: 1 for h in sa | sb}, sea=-1)
    # one event per pair of arcs, whose truth the system keeps
    event = system.kept(("crossing", sa, sb), lambda: sign_flood(
        system, set(system.free) | sa | sb, sa, sb, 1))
    probability = exact_event_probability(system, None, Params(n, x),
                                          event, side="framed")
    bound = 1.0 / (1.0 + n)
    return CheckReport(
        name="symmetric_domain",
        holds=probability >= bound - ALGEBRAIC_TOL,
        in_region=n >= 1.0 and n * x * x <= 1.0 + ALGEBRAIC_TOL,
        details={"probability": probability, "bound": bound,
                 "slack": probability - bound, "axis": axis,
                 "arc_sizes": (len(sa), len(sb)),
                 "n_minus_runs": n_runs})


def _symmetric_frame(free, sa, sb, fixed=None) -> tuple[int, int]:
    """The mirror axis of the free hexagons and the number of minus runs
    of their boundary ring under the plus arcs ``sa`` and ``sb``; raises
    unless the arcs, the mirror and a prebuilt system's ``fixed`` spins
    are as :func:`check_symmetric_domain` requires."""
    free = frozenset(free)
    if not free:
        raise OutOfRange("the region must be nonempty")
    ring = frozenset(g for h in free for g in tri_neighbors(h)) - free
    if not sa or not sb or not sa <= ring or not sb <= ring:
        raise OutOfRange("each plus arc must be a nonempty set of hexagons "
                         "bordering the region")
    if len(hexagon_components(sa)) > 1 or len(hexagon_components(sb)) > 1:
        raise OutOfRange("each plus arc must be contiguous")

    xs = [q + r for q, r in free]
    axis = min(xs) + max(xs)
    if {mirror_tri(h, axis) for h in free} != set(free):
        raise DomainNotSymmetric("the region has no vertical mirror axis")
    minus_runs = hexagon_components(ring - sa - sb)
    if len(minus_runs) > 2:
        raise OutOfRange("the minus boundary must form at most two runs")
    targets = []
    for run in minus_runs:
        image = {mirror_tri(h, axis) for h in run}
        if image <= sa:
            targets.append("a")
        elif image <= sb:
            targets.append("b")
        else:
            raise DomainNotSymmetric("a minus run does not mirror into a "
                                     "single plus arc")
    if len(targets) == 2 and targets[0] == targets[1]:
        raise DomainNotSymmetric("both minus runs mirror into the same "
                                 "plus arc")
    if fixed is not None and any(fixed[h] != 1 for h in sa | sb):
        raise OutOfRange("the system must freeze both plus arcs to plus")
    return axis, len(minus_runs)
