"""Mechanical verification of finite inequalities of the loop and spin models.

Every function here checks one exact statement (a correlation inequality, a
measure identity, or a weight bound) by exhaustive enumeration on a small
instance and returns a :class:`CheckReport`.  Nothing is sampled: the
statements are exact, so the verdicts are too, up to floating-point
tolerances.  ``ALGEBRAIC_TOL`` covers identities between O(1) quantities;
``SERIES_TOL`` covers quantities assembled from large weighted sums.

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
from itertools import product
from typing import Callable, Iterable, Mapping

from .configs import (
    Params,
    SpinSystem,
    assignment_counts,
    assignment_index,
    border_edges,
    edge_components,
    log_spin_weight,
    loop_count,
    spins_to_loops,
)
from .errors import DomainNotSymmetric, EventNotIncreasing, OutOfRange, TooLarge
from .exact import (
    MAX_SPIN_SITES,
    _as_walks,
    _edges_of,
    _free_hexagons,
    _log_Z,
    _region,
    _spin_system,
    catalan,
    even_subgraphs,
    exact_event_probability,
    parafermion_field,
    path_sum,
    relative_weight,
    x_critical,
)
from .lattice import (
    Domain,
    hexagon_components,
    mirror_tri,
    tri_neighbors,
    triangle_domain,
)
from .observables import _sign_crossing

ALGEBRAIC_TOL = 1e-12
SERIES_TOL = 1e-9
#: edges of the bordering set that check_bijection enumerates at most
MAX_BIJECTION_EDGES = 40


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
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

def check_fkg_lattice(region, tau, params: Params, *,
                      max_sites: int = 12) -> CheckReport:
    """Scan every assignment and pair of free hexagons for the lattice
    condition: weight(both up) * weight(both down) must be at least the
    product of the two mixed weights.

    On failure the report carries a witness: the surrounding assignment, the
    offending pair, and the quadruple of weights.
    """
    system = _spin_system(region, tau)
    m = len(system.free)
    if m > max_sites:
        raise TooLarge(f"{m} free hexagons exceed the pair-scan cap "
                       f"of {max_sites}")
    counts = assignment_counts(system, max_sites)
    logw = []
    for bits in range(1 << m):
        signs = [1 if bits >> i & 1 else -1 for i in range(m)]
        logw.append(log_spin_weight(params, counts[assignment_index(signs)]))

    worst = math.inf
    at = None
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


def _verify_increasing(system: SpinSystem, event: Callable, name: str) -> None:
    """Raise unless the event is monotone under raising any single spin."""
    sites = system.free
    for signs in product((-1, 1), repeat=len(sites)):
        if not event(dict(zip(sites, signs))):
            continue
        for i, s in enumerate(signs):
            if s == 1:
                continue
            raised = dict(zip(sites, signs))
            raised[sites[i]] = 1
            if not event(raised):
                raise EventNotIncreasing(
                    f"event {name!r} is lost when the spin at {sites[i]} "
                    f"is raised")


def check_cbc(region, tau_low, tau_high, params: Params, events, *,
              max_sites: int = MAX_SPIN_SITES) -> CheckReport:
    """Compare boundary conditions: under a pointwise larger frame, every
    increasing event must be at least as likely.

    ``events`` maps names to predicates on the free-spin assignment (or is a
    bare iterable of predicates).  Each predicate is first verified to be
    increasing by brute force.
    """
    low = _spin_system(region, tau_low)
    high = _spin_system(region, tau_high)
    keys = set(low.fixed) | set(high.fixed)
    ordered = low.sea <= high.sea and all(
        low.fixed.get(h, low.sea) <= high.fixed.get(h, high.sea)
        for h in keys)
    if not ordered:
        raise OutOfRange("boundary conditions are not pointwise ordered")

    if isinstance(events, Mapping):
        named = list(events.items())
    elif callable(events):
        named = [(getattr(events, "__name__", "event"), events)]
    else:
        named = [(getattr(fn, "__name__", f"event_{i}"), fn)
                 for i, fn in enumerate(events)]
    if not named:
        raise OutOfRange("no events to compare")

    if len(low.free) > max_sites:
        raise TooLarge(f"{len(low.free)} free hexagons exceed the cap "
                       f"of {max_sites}")
    rows = []
    for name, fn in named:
        _verify_increasing(low, fn, name)
        p_low = exact_event_probability(low, None, params, fn,
                                        max_sites=max_sites)
        p_high = exact_event_probability(high, None, params, fn,
                                         max_sites=max_sites)
        rows.append({"event": name, "low": p_low, "high": p_high,
                     "gap": p_high - p_low})
    holds = all(row["gap"] >= -ALGEBRAIC_TOL for row in rows)
    return CheckReport(
        name="cbc", holds=holds, in_region=params.in_monotone_region,
        details={"events": rows})


def check_several_faces(region, tau, faces_a, faces_b, params: Params, *,
                        max_sites: int = MAX_SPIN_SITES) -> CheckReport:
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

    def constant_on(faces, sign):
        return lambda sigma: all(sigma[h] == sign for h in faces)

    def joint(sign_a, sign_b):
        ev_a = constant_on(fa, sign_a)
        ev_b = constant_on(fb, sign_b)
        return exact_event_probability(
            system, None, params, lambda sigma: ev_a(sigma) and ev_b(sigma),
            max_sites=max_sites)

    p_pp = joint(1, 1)
    p_mm = joint(-1, -1)
    p_pm = joint(1, -1)
    p_mp = joint(-1, 1)
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

def check_domain_markov_and_duality(region, sub_region, tau, params: Params,
                                    *, max_sites: int = MAX_SPIN_SITES,
                                    ) -> CheckReport:
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
            free, {h: s for h, s in values.items() if h not in free})
    else:
        shell_signs = {h: int(tau) for h in shell}
        outer = _spin_system(free, tau)
    m = len(outer.free)
    if m > max_sites:
        raise TooLarge(f"{m} free hexagons exceed the cap of {max_sites}")

    # the inner system keeps the whole known exterior as fixed context, so
    # that connections running through it are counted the same way
    inner_fixed = dict(outer.fixed)
    inner_fixed.update(shell_signs)
    inner = SpinSystem(sub, inner_fixed, sea=outer.sea)

    outer_counts = assignment_counts(outer, max_sites)
    pos = {h: i for i, h in enumerate(outer.free)}
    cond = []
    direct = []
    for sub_signs, counts in zip(product((-1, 1), repeat=len(inner.free)),
                                 assignment_counts(inner, max_sites)):
        signs = [0] * m
        for h, s in shell_signs.items():
            signs[pos[h]] = s
        for h, s in zip(inner.free, sub_signs):
            signs[pos[h]] = s
        cond.append(math.exp(log_spin_weight(
            params, outer_counts[assignment_index(signs)])))
        direct.append(math.exp(log_spin_weight(params, counts)))
    zc, zd = sum(cond), sum(direct)
    markov_gap = max(abs(c / zc - d / zd) for c, d in zip(cond, direct))

    flipped = SpinSystem(outer.free,
                         {h: -s for h, s in outer.fixed.items()},
                         sea=-outer.sea)
    neg = Params(n=params.n, x=params.x, h=-params.h, hp=-params.hp)
    flipped_counts = assignment_counts(flipped, max_sites)
    w_out = []
    w_flip = []
    for signs, counts in zip(product((-1, 1), repeat=m), outer_counts):
        w_out.append(math.exp(log_spin_weight(params, counts)))
        w_flip.append(math.exp(log_spin_weight(neg, flipped_counts[
            assignment_index([-s for s in signs])])))
    zo, zf = sum(w_out), sum(w_flip)
    flip_gap = max(abs(a / zo - b / zf) for a, b in zip(w_out, w_flip))

    holds = markov_gap <= ALGEBRAIC_TOL and flip_gap <= ALGEBRAIC_TOL
    return CheckReport(
        name="domain_markov_and_duality", holds=holds, in_region=True,
        details={"markov_gap": markov_gap, "flip_gap": flip_gap,
                 "n_sub_assignments": 1 << len(inner.free),
                 "n_assignments": 1 << m})


def check_bijection(region, tau, params: Params, *,
                    max_sites: int = MAX_SPIN_SITES) -> CheckReport:
    """Push the spin measure through the domain-wall map and compare it,
    configuration by configuration, with the loop measure on the bordering
    edges.

    The loop side is enumerated independently (even subgraphs by parity
    search, weighted by edge count and loop count), so the agreement of the
    two distributions is a genuine two-route check.  Needs a constant frame
    and no external fields.
    """
    if params.h != 0.0 or params.hp != 0.0:
        raise OutOfRange("the spin-loop correspondence needs h = hp = 0")
    system = _spin_system(region, tau)
    ring_signs = set(system.fixed.values()) | {system.sea}
    if len(ring_signs) != 1:
        raise OutOfRange("the correspondence check needs a constant frame")
    m = len(system.free)
    if m > max_sites:
        raise TooLarge(f"{m} free hexagons exceed the cap of {max_sites}")

    edges = border_edges(system.free)
    verts = {v for e in edges for v in e}
    cycle_rank = len(edges) - len(verts) + len(edge_components(edges))
    if cycle_rank != m:
        raise OutOfRange("the free set must fill a simply connected region "
                         f"(cycle rank {cycle_rank} for {m} hexagons)")
    if len(edges) > MAX_BIJECTION_EDGES:
        raise TooLarge(f"{len(edges)} edges exceed the enumeration cap "
                       f"of {MAX_BIJECTION_EDGES}")

    spin_side: dict = {}
    for signs, counts in zip(product((-1, 1), repeat=m),
                             assignment_counts(system, max_sites)):
        w = math.exp(log_spin_weight(params, counts))
        walls = spins_to_loops(system, signs)
        spin_side[walls] = spin_side.get(walls, 0.0) + w
    z_spin = sum(spin_side.values())

    log_x, log_n = math.log(params.x), math.log(params.n)
    loop_side = {}
    for chosen in even_subgraphs(edges):
        cfg = frozenset(chosen)
        loop_side[cfg] = math.exp(len(cfg) * log_x + loop_count(cfg) * log_n)
    z_loop = sum(loop_side.values())

    support_match = set(spin_side) == set(loop_side)
    max_diff = math.inf
    if support_match:
        max_diff = max(abs(spin_side[c] / z_spin - loop_side[c] / z_loop)
                       for c in loop_side)
    empty = loop_side.get(frozenset(), 0.0) / z_loop
    return CheckReport(
        name="bijection",
        holds=support_match and max_diff <= ALGEBRAIC_TOL,
        in_region=True,
        details={"n_configs": len(loop_side), "support_match": support_match,
                 "max_diff": max_diff, "empty_probability": empty})


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
    ratio = 0.0 if log_defect == -math.inf else math.exp(log_defect - log_full)
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


def check_triangle_lower_bound(side: int, n: float) -> CheckReport:
    """At the critical edge weight, the sum of relative weights of walks
    from the bottom-middle boundary vertex of a triangular domain to its
    left side is at least the critical weight squared."""
    tri = triangle_domain(side)
    x = x_critical(n)
    params = Params(n=n, x=x)
    ps = path_sum(tri.domain, tri.start_vertex, tri.left_boundary, params)
    threshold = x * x
    return CheckReport(
        name="triangle_lower_bound",
        holds=ps.value >= threshold * (1.0 - SERIES_TOL),
        in_region=1.0 <= n <= 2.0,
        details={"value": ps.value, "from_walks": ps.from_walks,
                 "n_walks": ps.n_walks, "threshold": threshold,
                 "side": side, "x": x})


def check_contour_identity(side: int, n: float, x: float) -> CheckReport:
    """Sum the edge observable over the three sides of a triangular domain
    with cube-root-of-unity phases.

    At the critical weight the phased sum vanishes to rounding; away from it
    the residual is macroscopic.  The unphased bottom sum must stay real and
    at least one (the start edge contributes exactly one).
    """
    tri = triangle_domain(side)
    dom = tri.domain
    params = Params(n=n, x=x)
    field = parafermion_field(dom, tri.start_edge, params)
    left = sum(field[dom.spokes[b]] for b in tri.left_boundary)
    right = sum(field[dom.spokes[b]] for b in tri.right_boundary)
    bottom = sum(field[dom.spokes[b]] for b in tri.bottom_boundary)
    lhs = (cmath.exp(-2j * math.pi / 3) * left
           + cmath.exp(2j * math.pi / 3) * right + bottom)
    magnitude = sum(abs(field[dom.spokes[b]]) for b in
                    tri.left_boundary + tri.right_boundary
                    + tri.bottom_boundary)
    residual = abs(lhs)
    relative = residual / magnitude if magnitude > 0 else math.inf
    xc = x_critical(n)
    holds = (relative <= SERIES_TOL
             and bottom.real >= 1.0 - SERIES_TOL
             and abs(bottom.imag) <= SERIES_TOL)
    return CheckReport(
        name="contour_identity", holds=holds,
        in_region=abs(x - xc) <= ALGEBRAIC_TOL,
        details={"residual": residual, "relative_residual": relative,
                 "magnitude": magnitude, "bottom_sum": bottom,
                 "side": side, "x_critical": xc})


# ---------------------------------------------------------------------------
# crossings of symmetric regions
# ---------------------------------------------------------------------------

def check_symmetric_domain(region, plus_arcs, n: float, x: float, *,
                           max_sites: int = MAX_SPIN_SITES) -> CheckReport:
    """Crossing bound for a mirror-symmetric region with mixed boundary.

    ``plus_arcs`` is a pair of contiguous runs of boundary hexagons that are
    frozen to plus; every other hexagon outside the region, the sea
    included, is frozen to minus.  The region must be symmetric under a
    vertical mirror that carries the minus part of the boundary ring into
    the plus arcs.  The probability that the two plus arcs are joined by a
    path of pluses is then at least 1/(1+n).
    """
    free = frozenset(tuple(h) for h in region)
    if not free:
        raise OutOfRange("the region must be nonempty")
    try:
        arc_a, arc_b = plus_arcs
    except (TypeError, ValueError):
        raise OutOfRange("plus_arcs must be a pair of hexagon runs") from None
    sa = frozenset(tuple(h) for h in arc_a)
    sb = frozenset(tuple(h) for h in arc_b)
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
    minus = ring - sa - sb
    minus_runs = hexagon_components(minus)
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

    params = Params(n=n, x=x)
    arcs = {h: 1 for h in sa | sb}
    system = SpinSystem(free, arcs, sea=-1)

    def crossing(sigma) -> bool:
        signs = {**sigma, **arcs}
        return _sign_crossing(signs, signs, sa, sb, 1)

    probability = exact_event_probability(system, None, params, crossing,
                                          max_sites=max_sites)
    bound = 1.0 / (1.0 + n)
    return CheckReport(
        name="symmetric_domain",
        holds=probability >= bound - ALGEBRAIC_TOL,
        in_region=n >= 1.0 and n * x * x <= 1.0 + ALGEBRAIC_TOL,
        details={"probability": probability, "bound": bound,
                 "slack": probability - bound, "axis": axis,
                 "arc_sizes": (len(sa), len(sb)),
                 "n_minus_runs": len(minus_runs)})
