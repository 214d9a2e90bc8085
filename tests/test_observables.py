"""Tests for loop statistics and spin connectivity events."""

import math
import random

import pytest

from hexloop.configs import SpinSystem, loop_count, spins_to_loops
from hexloop.errors import (
    DomainTooSmall,
    InconsistentParity,
    OutOfDomain,
    OutOfRange,
    TooLarge,
)
from hexloop.exact import exact_event_probability, x_critical
from hexloop.lattice import (
    ball_and_annulus,
    edge_hexagons,
    hexagon_ball,
    hexagon_edges,
    rhombus_hexagons,
    swap_tri,
    tri_distance,
)
from hexloop.observables import (
    EventSpec,
    LoopStats,
    annulus_loop_event,
    crossing_event,
    crossing_rectangle,
    enclosed_hexagons,
    event_from_json,
    loop_stats,
    loop_surrounds,
    plus_circuit_event,
    trapeze_crossing_event,
    tri_diameter,
    two_point_event,
)


def perimeter(hexagons):
    """Edges with exactly one side in the hexagon set: its boundary loop(s)."""
    hexes = set(hexagons)
    out = set()
    for h in hexes:
        for e in hexagon_edges(h):
            a, b = edge_hexagons(e)
            other = b if a == h else a
            if other not in hexes:
                out.add(e)
    return frozenset(out)


def ring_sigma(radius, plus_at, minus_value=-1):
    """Signs on the ball: +1 exactly on the given hexagons."""
    plus = set(plus_at)
    return {h: (1 if h in plus else minus_value) for h in hexagon_ball(radius)}


# ---------------------------------------------------------------------------
# loop statistics
# ---------------------------------------------------------------------------

def test_loop_stats_empty():
    stats = loop_stats(frozenset())
    assert stats == LoopStats((), (), (), 0)


def test_loop_stats_single_hexagon_at_origin():
    stats = loop_stats(hexagon_edges((0, 0)))
    assert stats.loop_sizes == (6,)
    assert stats.diameters == (1,)
    assert stats.surrounds_origin == (True,)
    assert stats.R == 1


def test_loop_stats_far_hexagon_does_not_surround():
    stats = loop_stats(hexagon_edges((3, 2)))
    assert stats.loop_sizes == (6,)
    assert stats.surrounds_origin == (False,)
    assert stats.R == 0


def test_loop_stats_nested_loops():
    # The boundary of the radius-2 ball: 19 hexagons, 42 adjacent pairs
    # inside, so 19*6 - 2*42 = 30 boundary edges.  It encloses hexagons up
    # to distance 4 apart, diameter 5 by the across-counting convention.
    outer = perimeter(hexagon_ball(2))
    assert len(outer) == 30
    omega = outer | set(hexagon_edges((0, 0)))
    stats = loop_stats(omega)
    assert stats.loop_sizes == (30, 6)
    assert stats.diameters == (5, 1)
    assert stats.surrounds_origin == (True, True)
    assert stats.R == 5
    assert len(stats.loop_sizes) == loop_count(omega)
    assert stats.R <= max(stats.diameters)


def test_loop_stats_rejects_defective_configuration():
    broken = [tuple(sorted(((0, 0, 0), (0, -1, 1))))]
    with pytest.raises(InconsistentParity):
        loop_stats(broken)


def test_tri_diameter_convention():
    assert tri_diameter([]) == 0
    assert tri_diameter([(4, -2)]) == 1
    assert tri_diameter([(0, 0), (1, 0)]) == 2
    # ball(1): opposite ring hexagons are distance 2 apart
    assert tri_diameter(hexagon_ball(1)) == 3


def test_enclosed_hexagons_and_surrounds():
    loop = hexagon_edges((3, 2))
    assert enclosed_hexagons(loop) == {(3, 2)}
    assert loop_surrounds(loop, (3, 2))
    assert not loop_surrounds(loop)

    boundary = perimeter(hexagon_ball(2))
    assert enclosed_hexagons(boundary) == hexagon_ball(2)
    assert loop_surrounds(boundary)
    assert loop_surrounds(boundary, (1, 0))
    assert not loop_surrounds(boundary, (3, 3))


def test_enclosed_hexagons_nonconvex_region():
    shape = {(0, 0), (1, 0), (2, 0), (2, 1)}
    loop = perimeter(shape)
    assert enclosed_hexagons(loop) == shape
    # farthest pair (0,0) and (2,1): distance 3, so diameter 4
    assert tri_diameter(shape) == 4
    stats = loop_stats(loop)
    assert stats.diameters == (4,)


# ---------------------------------------------------------------------------
# annulus loop event
# ---------------------------------------------------------------------------

def test_annulus_event_empty_and_origin_hexagon():
    assert not annulus_loop_event(frozenset(), 2)
    # the origin hexagon's corners belong to hexagons well inside the ball,
    # so its loop cannot sit inside the annulus
    assert not annulus_loop_event(hexagon_edges((0, 0)), 2)
    assert not annulus_loop_event(hexagon_edges((0, 0)), 1)


def test_annulus_event_boundary_circuits():
    # every boundary edge of ball(1) borders a distance-2 hexagon, hence has
    # both endpoints on ring-hexagon corners at scale 1
    assert annulus_loop_event(perimeter(hexagon_ball(1)), 1)
    assert annulus_loop_event(perimeter(hexagon_ball(2)), 1)
    assert not annulus_loop_event(perimeter(hexagon_ball(1)), 2)


def test_annulus_event_needs_surrounding():
    # a hexagon loop within the ring but around the wrong center
    loop = hexagon_edges((2, 0))
    _, annulus = ball_and_annulus(1)
    assert set(loop) <= annulus
    assert not annulus_loop_event(loop, 1)


def test_annulus_event_support_check():
    loop = perimeter(hexagon_ball(1))
    assert annulus_loop_event(loop, 1, support=hexagon_ball(3))
    _, annulus = ball_and_annulus(1)
    assert annulus_loop_event(loop, 1, support=annulus)
    with pytest.raises(DomainTooSmall):
        annulus_loop_event(loop, 1, support=hexagon_ball(1))
    with pytest.raises(OutOfRange):
        annulus_loop_event(loop, 0)


# ---------------------------------------------------------------------------
# plus circuit event
# ---------------------------------------------------------------------------

def test_plus_circuit_constant_spins():
    for k in (1, 2):
        plus = {h: 1 for h in hexagon_ball(2 * k)}
        minus = {h: -1 for h in hexagon_ball(2 * k)}
        assert plus_circuit_event(plus, k)
        assert not plus_circuit_event(minus, k)


def test_plus_circuit_explicit_ring():
    # + exactly on the circle of radius 2k-1 (k = 2): a circuit inside the
    # open ring, so the flood from the center stays trapped
    ring = {h for h in hexagon_ball(4) if tri_distance((0, 0), h) == 3}
    sigma = ring_sigma(4, ring)
    assert plus_circuit_event(sigma, 2)
    # breaking one cell of the circle opens an escape route
    gap = dict(sigma)
    gap[(3, 0)] = -1
    assert not plus_circuit_event(gap, 2)


def test_plus_circuit_inner_ring_does_not_count():
    # a circuit at radius 1 is inside the ball, not inside the ring
    ring1 = {h for h in hexagon_ball(2) if tri_distance((0, 0), h) == 1}
    sigma = ring_sigma(2, ring1)
    assert not plus_circuit_event(sigma, 1)


def test_plus_circuit_zigzag_detour():
    # a circuit that alternates between radii 3 and 4 around a hole at (3,0)
    ring3 = {h for h in hexagon_ball(4) if tri_distance((0, 0), h) == 3}
    detour = (ring3 - {(3, 0)}) | {(4, -1), (4, 0), (3, 1)}
    assert plus_circuit_event(ring_sigma(4, detour), 2)
    assert not plus_circuit_event(ring_sigma(4, ring3 - {(3, 0)}), 2)


def test_plus_circuit_scale_one_exhaustive():
    # at scale 1 the ring is a 12-cycle of hexagons, so the only possible
    # circuit is the full ring; the flood test must agree on all 4096 cases
    ring = sorted(hexagon_ball(2) - hexagon_ball(1))
    assert len(ring) == 12
    inner = hexagon_ball(1)
    for bits in range(1 << 12):
        plus = {ring[i] for i in range(12) if bits >> i & 1}
        sigma = {h: 1 for h in inner}
        sigma.update((h, 1 if h in plus else -1) for h in ring)
        assert plus_circuit_event(sigma, 1) == (len(plus) == 12)


def test_plus_circuit_ignores_inner_signs():
    ring = hexagon_ball(2) - hexagon_ball(1)
    with_plus_core = ring_sigma(2, ring | {(0, 0)})
    with_minus_core = ring_sigma(2, ring)
    assert plus_circuit_event(with_plus_core, 1)
    assert plus_circuit_event(with_minus_core, 1)


def test_plus_circuit_arguments():
    sigma = {h: 1 for h in hexagon_ball(2)}
    with pytest.raises(OutOfRange):
        plus_circuit_event(sigma, 0)
    with pytest.raises(DomainTooSmall):
        plus_circuit_event(sigma, 2)
    before = dict(sigma)
    plus_circuit_event(sigma, 1)
    assert sigma == before


# ---------------------------------------------------------------------------
# box crossings
# ---------------------------------------------------------------------------

def test_crossing_rectangle_shapes():
    assert crossing_rectangle(3) == {(r, s) for r in range(4) for s in range(4)}
    assert len(crossing_rectangle(4, 0.5)) == 5 * 3
    assert crossing_rectangle(2, 1.0, 0.5) == {
        (r, s) for r in range(-1, 4) for s in range(-1, 4)}
    # floor of rho*k is robust against float representation
    assert len(crossing_rectangle(3, 2.0 / 3.0)) == 4 * 3
    with pytest.raises(OutOfRange):
        crossing_rectangle(0)
    with pytest.raises(OutOfRange):
        crossing_rectangle(2, -1.0)
    with pytest.raises(OutOfRange):
        crossing_rectangle(2, 1.0, -0.1)


def test_crossing_event_constant_and_rows():
    rect = (3, 1.0, 0.0)
    core = crossing_rectangle(3)
    assert crossing_event({h: 1 for h in core}, rect)
    assert not crossing_event({h: -1 for h in core}, rect)
    row = {(r, 1) for r in range(4)}
    assert crossing_event({h: (1 if h in row else -1) for h in core}, rect)
    column = {(2, s) for s in range(4)}
    assert not crossing_event({h: (1 if h in column else -1) for h in core},
                              rect)


def test_crossing_event_uses_slant_adjacency():
    # (0,1) and (1,0) are neighbors across the short diagonal
    core = crossing_rectangle(1)
    sigma = {h: (1 if h in {(0, 1), (1, 0)} else -1) for h in core}
    assert crossing_event(sigma, (1, 1.0, 0.0))


def test_crossing_event_padding_is_checked():
    core = crossing_rectangle(3)
    sigma = {h: 1 for h in core}
    with pytest.raises(DomainTooSmall):
        crossing_event(sigma, (3, 1.0, 0.5))
    padded = {h: 1 for h in crossing_rectangle(3, 1.0, 0.5)}
    assert crossing_event(padded, (3, 1.0, 0.5))


def test_trapeze_exclusive_crossing_exhaustive():
    # in every configuration exactly one of "plus top-to-bottom" and
    # "minus left-to-right" occurs
    for k in (1, 2):
        box = sorted(rhombus_hexagons(k))
        for bits in range(1 << len(box)):
            sigma = {h: (1 if bits >> i & 1 else -1)
                     for i, h in enumerate(box)}
            tb = trapeze_crossing_event(sigma, k, 1, vertical=True)
            lr = trapeze_crossing_event(sigma, k, -1, vertical=False)
            assert tb != lr


def test_trapeze_swap_symmetry():
    rng = random.Random(416)
    box = sorted(rhombus_hexagons(3))
    for _ in range(50):
        sigma = {h: rng.choice((-1, 1)) for h in box}
        swapped = {swap_tri(h): s for h, s in sigma.items()}
        for sign in (-1, 1):
            assert (trapeze_crossing_event(sigma, 3, sign, vertical=True)
                    == trapeze_crossing_event(swapped, 3, sign,
                                              vertical=False))


def test_trapeze_arguments():
    box = rhombus_hexagons(2)
    sigma = {h: 1 for h in box}
    assert trapeze_crossing_event(sigma, 2, 1, vertical=True)
    assert not trapeze_crossing_event(sigma, 2, -1, vertical=False)
    with pytest.raises(OutOfRange):
        trapeze_crossing_event(sigma, 0)
    with pytest.raises(OutOfRange):
        trapeze_crossing_event(sigma, 2, 0)
    with pytest.raises(DomainTooSmall):
        trapeze_crossing_event({(0, 0): 1}, 2)


# ---------------------------------------------------------------------------
# two point connectivity
# ---------------------------------------------------------------------------

def test_two_point_at_origin():
    assert two_point_event({(0, 0): 1}, (0, 0))
    assert not two_point_event({(0, 0): -1}, (0, 0))


def test_two_point_segment():
    segment = {(r, 0) for r in range(4)}
    sigma = {h: (1 if h in segment else -1) for h in hexagon_ball(4)}
    assert two_point_event(sigma, (3, 0))
    assert not two_point_event(sigma, (0, 3))


def test_two_point_detour():
    blocked = ring_sigma(3, {(0, 0), (2, 0)})
    assert not two_point_event(blocked, (2, 0))
    open_path = ring_sigma(3, {(0, 0), (1, -1), (2, -1), (2, 0)})
    assert two_point_event(open_path, (2, 0))


def test_two_point_stays_inside_support():
    sigma = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert two_point_event(sigma, (2, 0))
    gap = {(0, 0): 1, (2, 0): 1}
    assert not two_point_event(gap, (2, 0))


def test_two_point_arguments():
    with pytest.raises(OutOfDomain):
        two_point_event({(0, 0): 1}, (5, 5))
    with pytest.raises(OutOfDomain):
        two_point_event({(1, 0): 1}, (1, 0))


# ---------------------------------------------------------------------------
# named events
# ---------------------------------------------------------------------------

def test_event_from_json_annulus():
    spec = event_from_json({"type": "annulus_loop", "k": 1})
    assert spec.side == "loops"
    assert spec.to_json() == {"type": "annulus_loop", "k": 1}
    assert spec(perimeter(hexagon_ball(1)))
    assert not spec(frozenset())
    _, annulus = ball_and_annulus(1)
    assert spec.required_edges == annulus
    spec.validate_support(SpinSystem(sorted(hexagon_ball(3))))
    with pytest.raises(DomainTooSmall):
        spec.validate_support(SpinSystem(sorted(hexagon_ball(1))))


def test_event_from_json_spin_events():
    circuit = event_from_json({"type": "plus_circuit", "k": 1})
    assert circuit.side == "spins"
    assert circuit({h: 1 for h in hexagon_ball(2)})
    circuit.validate_support(SpinSystem(sorted(hexagon_ball(2))))
    with pytest.raises(DomainTooSmall):
        circuit.validate_support(SpinSystem(sorted(hexagon_ball(1))))

    crossing = event_from_json({"type": "crossing", "k": 2, "eps": 0.5})
    assert crossing.to_json() == {"type": "crossing", "k": 2,
                                  "rho": 1.0, "eps": 0.5}
    assert crossing.required_hexagons == crossing_rectangle(2, 1.0, 0.5)

    trapeze = event_from_json({"type": "trapeze", "k": 2})
    assert trapeze.to_json() == {"type": "trapeze", "k": 2,
                                 "sign": 1, "vertical": True}

    pair = event_from_json({"type": "two_point", "v": [2, 1]})
    assert pair.required_hexagons == {(0, 0), (2, 1)}
    assert pair.suggested_free == hexagon_ball(3)
    assert pair({(0, 0): 1, (2, 1): 1, (1, 0): 1, (1, 1): 1})


def test_event_from_json_rejects_bad_specs():
    with pytest.raises(OutOfRange):
        event_from_json({"type": "nonsense", "k": 2})
    with pytest.raises(OutOfRange):
        event_from_json({"type": "plus_circuit"})
    with pytest.raises(OutOfRange):
        event_from_json({"type": "two_point", "v": [1]})
    with pytest.raises(OutOfRange):
        event_from_json({"type": "trapeze", "k": 2, "sign": 3})
    # a scale or coordinate that is not a whole number is not truncated
    with pytest.raises(OutOfRange):
        event_from_json({"type": "plus_circuit", "k": 2.7})
    with pytest.raises(OutOfRange):
        event_from_json({"type": "two_point", "v": [1.9, 0]})
    with pytest.raises(OutOfRange):
        event_from_json({"type": "trapeze", "k": 2, "sign": -1.5})
    assert event_from_json({"type": "plus_circuit", "k": 2.0}).params == (
        ("k", 2),)


def test_named_event_routes_through_exact_probability():
    p = dict(n=1.5, x=0.55)
    from hexloop.configs import Params
    params = Params(**p)
    spec = event_from_json({"type": "two_point", "v": [1, 0]})
    direct = exact_event_probability(
        hexagon_ball(1), 1, params,
        lambda sg: two_point_event(sg, (1, 0)), side="spins")
    named = exact_event_probability(hexagon_ball(1), 1, params, spec)
    assert direct == pytest.approx(named, abs=1e-14)
    with pytest.raises(DomainTooSmall):
        exact_event_probability(
            hexagon_ball(1), 1, params,
            event_from_json({"type": "plus_circuit", "k": 1}))


def test_trapeze_probabilities_sum_to_one():
    # complementarity plus the diagonal symmetry of the box force
    # P_plus[top-bottom plus] + P_minus[top-bottom plus] = 1 exactly
    from hexloop.configs import Params
    for k, n, x in ((1, 1.5, 0.55), (1, 1.2, x_critical(1.2)),
                    (2, 1.0, 0.5)):
        params = Params(n=n, x=x)
        spec = event_from_json({"type": "trapeze", "k": k})
        box = sorted(rhombus_hexagons(k))
        p_plus = exact_event_probability(box, 1, params, spec)
        p_minus = exact_event_probability(box, -1, params, spec)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_nested_circuits_force_annulus_loop():
    # a plus circuit and a minus circuit in the same ring trap a domain
    # wall loop between them, inside the annulus edge set
    base_plus = {h for h in hexagon_ball(4) if tri_distance((0, 0), h) == 3}
    system = SpinSystem(sorted(hexagon_ball(4)), sea=-1)
    rng = random.Random(2026)
    hits = 0
    for _ in range(300):
        # keep the outer circle minus so a minus circuit stays available,
        # and vary the plus circuit and the bulk around it
        plus = {h for h in base_plus if rng.random() > 0.06}
        plus |= {h for h in hexagon_ball(3) if rng.random() < 0.12}
        sigma = ring_sigma(4, plus)
        has_plus = plus_circuit_event(sigma, 2)
        has_minus = plus_circuit_event({h: -s for h, s in sigma.items()}, 2)
        if not (has_plus and has_minus):
            continue
        hits += 1
        walls = spins_to_loops(system, sigma)
        assert annulus_loop_event(walls, 2)
    assert hits > 50


def test_exact_annulus_probability_is_too_large_to_enumerate():
    from hexloop.configs import Params
    spec = event_from_json({"type": "annulus_loop", "k": 1})
    with pytest.raises(TooLarge):
        exact_event_probability(sorted(spec.suggested_free), 1,
                                Params(n=1.0, x=0.5), spec)
