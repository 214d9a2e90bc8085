"""Tests for the exhaustive inequality and identity checks.

Numeric oracles are closed forms on the one-hexagon domain (the defect-pair
ratio 2*x^5/(1 + x^6)), hand-checked witness weights on the seven-hexagon
ball, and frozen values from independent enumeration routes (the even
subgraph route for the spin-wall correspondence, a direct minus-connection
search for the crossing complement).
"""

import cmath
import json
import math

import pytest

from hexloop import checks, configs, exact
from hexloop.checks import (
    ALGEBRAIC_TOL,
    CheckReport,
    check_bijection,
    check_catalan_bound,
    check_cbc,
    check_contour_identity,
    check_domain_markov_and_duality,
    check_domain_monotonicity,
    check_fkg_lattice,
    check_several_faces,
    check_symmetric_domain,
    check_triangle_lower_bound,
)
from hexloop.configs import Params, SpinSystem, log_spin_weight, spin_counts
from hexloop.errors import (
    DomainNotSymmetric,
    EventNotIncreasing,
    OutOfRange,
    TooLarge,
)
from hexloop.exact import (
    _truth,
    exact_event_probability,
    parafermion_field,
    relative_weight,
    spin_partition,
    sweep_table,
    x_critical,
)
from hexloop.fixtures import (
    load_default_grid,
    load_monotone_pairs,
    load_symmetric_fixtures,
    resolve_x,
)
from hexloop.lattice import (
    domain_from_hexagons,
    hex_neighbors,
    hex_xy,
    hexagon_ball,
    hexagon_corners,
    rectangle_hexagons,
    rhombus_hexagons,
    tri_neighbors,
    triangle_domain,
)
from oracles import walk_path_sum


def flower():
    """One-hexagon domain with its corners v[i] and outer tips w[i]."""
    dom = domain_from_hexagons([(0, 0)])
    v = list(hexagon_corners((0, 0)))
    w = [next(u for u in hex_neighbors(c) if u not in v) for c in v]
    return dom, v, w


BALL1 = hexagon_ball(1)

# The twelve hexagons bordering BALL1, listed in cyclic order.
RING = [(2, 0), (1, 1), (0, 2), (-1, 2), (-2, 2), (-2, 1),
        (-2, 0), (-1, -1), (0, -2), (1, -2), (2, -2), (2, -1)]

# Two opposite plus arcs whose gaps mirror into them across the q + r axis.
ARC_A = [RING[9], RING[10], RING[11]]
ARC_B = [RING[3], RING[4], RING[5], RING[6]]


class TestFkgLattice:
    def test_holds_in_monotone_region(self):
        report = check_fkg_lattice(BALL1, -1, Params(1.5, 0.5))
        assert report.holds
        assert report.in_region
        assert report.details["worst_log_gap"] >= -ALGEBRAIC_TOL
        assert report.details["n_assignments"] == 128
        assert report.details["n_pairs"] == 21

    def test_witness_outside_region(self):
        # At n = 0.8 every pair of singleton weights gives the same gap:
        # log(n * n) - log(1 * 1) applied to the raised pair ordering, which
        # for the worst sigma works out to log(0.64 * 0.64 / (0.8 * 0.8)).
        report = check_fkg_lattice(BALL1, -1, Params(0.8, 1.0))
        assert not report.holds
        assert not report.in_region
        assert not report.failed_in_region
        assert report.details["worst_log_gap"] == pytest.approx(
            math.log(0.64), abs=1e-12)
        wpp, wmm, wpm, wmp = report.details["witness"]["weights"]
        assert (wpp, wmm, wpm, wmp) == pytest.approx((0.64, 0.64, 0.8, 0.8))
        assert wpp * wmm < wpm * wmp

    def test_witness_at_large_edge_weight(self):
        report = check_fkg_lattice(BALL1, +1, Params(1.0, 1.2))
        assert not report.holds
        assert not report.in_region
        wpp, wmm, wpm, wmp = report.details["witness"]["weights"]
        assert wpp * wmm < wpm * wmp

    def test_witness_names_its_assignments(self):
        # an asymmetric region and frame, so that a witness with its sites
        # or its surrounding spins mislabelled would carry other weights
        region = [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 0)]
        frame = {(1, 1): 1, (3, -1): 1, (-1, 1): -1}
        params = Params(1.0, 1.2, h=0.1)
        report = check_fkg_lattice(region, frame, params)
        assert not report.holds
        witness = report.details["witness"]
        system = SpinSystem(region, frame)
        weights = []
        for su, sv in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            sigma = {**witness["sigma"], witness["u"]: su, witness["v"]: sv}
            weights.append(math.exp(log_spin_weight(
                params, spin_counts(system, sigma))))
        assert witness["weights"] == pytest.approx(tuple(weights), rel=1e-12)
        wpp, wmm, wpm, wmp = weights
        assert math.log(wpp * wmm / (wpm * wmp)) == pytest.approx(
            report.details["worst_log_gap"], abs=1e-12)

    def test_site_cap(self):
        with pytest.raises(TooLarge):
            check_fkg_lattice(hexagon_ball(2), -1, Params(1.0, 0.5))


class TestComparisonBetweenConditions:
    def test_ordered_frames(self):
        report = check_cbc(BALL1, -1, +1, Params(1.5, 0.5),
                           {"origin_plus": lambda s: s[(0, 0)] == 1})
        assert report.holds
        assert report.in_region
        row = report.details["events"][0]
        assert row["low"] == pytest.approx(0.030470510570837564, abs=1e-13)
        assert row["high"] == pytest.approx(0.9695294894291625, abs=1e-13)
        assert row["gap"] > 0.9

    def test_equal_frames_give_zero_gaps(self):
        events = {"origin_plus": lambda s: s[(0, 0)] == 1,
                  "all_plus": lambda s: all(v == 1 for v in s.values())}
        report = check_cbc(BALL1, +1, +1, Params(1.4, 0.6), events)
        assert report.holds
        for row in report.details["events"]:
            assert abs(row["gap"]) <= 1e-15

    def test_sure_event(self):
        report = check_cbc(BALL1, -1, +1, Params(1.4, 0.6),
                           lambda s: True)
        row = report.details["events"][0]
        assert row["low"] == pytest.approx(1.0, abs=1e-12)
        assert row["high"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_decreasing_event(self):
        with pytest.raises(EventNotIncreasing):
            check_cbc(BALL1, -1, +1, Params(1.4, 0.6),
                      {"origin_minus": lambda s: s[(0, 0)] == -1})

    def test_rejects_unordered_frames(self):
        with pytest.raises(OutOfRange):
            check_cbc(BALL1, +1, -1, Params(1.4, 0.6),
                      lambda s: s[(0, 0)] == 1)


class TestSeveralFaces:
    def test_disjoint_singletons(self):
        report = check_several_faces(BALL1, -1, frozenset([(0, 0)]),
                                     frozenset([(1, 0)]),
                                     Params(1.4, x_critical(1.4)))
        assert report.holds
        assert report.in_region
        assert report.details["lhs"] == pytest.approx(
            0.013740842367620075, abs=1e-13)
        assert report.details["rhs"] == pytest.approx(
            0.005043683024298572, abs=1e-13)

    def test_identical_faces_kill_mixed_terms(self):
        report = check_several_faces(BALL1, -1, frozenset([(0, 0)]),
                                     frozenset([(0, 0)]), Params(1.4, 0.6))
        assert report.holds
        assert report.details["p_pm"] == 0.0
        assert report.details["p_mp"] == 0.0

    def test_rejects_empty_face_set(self):
        with pytest.raises(OutOfRange):
            check_several_faces(BALL1, -1, frozenset(),
                                frozenset([(0, 0)]), Params(1.4, 0.6))


class TestDomainMarkovAndDuality:
    def test_constant_frame_subsystem(self):
        report = check_domain_markov_and_duality(
            BALL1, [(0, 0), (1, 0), (0, 1)], -1, Params(1.4, 0.6, 0.3, -0.2))
        assert report.holds
        assert report.details["markov_gap"] <= 1e-12
        assert report.details["flip_gap"] <= 1e-12
        assert report.details["n_sub_assignments"] == 8

    def test_whole_region_subsystem(self):
        report = check_domain_markov_and_duality(
            BALL1, list(BALL1), +1, Params(2.0, 0.5))
        assert report.holds
        assert report.details["markov_gap"] <= 1e-12
        assert report.details["flip_gap"] <= 1e-12

    def test_mixed_conditioning(self):
        shell = [h for h in BALL1 if h != (0, 0)]
        plus_ring = set(ARC_A) | set(ARC_B)
        tau = {h: (1 if h in plus_ring else -1) for h in RING}
        tau.update({h: (1 if i % 2 == 0 else -1)
                    for i, h in enumerate(shell)})
        report = check_domain_markov_and_duality(
            BALL1, [(0, 0)], tau, Params(1.5, 0.55, 0.1, 0.0))
        assert report.holds
        assert report.details["markov_gap"] <= 1e-12
        assert report.details["flip_gap"] <= 1e-12

    def test_rejects_conditioning_on_sub_region(self):
        tau = {h: -1 for h in RING}
        tau[(0, 0)] = 1
        with pytest.raises(OutOfRange):
            check_domain_markov_and_duality(BALL1, [(0, 0)], tau,
                                            Params(1.4, 0.6))


class TestSpinWallCorrespondence:
    def test_single_hexagon_exact(self):
        # One free hexagon: the only wall configurations are the empty set
        # and the full hexagon, with weights 1 and n * x^6.
        n, x = 1.4, 0.5
        report = check_bijection([(0, 0)], -1, Params(n, x))
        assert report.holds
        assert report.details["n_configs"] == 2
        assert report.details["empty_probability"] == pytest.approx(
            1.0 / (1.0 + n * x**6), abs=1e-15)

    def test_ball_distributions_match(self):
        report = check_bijection(BALL1, -1, Params(2.0, x_critical(2.0)))
        assert report.holds
        assert report.details["n_configs"] == 128
        assert report.details["support_match"]
        assert report.details["max_diff"] <= 1e-12
        assert report.details["empty_probability"] == pytest.approx(
            0.19711260827718963, abs=1e-13)

    def test_frame_sign_does_not_matter(self):
        minus = check_bijection(BALL1, -1, Params(2.0, x_critical(2.0)))
        plus = check_bijection(BALL1, +1, Params(2.0, x_critical(2.0)))
        assert minus.details["empty_probability"] == pytest.approx(
            plus.details["empty_probability"], abs=1e-15)

    def test_box_of_twelve_hexagons(self):
        # 12 free hexagons and 49 border edges: 2^12 distinct even wall sets
        box = SpinSystem(rectangle_hexagons(4, 3), -1, sea=-1)
        for n in (1.0, 1.5, 2.0):
            report = check_bijection(box, -1, Params(n, x_critical(n)))
            assert report.holds
            assert report.details["n_configs"] == 4096
            assert report.details["support_match"]
            assert report.details["max_diff"] <= 1e-12

    @staticmethod
    def broken_report(monkeypatch, corrupt):
        masks = checks.wall_masks
        monkeypatch.setattr(checks, "wall_masks",
                            lambda system: corrupt(masks(system)))
        return check_bijection(BALL1, -1, Params(2.0, x_critical(2.0)))

    def test_an_odd_wall_set_fails(self, monkeypatch):
        # one wall edge less, the first in edge order and so the highest
        # bit, turns every nonempty wall set odd
        report = self.broken_report(monkeypatch, lambda masks: [
            walls ^ 1 << walls.bit_length() - 1 if walls else 0
            for walls in masks])
        assert not report.holds
        assert not report.details["support_match"]
        assert report.details["n_configs"] == 1

    def test_two_assignments_with_one_wall_set_fail(self, monkeypatch):
        # the all-plus assignment, last in product order, takes the walls
        # of the all-minus one, first
        report = self.broken_report(monkeypatch,
                                    lambda masks: [*masks[:-1], masks[0]])
        assert not report.holds
        assert not report.details["support_match"]
        assert report.details["n_configs"] == 127

    def test_rejects_unsupported_inputs(self):
        with pytest.raises(OutOfRange):
            check_bijection(BALL1, -1, Params(1.0, 0.5, 0.1, 0.0))
        mixed = {h: (1 if i % 2 else -1) for i, h in enumerate(RING)}
        with pytest.raises(OutOfRange):
            check_bijection(BALL1, mixed, Params(1.0, 0.5))
        holed = [h for h in BALL1 if h != (0, 0)]
        with pytest.raises(OutOfRange):
            check_bijection(holed, -1, Params(1.0, 0.5))


class TestCatalanBound:
    def test_flower_defect_pair(self):
        # Opposite tips of one hexagon: two five-edge walks against the
        # empty-or-full loop sum, so the ratio is 2*x^5 / (1 + x^6).
        dom, v, w = flower()
        params = Params(1.0, x_critical(1.0))
        report = check_catalan_bound(dom, [w[0], w[3]], params)
        assert report.holds
        assert report.in_region
        x = params.x
        assert report.details["ratio"] == pytest.approx(
            2 * x**5 / (1 + x**6), rel=1e-12)
        assert report.details["bound"] == 1.0

    def test_empty_defect_set(self):
        dom, v, w = flower()
        report = check_catalan_bound(dom, [], Params(1.0, x_critical(1.0)))
        assert report.holds
        assert report.details["ratio"] == 1.0
        assert report.details["bound"] == 1.0

    def test_two_pairs_on_triangle(self):
        tri = triangle_domain(4)
        defects = [(-1, 0, 1), (0, -1, 1), (2, 0, 1), (-1, 2, 1)]
        report = check_catalan_bound(tri, defects, Params(1.5, x_critical(1.5)))
        assert report.holds
        assert report.in_region
        assert report.details["n_pairs"] == 2
        assert report.details["bound"] == pytest.approx(2.0 / 1.5, abs=1e-15)
        assert report.details["ratio"] == pytest.approx(
            0.02370574573003228, rel=1e-9)

    def test_rejects_odd_or_interior_defects(self):
        dom, v, w = flower()
        with pytest.raises(OutOfRange):
            check_catalan_bound(dom, [w[0]], Params(1.0, 0.5))
        with pytest.raises(OutOfRange):
            check_catalan_bound(dom, [w[0], v[0]], Params(1.0, 0.5))


class TestDomainMonotonicity:
    def test_factor_two_flower_in_strip(self):
        dom, v, w = flower()
        strip = domain_from_hexagons([(-1, 0), (0, 0), (1, 0)])
        gamma = (w[0], v[0], v[1], w[1])
        report = check_domain_monotonicity(dom, strip, gamma,
                                           Params(1.0, x_critical(1.0)))
        assert report.holds
        assert report.details["w_inner"] == pytest.approx(
            0.18557687223952268, rel=1e-12)
        assert report.details["w_outer"] == pytest.approx(
            0.1780084843015323, rel=1e-12)
        assert not report.details["endpoints_on_shared_boundary"]
        assert report.details["strengthened"] is None

    def test_strengthened_on_shared_boundary(self):
        # Both walk endpoints are tips of the strip boundary as well, so the
        # larger domain cannot weigh the walk more heavily at all.
        dom, v, w = flower()
        strip = domain_from_hexagons([(-1, 0), (0, 0), (1, 0)])
        gamma = (w[1], v[1], v[2], v[3], v[4], w[4])
        report = check_domain_monotonicity(dom, strip, gamma,
                                           Params(1.0, x_critical(1.0)))
        assert report.holds
        assert report.details["endpoints_on_shared_boundary"]
        assert report.details["strengthened"] is True
        assert report.details["w_outer"] <= report.details["w_inner"]

    def test_equal_domains(self):
        dom, v, w = flower()
        gamma = (w[0], v[0], v[1], w[1])
        report = check_domain_monotonicity(dom, dom, gamma,
                                           Params(1.0, x_critical(1.0)))
        assert report.holds
        assert report.details["ratio"] == pytest.approx(1.0, abs=1e-15)
        assert report.details["strengthened"] is True

    def test_rejects_non_nested_domains(self):
        dom, v, w = flower()
        strip = domain_from_hexagons([(-1, 0), (0, 0), (1, 0)])
        gamma = (w[0], v[0], v[1], w[1])
        with pytest.raises(OutOfRange):
            check_domain_monotonicity(strip, dom, gamma, Params(1.0, 0.5))

    def test_each_domain_carves_the_walk_once(self, monkeypatch):
        pair = load_monotone_pairs()[0]
        inner, outer = pair.build()
        hashes = hash(inner), hash(outer)
        carved = []

        def spy(region, walks, carve=exact.remove_paths):
            carved.append(region)
            return carve(region, walks)

        monkeypatch.setattr(exact, "remove_paths", spy)
        points = [Params(p["n"], resolve_x(p["x"], p["n"]))
                  for p in load_default_grid()["loop_params"]]
        reports = [check_domain_monotonicity(inner, outer, pair.gamma, p)
                   for p in points]
        # one carving per domain, not one per domain and loop point
        assert len(points) == 4
        assert [id(d) for d in carved] == [id(inner), id(outer)]
        # the kept carving gives the bits a freshly built domain gives
        for report, params in zip(reports, points):
            fresh_in, fresh_out = pair.build()
            assert report.details["w_inner"] == relative_weight(
                fresh_in, pair.gamma, params)
            assert report.details["w_outer"] == relative_weight(
                fresh_out, pair.gamma, params)
        # what a domain keeps is no part of its value
        assert (hash(inner), hash(outer)) == hashes
        assert (inner, outer) == pair.build()


class TestTriangleLowerBound:
    def test_smallest_triangle_is_exact(self):
        # On the side-two triangle the walk sum hits the threshold exactly:
        # x_c^2 for each n, that is 1/3 at n = 1 and 1/2 at n = 2.
        for n, value in [(1.0, 1.0 / 3.0), (2.0, 0.5)]:
            report = check_triangle_lower_bound(2, n)
            assert report.holds
            assert report.in_region
            assert report.details["value"] == pytest.approx(value, abs=1e-12)
            assert report.details["threshold"] == pytest.approx(
                value, abs=1e-12)

    def test_side_four_exceeds_threshold(self):
        report = check_triangle_lower_bound(4, 1.5)
        assert report.holds
        assert report.details["value"] == pytest.approx(
            0.411625645059464, rel=1e-12)
        # the walk oracle sums six walks to the same value
        tri = triangle_domain(4)
        walks = walk_path_sum(tri.domain, tri.start_vertex,
                              tri.left_boundary,
                              Params(n=1.5, x=x_critical(1.5)))
        assert walks.n_walks == 6
        assert walks.value == pytest.approx(report.details["value"],
                                            rel=1e-12)
        assert report.details["threshold"] == pytest.approx(
            x_critical(1.5) ** 2, abs=1e-15)
        assert report.details["value"] > report.details["threshold"]


class TestContourIdentity:
    def test_critical_weight_cancels(self):
        for side, n in [(2, 1.0), (2, 2.0), (4, 2.0)]:
            report = check_contour_identity(side, n, x_critical(n))
            assert report.holds
            assert report.in_region
            assert report.details["relative_residual"] <= 1e-9
            assert report.details["bottom_sum"].real >= 1.0 - 1e-9

    def test_off_critical_residual(self):
        report = check_contour_identity(2, 1.0, 0.45)
        assert not report.holds
        assert not report.in_region
        assert not report.failed_in_region
        assert report.details["relative_residual"] == pytest.approx(
            0.11609322978631861, rel=1e-9)
        assert report.details["relative_residual"] > 1e-3

    def test_mirrored_boundary_vertices_give_equal_tables(self, monkeypatch):
        # the triangle is symmetric about the vertical through its start
        # vertex, so the contour sum reads one table per mirror pair
        tri = triangle_domain(6)
        a = tri.start_vertex
        xa = hex_xy(a)[0]
        at = {hex_xy(v): v for v in tri.domain.boundary}
        pairs = {frozenset((b, at[2 * xa - hex_xy(b)[0], hex_xy(b)[1]]))
                 for b in tri.domain.boundary if b != a}
        assert len(pairs) == 7 and all(len(p) == 2 for p in pairs)
        for b, c in map(sorted, pairs):
            assert (sweep_table(tri.domain.edges, [a, b])
                    == sweep_table(tri.domain.edges, [a, c]))
        targets = []
        path_sum = checks.path_sum

        def counted(domain, a, b, params):
            targets.append(b)
            return path_sum(domain, a, b, params)

        monkeypatch.setattr(checks, "path_sum", counted)
        assert check_contour_identity(6, 1.5, x_critical(1.5)).holds
        assert sorted(targets) == sorted(min(p) for p in pairs)

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0])
    def test_matches_walk_observable(self, n):
        # the defect-table route against the walk oracle at side 4
        tri = triangle_domain(4)
        dom = tri.domain
        for x in (x_critical(n), 0.45):
            field = parafermion_field(dom, tri.start_edge, Params(n=n, x=x))
            sides = [[field[dom.spokes[b]] for b in verts]
                     for verts in (tri.left_boundary, tri.right_boundary,
                                   tri.bottom_boundary)]
            lhs = (cmath.exp(-2j * math.pi / 3) * sum(sides[0])
                   + cmath.exp(2j * math.pi / 3) * sum(sides[1])
                   + sum(sides[2]))
            magnitude = sum(abs(f) for side in sides for f in side)
            report = check_contour_identity(4, n, x)
            assert report.details["relative_residual"] == pytest.approx(
                abs(lhs) / magnitude, abs=1e-12)
            assert report.details["magnitude"] == pytest.approx(
                magnitude, rel=1e-12)
            assert report.details["bottom_sum"] == pytest.approx(
                sum(sides[2]), abs=1e-12)


class TestSymmetricDomain:
    def test_crossing_bound_on_ball(self):
        for n, probability in [(1.0, 0.741976351351351),
                               (2.0, 0.508801341156748)]:
            report = check_symmetric_domain(BALL1, (ARC_A, ARC_B), n,
                                            x_critical(n))
            assert report.holds
            assert report.in_region
            assert report.details["probability"] == pytest.approx(
                probability, abs=1e-12)
            assert report.details["probability"] >= 1.0 / (1.0 + n)
            assert report.details["arc_sizes"] == (3, 4)
            assert report.details["n_minus_runs"] == 2

    def test_crossing_complement_is_minus_connection(self):
        # Independent route: on the disc the plus arcs are joined exactly
        # when the two minus stretches of the ring are not, so the two
        # probabilities must sum to one.
        n, x = 1.5, x_critical(1.5)
        report = check_symmetric_domain(BALL1, (ARC_A, ARC_B), n, x)
        minus_1 = {RING[0], RING[1], RING[2]}
        minus_2 = {RING[7], RING[8]}

        def minus_crossing(sigma):
            minuses = ({h for h, s in sigma.items() if s == -1}
                       | minus_1 | minus_2)
            seen = set(minus_1)
            frontier = set(minus_1)
            while frontier:
                if frontier & minus_2:
                    return True
                frontier = {g for h in frontier
                            for g in tri_neighbors(h)} & (minuses - seen)
                seen |= frontier
            return False

        system = SpinSystem(BALL1, {h: 1 for h in set(ARC_A) | set(ARC_B)},
                            sea=-1)
        p_minus = exact_event_probability(system, -1, Params(n, x),
                                          minus_crossing)
        assert report.details["probability"] + p_minus == pytest.approx(
            1.0, abs=1e-12)

    def test_overlapping_arcs_make_crossing_certain(self):
        arc_c = RING[9:] + RING[:4]
        arc_d = RING[3:10]
        report = check_symmetric_domain(BALL1, (arc_c, arc_d), 1.5, 0.5)
        assert report.holds
        assert report.details["probability"] == 1.0
        assert report.details["n_minus_runs"] == 0

    def test_rejects_asymmetric_region(self):
        region = [(0, 0), (1, 0), (2, 0), (0, 1)]
        with pytest.raises(DomainNotSymmetric):
            check_symmetric_domain(region, ([(-1, 0)], [(3, 0)]), 1.0, 0.5)

    def test_rejects_arcs_breaking_the_mirror(self):
        with pytest.raises(DomainNotSymmetric):
            check_symmetric_domain(BALL1, ([RING[9]], ARC_B), 1.0, 0.5)

    def test_a_prebuilt_system_validates_its_arcs_once(self, monkeypatch):
        calls = []
        components = checks.hexagon_components
        monkeypatch.setattr(checks, "hexagon_components",
                            lambda cells: calls.append(1) or components(cells))
        system = SpinSystem(BALL1, {h: 1 for h in ARC_A + ARC_B}, sea=-1)
        first = check_symmetric_domain(system, (ARC_A, ARC_B), 1.0, 0.5)
        again = check_symmetric_domain(system, (ARC_A, ARC_B), 1.5, 0.5)
        # both arcs and the minus runs, at the first call only
        assert len(calls) == 3
        assert first.details["axis"] == again.details["axis"]
        # an invalid pair of arcs raises at every call
        for _ in range(2):
            with pytest.raises(OutOfRange):
                check_symmetric_domain(system, ([RING[9], RING[11]], ARC_B),
                                       1.0, 0.5)

    def test_rejects_malformed_arcs(self):
        with pytest.raises(OutOfRange):
            check_symmetric_domain(BALL1, ([RING[9], RING[11]], ARC_B),
                                   1.0, 0.5)
        with pytest.raises(OutOfRange):
            check_symmetric_domain(BALL1, ([(5, 5)], ARC_B), 1.0, 0.5)
        with pytest.raises(OutOfRange):
            check_symmetric_domain(BALL1, (ARC_A,), 1.0, 0.5)


class TestEnumerationCapsAndReuse:
    """Each check reads one enumeration of its system, and none starts one
    above its cap."""

    RHOMBUS5 = sorted(rhombus_hexagons(5))  # 36 free hexagons
    PARAMS = Params(n=1.5, x=0.5)

    @pytest.fixture
    def spy(self, monkeypatch):
        """Systems passed to the Gray-code walk and to every binding of
        the reader of its weights."""
        calls = {"walks": [], "reads": []}
        walk = configs._gray_counts

        def spy_walk(system):
            calls["walks"].append(system)
            return walk(system)

        monkeypatch.setattr(configs, "_gray_counts", spy_walk)
        for module in (exact, checks):
            def spy_read(system, params,
                         read=module.assignment_log_weights):
                calls["reads"].append(system)
                return read(system, params)

            monkeypatch.setattr(module, "assignment_log_weights", spy_read)
        return calls

    def test_caps_raise_before_enumerating(self, spy):
        big = self.RHOMBUS5
        a, b = big[0], big[1]
        calls = [
            lambda: spin_partition(SpinSystem(big, -1, sea=-1), self.PARAMS),
            lambda: exact_event_probability(big, -1, self.PARAMS,
                                            lambda s: True),
            lambda: check_fkg_lattice(big, -1, self.PARAMS),
            lambda: check_cbc(big, -1, 1, self.PARAMS,
                              {"a_plus": lambda s: s[a] == 1}),
            lambda: check_several_faces(big, -1, [a], [b], self.PARAMS),
            lambda: check_domain_markov_and_duality(big, [a], -1,
                                                    self.PARAMS),
            lambda: check_bijection(big, -1, self.PARAMS),
        ]
        for call in calls:
            with pytest.raises(TooLarge):
                call()
        assert spy == {"walks": [], "reads": []}

    def test_several_faces_enumerates_once(self, spy):
        check_several_faces(BALL1, -1, [(0, 0)], [(1, 0)], self.PARAMS)
        system, = set(spy["walks"])
        # one total and four joint event sums
        assert len(spy["walks"]) == 1
        assert spy["reads"] == [system] * 5

    def test_markov_maps_the_inner_assignments_once(self, monkeypatch):
        calls = []
        index = checks.assignment_index
        monkeypatch.setattr(checks, "assignment_index",
                            lambda signs: calls.append(1) or index(signs))
        outer = SpinSystem(BALL1, -1, sea=-1)
        sub = [(0, 0), (1, 0)]
        points = [self.PARAMS, Params(n=1.0, x=0.6, h=0.2, hp=-0.1)]
        reports = [check_domain_markov_and_duality(outer, sub, -1, p)
                   for p in points]
        # one index per inner assignment, at the first report only
        assert len(calls) == 4
        for p, report in zip(points, reports):
            assert report.holds
            assert report.to_json() == check_domain_markov_and_duality(
                BALL1, sub, -1, p).to_json()

    def test_cbc_sums_each_total_once(self, spy):
        events = {"origin_plus": lambda s: s[(0, 0)] == 1,
                  "both_plus": lambda s: s[(0, 0)] == s[(1, 0)] == 1}
        report = check_cbc(BALL1, -1, 1, self.PARAMS, events)
        low, high = spy["walks"]
        # one total per frame, then each event under both frames
        assert spy["reads"] == [low, high] * 3
        for row, fn in zip(report.details["events"], events.values()):
            assert row["low"] == exact_event_probability(BALL1, -1,
                                                         self.PARAMS, fn)
            assert row["high"] == exact_event_probability(BALL1, 1,
                                                          self.PARAMS, fn)

    def test_event_probability_enumerates_once(self, spy):
        exact_event_probability(BALL1, 1, self.PARAMS,
                                lambda s: s[(0, 0)] == 1)
        assert len(spy["walks"]) == 1
        assert spy["reads"] == spy["walks"] * 2

    def test_kept_truth_still_rejects_a_decreasing_event(self):
        low = SpinSystem(BALL1, -1, sea=-1)
        decreasing = lambda s: s[(0, 0)] == -1  # noqa: E731
        exact_event_probability(low, None, self.PARAMS, decreasing)
        kept = _truth(low, decreasing, "spins")
        assert low.kept((decreasing, "spins"), tuple) is kept
        for _ in range(2):
            with pytest.raises(EventNotIncreasing):
                check_cbc(BALL1, low, 1, self.PARAMS, {"minus": decreasing})

    def test_truth_is_kept_per_side(self):
        system = SpinSystem(BALL1, -1, sea=-1)
        empty = lambda config: len(config) == 0  # noqa: E731
        spins = _truth(system, empty, "spins")
        walls = _truth(system, empty, "loops")
        # a free-spin mapping is never empty; the walls are empty only
        # when every free spin matches the minus frame
        assert spins == bytes(2 ** 7)
        assert walls == b"\1" + bytes(2 ** 7 - 1)
        assert _truth(system, empty, "spins") is spins


class TestPrebuiltInputs:
    """A check gives the same report from a prebuilt system or triangle as
    from the region and frame, or the side, it is built from."""

    GRID = load_default_grid()
    SPIN = [Params(p["n"], resolve_x(p["x"], p["n"]), p["h"], p["hp"])
            for p in GRID["spin_params"]]
    LOOP = [Params(p["n"], resolve_x(p["x"], p["n"]))
            for p in GRID["loop_params"]]
    EVENTS = {"origin_plus": lambda s: s[(0, 0)] == 1}

    @staticmethod
    def same(prebuilt, built_inside):
        assert prebuilt.to_json() == built_inside.to_json()

    def test_spin_checks(self):
        low = SpinSystem(BALL1, -1, sea=-1)
        high = low.negated
        pair = [(0, 0)], [(1, 0)]
        for params in self.SPIN:
            self.same(check_fkg_lattice(low, -1, params),
                      check_fkg_lattice(BALL1, -1, params))
            self.same(check_cbc(BALL1, low, high, params, self.EVENTS),
                      check_cbc(BALL1, -1, 1, params, self.EVENTS))
            self.same(check_several_faces(low, -1, *pair, params),
                      check_several_faces(BALL1, -1, *pair, params))
            self.same(check_domain_markov_and_duality(low, pair[0] + pair[1],
                                                      -1, params),
                      check_domain_markov_and_duality(BALL1, pair[0] + pair[1],
                                                      -1, params))
        for params in self.LOOP:
            self.same(check_bijection(low, -1, params),
                      check_bijection(BALL1, -1, params))
            for f in load_symmetric_fixtures():
                plus = {h: 1 for h in f.arc_a + f.arc_b}
                system = SpinSystem(f.region, plus, sea=-1)
                arcs = (f.arc_a, f.arc_b)
                self.same(check_symmetric_domain(system, arcs, params.n,
                                                 params.x),
                          check_symmetric_domain(f.region, arcs, params.n,
                                                 params.x))
        # the markov check reads the plus frame as the flipped system
        assert high.fixed == SpinSystem(BALL1, 1).fixed and high.sea == 1

    def test_cbc_frames_must_share_a_region(self):
        low = SpinSystem(BALL1, -1, sea=-1)
        with pytest.raises(OutOfRange):
            check_cbc(BALL1, low, SpinSystem([(0, 0)], 1), self.SPIN[0],
                      self.EVENTS)

    def test_triangle_checks(self):
        tri, con = self.GRID["triangle"], self.GRID["contour"]
        for side in tri["sides"]:
            for n in tri["ns"]:
                self.same(check_triangle_lower_bound(triangle_domain(side), n),
                          check_triangle_lower_bound(side, n))
        points = [(side, n, x_critical(n)) for side in con["sides"]
                  for n in con["ns"]]
        points += [(p["side"], p["n"], p["x"]) for p in con["off_critical"]]
        for side, n, x in points:
            self.same(check_contour_identity(triangle_domain(side), n, x),
                      check_contour_identity(side, n, x))


class TestReports:
    def test_json_round_trip(self):
        report = check_contour_identity(2, 1.0, 0.45)
        blob = json.dumps(report.to_json())
        data = json.loads(blob)
        assert data["name"] == report.name
        assert data["holds"] is False
        assert data["in_region"] is False
        real, imag = data["details"]["bottom_sum"]
        assert real == pytest.approx(report.details["bottom_sum"].real)
        assert imag == pytest.approx(report.details["bottom_sum"].imag)

    def test_failed_in_region_flag(self):
        bad = CheckReport(name="demo", holds=False, in_region=True,
                          details={})
        assert bad.failed_in_region
        out = CheckReport(name="demo", holds=False, in_region=False,
                          details={})
        assert not out.failed_in_region
        good = CheckReport(name="demo", holds=True, in_region=True,
                           details={})
        assert not good.failed_in_region
