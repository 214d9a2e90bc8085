"""Tests for the exhaustive inequality and identity checks.

Numeric oracles are closed forms on the one-hexagon domain (the defect-pair
ratio 2*x^5/(1 + x^6)), hand-checked witness weights on the seven-hexagon
ball, and frozen values from independent enumeration routes (the even
subgraph route for the spin-wall correspondence, a direct minus-connection
search for the crossing complement).
"""

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
from hexloop.exact import exact_event_probability, spin_partition, x_critical
from hexloop.lattice import (
    domain_from_hexagons,
    hex_neighbors,
    hexagon_ball,
    hexagon_corners,
    rhombus_hexagons,
    tri_neighbors,
    triangle_domain,
)


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
        assert report.details["n_walks"] == 6
        assert report.details["value"] == pytest.approx(
            0.411625645059464, rel=1e-12)
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
        the enumerator."""
        calls = {"walks": [], "reads": []}
        walk = configs._gray_counts

        def spy_walk(system):
            calls["walks"].append(system)
            return walk(system)

        monkeypatch.setattr(configs, "_gray_counts", spy_walk)
        for module in (exact, checks):
            def spy_read(system, max_sites, read=module.assignment_counts):
                calls["reads"].append(system)
                return read(system, max_sites)

            monkeypatch.setattr(module, "assignment_counts", spy_read)
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
        # four joint events, each a total and an event sum
        assert len(spy["walks"]) == 1
        assert spy["reads"] == [system] * 8

    def test_event_probability_enumerates_once(self, spy):
        exact_event_probability(BALL1, 1, self.PARAMS,
                                lambda s: s[(0, 0)] == 1)
        assert len(spy["walks"]) == 1
        assert spy["reads"] == spy["walks"] * 2


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
