"""Configuration-layer tests.

Spin-count values frozen here were computed by hand from the definitions
(cluster counts with a connected exterior, walls touching the free set,
triangles through each corner) for one- and two-hexagon free sets.
"""

import dataclasses
import itertools
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexloop.configs import (
    _LOCAL,
    Params,
    SpinCounts,
    SpinSystem,
    _multi_arc_dk,
    assignment_counts,
    assignment_index,
    assignment_log_weights,
    border_edges,
    config_degrees,
    edge_components,
    is_even_config,
    log_spin_weight,
    loop_count,
    spin_counts,
    spins_to_loops,
    wall_masks,
)
from hexloop.errors import OutOfRange, TooLarge
from hexloop.exact import evaluate_table
from hexloop.lattice import (
    UP,
    DOWN,
    edge,
    hexagon_ball,
    hexagon_edges,
    tri_neighbors,
)

from oracles import dict_spin_structure, product_wall_sets, shared_edge
from shapes import HOLE, RING12, holes, spin_systems, with_hole

BALL2 = sorted(hexagon_ball(2))
BALL3 = sorted(hexagon_ball(3))


def test_params_validation():
    with pytest.raises(OutOfRange):
        Params(n=0.0, x=0.5)
    with pytest.raises(OutOfRange):
        Params(n=1.0, x=-0.5)
    p = Params(n=1.4, x=0.6)
    assert p.h == 0.0 and p.hp == 0.0


@pytest.mark.parametrize("field", ["n", "x", "h", "hp"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(field, value):
    good = {"n": 1.5, "x": 0.5, "h": 0.1, "hp": -0.1}
    Params(**good)
    with pytest.raises(OutOfRange):
        Params(**{**good, field: value})


def test_params_logs_are_kept_beside_the_fields():
    p = Params(n=1.4, x=0.6, h=0.1)
    assert p.log_n == math.log(1.4) and p.log_x == math.log(0.6)
    assert p.log_n is p.log_n
    # the cached logs change neither the fields, equality nor the hash
    q = Params(n=1.4, x=0.6, h=0.1)
    assert p == q and hash(p) == hash(q)
    assert [f.name for f in dataclasses.fields(p)] == ["n", "x", "h", "hp"]
    assert dataclasses.astuple(p) == (1.4, 0.6, 0.1, 0.0)


def test_monotone_region():
    assert Params(n=1.0, x=0.8).in_monotone_region          # n x^2 = 0.64
    assert not Params(n=1.0, x=1.2).in_monotone_region      # n x^2 = 1.44
    assert not Params(n=0.8, x=1.0).in_monotone_region      # n < 1
    assert Params(n=2.0, x=1 / math.sqrt(2)).in_monotone_region  # boundary
    assert not Params(n=1.0, x=0.9, hp=0.5).in_monotone_region
    assert Params(n=1.0, x=0.7, hp=0.5).in_monotone_region


def test_even_config_and_loop_count():
    face = hexagon_edges((0, 0))
    assert is_even_config(face)
    assert loop_count(face) == 1
    assert len(edge_components(face)) == 1

    two_faces = hexagon_edges((0, 0)) + hexagon_edges((3, 3))
    assert is_even_config(two_faces)
    assert loop_count(two_faces) == 2

    path = [edge((0, 0, UP), (0, 0, DOWN)), edge((0, 0, DOWN), (1, 0, UP))]
    assert not is_even_config(path)
    assert is_even_config(path, defects=[(0, 0, UP), (1, 0, UP)])
    assert loop_count(path, defects=[(0, 0, UP), (1, 0, UP)]) == 0
    # a far-away face is untouched by the defect path and still counts
    assert loop_count(list(hexagon_edges((3, 3))) + path,
                      defects=[(0, 0, UP), (1, 0, UP)]) == 1

    assert config_degrees(path)[(0, 0, DOWN)] == 2
    assert not is_even_config(path, defects=[(0, 0, UP)])


def test_loop_weight():
    p = Params(n=2.0, x=0.5)
    assert evaluate_table({(6, 1): 1}, p).log_magnitude == pytest.approx(
        6 * math.log(0.5) + math.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# spin systems: one free hexagon and its six neighbours
# ---------------------------------------------------------------------------

RING = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]  # cyclic order


def test_flower_counts_all_plus():
    sys_ = SpinSystem([(0, 0)], fixed=1, sea=1)
    assert len(sys_.context) == 7
    c = spin_counts(sys_, [1])
    assert c == SpinCounts(k=0, e=0, r=1, twice_rp=6)
    assert c.twice_rp / 2 == 3.0


def test_flower_counts_minus_center():
    sys_ = SpinSystem([(0, 0)], fixed=1, sea=1)
    c = spin_counts(sys_, [-1])
    assert c == SpinCounts(k=1, e=6, r=-1, twice_rp=0)


def test_flower_counts_alternating_ring():
    fixed = {h: (1 if i % 2 == 0 else -1) for i, h in enumerate(RING)}
    sys_ = SpinSystem([(0, 0)], fixed=fixed, sea=1)
    c = spin_counts(sys_, [1])
    assert c == SpinCounts(k=3, e=3, r=1, twice_rp=0)


def test_sea_alone_cluster_is_not_counted():
    # all context spins plus, sea minus: the sea cluster contains no hexagon
    # near the free set, so it must not contribute to k
    sys_ = SpinSystem([(0, 0)], fixed=1, sea=-1)
    assert spin_counts(sys_, [1]) == SpinCounts(k=0, e=0, r=1, twice_rp=6)


def test_sea_merges_distant_ring_hexagons():
    # minus center: the six plus ring hexagons are adjacent in a cycle, but
    # even if they were not, the sea keeps them one cluster
    sys_ = SpinSystem([(0, 0)], fixed=1, sea=1)
    c = spin_counts(sys_, [-1])
    assert c.k == 1


def test_domino_counts_mixed():
    sys_ = SpinSystem([(0, 0), (1, 0)], fixed=1, sea=1)
    assert len(sys_.context) == 10
    c = spin_counts(sys_, {(0, 0): 1, (1, 0): -1})
    assert c == SpinCounts(k=1, e=6, r=0, twice_rp=4)


def test_spin_weight():
    p = Params(n=1.4, x=0.6, h=0.1, hp=-0.2)
    c = SpinCounts(k=2, e=5, r=-1, twice_rp=3)
    want = 2 * math.log(1.4) + 5 * math.log(0.6) + 0.1 * (-1) + (-0.2) * 1.5
    assert log_spin_weight(p, c) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# spins <-> loops
# ---------------------------------------------------------------------------

def test_flower_walls():
    sys_ = SpinSystem([(0, 0)], fixed=1)
    assert spins_to_loops(sys_, [1]) == frozenset()
    walls = spins_to_loops(sys_, [-1])
    assert walls == frozenset(hexagon_edges((0, 0)))


def test_border_edges_of_ball():
    # 7-hexagon patch: 42 corner slots, 12 shared pairs -> 30 distinct edges
    assert len(border_edges(hexagon_ball(1))) == 30
    assert len(border_edges([(0, 0)])) == 6


def test_wall_bijection_on_seven_hexagons():
    # with a constant boundary, assignments correspond one-to-one to even
    # subgraphs of the bordering edges; the patch has cycle rank 7, so 128
    # distinct even wall sets make the map injective and onto
    sys_ = SpinSystem(hexagon_ball(1), fixed=1)
    seen = set()
    for values in itertools.product((1, -1), repeat=7):
        walls = spins_to_loops(sys_, values)
        assert is_even_config(walls)
        seen.add(walls)
    assert len(seen) == 128


@st.composite
def constant_frame_assignments(draw):
    """A system on a random subset of the radius-2 ball whose frame and sea
    share one sign and whose context has no hole, with random free spins."""
    shape = draw(st.lists(st.sampled_from(BALL2), min_size=1, unique=True))
    sign = draw(st.sampled_from((-1, 1)))
    system = SpinSystem(shape, sign, sea=sign)
    assume(not holes(system.context))
    spins = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(shape),
                          max_size=len(shape)))
    return system, spins


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scene=constant_frame_assignments())
def test_cluster_count_is_the_wall_loop_count(scene):
    system, spins = scene
    assert spin_counts(system, spins).k == loop_count(
        spins_to_loops(system, spins))


def test_holed_context_counts_as_many_clusters_as_wall_loops():
    # the walls on either side of an all-minus ring form two loops; the
    # plus frame inside it touches the hole at the origin, which is a
    # cluster node of its own, so the count sees the minus ring and two
    # plus clusters, as the plane has them
    system = SpinSystem(RING12, 1, sea=1)
    spins = [-1] * len(system.free)
    assert holes(system.context) == {(0, 0)}
    assert spin_counts(system, spins).k == 2
    assert loop_count(spins_to_loops(system, spins)) == 2


@settings(max_examples=120, deadline=None, derandomize=True)
@given(system=spin_systems(BALL3, max_size=24), data=st.data())
def test_clusters_are_wall_loops_and_walks_are_recounts(system, data):
    # holed or not: with the frame and sea of one sign, k is the number of
    # loops the walls form, and on the drawn frame the wall walk of every
    # flip whose ring has two or more arcs of each sign gives the change
    # of a full count
    signs = data.draw(st.lists(st.sampled_from((-1, 1)),
                               min_size=len(system.free),
                               max_size=len(system.free)))
    constant = SpinSystem(system.free, dict.fromkeys(system.fixed, system.sea),
                          sea=system.sea)
    assert constant.context == system.context
    assert spin_counts(constant, signs).k == loop_count(
        spins_to_loops(constant, signs))
    full = system.framed_spins(signs)
    k = spin_counts(system, signs).k
    for iu, (cu, nbs) in enumerate(zip(system._free_ctx, system._nb6)):
        key = sum((full[c] > 0) << i for i, c in enumerate(nbs + (cu,)))
        s, _, _, _, dk, plan = _LOCAL[key]
        if dk is None:
            flipped = list(signs)
            flipped[iu] = -s
            assert (_multi_arc_dk(plan, full, cu, nbs, system._walls)
                    == spin_counts(system, flipped).k - k)


# a holed ring, free at distance 3 and frozen in a mixed frame at distance
# 2, whose hole, the hexagons at distance 1, keeps a frozen island at the
# origin; and a context whose frozen hexagons lie apart from the free set,
# in three parts of their own
ISLAND = SpinSystem(hexagon_ball(3) - hexagon_ball(2), {(0, 0): -1, **{
    h: (-1) ** i for i, h in enumerate(RING12)}}, sea=1)
APART = SpinSystem([(0, 0), (1, 0)], {(4, 0): -1, (0, -4): 1, (-3, 3): -1},
                   sea=-1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=spin_systems(BALL3))
@example(system=ISLAND)
@example(system=APART)
def test_neighbour_table_structures_equal_the_dict_oracle(system):
    # every structure read off the neighbour table, in its order and type
    if system is ISLAND:
        assert holes(system.context) == hexagon_ball(1) - {(0, 0)}
    want = dict_spin_structure(system)
    assert {name: getattr(system, name) for name in want} == want


# ---------------------------------------------------------------------------
# counts of all assignments
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=spin_systems(BALL2, max_size=10))
def test_assignment_counts_match_spin_counts(system):
    # the Gray walk takes every multi-arc step from the wall walk, in a
    # holed context too
    want = [spin_counts(system, signs) for signs in
            itertools.product((-1, 1), repeat=len(system.free))]
    assert list(assignment_counts(system)) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=spin_systems(BALL2, max_size=10),
       n=st.floats(0.05, 5.0), x=st.floats(0.05, 3.0),
       h=st.floats(-2.0, 2.0), hp=st.floats(-2.0, 2.0))
def test_wall_masks_and_weights_equal_the_product_order_oracles(system, n, x,
                                                                h, hp):
    # the masks of one Gray walk decode to the wall sets of spins_to_loops,
    # assignment by assignment in product order, in a holed context too;
    # the wall probes that spins_to_loops reads name the shared edges
    ctx = system.context
    assert system._wall_probes == tuple(
        (shared_edge(ctx[i], ctx[j]), i, j) for i, j in system._free_pairs)
    edges = border_edges(system.free)
    top = len(edges) - 1
    decoded = [frozenset(e for i, e in enumerate(edges) if mask >> top - i & 1)
               for mask in wall_masks(system)]
    assert decoded == product_wall_sets(system)
    assert wall_masks(system) is wall_masks(system)
    # a weight evaluated once per distinct count is the same float as the
    # one evaluated at each assignment
    params = Params(n, x, h, hp)
    kept = assignment_log_weights(system, params)
    assert list(kept) == [
        log_spin_weight(params, c) for c in assignment_counts(system)]
    # the system keeps the list per point, past a read at another point
    assignment_log_weights(system, Params(n + 1.0, x, h, hp))
    assert assignment_log_weights(system, Params(n, x, h, hp)) is kept


def test_assignment_counts_recount_a_holed_context():
    # one free site whose ring neighbour (1, 0) touches a hole, a cluster
    # node of its own: the Gray walk, whose multi-arc flips walk the walls,
    # gives the counts of a full recount
    ring = tri_neighbors((0, 0))
    for sea in (-1, 1):
        for ring_signs in itertools.product((-1, 1), repeat=6):
            frame = with_hole(dict(zip(ring, ring_signs)), sea)
            system = SpinSystem([(0, 0)], frame, sea=sea)
            assert holes(system.context) == {HOLE}
            want = [spin_counts(system, [v]) for v in (-1, 1)]
            assert list(assignment_counts(system)) == want


def test_assignment_index_follows_product_order():
    for m in (1, 2, 5):
        signs = list(itertools.product((-1, 1), repeat=m))
        assert [assignment_index(s) for s in signs] == list(range(2 ** m))


def test_assignment_counts_are_kept_on_the_system():
    system = SpinSystem(hexagon_ball(1), {(2, 0): 1, (0, 2): 1}, sea=-1)
    first = assignment_counts(system)
    assert len(first) == 2 ** 7
    assert assignment_counts(system) is first
    strip = SpinSystem([(q, 0) for q in range(17)], -1, sea=-1)
    with pytest.raises(TooLarge, match="cap of 16"):
        assignment_counts(strip)


def test_framed_spins_names_a_missing_hexagon():
    system = SpinSystem([(0, 0), (1, 0)], fixed=-1)
    with pytest.raises(OutOfRange, match=r"\(1, 0\)"):
        system.framed_spins({(0, 0): 1})


def test_spins_of_other_hexagons_and_bools_are_refused():
    # a mapping may hold the free hexagons only: a frozen or a far-off key
    # is named, never ignored; and a bool is no spin, though True == 1
    system = SpinSystem([(0, 0)], fixed=-1)
    for stray in ((5, 5), (1, 0)):
        spins = {(0, 0): 1, stray: -1}
        for read in (spin_counts, spins_to_loops):
            with pytest.raises(OutOfRange, match=re.escape(
                    f"{stray} is not a free hexagon")):
                read(system, spins)
    for spins in ([True], {(0, 0): True}, [False]):
        with pytest.raises(OutOfRange, match="got (True|False)"):
            spin_counts(system, spins)
    with pytest.raises(OutOfRange, match="got True"):
        SpinSystem([(0, 0)], fixed=-1, sea=True)
    assert spin_counts(system, {(0, 0): 1}) == spin_counts(system, [1])
