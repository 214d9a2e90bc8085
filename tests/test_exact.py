"""Tests for the exact engines, walk weights, and derived observables.

Numeric oracles are hand enumerations on the one-hexagon domain (two even
subgraphs, two defect-pair walks) and closed forms on the smallest triangular
domain, whose three edges make every sum a one-liner.
"""

import cmath
import copy
import json
import math
import pathlib
import pickle
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexloop import cli, exact
from hexloop.checks import check_several_faces, check_symmetric_domain
from hexloop.configs import (
    Params,
    SpinSystem,
    assignment_counts,
    assignment_log_weights,
    border_edges,
    log_spin_weight,
    loop_count,
    sign_flood,
)
from hexloop.errors import (
    NotAPath,
    NotSelfAvoiding,
    OutOfRange,
    Overflow,
    PathNotInDomain,
    TooLarge,
    WidthExceeded,
)
from hexloop.exact import (
    _CLOSE,
    _OPEN,
    _STRAND,
    MAX_SWEEP_WIDTH,
    Table,
    WeightSum,
    _partner,
    _plan,
    _truth,
    catalan,
    evaluate_table,
    exact_event_probability,
    parafermion_field,
    path_sum,
    relative_weight,
    sigma_exponent,
    spin_partition,
    sweep_table,
    sweep_width,
    x_critical,
)
from hexloop.fixtures import defect_sets, load_domains, load_symmetric_fixtures
from hexloop.lattice import (
    domain_from_hexagons,
    edge,
    edge_components,
    hex_neighbors,
    hex_xy,
    hexagon_ball,
    hexagon_corners,
    hexagon_edges,
    path_edges,
    rectangle_hexagons,
    remove_paths,
    rhombus_hexagons,
    tri_neighbors,
    triangle_domain,
)
from oracles import (
    MAX_BRUTE_EDGES,
    _frontier_plan,
    _sign_crossing,
    _usable,
    brute_force_table,
    interval_sweep_width,
    list_evaluate_table,
    loop_sum_logs,
    peeled_edges,
    product_truth,
    sliced_unpack,
    sum_terms,
    sum_terms_evaluate_table,
    vertex_relation_residual,
    walk_pair_table,
    walk_path_sum,
)
from shapes import spin_systems

GOLDEN = pathlib.Path(__file__).parent / "golden"
BALL2 = sorted(hexagon_ball(2))
BALL2_EDGES = domain_from_hexagons(BALL2).edges
BALL2_VERTS = sorted({u for e in BALL2_EDGES for u in e})


def flower():
    """One-hexagon domain with its corners v[i] and outer tips w[i]."""
    dom = domain_from_hexagons([(0, 0)])
    v = list(hexagon_corners((0, 0)))
    w = [next(u for u in hex_neighbors(c) if u not in v) for c in v]
    return dom, v, w


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_critical_point_values():
    assert x_critical(2.0) == pytest.approx(0.7071067811865476, abs=1e-15)
    assert x_critical(1.0) == pytest.approx(0.5773502691896258, abs=1e-15)
    assert abs(x_critical(1.4) - 0.6) < 1e-3
    for bad in (0.0, -1.0, 2.0001):
        with pytest.raises(OutOfRange):
            x_critical(bad)


def test_winding_exponent_values():
    assert sigma_exponent(1.0) == pytest.approx(0.5, abs=1e-15)
    assert sigma_exponent(2.0) == pytest.approx(0.25, abs=1e-15)
    assert sigma_exponent(0.0) == pytest.approx(0.625, abs=1e-15)
    # on 1 <= n <= 2 the exponent stays in [1/4, 1/2], where cos(sigma pi)
    # is nonnegative
    for i in range(11):
        n = 1.0 + i / 10
        s = sigma_exponent(n)
        assert 0.25 - 1e-12 <= s <= 0.5 + 1e-12
        assert math.cos(s * math.pi) >= 0
    # the critical point solves 2x * (-cos((2 + sigma) pi / 3)) = 1
    for i in range(6):
        n = 1.0 + 0.2 * i
        lhs = -math.cos((2 + sigma_exponent(n)) * math.pi / 3) * 2 * x_critical(n)
        assert abs(lhs - 1.0) < 1e-12
    for bad in (-0.1, 2.1):
        with pytest.raises(OutOfRange):
            sigma_exponent(bad)


def test_catalan_numbers():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(30) == math.comb(60, 30) // 31
    with pytest.raises(OutOfRange):
        catalan(-1)
    with pytest.raises(Overflow):
        catalan(600)


# ---------------------------------------------------------------------------
# log-magnitude arithmetic
# ---------------------------------------------------------------------------

def test_weight_sum_arithmetic():
    a = sum_terms([(math.log(2.0), -1.0 + 0j), (0.0, -1.0 + 0j)])
    assert a.value == pytest.approx(-3.0)
    assert a.phase == -1.0
    b = sum_terms([(math.log(2.0), 1j)])
    assert b.value == pytest.approx(2j)
    z = WeightSum.zero()
    assert z.phase == 0 and z.value == 0j
    # exact cancellation collapses to zero
    s = sum_terms([(0.0, 1.0 + 0j), (0.0, -1.0 + 0j)])
    assert s == WeightSum.zero()
    assert sum_terms([]) == WeightSum.zero()
    big = WeightSum(1e6, 1.0 + 0j)
    with pytest.raises(Overflow):
        big.value


def test_evaluate_table_is_a_polynomial():
    table = {(0, 0): 1, (6, 1): 1}
    for n, x in ((1.4, 0.6), (2.0, 0.25)):
        got = evaluate_table(table, Params(n=n, x=x)).value.real
        assert got == pytest.approx(1 + n * x**6, rel=1e-15)
    # counts may exceed double range, the log does not
    huge = evaluate_table({(1, 0): 10**400}, Params(n=1.0, x=1.0))
    assert huge.log_magnitude == pytest.approx(400 * math.log(10), rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12),
                                st.one_of(st.integers(1, 10**6),
                                          st.integers(1, 10**400))),
                      max_size=60, unique_by=lambda t: t[:2]),
       n=st.floats(0.5, 2.0), x=st.floats(0.3, 1.5))
@example(terms=[], n=1.5, x=0.6)
@example(terms=[(6, 1, 1)], n=1.5, x=0.6)
@example(terms=[(9, 0, 10**400), (0, 0, 1), (3, 2, 7)], n=1.5, x=0.6)
@example(terms=[(m, loops, c) for (m, loops), c
                in sorted(sweep_table(BALL2_EDGES).items(), reverse=True)],
         n=1.5, x=x_critical(1.5))
def test_evaluate_table_matches_the_complex_route(terms, n, x):
    # inserted unsorted: the float pass must add the terms in key order, as
    # the complex log-sum-exp does, and give the same bits, not close ones;
    # counts near one another make the order of the additions show
    table = {(m, loops): c for m, loops, c in terms}
    p = Params(n=n, x=x)
    assert evaluate_table(table, p) == sum_terms_evaluate_table(table, p)


def test_zero_and_negative_counts():
    # a zero count is no term; a negative count is no configuration table
    p = Params(n=1.5, x=0.6)
    assert Table({(2, 0): 0, (0, 0): 1}) == {(0, 0): 1}
    assert (evaluate_table({(0, 0): 1, (2, 0): 0}, p)
            == evaluate_table({(0, 0): 1}, p))
    assert evaluate_table({(2, 0): 0}, p) == WeightSum.zero()
    with pytest.raises(OutOfRange):
        evaluate_table({(0, 0): 1, (2, 0): -1}, p)


# ---------------------------------------------------------------------------
# the two engines
# ---------------------------------------------------------------------------

def test_brute_force_flower_oracles():
    dom, v, w = flower()

    def brute_Z(defects, p):
        return evaluate_table(brute_force_table(dom.edges, defects), p)

    for n, x in ((1.4, 0.6), (2.0, 2**-0.5)):
        p = Params(n=n, x=x)
        assert brute_Z((), p).value.real == pytest.approx(
            1 + n * x**6, rel=1e-12)
        assert brute_Z((w[0], w[3]), p).value.real == pytest.approx(
            2 * x**5, rel=1e-12)
    p = Params(n=1.4, x=0.6)
    assert brute_Z((w[0],), p) == WeightSum.zero()
    assert brute_Z((w[0], w[1], w[2]), p) == WeightSum.zero()
    # a defect off the domain kills every configuration
    assert brute_Z(((5, 5, 0), (5, 5, 1)), p) == WeightSum.zero()


def test_sweep_matches_brute_tables():
    doms = [domain_from_hexagons([(0, 0)]),
            domain_from_hexagons([(0, 0), (1, 0)]),
            domain_from_hexagons([(0, 0), (0, 1)]),
            domain_from_hexagons([(0, 0), (1, 0), (2, 0)]),
            domain_from_hexagons([(0, 0), (1, 0), (0, 1)]),
            triangle_domain(4).domain]
    for dom in doms:
        bnd = list(dom.boundary)
        for A in ((), (bnd[0], bnd[1]), (bnd[0], bnd[len(bnd) // 2]),
                  tuple(bnd[:4]), (bnd[0], bnd[1], bnd[2])):
            assert brute_force_table(dom.edges, A) == sweep_table(dom.edges, A)


def test_sweep_tables_reach_the_row_bound():
    # the outer loop of one hexagon, and of two adjacent ones, takes every
    # usable vertex: its m = len(verts) edges sit in the top row, rows - 1,
    # of the loop-major packing (exact._sweep_table), which one row fewer
    # would fold into the next loop level
    for cells in ([(0, 0)], [(0, 0), (1, 0)]):
        edges = tuple(sorted({e for h in cells for e in hexagon_edges(h)}))
        table = sweep_table(edges)
        assert (max(m for m, _ in table) == len(_plan(edges, frozenset())[0])
                == 4 * len(cells) + 2)
        assert table == brute_force_table(edges, ())


def test_fixture_tables_count_the_cycle_space():
    # boundary defects have degree one, so every even defect set admits
    # exactly 2^(E - V + 1) configurations on a connected domain
    for fixture in load_domains():
        dom = fixture.build()
        verts = {u for e in dom.edges for u in e}
        rank = len(dom.edges) - len(verts) + 1
        for picks in defect_sets(dom).values():
            for pick in picks:
                assert sum(sweep_table(dom.edges, pick).values()) == 2**rank


@st.composite
def ball2_edge_subsets(draw):
    """At most 26 edges of the ball r=2 domain: the borders of up to four of
    its hexagons, which need not touch, less some edges, plus loose edges."""
    cells = draw(st.lists(st.sampled_from(BALL2), max_size=4, unique=True))
    borders = sorted({e for h in cells for e in hexagon_edges(h)})
    kept = set(borders)
    if borders:
        kept -= draw(st.sets(st.sampled_from(borders)))
    loose = draw(st.sets(st.sampled_from(BALL2_EDGES),
                         max_size=26 - len(kept)))
    return tuple(sorted(kept | loose))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_matches_brute_on_random_subsets(data):
    edges = data.draw(ball2_edge_subsets())
    verts = {u for e in edges for u in e}
    # defects on the subset, or anywhere in the ball (then often off it)
    defects = data.draw(st.lists(
        st.one_of(st.sampled_from(sorted(verts) or BALL2_VERTS),
                  st.sampled_from(BALL2_VERTS)), max_size=4, unique=True))
    table = sweep_table(edges, defects)
    assert table == brute_force_table(edges, defects)
    # the hexagonal lattice is bipartite: one parity of m per table
    assert len({m % 2 for m, _ in table}) <= 1
    if len(defects) % 2 or not verts.issuperset(defects):
        assert table == {}
    if not defects:
        rank = len(edges) - len(verts) + len(edge_components(edges))
        assert sum(table.values()) == 2**rank
    # the same scene moved by a lattice offset, negative ones included: the
    # frontier order by midpoint height sees other coordinates
    dr, ds = data.draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))

    def move(v):
        return (v[0] + dr, v[1] + ds, v[2])

    assert sweep_table([(move(u), move(v)) for u, v in edges],
                       [move(d) for d in defects]) == table


def vertical(edges) -> list:
    """The vertical edges among ``edges``, whose ends share an abscissa,
    each as (lower end, upper end)."""
    return [tuple(sorted(e, key=hex_xy)) for e in edges
            if hex_xy(e[0])[0] == hex_xy(e[1])[0]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_matches_brute_with_defects_at_vertical_edge_ends(data):
    # a defect at an end of a vertical edge splits the plan step that takes
    # both ends, while the other vertical edges of the subset stay in one
    # step each, with strands and brackets crossing them
    edges = data.draw(ball2_edge_subsets())
    ends = sorted({v for e in vertical(edges) for v in e})
    size = data.draw(st.sampled_from((2, 4)))
    assume(len(ends) >= size)
    defects = data.draw(st.lists(st.sampled_from(ends), min_size=size,
                                 max_size=size, unique=True))
    assert sweep_table(edges, defects) == brute_force_table(edges, defects)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.floats(0.5, 2.0), x=st.floats(0.3, 1.5))
def test_engine_tables_evaluate_bit_for_bit(data, n, x):
    # the count logs a table keeps give the bits of the route that takes
    # them at every call, and a plain dict of the same terms, in any
    # insertion order, gives the same sum
    edges = data.draw(st.one_of(ball2_edge_subsets(), st.just(BALL2_EDGES)))
    verts = sorted({u for e in edges for u in e})
    size = data.draw(st.sampled_from((0, 2, 4)))
    assume(len(verts) >= size)
    # defects on the edge set, so that defect tables are seldom empty
    defects = data.draw(st.lists(st.sampled_from(verts), min_size=size,
                                 max_size=size, unique=True)) if size else []
    table = sweep_table(edges, defects)
    p = Params(n=n, x=x)
    assert evaluate_table(table, p) == sum_terms_evaluate_table(table, p)
    shuffled = dict(data.draw(st.permutations(list(table.items()))))
    assert evaluate_table(shuffled, p) == evaluate_table(table, p)


BALL3 = sorted(hexagon_ball(3))
BALL3_EDGES = domain_from_hexagons(BALL3).edges


@settings(max_examples=25, deadline=None, derandomize=True)
@given(size=st.integers(27, len(BALL3_EDGES)),
       shuffled=st.permutations(BALL3_EDGES))
def test_sweep_counts_the_cycle_space_past_the_brute_cap(size, shuffled):
    # subsets of ball r=3 too large for the brute oracle: with no defects,
    # a table counts every even subgraph, 2^(E - V + C) of them, and has
    # one edge parity
    edges = shuffled[:size]
    table = sweep_table(edges)
    verts = {u for e in edges for u in e}
    rank = len(edges) - len(verts) + len(edge_components(edges))
    assert sum(table.values()) == 2**rank
    assert {m % 2 for m, _ in table} == {0}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(40, len(BALL3_EDGES)),
       shuffled=st.permutations(BALL3_EDGES), n=st.floats(0.05, 5.0),
       x=st.floats(0.05, 3.0))
def test_array_evaluation_equals_the_list_route(data, size, shuffled, n, x):
    # the term logs formed as arrays from a table's columns are the floats
    # of the list route, so the sums are the same bits, for an engine
    # table, a plain mapping and the empty table alike
    edges = shuffled[:size]
    verts = sorted({u for e in edges for u in e})
    count = data.draw(st.sampled_from((0, 2, 4)))
    defects = data.draw(st.lists(st.sampled_from(verts), min_size=count,
                                 max_size=count, unique=True))
    table = sweep_table(edges, defects)
    p = Params(n=n, x=x)
    want = list_evaluate_table(table, p)
    assert evaluate_table(table, p) == want
    assert evaluate_table(dict(table), p) == want
    assert evaluate_table({}, p) == list_evaluate_table({}, p)
    assert evaluate_table({}, p) == WeightSum.zero()


def test_a_table_keeps_its_sum_per_point():
    table = sweep_table(BALL2_EDGES)
    p = Params(n=1.5, x=x_critical(1.5))
    kept = evaluate_table(table, p)
    # the same point, as the same or an equal Params, reads the kept sum;
    # the fields do not enter a loop sum
    assert evaluate_table(table, p) is kept
    assert evaluate_table(table, Params(1.5, x_critical(1.5), h=0.3)) is kept
    other = evaluate_table(table, Params(n=1.0, x=0.5))
    assert other != kept and evaluate_table(table, Params(1.0, 0.5)) is other
    assert kept == list_evaluate_table(table, p)
    # a copy or a pickled table starts with no sums
    for twin in (copy.copy(table), pickle.loads(pickle.dumps(table))):
        assert twin.sums == {}
        assert evaluate_table(twin, p) == kept


def _bench_cases():
    """The nine tables of the benchmark's ``tables`` workload: ball r=3,
    the 6x6 and the 10x4 rectangle, each with 0, 2 and 4 defects spread
    over the vertices of degree at most two in sweep order."""
    for cells in (hexagon_ball(3), rectangle_hexagons(6, 6),
                  rectangle_hexagons(10, 4)):
        dom = domain_from_hexagons(cells)
        low = sorted((v for v in {u for e in dom.edges for u in e}
                      if dom.degree(v) <= 2), key=hex_xy)
        for size in (0, 2, 4):
            yield dom.edges, frozenset(
                low[(2 * i + 1) * len(low) // (2 * size)] for i in range(size))


def test_unpack_row_test_equals_the_slicing_route(monkeypatch):
    finals = []
    unpack = exact._unpack
    monkeypatch.setattr(exact, "_unpack",
                        lambda *args: finals.append(args) or unpack(*args))
    for edges, defects in _bench_cases():
        exact._sweep_table.__wrapped__(edges, defects)
    assert len(finals) == 9
    # final states made up: each offset lies inside a loop level (level and
    # row above 0), each int ends mid-level, and some fields have only a
    # high byte set
    for parity, rows, nbytes, offset, fields in (
            (1, 5, 1, 7, [3, 0, 9, 0, 0, 1]),
            (0, 4, 2, 6, [1, 0, 256, 0, 0, 0, 65535]),
            (1, 7, 3, 23, [2**23, 5, 0, 0, 0, 0, 0, 0, 1]),
            (0, 3, 1, 4, [1])):
        assert offset // rows and offset % rows
        assert (offset + len(fields)) % rows
        packed = sum(f << 8 * nbytes * i for i, f in enumerate(fields))
        finals.append(({parity: (offset, packed)}, rows, nbytes))
    for states, rows, nbytes in finals:
        table = unpack(states, rows, nbytes)
        assert table and table == sliced_unpack(states, rows, nbytes)
        assert list(table) == sorted(table)


FIXTURE_DOMAINS = [fixture.build() for fixture in load_domains()]
FIXTURE_EDGES = [dom.edges for dom in FIXTURE_DOMAINS]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.floats(0.05, 5.0), x=st.floats(0.05, 3.0))
def test_bench_tables_evaluate_as_the_list_route(n, x):
    # the nine tables of the benchmark's tables workload at a random point:
    # numpy's max and subtraction give the bits of the Python list route
    p = Params(n=n, x=x)
    for edges, defects in _bench_cases():
        table = sweep_table(edges, defects)
        assert evaluate_table(table, p) == list_evaluate_table(table, p)


def capped_sweep_table(edges, cap: int):
    """``sweep_table`` under a width cap of ``cap`` from an empty cache, as
    the cap is checked when a table is built."""
    exact._sweep_table.cache_clear()
    with mock.patch.object(exact, "MAX_SWEEP_WIDTH", cap):
        return sweep_table(edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(edges=st.lists(st.sampled_from(BALL3_EDGES), min_size=1, unique=True),
       dr=st.integers(-9, 9), ds=st.integers(-9, 9))
def test_sweep_width_matches_the_interval_oracle(edges, dr, ds):
    # the width the frontier plan reads off the edges some configuration
    # can take, in the direction the sweep takes: today's, or the narrowest
    # of the six when today's is wider than 6; on a subset of ball r=3
    # moved by a lattice offset and on every domain fixture; a cap one
    # below it is refused with the width and the cap named
    moved = [tuple((u[0] + dr, u[1] + ds, u[2]) for u in e) for e in edges]
    for es in (moved, *FIXTURE_EDGES):
        kept = peeled_edges(es)
        w = interval_sweep_width(kept)
        if w > 6:
            w = min(interval_sweep_width(kept, turns) for turns in range(6))
        assert sweep_width(es) == w
        with pytest.raises(WidthExceeded, match=(
                f"^sweep frontier width {w} exceeds the cap of {w - 1}$")):
            capped_sweep_table(es, w - 1)


@st.composite
def ball3_edge_subsets(draw):
    """Edges of the ball r=3 domain: the borders of up to eight of its
    hexagons less up to four edges, and up to 20 loose edges, so that
    cycles carry dangling paths and trees."""
    cells = draw(st.lists(st.sampled_from(BALL3), max_size=8, unique=True))
    borders = sorted({e for h in cells for e in hexagon_edges(h)})
    kept = set(borders)
    if borders:
        kept -= draw(st.sets(st.sampled_from(borders), max_size=4))
    loose = draw(st.sets(st.sampled_from(BALL3_EDGES), max_size=20))
    return kept | loose


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edges=ball3_edge_subsets(), dr=st.integers(-9, 9),
       ds=st.integers(-9, 9), data=st.data())
def test_sweep_drops_the_edges_no_configuration_takes(edges, dr, ds, data):
    # a subset of ball r=3 moved by a lattice offset, with 0, 2 or 4
    # defects anywhere on it, at leaves too: the engine keeps the oracle's
    # edges, and the kept edges give the table of the whole subset
    moved = tuple(sorted(edge(*((u[0] + dr, u[1] + ds, u[2]) for u in e))
                         for e in edges))
    verts = sorted({u for e in moved for u in e})
    size = data.draw(st.sampled_from((0, 2, 4)))
    assume(len(verts) >= size)
    defects = frozenset(data.draw(st.lists(
        st.sampled_from(verts), min_size=size, max_size=size, unique=True))
        if size else ())
    kept = _usable(moved, defects)
    assert kept == peeled_edges(moved, defects)
    table = sweep_table(moved, defects)
    assert sweep_table(kept, defects) == table
    for es in (moved, kept):
        if len(es) <= MAX_BRUTE_EDGES:
            assert brute_force_table(es, defects) == table


def test_sweep_drops_dangling_edges_at_the_corners():
    dom, v, w = flower()
    # a defect whose only neighbour is a leaf that is no defect: no
    # configuration takes the edge between them, so none has the defect
    lone = ((7, 7, 0), (7, 7, 1))
    edges = (*dom.edges, lone)
    defects = (lone[0], w[0])
    assert sweep_table(edges, defects) == brute_force_table(edges, defects)
    assert sweep_table(edges, defects) == {}
    # a path with defects at both ends: the one strand takes every edge
    path = domain_from_hexagons([(0, 0), (1, 0), (2, 0)]).polygon
    edges = path_edges(path)
    defects = (path[0], path[-1])
    assert sweep_table(edges, defects) == brute_force_table(edges, defects)
    assert sweep_table(edges, defects) == {(len(edges), 0): 1}
    # a tree with no defects, the flower less one edge of its hexagon:
    # every edge is dropped, which leaves the empty configuration
    tree = [e for e in dom.edges if e != edge(v[0], v[1])]
    assert sweep_table(tree) == brute_force_table(tree) == {(0, 0): 1}
    assert _usable(tuple(tree), frozenset()) == ()


@pytest.mark.parametrize("cells, count", [(hexagon_ball(3), 52),
                                          (rectangle_hexagons(10, 4), 64),
                                          (rectangle_hexagons(6, 6), 54)])
def test_plan_takes_both_ends_of_each_vertical_edge_in_one_step(cells,
                                                                count):
    # with no defects, each vertical edge's two ends make one plan step,
    # and every other step is one vertex; the width is counted vertex by
    # vertex all the same
    edges = domain_from_hexagons(cells).edges
    pairs = vertical(edges)
    assert len(pairs) == count

    def fused(defects):
        verts, plan, width = _frontier_plan(edges, frozenset(defects))
        assert width == interval_sweep_width(edges)
        steps, i = [], 0
        for *_, kind in plan:  # a step takes len(kind) vertices in order
            steps.append(tuple(verts[i:i + len(kind)]))
            i += len(kind)
        assert i == len(verts)
        return {step for step in steps if len(step) == 2}

    assert fused(()) == set(pairs)
    # a defect at either end leaves that edge's ends two steps
    for lower, upper in pairs[::9]:
        for end in (lower, upper):
            assert fused([end]) == set(pairs) - {(lower, upper)}


TRIANGLES = {side: triangle_domain(side).domain for side in (4, 6, 8, 10)}


@st.composite
def ball3_scenes(draw):
    """A subset of ball r=3 with 0, 2 or 4 defects on it: one of
    :func:`ball3_edge_subsets`, or the whole ball less 30 to 80 edges,
    whose default plan is often wider than 6."""
    edges = tuple(sorted(draw(st.one_of(ball3_edge_subsets(), st.sets(
        st.sampled_from(BALL3_EDGES), min_size=30, max_size=80).map(
            lambda cut: set(BALL3_EDGES) - cut)))))
    verts = sorted({u for e in edges for u in e})
    size = draw(st.sampled_from((0, 2, 4)))
    assume(len(verts) >= size)
    return edges, frozenset(draw(st.lists(
        st.sampled_from(verts), min_size=size, max_size=size,
        unique=True)) if size else ())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scene=ball3_scenes())
def test_every_direction_sweeps_the_same_table(scene):
    # a turn of the lattice by 60 degrees keeps every edge and loop count,
    # so the plan of each of the six directions sweeps to the same table,
    # term for term in key order; the plan swept is one of them, today's
    # when that is at most 6 wide, and never wider than today's
    edges, defects = scene
    plans = [_plan(edges, defects, turns) for turns in range(6)]
    swept = _plan(edges, defects)
    assert swept in plans and swept[2] <= plans[0][2]
    assert swept == plans[0] or plans[0][2] > 6
    want = list(sweep_table(edges, defects).items())
    for planned in plans:
        with mock.patch.object(exact, "_plan", lambda *_: planned):
            table = exact._sweep_table.__wrapped__(edges, defects)
        assert list(table.items()) == want


def turned_box(width: int, height: int, turns: int) -> tuple:
    """The edges of an axial box of hexagons turned ``turns`` times by 60
    degrees about the origin hexagon, (r, s) -> (-s, r + s) per turn."""
    cells = rectangle_hexagons(width, height)
    for _ in range(turns):
        cells = {(-s, r + s) for r, s in cells}
    return domain_from_hexagons(cells).edges


def test_turned_boxes_sweep_in_their_narrowest_direction():
    # the 10x4 box turned by 120 degrees is 11 wide in today's direction
    # and is swept 6 wide, as the box itself is, to the box's table
    box, turned = turned_box(10, 4, 0), turned_box(10, 4, 2)
    assert _plan(turned, frozenset(), 0)[2] == 11
    assert sweep_width(turned) == sweep_width(box) == 6
    assert list(sweep_table(turned).items()) == list(sweep_table(box).items())
    # the 7x9 box turned by 60 degrees is 17 wide in today's direction,
    # past the cap, and 9 in its narrowest, as the box itself is (11 wide
    # in today's direction): the cap no longer refuses it
    box, turned = turned_box(7, 9, 0), turned_box(7, 9, 1)
    assert _plan(turned, frozenset(), 0)[2] == 17 > MAX_SWEEP_WIDTH
    assert _plan(box, frozenset(), 0)[2] == 11
    assert sweep_width(turned) == sweep_width(box) == 9
    assert list(sweep_table(turned).items()) == list(sweep_table(box).items())


def test_direction_estimate_counts_states_past_the_float_range():
    # a 3-wide strip of 1,100 rows is 6 wide in its narrowest direction and
    # far wider in the others, whose frontiers reach 2^1024 states and more:
    # the estimate counts them exactly, as floats would overflow
    strip = domain_from_hexagons([(r, s) for s in range(1100)
                                  for r in range(-(s // 2), -(s // 2) + 3)])
    assert sweep_width(strip.edges) == 6


def test_plans_at_most_6_wide_estimate_no_other_direction(capsys):
    # no table of a verify pass (75 plans) and none of the three long 10x4
    # tables is wider than 6 in today's direction, and only a plan wider
    # than 6 estimates the six directions, so none estimates them or is
    # planned in another direction
    exact._sweep_table.cache_clear()
    widths, plan = [], exact._plan

    def spy(edges, defects, turns=None):
        planned = plan(edges, defects, turns)
        widths.append((turns, planned[2]))
        return planned

    with mock.patch.object(exact, "_plan", spy):
        assert cli.main(["verify", "--suite", "all"]) == 0
        for edges, defects in list(_bench_cases())[6:]:
            sweep_table(edges, defects)
    capsys.readouterr()
    assert len(widths) == 78
    assert all(turns is None and w <= 6 for turns, w in widths)


@st.composite
def plan_scenes(draw):
    """An edge set with a defect set: a subset of ball r=3 with 0, 2 or 4
    defects on it (:func:`ball3_scenes`), a domain fixture with one of its
    defect sets, or a triangle of side 4 to 10 with a pair of boundary
    vertices."""
    source = draw(st.sampled_from(("ball3", "fixture", "triangle")))
    if source == "ball3":
        return draw(ball3_scenes())
    if source == "fixture":
        dom = draw(st.sampled_from(FIXTURE_DOMAINS))
        picks = [p for ps in defect_sets(dom).values() for p in ps]
        return dom.edges, frozenset(draw(st.sampled_from(picks)))
    dom = TRIANGLES[draw(st.sampled_from(sorted(TRIANGLES)))]
    return dom.edges, frozenset(draw(st.lists(
        st.sampled_from(dom.boundary), min_size=2, max_size=2, unique=True)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scene=plan_scenes())
def test_plan_equals_the_vertex_tuple_oracle(scene):
    # the plan on vertex and edge numbers is the plan on vertex tuples with
    # edges as the frontier, over the edges that the worklist of vertex
    # tuples keeps, and its rank is E - V + C of those edges
    edges, defects = scene
    verts, plan, width, rank = _plan(edges, defects, 0)
    kept = _usable(edges, defects)
    assert kept == peeled_edges(edges, defects)
    assert (verts, plan, width) == _frontier_plan(kept, defects)
    assert rank == len(kept) - len(verts) + len(edge_components(kept))


def turned_vertex(v, turns: int):
    """The vertex at the doubled coordinates of ``v`` turned ``turns`` times
    by 60 degrees about the origin hexagon, as ``exact._TURNS`` turns them
    (twice over)."""
    a, b, c, d = exact._TURNS[turns]
    x, y = hex_xy(v)
    x, y = (a * x + b * y) // 2, (c * x + d * y) // 2
    up = y % 3 == 1  # an up vertex sits at 3s + 1, a down one at 3s + 2
    s = (y - 2 + up) // 3
    w = ((x - s - 2 + up) // 2, s, 0 if up else 1)
    assert hex_xy(w) == (x, y)
    return w


@st.composite
def layout_runs(draw):
    """Two edge sets of ball r=3, each a subset (:func:`ball3_edge_subsets`)
    or a forest, all of whose edges peel with no defect, the second at times
    the first with one edge moved; and a run of plans that goes back and
    forth between them: per plan the edge set, 0, 2 or 4 defects on it and
    a direction, or none for the default one."""
    pools = []
    for _ in range(2):
        if pools and draw(st.booleans()):  # as many edges, not the same
            out = draw(st.sampled_from(pools[0]))
            new = draw(st.sampled_from(BALL3_EDGES))
            assume(new not in pools[0])
            pools.append(tuple(sorted({*pools[0], new} - {out})))
            continue
        edges = sorted(draw(ball3_edge_subsets()))
        if draw(st.booleans()):  # the spanning forest met in edge order
            root = {}

            def find(v):
                while root.get(v, v) != v:
                    v = root[v]
                return v

            forest = []
            for u, v in edges:
                if find(u) != find(v):
                    root[find(u)] = find(v)
                    forest.append((u, v))
            edges = forest
        assume(edges)
        pools.append(tuple(edges))
    run = []
    for _ in range(draw(st.integers(2, 8))):
        edges = draw(st.sampled_from(pools))
        verts = sorted({u for e in edges for u in e})
        size = draw(st.sampled_from([k for k in (0, 2, 4) if k <= len(verts)]))
        defects = frozenset(draw(st.lists(
            st.sampled_from(verts), min_size=size, max_size=size,
            unique=True)))
        run.append((edges, defects, draw(st.none() | st.integers(0, 5))))
    return run


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=layout_runs())
def test_kept_layout_plans_as_a_fresh_one_and_the_oracle(run):
    # the plans of a run, each read off the layout that the plans before it
    # left, equal those of fresh layouts; in each of the six directions a
    # plan is the oracle's plan of the turned edges it keeps, and its cycle
    # rank is the E - V + C of those edges, which no defect set changes
    steps = [(edges, defects, t) for edges, defects, turns in run
             for t in ([None] if turns is None else []) + list(range(6))
             if turns in (None, t)]
    planned = [_plan(*step) for step in steps]
    for (edges, defects, t), got in zip(steps, planned):
        exact._layout.cache_clear()
        assert _plan(edges, defects, t) == got
        if t is None:
            assert got in [_plan(edges, defects, t) for t in range(6)]
            continue
        verts, plan, width, rank = got
        kept = _usable(edges, defects)
        turn = {v: turned_vertex(v, t) for e in edges for v in e}
        back = {w: v for v, w in turn.items()}
        want = _frontier_plan(tuple(edge(turn[u], turn[v]) for u, v in kept),
                              frozenset(turn[v] for v in defects))
        assert ([back[w] for w in want[0]], *want[1:]) == (verts, plan, width)
        assert rank == (len(kept) - len(verts)
                        + len(edge_components(kept))) == (
            len(edges) - len({u for e in edges for u in e})
            + len(edge_components(edges)))


def test_one_layout_per_edge_set_of_a_verify_run(capsys):
    # the catalan suite plans 48 tables on 12 edge sets, each domain's
    # defect sets one after another, so each edge set is laid out once;
    # the whole run lays out 34 for its 75 tables
    for suite, layouts, tables in (("catalan", 12, 48), ("all", 34, 75)):
        exact._layout.cache_clear()
        exact._sweep_table.cache_clear()
        assert cli.main(["verify", "--suite", suite]) == 0
        assert exact._sweep_table.cache_info().misses == tables
        assert exact._layout.cache_info().misses == layouts
    capsys.readouterr()


def test_a_turned_plan_lays_out_today_and_its_own_direction_only():
    # ball r=3 with 2 and 4 defects is wider than 6 today and sweeps in
    # directions 1 and 5: its layout then holds the rank and those two
    # directions, the estimate reading today's
    (edges, two), (_, four) = list(_bench_cases())[1:3]
    for defects, turned in ((two, 1), (four, 5)):
        exact._layout.cache_clear()
        assert _plan(edges, defects, 0)[2] > 6
        exact._layout.cache_clear()
        assert _plan(edges, defects) == _plan(edges, defects, turned)
        assert sorted(exact._layout(edges), key=str) == [0, turned, None]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_tables_past_the_brute_cap_match_the_walk_oracle(seed):
    # the largest component of a random subset of 80 to 120 edges of ball
    # r=3, with a defect pair: the strand from a to b meets brackets, whose
    # far ends the join moves recode, on scenes too large for the brute
    # oracle.  The subset comes from a seeded generator, since the first
    # edges of a near-sorted permutation form a dense patch whose walks
    # are too many to enumerate
    rng = random.Random(seed)
    subset = rng.sample(BALL3_EDGES, rng.randint(80, 120))
    edges = max(edge_components(subset), key=len)
    a, b = rng.sample(sorted({u for e in edges for u in e}), 2)
    assert sweep_table(edges, [a, b]) == walk_pair_table(edges, a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(codes=st.lists(st.integers(0, 3), min_size=1,
                      max_size=MAX_SWEEP_WIDTH))
@example(codes=[_OPEN] + [0] * 14 + [_CLOSE])
@example(codes=[_OPEN, _OPEN, _OPEN, 0, _CLOSE, _OPEN, _CLOSE, _CLOSE,
                _STRAND, _OPEN, 0, _OPEN, _STRAND, _CLOSE, _CLOSE, _CLOSE])
def test_partner_scan_matches_a_stack(codes):
    # codes packed two bits per slot, slot 0 lowest; an unmatched bracket
    # becomes a strand, which leaves nested pairs with strands and empties
    # among them
    codes, stack, pairs = list(codes), [], []
    for i, c in enumerate(codes):
        if c == _OPEN:
            stack.append(i)
        elif c == _CLOSE and stack:
            pairs.append((stack.pop(), i))
        elif c == _CLOSE:
            codes[i] = _STRAND
    for i in stack:
        codes[i] = _STRAND
    packed = sum(c << 2 * i for i, c in enumerate(codes))
    for i, j in pairs:
        assert _partner(packed, i, 1) == j
        assert _partner(packed, j, -1) == i


@pytest.mark.parametrize("codes, i, step", [
    ([_STRAND, _OPEN, 0, _OPEN, _CLOSE, _STRAND], 1, 1),    # a lone open
    ([_STRAND, _OPEN, _CLOSE, 0, _CLOSE, _STRAND], 4, -1),  # a lone close
    ([_OPEN], 0, 1),
    ([_CLOSE], 0, -1)])
def test_partner_scan_fails_on_a_lone_bracket(codes, i, step):
    # a wrong recode must fail the sweep instead of hanging it
    packed = sum(c << 2 * k for k, c in enumerate(codes))
    with pytest.raises(RuntimeError, match="no partner"):
        _partner(packed, i, step)


@pytest.mark.parametrize("name", ["box8x8_table.json",
                                  "triangle10_pair_table.json",
                                  "ball3_subset_table.json"])
def test_sweep_matches_goldens_past_the_brute_cap(name):
    # tables written by the dict-of-pairings engine before the bracket
    # frontier replaced it: the 8x8 axial box, triangle side 10 with a
    # defect pair, and 120 edges of ball r=3 with four defects, two of
    # them interior
    golden = json.loads((GOLDEN / name).read_text())
    if "edges" in golden:
        edges = [tuple(tuple(v) for v in e) for e in golden["edges"]]
    elif name.startswith("box"):
        edges = domain_from_hexagons(rectangle_hexagons(8, 8)).edges
    else:
        edges = triangle_domain(10).domain.edges
    defects = [tuple(d) for d in golden.get("defects", ())]
    assert sweep_table(edges, defects) == {
        (m, l): c for m, l, c in golden["table"]}


def test_sweep_matches_split_pair_goldens():
    # tables written while each plan step was one vertex: ball r=3 with a
    # defect pair at both ends of one vertical edge, at its lower end only
    # and at its upper end only, and triangle side 8 with one defect pair
    edges = {"ball3": BALL3_EDGES, "triangle8": triangle_domain(8).domain.edges}
    golden = json.loads((GOLDEN / "split_pair_tables.json").read_text())
    assert [case["domain"] for case in golden] == ["ball3"] * 3 + ["triangle8"]
    for case in golden:
        defects = [tuple(d) for d in case["defects"]]
        assert sweep_table(edges[case["domain"]], defects) == {
            (m, l): c for m, l, c in case["table"]}
    # the three ball scenes: the edge's two ends, then each with one
    # far vertex
    (lower, upper), (a, b), (c, d) = (
        [tuple(v) for v in case["defects"]] for case in golden[:3])
    assert (lower, upper) in vertical(BALL3_EDGES)
    assert (a, c, b) == (lower, upper, d)


def test_sweep_is_exact_past_int64():
    # a strip of 70 hexagons: width 3, cycle rank 70, counts above 2^63
    dom = domain_from_hexagons(rectangle_hexagons(70, 1))
    table = sweep_table(dom.edges)
    assert sum(table.values()) == 2**70
    golden = json.loads((GOLDEN / "rectangle_70x1_table.json").read_text())
    assert table == {(m, l): c for m, l, c in golden}


def test_sweep_matches_ball3_golden():
    # tables written before the per-state offset and half edge counts
    dom = domain_from_hexagons(hexagon_ball(3))
    golden = json.loads((GOLDEN / "ball3_tables.json").read_text())
    free = sweep_table(dom.edges)
    assert sum(free.values()) == 2**37
    assert free == {(m, l): c for m, l, c in golden["free"]}
    defects = [tuple(d) for d in golden["defects"]]
    assert sweep_table(dom.edges, defects) == {
        (m, l): c for m, l, c in golden["pair"]}


def test_sweep_tables_are_read_only_and_not_copied():
    # sweep_table hands out the cached table itself, so no caller may
    # change it
    dom = domain_from_hexagons(hexagon_ball(3))
    table = sweep_table(dom.edges)
    assert sweep_table(dom.edges) is table
    assert list(table) == sorted(table)
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = 1
    with pytest.raises(TypeError):
        del table[key]
    with pytest.raises(TypeError):
        table |= {key: 1}
    for mutate in (lambda: table.update({key: 1}), lambda: table.pop(key),
                   table.popitem, lambda: table.setdefault((1, 0), 1),
                   table.clear):
        with pytest.raises(TypeError):
            mutate()
    golden = json.loads((GOLDEN / "ball3_tables.json").read_text())
    assert sweep_table(dom.edges) == {
        (m, l): c for m, l, c in golden["free"]}
    # a copy or a pickled table is a table with the same terms and columns
    for twin in (copy.copy(table), pickle.loads(pickle.dumps(table))):
        assert type(twin) is Table and twin == table
        assert ([c.tolist() for c in twin.columns]
                == [c.tolist() for c in table.columns])


def test_sweep_table_with_odd_lowest_edge_count():
    # a defect pair at the far ends of a row of three hexagons: every
    # configuration has 9 or more edges, an odd count, so the packed
    # polynomial has a nonzero offset and odd parity
    dom = domain_from_hexagons([(0, 0), (1, 0), (2, 0)])
    assert len(dom.edges) == 26
    ends = sorted(dom.boundary, key=hex_xy)
    defects = [ends[0], ends[-1]]
    table = sweep_table(dom.edges, defects)
    assert min(table)[0] == 9
    assert table == brute_force_table(dom.edges, defects)


def test_empty_edge_set():
    p = Params(n=1.4, x=0.6)
    assert sweep_table(()) == {(0, 0): 1}
    assert brute_force_table(()) == {(0, 0): 1}
    assert evaluate_table(sweep_table(()), p).value.real == 1.0
    assert sweep_table((), defects=((0, 0, 0),)) == {}


def test_engine_caps():
    # the brute engine takes a domain at exactly its cap
    chain = domain_from_hexagons([(0, 0), (1, 0), (2, 0)])
    assert len(chain.edges) == MAX_BRUTE_EDGES
    assert brute_force_table(chain.edges) == sweep_table(chain.edges)
    dom, _, _ = flower()
    w = sweep_width(dom.edges)
    assert 2 <= w <= 6
    with pytest.raises(WidthExceeded):
        capped_sweep_table(dom.edges, w - 1)


def test_sweep_reaches_beyond_the_brute_cap():
    big = triangle_domain(6).domain
    assert len(big.edges) == 45
    p = Params(n=1.5, x=x_critical(1.5))
    with pytest.raises(TooLarge):
        brute_force_table(big.edges)
    z = evaluate_table(sweep_table(big.edges), p)
    assert z.value.real >= 1.0  # the empty configuration alone contributes 1


# ---------------------------------------------------------------------------
# relative weights
# ---------------------------------------------------------------------------

def test_relative_weight_flower():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    got = relative_weight(dom, [w[0], v[0], v[1], w[1]], p)
    assert got == pytest.approx(0.6**3 / (1 + 1.4 * 0.6**6), rel=1e-12)
    assert relative_weight(dom, [], p) == 1.0
    assert relative_weight(dom, [w[0]], p) == pytest.approx(1.0, rel=1e-15)


def test_relative_weight_errors():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    with pytest.raises(PathNotInDomain):
        relative_weight(dom, [(5, 5, 0), (5, 5, 1)], p)
    with pytest.raises(NotAPath):
        relative_weight(dom, [w[0], v[0], w[0]], p)
    with pytest.raises(NotAPath):
        relative_weight(dom, [[w[0], v[0]], [v[0], v[1]]], p)
    with pytest.raises(NotAPath):
        relative_weight(list(dom.edges), [[w[0], v[0]], [v[0], v[1]]], p)


def test_chain_rule_exact_on_flower():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    gamma = [w[0], v[0], v[1]]
    eta = [v[1], v[2], v[3], w[3]]
    whole = relative_weight(dom, gamma + eta[1:], p)
    assert whole == pytest.approx(0.6**5 / (1 + 1.4 * 0.6**6), rel=1e-12)
    # cutting out gamma first: eta then overhangs the removed junction edge
    after_gamma = [e for comp in remove_paths(dom, [gamma]) for e in comp]
    left = relative_weight(dom, gamma, p) * relative_weight(after_gamma, eta, p)
    assert abs(whole - left) <= 1e-15
    after_eta = [e for comp in remove_paths(dom, [eta]) for e in comp]
    right = relative_weight(after_eta, gamma, p) * relative_weight(dom, eta, p)
    assert abs(whole - right) <= 1e-15


def test_chain_rule_on_triangle_walks():
    tri = triangle_domain(4)
    dom = tri.domain
    p = Params(n=1.7, x=x_critical(1.7))
    a = tri.start_vertex
    # one walk from the bottom tip to the left side, split at every junction
    walks = [wk for wk in _all_walks(dom, a) if len(wk) >= 4]
    assert walks
    for wk in walks[:8]:
        for cut in range(1, len(wk) - 1):
            gamma, eta = list(wk[:cut + 1]), list(wk[cut:])
            whole = relative_weight(dom, wk, p)
            rest = [e for comp in remove_paths(dom, [gamma]) for e in comp]
            split = relative_weight(dom, gamma, p) * relative_weight(rest, eta, p)
            assert abs(whole - split) <= 1e-12 * whole


def _all_walks(dom, a):
    """All self-avoiding walks from a to any other boundary vertex."""
    targets = frozenset(b for b in dom.boundary if b != a)
    out = []
    walk = [a]

    def rec(u):
        for e in dom.vertex_edges[u]:
            nxt = e[1] if e[0] == u else e[0]
            if nxt in walk:
                continue
            walk.append(nxt)
            if nxt in targets:
                out.append(tuple(walk))
            rec(nxt)
            walk.pop()

    rec(a)
    return out


def test_disjoint_union_weight():
    chain = domain_from_hexagons([(0, 0), (1, 0), (2, 0)])
    p = Params(n=1.4, x=0.6)
    bnd = sorted(chain.boundary)
    spoke0 = chain.spokes[bnd[0]]
    spoke1 = chain.spokes[bnd[-1]]
    g1 = [bnd[0], spoke0[0] if spoke0[1] == bnd[0] else spoke0[1]]
    g2 = [bnd[-1], spoke1[0] if spoke1[1] == bnd[-1] else spoke1[1]]
    union = relative_weight(chain, [g1, g2], p)
    rest = [e for comp in remove_paths(chain, [g1]) for e in comp]
    stepwise = relative_weight(chain, g1, p) * relative_weight(rest, g2, p)
    assert union == pytest.approx(stepwise, rel=1e-12)


def test_union_removal_with_touching_endpoint_stars():
    # two one-edge walks whose endpoints are adjacent: the shared incident
    # edge is removed once, not twice
    dom, v, w = flower()
    comps = remove_paths(dom, [[w[0], v[0]], [w[1], v[1]]])
    assert sum(len(c) for c in comps) == 7


# ---------------------------------------------------------------------------
# defect-pair sums
# ---------------------------------------------------------------------------

def test_path_sum_flower():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    ps = path_sum(dom, w[0], w[3], p)
    want = 2 * 0.6**5 / (1 + 1.4 * 0.6**6)
    assert ps.value == pytest.approx(want, rel=1e-12)
    assert ps.n_walks == 0
    # the oracle sums the two walks round the hexagon one by one
    walks = walk_path_sum(dom, w[0], w[3], p)
    assert walks.n_walks == 2
    assert abs(ps.value - walks.value) <= 1e-10 * ps.value


def test_path_sum_triangle_sides():
    for side in (2, 4):
        tri = triangle_domain(side)
        for n in (1.0, 1.5, 2.0):
            xc = x_critical(n)
            p = Params(n=n, x=xc)
            value = path_sum(tri.domain, tri.start_vertex,
                             tri.left_boundary, p).value
            walks = walk_path_sum(tri.domain, tri.start_vertex,
                                  tri.left_boundary, p).value
            assert abs(value - walks) <= 1e-10 * value
            assert value >= xc * xc * (1 - 1e-9)
            if side == 2:
                # the smallest triangle attains the bound exactly
                assert value == pytest.approx(xc * xc, rel=1e-12)


@st.composite
def small_domains(draw):
    """A domain of one to five hexagons of the ball r=2, grown one
    neighbour at a time, or nothing when its boundary pinches."""
    cells = [draw(st.sampled_from(BALL2))]
    for _ in range(draw(st.integers(0, 4))):
        grow = sorted({g for h in cells for g in tri_neighbors(h)}
                      & set(BALL2) - set(cells))
        cells.append(draw(st.sampled_from(grow)))
    try:
        return domain_from_hexagons(cells)
    except NotSelfAvoiding:
        return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_path_sum_matches_walk_oracle(data):
    dom = data.draw(small_domains())
    assume(dom is not None)
    verts = sorted({u for e in dom.edges for u in e})
    a = data.draw(st.sampled_from(dom.boundary))
    targets = data.draw(st.lists(st.sampled_from(verts), min_size=1,
                                 max_size=4, unique=True))
    n = data.draw(st.sampled_from((1.0, 1.5, 2.0)))
    p = Params(n=n, x=data.draw(st.sampled_from((0.4, x_critical(n)))))
    got = path_sum(dom, a, targets, p)
    want = walk_path_sum(dom, a, targets, p)
    assert got.n_walks == 0
    assert abs(got.value - want.value) <= 1e-10 * want.value
    assert (want.n_walks == 0) == (set(targets) <= {a})


def test_path_sum_respects_defect_pair_bound():
    # Z^{a,b}/Z is at most 1/sqrt(n) whenever x <= 1/sqrt(n)
    fixtures = [flower()[0],
                domain_from_hexagons([(0, 0), (1, 0)]),
                triangle_domain(4).domain]
    for dom in fixtures:
        bnd = sorted(dom.boundary)
        pairs = [(bnd[0], bnd[-1]), (bnd[0], bnd[len(bnd) // 2])]
        for n in (1.0, 1.4, 2.0):
            for x in (x_critical(n), n**-0.5):
                p = Params(n=n, x=x)
                for a, b in pairs:
                    ps = path_sum(dom, a, b, p)
                    assert ps.value <= n**-0.5 + 1e-12


def test_path_sum_arguments():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    for route in (path_sum, walk_path_sum):
        with pytest.raises(OutOfRange):
            route(dom, (9, 9, 0), w[3], p)
        with pytest.raises(OutOfRange):
            route(dom, w[0], (9, 9, 0), p)
        with pytest.raises(OutOfRange):
            route(dom, w[0], (), p)
    # a target collection containing the source just drops it
    every = path_sum(dom, w[0], w, p)
    others = sum(path_sum(dom, w[0], b, p).value for b in w[1:])
    assert every.value == pytest.approx(others, rel=1e-12)


# ---------------------------------------------------------------------------
# the edge-midpoint observable
# ---------------------------------------------------------------------------

def test_observable_is_one_at_the_start():
    cases = [(triangle_domain(2).domain, triangle_domain(2).start_edge),
             (triangle_domain(4).domain, triangle_domain(4).start_edge)]
    dom, v, w = flower()
    cases.append((dom, dom.spokes[sorted(dom.boundary)[0]]))
    for d, z0 in cases:
        for n, x in ((1.0, 0.5), (1.6, x_critical(1.6))):
            field = parafermion_field(d, z0, Params(n=n, x=x))
            assert field[z0] == 1.0 + 0j
            assert set(field) == set(d.edges)


def test_smallest_triangle_observable_closed_forms():
    tri = triangle_domain(2)
    d = tri.domain
    n = 1.5
    xc = x_critical(n)
    sig = sigma_exponent(n)
    p = Params(n=n, x=xc)
    field = parafermion_field(d, tri.start_edge, p)
    z_left = d.spokes[tri.left_boundary[0]]
    z_right = d.spokes[tri.right_boundary[0]]
    assert field[z_left] == pytest.approx(
        xc * cmath.exp(-1j * sig * math.pi / 3), abs=1e-14)
    assert field[z_right] == pytest.approx(
        xc * cmath.exp(1j * sig * math.pi / 3), abs=1e-14)
    v0 = next(iter(d.interior))
    res = vertex_relation_residual(d, tri.start_edge, v0, p, field=field)
    assert abs(res) <= 1e-12
    lhs = (cmath.exp(-2j * math.pi / 3) * field[z_left]
           + cmath.exp(2j * math.pi / 3) * field[z_right]
           + field[tri.start_edge])
    assert abs(lhs) <= 1e-12
    # off criticality the local relation visibly fails
    p_off = Params(n=n, x=xc + 0.05)
    res_off = vertex_relation_residual(d, tri.start_edge, v0, p_off)
    assert abs(res_off) > 1e-3


def test_triangle_vertex_relation_across_weights():
    tri = triangle_domain(4)
    d = tri.domain
    for n in (1.0, 1.4, 2.0):
        p = Params(n=n, x=x_critical(n))
        field = parafermion_field(d, tri.start_edge, p)
        fmax = max(abs(z) for z in field.values())
        for v in d.interior:
            res = vertex_relation_residual(d, tri.start_edge, v, p,
                                           field=field)
            assert abs(res) <= 1e-9 * fmax
    p_off = Params(n=1.4, x=x_critical(1.4) + 0.05)
    field = parafermion_field(d, tri.start_edge, p_off)
    fmax = max(abs(z) for z in field.values())
    worst = max(abs(vertex_relation_residual(d, tri.start_edge, v, p_off,
                                             field=field))
                for v in d.interior)
    assert worst > 1e-3 * fmax


def test_triangle_contour_identity():
    tri = triangle_domain(4)
    d = tri.domain
    for n in (1.0, 1.5, 2.0):
        p = Params(n=n, x=x_critical(n))
        field = parafermion_field(d, tri.start_edge, p)
        left = sum(field[d.spokes[b]] for b in tri.left_boundary)
        right = sum(field[d.spokes[b]] for b in tri.right_boundary)
        bottom = sum(field[d.spokes[b]] for b in tri.bottom_boundary)
        lhs = (cmath.exp(-2j * math.pi / 3) * left
               + cmath.exp(2j * math.pi / 3) * right + bottom)
        assert abs(lhs) <= 1e-12


def test_boundary_midpoint_windings():
    # every walk from the start to a fixed boundary vertex shares one
    # winding: pi/3 to the left side, -pi/3 to the right side, and +-pi on
    # the bottom according to the side of the start edge
    tri = triangle_domain(4)
    d = tri.domain
    n = 1.7
    sig = sigma_exponent(n)
    p = Params(n=n, x=x_critical(n))
    field = parafermion_field(d, tri.start_edge, p)
    a = tri.start_vertex
    ax = hex_xy(a)[0]

    def expected_winding(side, b):
        if side == "left":
            return math.pi / 3
        if side == "right":
            return -math.pi / 3
        return math.pi if hex_xy(b)[0] < ax else -math.pi

    for side, verts in (("left", tri.left_boundary),
                        ("right", tri.right_boundary),
                        ("bottom", tri.bottom_boundary)):
        for b in verts:
            if b == a:
                continue
            total = path_sum(d, a, b, p).value
            want = total / p.x * cmath.exp(-1j * sig * expected_winding(side, b))
            assert field[d.spokes[b]] == pytest.approx(want, abs=1e-12)


def test_observable_arguments():
    tri = triangle_domain(4)
    d = tri.domain
    p = Params(n=1.5, x=0.5)
    with pytest.raises(PathNotInDomain):
        parafermion_field(d, ((9, 9, 0), (9, 9, 1)), p)
    inner = hexagon_edges((1, 1))[0]  # both endpoints interior
    with pytest.raises(OutOfRange):
        parafermion_field(d, inner, p)
    big = triangle_domain(6)
    assert len(big.domain.edges) == 45
    with pytest.raises(TooLarge):
        parafermion_field(big.domain, big.start_edge, p)


def test_vertex_relation_rejects_boundary_vertices():
    tri = triangle_domain(4)
    p = Params(n=1.5, x=0.5)
    with pytest.raises(OutOfRange):
        vertex_relation_residual(tri.domain, tri.start_edge,
                                 tri.domain.boundary[0], p)


def test_observable_is_deterministic():
    tri = triangle_domain(4)
    p = Params(n=1.3, x=x_critical(1.3))
    f1 = parafermion_field(tri.domain, tri.start_edge, p)
    f2 = parafermion_field(tri.domain, tri.start_edge, p)
    assert f1 == f2


# ---------------------------------------------------------------------------
# exact probabilities through spins
# ---------------------------------------------------------------------------

def test_event_probability_normalization():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6, h=0.1, hp=-0.2)
    assert exact_event_probability(dom, -1, p, lambda s: True) == 1.0
    assert exact_event_probability([(0, 0)], 1, p, lambda s: True) == 1.0
    assert exact_event_probability(dom, -1, p, lambda walls: True,
                                   side="loops") == 1.0
    assert exact_event_probability(dom, -1, p, lambda s: False) == 0.0


def test_flower_spin_probabilities():
    dom, v, w = flower()
    n, x = 1.4, 0.6
    p = Params(n=n, x=x)
    plus = exact_event_probability(dom, -1, p, lambda s: s[(0, 0)] == 1)
    assert plus == pytest.approx(n * x**6 / (1 + n * x**6), rel=1e-12)
    walls = exact_event_probability(dom, -1, p, lambda ws: len(ws) == 6,
                                    side="loops")
    assert walls == pytest.approx(plus, rel=1e-15)
    # with fields, by direct hand enumeration of the two assignments
    p2 = Params(n=1.4, x=0.6, h=0.3, hp=0.2)
    num = 1.4 * 0.6**6 * math.exp(0.3)
    den = num + math.exp(-0.3 - 3 * 0.2)
    plus2 = exact_event_probability(dom, -1, p2, lambda s: s[(0, 0)] == 1)
    assert plus2 == pytest.approx(num / den, rel=1e-12)


def test_wall_distribution_matches_loop_weights():
    # the law of the wall configuration is the loop measure on the edges
    # bordering the free hexagons
    for hexes, tau in (([(0, 0)], -1), ([(0, 0)], 1),
                       ([(0, 0), (1, 0)], -1), ([(0, 0), (1, 0), (0, 1)], 1)):
        dom = domain_from_hexagons(hexes)
        p = Params(n=1.4, x=x_critical(1.4))
        edges = border_edges(dom.interior_hexagons)
        table = sweep_table(edges)
        z = evaluate_table(table, p).value.real
        # enumerate the even subgraphs via the spin side and check each
        seen = {}

        def record(walls, seen=seen):
            seen[frozenset(walls)] = seen.get(frozenset(walls), 0) + 1
            return False

        exact_event_probability(dom, tau, p, record, side="loops")
        assert sum(seen.values()) == 2 ** len(dom.interior_hexagons)
        for walls, mult in seen.items():
            assert mult == 1  # the spin-wall correspondence is one to one
            got = exact_event_probability(
                dom, tau, p, lambda ws, W=walls: ws == W, side="loops")
            want = p.x ** len(walls) * p.n ** loop_count(walls) / z
            assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=spin_systems(BALL2, max_size=8), n=st.floats(0.05, 5.0),
       x=st.floats(0.05, 3.0), level=st.integers(-8, 8))
def test_spin_sums_equal_the_python_loop(system, n, x, level):
    # a total and an event sum add the same floats as the Python loop of
    # max, subtraction and exp over the log weights in assignment order
    p = Params(n=n, x=x)
    logs = list(assignment_log_weights(system, p))
    assert spin_partition(system, p) == loop_sum_logs(logs)

    def event(s):
        return sum(s.values()) > level

    holds = _truth(system, event, "spins")
    want = loop_sum_logs([lg for lg, t in zip(logs, holds) if t])
    assert spin_partition(system, p, event) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(system=spin_systems(BALL2, max_size=8), data=st.data())
def test_gray_walk_truths_equal_the_product_order_oracle(system, data):
    # spin, wall and framed-array events, the last against their mapping
    # forms, each read assignment by assignment in product order
    free = system.free
    picks = data.draw(st.lists(st.sampled_from(free), min_size=1,
                               unique=True))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)),
                               min_size=len(picks), max_size=len(picks)))
    wanted = dict(zip(picks, signs))
    level = data.draw(st.integers(-len(free), len(free)))
    wall = data.draw(st.sampled_from(border_edges(free)))
    events = [
        ("spins", lambda s: all(s[h] == v for h, v in wanted.items())),
        ("spins", lambda s: sum(s.values()) > level),
        ("spins", lambda s: tuple(s) == free),  # keys in system.free order
        ("loops", lambda walls: wall in walls and len(walls) % 4 != 2),
    ]
    for side, event in events:
        assert _truth(system, event, side) == product_truth(system, event,
                                                            side)

    # the joint events of check_several_faces, kept on the system
    fa = frozenset(data.draw(st.lists(st.sampled_from(free), min_size=1,
                                      max_size=3, unique=True)))
    fb = frozenset(data.draw(st.lists(st.sampled_from(free), min_size=1,
                                      max_size=3, unique=True)))
    check_several_faces(system, None, fa, fb, Params(1.5, 0.5))
    for a, b in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        framed = system.kept(("faces", fa, fb, a, b), None)
        mapped = lambda s, a=a, b=b: (all(s[h] == a for h in fa)  # noqa: E731
                                      and all(s[h] == b for h in fb))
        assert (_truth(system, framed, "framed")
                == product_truth(system, framed, "framed")
                == product_truth(system, mapped, "spins"))

    # a crossing between frozen plus arcs, against the mapping flood
    plus = sorted(h for h, v in system.fixed.items() if v == 1)
    if plus:
        sa = frozenset(data.draw(st.lists(st.sampled_from(plus), min_size=1,
                                          max_size=3, unique=True)))
        sb = frozenset(data.draw(st.lists(st.sampled_from(plus), min_size=1,
                                          max_size=3, unique=True)))
        crossing = sign_flood(system, set(free) | sa | sb, sa, sb, 1)

        def mapped_crossing(sigma):
            signs = {**sigma, **{h: 1 for h in sa | sb}}
            return _sign_crossing(signs, signs, sa, sb, 1)

        assert (_truth(system, crossing, "framed")
                == product_truth(system, mapped_crossing, "spins"))


def test_symmetric_crossings_equal_the_mapping_flood():
    # the kept crossing of each symmetric fixture, an index flood over the
    # framed array, against the flood of the merged sign mapping it replaced
    for f in load_symmetric_fixtures():
        sa, sb = frozenset(f.arc_a), frozenset(f.arc_b)
        system = SpinSystem(f.region, {h: 1 for h in sa | sb}, sea=-1)
        check_symmetric_domain(system, (f.arc_a, f.arc_b), 1.5, 0.5)
        crossing = system.kept(("crossing", sa, sb), None)

        def mapped(sigma):
            signs = {**sigma, **{h: 1 for h in sa | sb}}
            return _sign_crossing(signs, signs, sa, sb, 1)

        want = product_truth(system, mapped, "spins")
        assert 0 < sum(want) < len(want)
        assert _truth(system, crossing, "framed") == want


def test_spin_totals_are_kept_per_point():
    system = SpinSystem(sorted(hexagon_ball(1)), -1, sea=-1)
    points = [Params(1.5, x_critical(1.5)), Params(1.0, 0.5, 0.2, -0.3)]
    totals = [spin_partition(system, p) for p in points]
    for p, total in zip(points, totals):
        assert spin_partition(system, Params(p.n, p.x, p.h, p.hp)) is total
        # equal to a fresh system's, and to the weights added afresh
        assert total == spin_partition(SpinSystem(system.free, -1, sea=-1), p)
        logs = [log_spin_weight(p, c) for c in assignment_counts(system)]
        assert total == WeightSum.sum_logs(logs) == loop_sum_logs(logs)
    # an event sum is not kept as the total
    everything = spin_partition(system, points[0], lambda s: True)
    assert everything == totals[0] and everything is not totals[0]


def test_spin_partition_inputs():
    dom, v, w = flower()
    p = Params(n=1.4, x=0.6)
    sys = SpinSystem([(0, 0)], -1, sea=-1)
    direct = spin_partition(sys, p)
    assert direct.value.real == pytest.approx(1 + 1.4 * 0.6**6, rel=1e-12)
    via_region = exact_event_probability(sys, -1, p, lambda s: True)
    assert via_region == 1.0
    ring = {h: -1 for h in sorted(SpinSystem([(0, 0)], -1).fixed)}
    by_mapping = exact_event_probability([(0, 0)], ring, p,
                                         lambda s: s[(0, 0)] == 1)
    assert by_mapping == pytest.approx(1.4 * 0.6**6 / (1 + 1.4 * 0.6**6),
                                       rel=1e-12)
    with pytest.raises(TooLarge):
        spin_partition(SpinSystem(sorted(rhombus_hexagons(5)), -1), p)
    with pytest.raises(OutOfRange):
        spin_partition(sys, p, side="edges")
