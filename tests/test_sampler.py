"""Tests for the heat-bath chain: single-flip deltas, transition
probabilities, reproducibility, and agreement with exact enumeration."""

import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexloop import sampler
from hexloop.configs import (
    Params,
    SpinCounts,
    SpinSystem,
    log_spin_weight,
    spin_counts,
)
from hexloop.errors import DomainTooSmall, OutOfRange
from hexloop.exact import exact_event_probability, x_critical
from hexloop.lattice import hexagon_ball, rhombus_hexagons, tri_neighbors
from hexloop.observables import event_from_json
from hexloop.sampler import (
    ChainState,
    Estimate,
    delta_counts,
    estimate_from_series,
    heat_bath_step,
    integrated_autocorrelation,
    run_chain,
)

from shapes import HOLE, RING12, holes, spin_systems, with_hole

GOLDEN = pathlib.Path(__file__).parent / "golden"
PARAMS = Params(n=1.4, x=0.5, h=0.3, hp=-0.2)

BALL1 = sorted(hexagon_ball(1))
RECT12 = sorted((r, s) for r in range(3) for s in range(4))
BALL3 = sorted(hexagon_ball(3))


def random_system(shape, rng):
    """A system over the shape with random frozen ring spins."""
    ring = {g for h in shape for g in tri_neighbors(h)} - set(shape)
    fixed = {g: rng.choice((-1, 1)) for g in sorted(ring)}
    return SpinSystem(shape, fixed, sea=rng.choice((-1, 1)))


def random_state(system, rng, params=PARAMS):
    init = {h: rng.choice((-1, 1)) for h in system.free}
    return ChainState(system, params, init=init)


def negated(c: SpinCounts) -> SpinCounts:
    return SpinCounts(k=-c.k, e=-c.e, r=-c.r, twice_rp=-c.twice_rp)


def recount_delta(state: ChainState, u) -> SpinCounts:
    """Count changes of flipping ``u``, from two full recounts."""
    system = state.system
    before = spin_counts(system, state.free_signs())
    flipped = state.free_signs()
    flipped[system.free_index[u]] *= -1
    after = spin_counts(system, flipped)
    return SpinCounts(k=after.k - before.k, e=after.e - before.e,
                      r=after.r - before.r,
                      twice_rp=after.twice_rp - before.twice_rp)


# ---------------------------------------------------------------------------
# single-flip deltas
# ---------------------------------------------------------------------------

def test_delta_all_minus_interior_flip():
    system = SpinSystem(hexagon_ball(2), fixed=-1, sea=-1)
    state = ChainState(system, PARAMS, init=-1)
    d = delta_counts(state, (0, 0))
    assert d.k == 1
    assert d.e == 6
    assert d.r == 2
    assert d.twice_rp == 6


def test_delta_all_plus_interior_flip():
    system = SpinSystem(hexagon_ball(2), fixed=1, sea=1)
    state = ChainState(system, PARAMS, init=1)
    d = delta_counts(state, (0, 0))
    assert d.k == 1
    assert d.e == 6
    assert d.r == -2
    assert d.twice_rp == -6


def test_delta_splits_a_cluster():
    # three collinear plus sites in a minus sea: flipping the middle one
    # cuts the cluster in two
    free = [(-1, 0), (0, 0), (1, 0)]
    system = SpinSystem(free, fixed=-1, sea=-1)
    state = ChainState(system, PARAMS, init=1)
    d = delta_counts(state, (0, 0))
    assert d.k == 1
    back = ChainState(system, PARAMS, init={(-1, 0): 1, (0, 0): -1, (1, 0): 1})
    assert delta_counts(back, (0, 0)).k == -1


def test_delta_merges_across_the_sea():
    # two plus sites far apart in the ring, everything else minus: each is
    # its own cluster, and flipping one removes it without touching the other
    free = RING12
    system = SpinSystem(free, fixed=-1, sea=-1)
    init = {h: -1 for h in free}
    init[(2, 0)] = 1
    init[(-2, 0)] = 1
    state = ChainState(system, PARAMS, init=init)
    d = delta_counts(state, (2, 0))
    assert d.k == -1
    assert d.r == -2


def ring_runs(state: ChainState, u) -> int:
    """Number of arcs of the site's own sign around ``u``."""
    system = state.system
    center = state.sigma[u]
    ring = [state.sigma.get(g, system.fixed.get(g, system.sea))
            for g in (tuple(a + b for a, b in zip(u, d)) for d in
                      ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))]
    return sum(1 for i in range(6) if ring[i] == center != ring[i - 1])


def counting_recounts(monkeypatch) -> list:
    """Record every call of the sampler's ``spin_counts`` binding, through
    which the chain recounts."""
    calls = []

    def spy(system, spins):
        calls.append(system)
        return spin_counts(system, spins)

    monkeypatch.setattr(sampler, "spin_counts", spy)
    return calls


def test_delta_matches_full_recount():
    rng = random.Random(20260816)
    shapes = [BALL1, RECT12, RING12]
    for trial in range(1000):
        shape = shapes[trial % 3]
        system = random_system(shape, rng)
        state = random_state(system, rng)
        u = rng.choice(system.free)
        assert delta_counts(state, u) == recount_delta(state, u)


def test_only_holed_contexts_recount(monkeypatch):
    # RING12's context encloses its centre, which joins the sea, so its
    # multi-arc flips are recounted; on a ball the wall walk answers all of
    # them, also at n = 2, where a fifth of the updates are multi-arc
    recounts = counting_recounts(monkeypatch)
    rng = random.Random(20260816)
    multi_arc = 0
    for _ in range(60):
        system = random_system(RING12, rng)
        assert not system._sea_connected
        state = random_state(system, rng)
        for u in system.free:
            before = len(recounts)
            assert delta_counts(state, u) == recount_delta(state, u)
            assert len(recounts) - before == (ring_runs(state, u) > 1)
            multi_arc += ring_runs(state, u) > 1
    assert multi_arc > 0

    system = SpinSystem(hexagon_ball(6), +1, sea=+1)
    assert system._sea_connected
    state = ChainState(system, Params(n=2.0, x=x_critical(2.0)), seed=3)
    recounts.clear()
    for _ in range(50):
        state.sweep()
    assert recounts == []
    assert spin_counts(system, state.free_signs()) == state.counts


def test_every_ring_pattern_of_a_single_site(monkeypatch):
    # one free site with its ring frozen: all 2^7 sign patterns of the site
    # and its ring, under either sea sign.  Each pattern is also set in a
    # holed context, where the change is recounted.
    params = Params(n=1.6, x=0.55, h=0.3, hp=-0.4)
    ring = tri_neighbors((0, 0))
    recounts = counting_recounts(monkeypatch)
    multi_arc = 0
    for sea in (-1, 1):
        for center, *ring_signs in itertools.product((-1, 1), repeat=7):
            frame = dict(zip(ring, ring_signs))
            system = SpinSystem([(0, 0)], frame, sea=sea)
            state = ChainState(system, params, init=center)
            want = recount_delta(state, (0, 0))
            assert delta_counts(state, (0, 0)) == want
            holed = SpinSystem([(0, 0)], with_hole(frame, sea), sea=sea)
            assert holes(holed.context) == {HOLE}
            holed_state = ChainState(holed, params, init=center)
            before = len(recounts)
            assert (delta_counts(holed_state, (0, 0))
                    == recount_delta(holed_state, (0, 0)))
            assert len(recounts) - before == (ring_runs(state, (0, 0)) > 1)
            weights = [log_spin_weight(params, spin_counts(system, [v]))
                       for v in (1, -1)]
            p_plus = 1.0 / (1.0 + math.exp(weights[1] - weights[0]))
            assert state.plus_probability((0, 0)) == pytest.approx(
                p_plus, rel=1e-12, abs=1e-15)
            runs = sum(1 for i in range(6)
                       if ring_signs[i] == center != ring_signs[i - 1])
            multi_arc += runs > 1
    assert multi_arc == 2 * 2 * 32  # ring patterns with two or three arcs


@st.composite
def ball3_states(draw):
    """A chain on a simply connected or holed system over the ball r=3,
    with random starting spins."""
    system = draw(spin_systems(BALL3))
    init = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(system.free),
                         max_size=len(system.free)))
    return ChainState(system, PARAMS, init=dict(zip(system.free, init)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(state=ball3_states())
def test_delta_matches_recount_on_random_subsets(state):
    assert state.system._sea_connected == (not holes(state.system.context))
    for u in state.system.free:
        assert delta_counts(state, u) == recount_delta(state, u)


def test_delta_is_involution():
    rng = random.Random(77)
    for trial in range(200):
        system = random_system(RECT12 if trial % 2 else BALL1, rng)
        state = random_state(system, rng)
        u = rng.choice(system.free)
        d = delta_counts(state, u)
        flipped = dict(state.sigma)
        flipped[u] *= -1
        back = ChainState(system, PARAMS, init=flipped)
        assert delta_counts(back, u) == negated(d)


def test_delta_rejects_non_free_hexagon():
    system = SpinSystem(BALL1, fixed=1)
    state = ChainState(system, PARAMS)
    with pytest.raises(OutOfRange):
        delta_counts(state, (5, 5))
    with pytest.raises(OutOfRange):
        delta_counts(state, (2, 0))  # frozen ring site


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------

def test_plus_probability_matches_ising_formula():
    # with n = 1 and no triangle field the chain is Ising heat bath at
    # inverse temperature -log(x)/2 and field h
    rng = random.Random(3)
    for x in (0.3, 0.5773502691896258, 0.9):
        params = Params(n=1.0, x=x, h=0.25, hp=0.0)
        beta = -0.5 * math.log(x)
        for _ in range(25):
            system = random_system(BALL1, rng)
            state = random_state(system, rng, params)
            for u in system.free:
                nb_sum = sum(state.sigma.get(g, system.fixed.get(g, system.sea))
                             for g in tri_neighbors(u))
                want = 1.0 / (1.0 + math.exp(-2.0 * beta * nb_sum
                                             - 2.0 * params.h))
                assert state.plus_probability(u) == pytest.approx(want,
                                                                  abs=1e-12)


def test_detailed_balance_against_exact_weights():
    rng = random.Random(41)
    params = Params(n=1.7, x=0.55, h=0.2, hp=0.15)
    for _ in range(60):
        system = random_system(BALL1, rng)
        sigma = {h: rng.choice((-1, 1)) for h in system.free}
        u = rng.choice(system.free)
        up, down = dict(sigma), dict(sigma)
        up[u], down[u] = 1, -1
        state = ChainState(system, params, init=up)
        p_plus = state.plus_probability(u)
        log_ratio = (log_spin_weight(params, spin_counts(system, up))
                     - log_spin_weight(params, spin_counts(system, down)))
        # heat bath: p+ / p-  ==  W+ / W-, hence balance is exact
        assert math.log(p_plus / (1.0 - p_plus)) == pytest.approx(
            log_ratio, abs=1e-10)


def test_flip_probability_vanishes_at_small_x():
    system = SpinSystem(hexagon_ball(2), fixed=-1, sea=-1)
    state = ChainState(system, Params(n=1.4, x=0.01), init=-1)
    assert state.plus_probability((0, 0)) < 1e-10


def test_init_is_validated():
    system = SpinSystem([(0, 0), (1, 0)], fixed=-1, sea=-1)
    with pytest.raises(OutOfRange, match="got 0"):
        ChainState(system, PARAMS, init=0)
    with pytest.raises(OutOfRange, match="got 2"):
        ChainState(system, PARAMS, init={(0, 0): 1, (1, 0): 2})
    with pytest.raises(OutOfRange, match=r"\(1, 0\)"):
        ChainState(system, PARAMS, init={(0, 0): 1})


def test_plus_probability_rejects_non_free_hexagon():
    state = ChainState(SpinSystem(BALL1, fixed=1), PARAMS)
    with pytest.raises(OutOfRange, match="not a free hexagon"):
        state.plus_probability((9, 9))


def test_heat_bath_step_updates_in_place():
    system = SpinSystem(BALL1, fixed=1)
    state = ChainState(system, Params(n=1.4, x=0.6), seed=5, debug=True)
    for u in system.free:
        out = heat_bath_step(state, u)
        assert out is state
    assert spin_counts(system, state.free_signs()) == state.counts
    with pytest.raises(OutOfRange):
        heat_bath_step(state, (9, 9))


# ---------------------------------------------------------------------------
# chain state bookkeeping
# ---------------------------------------------------------------------------

@st.composite
def monotone_scenes(draw):
    """A system on a random subset of a ball of radius at most 4 with a
    random mixed frame, and parameters with h = h' = 0, n in [1, 2] and
    x in (0, x_c(n)]."""
    ball = sorted(hexagon_ball(draw(st.integers(1, 4))))
    system = draw(spin_systems(ball))
    n = draw(st.floats(1.0, 2.0))
    share = draw(st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
    return system, Params(n=n, x=share * x_critical(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scene=monotone_scenes(), seed=st.integers(0, 2 ** 64 - 1))
def test_coupled_chains_stay_ordered(scene, seed):
    # in the monotone region a heat-bath update with shared uniforms keeps
    # order, so a chain from all plus stays above one from all minus
    system, params = scene
    assert params.in_monotone_region
    top = ChainState(system, params, seed=seed, init=1)
    bottom = ChainState(system, params, seed=seed, init=-1)
    for _ in range(30):
        top.sweep()
        bottom.sweep()
        assert all(a >= b for a, b in zip(top.free_signs(),
                                          bottom.free_signs()))


def test_cache_stays_coherent_over_sweeps():
    rng = random.Random(11)
    system = random_system(BALL1, rng)
    state = ChainState(system, PARAMS, seed=123, debug=True)
    for _ in range(150):
        state.sweep()
    assert state.sweep_count == 150
    assert spin_counts(system, state.free_signs()) == state.counts


def test_init_mapping_and_sigma_view():
    system = SpinSystem(BALL1, fixed=1)
    init = {h: (1 if i % 2 else -1) for i, h in enumerate(system.free)}
    state = ChainState(system, PARAMS, init=init)
    assert state.sigma == init
    minus = ChainState(system, PARAMS, init=-1)
    assert set(minus.sigma.values()) == {-1}


def test_components_match_brute_reachability():
    rng = random.Random(9)
    for _ in range(20):
        system = random_system(RING12, rng)
        state = random_state(system, rng)
        labels = state.components()
        assert set(labels) == set(system.context)
        # brute partition: same-sign adjacency plus hops through the sea
        full = dict(zip(system.context,
                        system.full_spins(state.free_signs())))
        ctx = set(system.context)
        exterior = {h for h in ctx
                    if any(g not in ctx for g in tri_neighbors(h))}

        def reach(a):
            seen, todo = {a}, [a]
            while todo:
                h = todo.pop()
                hops = [g for g in tri_neighbors(h)
                        if g in ctx and full[g] == full[a]]
                if h in exterior and full[h] == system.sea:
                    hops.extend(g for g in exterior
                                if full[g] == system.sea)
                for g in hops:
                    if g not in seen:
                        seen.add(g)
                        todo.append(g)
            return seen

        for a in system.context:
            comp = reach(a)
            for b in system.context:
                assert (labels[a] == labels[b]) == (b in comp)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

def test_estimate_of_constant_series():
    est = estimate_from_series(np.zeros(500))
    assert est == Estimate(mean=0.0, stderr=0.0, n_samples=500, tau_int=0.5)


def test_estimate_of_independent_coin():
    rng = np.random.default_rng(7)
    xs = (rng.random(40000) < 0.3).astype(float)
    est = estimate_from_series(xs)
    assert abs(est.mean - 0.3) < 0.01
    assert 0.4 <= est.tau_int <= 0.8
    iid = math.sqrt(est.mean * (1 - est.mean) / len(xs))
    assert est.stderr == pytest.approx(iid, rel=0.35)


def test_autocorrelation_of_persistent_series():
    # blocks of repeated coin flips have tau close to the block length
    rng = np.random.default_rng(12)
    block = 8
    flips = (rng.random(6000) < 0.5).astype(float)
    xs = np.repeat(flips, block)
    tau = integrated_autocorrelation(xs)
    assert tau > 2.0
    est = estimate_from_series(xs)
    assert est.stderr > 2.0 * math.sqrt(est.mean * (1 - est.mean) / len(xs))


# ---------------------------------------------------------------------------
# full chains
# ---------------------------------------------------------------------------

def test_run_chain_is_deterministic():
    events = [{"type": "two_point", "v": [1, 0]},
              lambda sigma: sigma[(0, 0)] == 1]
    kw = dict(sweeps=400, burn_in=50, seed=2026, events=events)
    a = run_chain(BALL1, +1, Params(n=1.4, x=0.55), **kw)
    b = run_chain(BALL1, +1, Params(n=1.4, x=0.55), **kw)
    assert a == b
    c = run_chain(BALL1, +1, Params(n=1.4, x=0.55), **kw, stream=1)
    assert c != a


def test_seeded_chain_matches_golden():
    # written by the chain before its update became a table lookup: a
    # speedup may not change a seeded chain's output
    golden = json.loads((GOLDEN / "chain_r6.json").read_text())
    system = SpinSystem(hexagon_ball(6), +1, sea=+1)
    events = [{"type": "plus_circuit", "k": 2},
              {"type": "annulus_loop", "k": 2}]
    for n in (1.0, 1.5, 2.0):
        want = golden[repr(n)]
        params = Params(n=n, x=x_critical(n))
        ests = run_chain(system, +1, params, sweeps=300, seed=7,
                         events=events)
        assert [[e.mean, e.tau_int] for e in ests] == want["estimates"]
        state = ChainState(system, params, seed=7)
        for _ in range(300 + 30):  # run_chain's default burn-in is a tenth
            state.sweep()
        c = state.counts
        assert [c.k, c.e, c.r, c.twice_rp] == want["counts"]
        assert "".join("+" if v > 0 else "-"
                       for v in state.free_signs()) == want["signs"]


def test_run_chain_matches_exact_enumeration():
    region = sorted(rhombus_hexagons(2))
    params = Params(n=1.4, x=x_critical(1.4))
    origin_plus = lambda sigma: sigma[(0, 0)] == 1
    events = [origin_plus,
              {"type": "two_point", "v": [1, 1]},
              {"type": "trapeze", "k": 1, "sign": 1, "vertical": True}]
    ests = run_chain(region, +1, params, sweeps=30000, burn_in=2000,
                     seed=99, events=events)
    exact = [exact_event_probability(region, +1, params, origin_plus)]
    for spec in events[1:]:
        exact.append(exact_event_probability(region, +1, params,
                                             event_from_json(spec)))
    for est, truth in zip(ests, exact):
        assert est.stderr < 0.02
        assert abs(est.mean - truth) <= 4.0 * est.stderr


def test_external_field_raises_plus_marginal():
    region = BALL1
    plain = run_chain(region, -1, Params(n=1.4, x=0.5), sweeps=4000,
                      seed=4, events=[lambda s: s[(0, 0)] == 1])[0]
    pulled = run_chain(region, -1, Params(n=1.4, x=0.5, h=1.5), sweeps=4000,
                       seed=4, events=[lambda s: s[(0, 0)] == 1])[0]
    assert pulled.mean > plain.mean + 3.0 * (plain.stderr + pulled.stderr)


def test_run_chain_warns_outside_monotone_region():
    with pytest.warns(UserWarning):
        run_chain(BALL1, +1, Params(n=1.4, x=0.9), sweeps=10,
                  events=[lambda s: True])


def test_run_chain_validates_event_support():
    with pytest.raises(DomainTooSmall):
        run_chain(BALL1, +1, Params(n=1.4, x=0.5), sweeps=10,
                  events=[{"type": "plus_circuit", "k": 1}])


def test_annulus_signs_event_matches_wall_pipeline():
    from hexloop.configs import spins_to_loops
    from hexloop.observables import annulus_loop_event
    from hexloop.sampler import annulus_signs_event

    rng = random.Random(606)
    for k, shape, tau in ((1, hexagon_ball(3), -1), (1, hexagon_ball(2), 1),
                          (2, hexagon_ball(5), -1)):
        system = SpinSystem(sorted(shape), fixed=tau, sea=tau)
        fast = annulus_signs_event(system, k)
        hits = 0
        for trial in range(200):
            if trial % 4 == 0:
                # nested pattern with outside noise, likely to show a loop
                signs = [1 if sum(map(abs, (h[0], h[1], h[0] + h[1]))) <= 2 * k
                         else (-1 if rng.random() < 0.9 else 1)
                         for h in system.free]
            else:
                signs = [rng.choice((-1, 1)) for _ in system.free]
            want = annulus_loop_event(spins_to_loops(system, signs), k)
            assert fast(system.framed_spins(signs)) == want
            hits += want
        if len(shape) > 7:
            assert hits > 0  # the comparison saw both outcomes


def test_annulus_event_refuses_defective_boundary():
    from hexloop.configs import spins_to_loops
    from hexloop.errors import InconsistentParity
    from hexloop.observables import annulus_loop_event
    from hexloop.sampler import annulus_signs_event

    # a frozen ring that changes sign next to the free region ends walls
    # at the sign change, so the surrounding-loop event is undefined
    shape = sorted(hexagon_ball(2))
    ring = sorted({g for h in shape for g in tri_neighbors(h)} - set(shape))
    fixed = {g: (1 if i < len(ring) // 2 else -1) for i, g in enumerate(ring)}
    system = SpinSystem(shape, fixed, sea=-1)
    with pytest.raises(InconsistentParity):
        annulus_signs_event(system, 1)
    walls = spins_to_loops(system, [1] * len(system.free))
    with pytest.raises(InconsistentParity):
        annulus_loop_event(walls, 1)
    with pytest.raises(InconsistentParity):
        run_chain(system, -1, Params(n=1.4, x=0.5), sweeps=10,
                  events=[{"type": "annulus_loop", "k": 1}])


@st.composite
def event_scenes(draw):
    """A system, a scale k and free signs on which both compiled events are
    defined: a ``spin_systems`` draw, simply connected or holed, with its
    frozen spins set to one sign (so that no wall ends), or planted shells
    on the free ball of radius 2k + 1, with or without the unit ball cut
    out to leave a hole at the origin.  Each shell, the hexagons at one
    distance from the origin, is all plus, all minus or random, and noise
    flips a few signs, so that bands of either sign start and end inside
    the annulus and beyond it."""
    k = draw(st.sampled_from((1, 2)))
    frozen = draw(st.sampled_from((-1, 1)))
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        drawn = draw(spin_systems(sorted(hexagon_ball(5))))
        system = SpinSystem(drawn.free, dict.fromkeys(drawn.fixed, frozen),
                            sea=drawn.sea)
        return system, k, [rnd.choice((-1, 1)) for _ in system.free]
    shape = hexagon_ball(2 * k + 1)
    if draw(st.booleans()):
        shape -= hexagon_ball(1)
    system = SpinSystem(shape, frozen, sea=draw(st.sampled_from((-1, 1))))
    shells = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=2 * k + 2,
                           max_size=2 * k + 2))
    noise = draw(st.sampled_from((0.0, 0.02, 0.1)))
    signs = []
    for h in system.free:
        s = shells[(abs(h[0]) + abs(h[1]) + abs(h[0] + h[1])) // 2]
        s = s or rnd.choice((-1, 1))
        signs.append(-s if rnd.random() < noise else s)
    return system, k, signs


def test_compiled_events_match_reference_events():
    """The chain's annulus walk and circuit flood, read off the framed sign
    array, against the loop-side event on ``spins_to_loops`` and, where
    the context and its frame cover the radius-2k ball, against
    ``plus_circuit_event`` on their signs."""
    from hexloop.configs import spins_to_loops
    from hexloop.observables import annulus_loop_event, plus_circuit_event

    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scene=event_scenes())
    def check(scene):
        system, k, signs = scene
        full = system.framed_spins(signs)
        want = annulus_loop_event(spins_to_loops(system, signs), k)
        assert sampler.annulus_signs_event(system, k)(full) == want
        seen.add(("annulus_loop", want))
        plane = dict(zip(system.context + system._sea_frame, full))
        if hexagon_ball(2 * k) <= plane.keys():
            want = plus_circuit_event(plane, k)
            assert sampler._circuit_flood(system, k)(full) == want
            seen.add(("plus_circuit", want))

    check()
    assert seen == {(kind, outcome) for kind in ("annulus_loop", "plus_circuit")
                    for outcome in (False, True)}


def test_user_wall_event_goes_through_spins_to_loops():
    from hexloop.lattice import shared_edge
    from hexloop.observables import EventSpec

    wall = shared_edge((0, 0), (1, 0))
    user = EventSpec(kind="origin_wall", side="loops", params=(),
                     predicate=lambda walls: wall in walls,
                     required_edges=frozenset([wall]))
    a, b = run_chain(BALL3, -1, Params(n=1.4, x=0.5), sweeps=300, seed=5,
                     events=[user, lambda sg: sg[(0, 0)] != sg[(1, 0)]])
    assert a == b and 0.0 < a.mean < 1.0


def test_run_chain_wall_side_event():
    region = sorted(hexagon_ball(2))
    est = run_chain(region, -1, Params(n=1.0, x=0.45), sweeps=600,
                    burn_in=100, seed=8,
                    events=[{"type": "annulus_loop", "k": 1}])[0]
    assert est.n_samples == 600
    assert 0.0 <= est.mean <= 1.0
    assert est.tau_int >= 0.5


def test_run_chain_rejects_zero_sweeps():
    with pytest.raises(OutOfRange):
        run_chain(BALL1, +1, Params(n=1.4, x=0.5), sweeps=0, events=[])


def test_run_chain_rejects_negative_burn_in():
    with pytest.raises(OutOfRange, match="got -3"):
        run_chain(BALL1, +1, Params(n=1.4, x=0.5), sweeps=5, burn_in=-3,
                  events=[])
    # zero is a valid burn-in
    run_chain(BALL1, +1, Params(n=1.4, x=0.5), sweeps=5, burn_in=0, events=[])
