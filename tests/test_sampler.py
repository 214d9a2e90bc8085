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
    _multi_arc_dk,
    cluster_find,
    log_spin_weight,
    spin_counts,
    spins_to_loops,
)
from hexloop.errors import DomainTooSmall, OutOfRange, TooLarge
from hexloop.exact import exact_event_probability, x_critical
from hexloop.lattice import hexagon_ball, rhombus_hexagons, tri_neighbors
from hexloop.observables import (
    annulus_loop_event,
    crossing_rectangle,
    event_from_json,
)
from hexloop.sampler import (
    ChainState,
    Estimate,
    estimate_from_series,
    integrated_autocorrelation,
    run_chain,
)

from oracles import (
    change_probabilities,
    crossing_event,
    heat_bath_plus,
    plus_circuit_event,
    product_truth,
    reference_sweep,
    ring_entry,
    shared_edge,
    trapeze_crossing_event,
    two_point_event,
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


def sigma(state: ChainState) -> dict:
    """Mapping from free hexagon to its current sign."""
    return dict(zip(state.system.free, state.free_signs()))


def heat_bath(state: ChainState, u) -> tuple[SpinCounts, float]:
    """Count changes of flipping ``u`` and its heat-bath probability of
    +1, as the chain's update finds them: the ring table or the wall walk
    on the chain's sign array, and the chain's float expression."""
    iu = state.system.free_index[u]
    cu, nbs = state._free_ctx[iu], state._nb6[iu]
    s, de, dr, dtw, dk, plan = ring_entry(state._full, cu, nbs)
    if plan is not None:
        dk = _multi_arc_dk(plan, state._full, cu, nbs, state._walls)
    return (SpinCounts(k=dk, e=de, r=dr, twice_rp=dtw),
            heat_bath_plus(state.params, dk, de, dr, dtw, s))


def heat_bath_delta(state: ChainState, u) -> SpinCounts:
    return heat_bath(state, u)[0]


def heat_bath_plus_at(state: ChainState, u) -> float:
    return heat_bath(state, u)[1]


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
    d = heat_bath_delta(state, (0, 0))
    assert d.k == 1
    assert d.e == 6
    assert d.r == 2
    assert d.twice_rp == 6


def test_delta_all_plus_interior_flip():
    system = SpinSystem(hexagon_ball(2), fixed=1, sea=1)
    state = ChainState(system, PARAMS, init=1)
    d = heat_bath_delta(state, (0, 0))
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
    d = heat_bath_delta(state, (0, 0))
    assert d.k == 1
    back = ChainState(system, PARAMS, init={(-1, 0): 1, (0, 0): -1, (1, 0): 1})
    assert heat_bath_delta(back, (0, 0)).k == -1


def test_delta_merges_across_the_sea():
    # two plus sites far apart in the ring, everything else minus: each is
    # its own cluster, and flipping one removes it without touching the other
    free = RING12
    system = SpinSystem(free, fixed=-1, sea=-1)
    init = {h: -1 for h in free}
    init[(2, 0)] = 1
    init[(-2, 0)] = 1
    state = ChainState(system, PARAMS, init=init)
    d = heat_bath_delta(state, (2, 0))
    assert d.k == -1
    assert d.r == -2


def ring_runs(state: ChainState, u) -> int:
    """Number of arcs of the site's own sign around ``u``."""
    system, signs = state.system, sigma(state)
    center = signs[u]
    ring = [signs.get(g, system.fixed.get(g, system.sea))
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
        assert heat_bath_delta(state, u) == recount_delta(state, u)


def test_no_context_recounts(monkeypatch):
    # RING12's context encloses its centre, a cluster node of its own, so
    # the wall walk answers its multi-arc flips as it does on a ball, also
    # at n = 2, where a fifth of the updates are multi-arc
    recounts = counting_recounts(monkeypatch)
    rng = random.Random(20260816)
    multi_arc = 0
    for _ in range(60):
        system = random_system(RING12, rng)
        assert holes(system.context)
        state = random_state(system, rng)
        recounts.clear()
        for u in system.free:
            assert heat_bath_delta(state, u) == recount_delta(state, u)
            multi_arc += ring_runs(state, u) > 1
        assert recounts == []
    assert multi_arc > 0

    system = SpinSystem(hexagon_ball(6), +1, sea=+1)
    state = ChainState(system, Params(n=2.0, x=x_critical(2.0)), seed=3)
    recounts.clear()
    for _ in range(50):
        state.sweep()
    assert recounts == []
    assert spin_counts(system, state.free_signs()) == state.counts


def test_every_ring_pattern_of_a_single_site(monkeypatch):
    # one free site with its ring frozen: all 2^7 sign patterns of the site
    # and its ring, under either sea sign.  Each pattern is also set in a
    # holed context, where the wall walk gives the change too.
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
            assert heat_bath_delta(state, (0, 0)) == want
            holed = SpinSystem([(0, 0)], with_hole(frame, sea), sea=sea)
            assert holes(holed.context) == {HOLE}
            holed_state = ChainState(holed, params, init=center)
            before = len(recounts)
            assert (heat_bath_delta(holed_state, (0, 0))
                    == recount_delta(holed_state, (0, 0)))
            assert len(recounts) == before
            weights = [log_spin_weight(params, spin_counts(system, [v]))
                       for v in (1, -1)]
            p_plus = 1.0 / (1.0 + math.exp(weights[1] - weights[0]))
            assert heat_bath_plus_at(state, (0, 0)) == pytest.approx(
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
    for u in state.system.free:
        assert heat_bath_delta(state, u) == recount_delta(state, u)


def test_delta_is_involution():
    rng = random.Random(77)
    for trial in range(200):
        system = random_system(RECT12 if trial % 2 else BALL1, rng)
        state = random_state(system, rng)
        u = rng.choice(system.free)
        d = heat_bath_delta(state, u)
        flipped = sigma(state)
        flipped[u] *= -1
        back = ChainState(system, PARAMS, init=flipped)
        assert heat_bath_delta(back, u) == negated(d)


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
            signs = sigma(state)
            for u in system.free:
                nb_sum = sum(signs.get(g, system.fixed.get(g, system.sea))
                             for g in tri_neighbors(u))
                want = 1.0 / (1.0 + math.exp(-2.0 * beta * nb_sum
                                             - 2.0 * params.h))
                assert heat_bath_plus_at(state, u) == pytest.approx(want,
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
        p_plus = heat_bath_plus_at(state, u)
        log_ratio = (log_spin_weight(params, spin_counts(system, up))
                     - log_spin_weight(params, spin_counts(system, down)))
        # heat bath: p+ / p-  ==  W+ / W-, hence balance is exact
        assert math.log(p_plus / (1.0 - p_plus)) == pytest.approx(
            log_ratio, abs=1e-10)


def test_flip_probability_vanishes_at_small_x():
    system = SpinSystem(hexagon_ball(2), fixed=-1, sea=-1)
    state = ChainState(system, Params(n=1.4, x=0.01), init=-1)
    assert heat_bath_plus_at(state, (0, 0)) < 1e-10


def test_init_is_validated():
    system = SpinSystem([(0, 0), (1, 0)], fixed=-1, sea=-1)
    with pytest.raises(OutOfRange, match="got 0"):
        ChainState(system, PARAMS, init=0)
    with pytest.raises(OutOfRange, match="got 2"):
        ChainState(system, PARAMS, init={(0, 0): 1, (1, 0): 2})
    with pytest.raises(OutOfRange, match=r"\(1, 0\)"):
        ChainState(system, PARAMS, init={(0, 0): 1})
    # a spin for a frozen hexagon, which would sit there unused, or a bool
    with pytest.raises(OutOfRange, match=r"\(1, 1\) is not a free hexagon"):
        ChainState(system, PARAMS, init={(0, 0): 1, (1, 0): 1, (1, 1): -1})
    with pytest.raises(OutOfRange, match="got True"):
        ChainState(system, PARAMS, init=True)


def test_seed_and_stream_must_fit_the_philox_key():
    # no silent wrap: 2^64 would key the same chain as 0, and -1 as 2^64 - 1
    system = SpinSystem(BALL1, fixed=1)
    top = (1 << 64) - 1
    ChainState(system, PARAMS, seed=top, stream=top)
    for bad in (1 << 64, -1):
        with pytest.raises(OutOfRange, match="seed"):
            ChainState(system, PARAMS, seed=bad)
        with pytest.raises(OutOfRange, match="stream"):
            ChainState(system, PARAMS, stream=bad)


def test_seed_and_stream_must_be_integers():
    # a fractional seed would key the Philox generator by its truncation,
    # so that 1.5 and 1 ran one stream; an integral float is its integer
    system = SpinSystem(BALL1, fixed=1)
    for kw in ({"seed": 1.5}, {"stream": 1.5}, {"seed": "1"}, {"seed": True}):
        with pytest.raises(OutOfRange, match="must be an integer"):
            ChainState(system, PARAMS, **kw)
        with pytest.raises(OutOfRange, match="must be an integer"):
            run_chain(BALL1, +1, PARAMS, sweeps=5, events=[], **kw)
    one = ChainState(system, PARAMS, seed=1.0, stream=2.0)
    assert one.rng.random(4).tolist() == ChainState(
        system, PARAMS, seed=1, stream=2).rng.random(4).tolist()


def test_heat_bath_step_updates_in_place():
    # one sweep with debug, which recounts after every accepted flip; each
    # site's new sign follows its uniform, drawn by a second generator with
    # the same seed, and the heat-bath probability at the signs so far
    system = SpinSystem(BALL1, fixed=1)
    params = Params(n=1.4, x=0.6)
    state = ChainState(system, params, seed=5, debug=True, init=-1)
    us = ChainState(system, params, seed=5).rng.random(len(system.free))
    flips = state.sweep()
    signs = state.free_signs()
    assert 0 < flips == signs.count(1)
    for iu, (h, u) in enumerate(zip(system.free, us)):
        sofar = ChainState(system, params, init=dict(zip(
            system.free, signs[:iu] + [-1] * (len(signs) - iu))))
        assert signs[iu] == (1 if u < heat_bath_plus_at(sofar, h) else -1)
    assert spin_counts(system, signs) == state.counts


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


def ring_key(state: ChainState, iu: int) -> int:
    """The 7-bit ring key of the iu-th free site, from the sign array: bit
    i for ring neighbour i, bit 6 for the site, set where the sign is +1."""
    full = state._full
    cu = state._free_ctx[iu]
    n0, n1, n2, n3, n4, n5 = state._nb6[iu]
    return (64 * full[cu] + 32 * full[n5] + 16 * full[n4] + 8 * full[n3]
            + 4 * full[n2] + 2 * full[n1] + full[n0] + 127) >> 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scene=monotone_scenes(), seed=st.integers(0, 2 ** 64 - 1),
       data=st.data())
def test_kept_keys_follow_every_flip(scene, seed, data):
    # the sweep reads each site's ring key from a list that every flip
    # updates; after each sweep the list must match keys recomputed from
    # the signs, and the flip count and counts the signs that changed
    system, params = scene
    m = len(system.free)
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=m,
                               max_size=m))
    state = ChainState(system, params, seed=seed,
                       init=dict(zip(system.free, signs)))
    for _ in range(8):
        assert state._keys == [ring_key(state, iu) for iu in range(m)]
        before = state.free_signs()
        flips = state.sweep()
        after = state.free_signs()
        assert flips == sum(a != b for a, b in zip(before, after))
        assert state.counts == spin_counts(system, after)
    assert state._keys == [ring_key(state, iu) for iu in range(m)]


class SetUniforms:
    """A stand-in for the chain's generator: ``random(m)`` returns the m
    uniforms of the next sweep, set beforehand in ``us``."""

    def __init__(self):
        self.us = []

    def random(self, m):
        assert m == len(self.us)
        return np.array(self.us)


def tie_uniforms(state: ChainState, data) -> list[float]:
    """A uniform per free site: the heat-bath probability of a change that
    its ring allows at the start of the sweep, a float next to one, or a
    random draw."""
    us = []
    for cu, nbs in zip(state._free_ctx, state._nb6):
        _, ps = change_probabilities(state.params, state._full, cu, nbs)
        near = [q for p in ps for q in (math.nextafter(p, -1.0), p,
                                        math.nextafter(p, 2.0))
                if 0.0 <= q < 1.0]
        us.append(data.draw(st.sampled_from(near)
                            | st.floats(0.0, 1.0, exclude_max=True)))
    return us


# n x^2 > exp(-|h'|), with both fields on
OFF_SCENE = st.just((random_system(BALL3, random.Random(5)),
                     Params(n=1.6, x=0.8, h=0.3, hp=-0.4)))


@pytest.mark.parametrize("scenes", [monotone_scenes(), OFF_SCENE],
                         ids=["monotone", "off-monotone"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_walks_only_where_the_uniform_can_flip(scenes, data):
    # uniforms on and next to the exact probabilities: the sweep, which
    # walks the walls only for a uniform inside its key's flip interval,
    # must match a sweep that walks at every multi-arc site
    system, params = data.draw(scenes)
    assert params.in_monotone_region == (scenes is not OFF_SCENE)
    m = len(system.free)
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=m,
                               max_size=m))
    state = ChainState(system, params, init=dict(zip(system.free, signs)))
    state.rng = SetUniforms()
    pos = {cu: iu for iu, cu in enumerate(system._free_ctx)}

    def spy(plan, full, cu, nbs, walls):
        # some change that the ring allows must flip the site at this u
        s, ps = change_probabilities(params, full, cu, nbs)
        u = state.rng.us[pos[cu]]
        assert any((u < p) != (s == 1) for p in ps)
        return _multi_arc_dk(plan, full, cu, nbs, walls)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_multi_arc_dk", spy)
        for _ in range(4):
            us = state.rng.us = tie_uniforms(state, data)
            full = list(state._full)
            flips, delta = reference_sweep(system, params, full, us)
            before = state.counts
            assert state.sweep() == flips
            assert state._full == full
            assert state._keys == [ring_key(state, iu) for iu in range(m)]
            assert state.counts == SpinCounts(
                k=before.k + delta.k, e=before.e + delta.e,
                r=before.r + delta.r,
                twice_rp=before.twice_rp + delta.twice_rp)
            assert state.counts == spin_counts(system, state.free_signs())


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
    assert sigma(state) == init
    minus = ChainState(system, PARAMS, init=-1)
    assert set(minus.free_signs()) == {-1}


def test_components_match_brute_reachability():
    rng = random.Random(9)
    for _ in range(20):
        system = random_system(RING12, rng)
        state = random_state(system, rng)
        find = cluster_find(system, system.framed_spins(state.free_signs()))
        labels = {h: find(i) for i, h in enumerate(system.context)}
        # brute partition: same-sign adjacency plus hops through the sea
        full = dict(zip(system.context,
                        system.framed_spins(state.free_signs())))
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


def test_sample_scene_matches_golden():
    # the fixed sample scene (ball r = 10, tau = plus, n = 1.5, x_c, 1000 +
    # 100 sweeps, seed 1), written by the chain before the sweep kept its
    # ring keys: a speedup may not change a seeded chain's output
    golden = json.loads((GOLDEN / "chain_r10.json").read_text())
    system = SpinSystem(sorted(hexagon_ball(10)), +1, sea=+1)
    params = Params(n=1.5, x=x_critical(1.5))
    events = [{"type": "annulus_loop", "k": 4},
              {"type": "plus_circuit", "k": 4}]
    ests = run_chain(system, +1, params, sweeps=1000, burn_in=100, seed=1,
                     events=events)
    assert ([[e.mean, e.stderr, e.tau_int] for e in ests]
            == golden["estimates"])
    state = ChainState(system, params, seed=1)
    for _ in range(1000 + 100):
        state.sweep()
    c = state.counts
    assert [c.k, c.e, c.r, c.twice_rp] == golden["counts"]
    assert "".join("+" if v > 0 else "-"
                   for v in state.free_signs()) == golden["signs"]


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


#: the named spin connectivity events at scales that small systems cover
FLOOD_SPECS = (
    {"type": "plus_circuit", "k": 1},
    {"type": "crossing", "k": 1},
    {"type": "crossing", "k": 1, "rho": 2.0, "eps": 0.5},
    {"type": "trapeze", "k": 1},
    {"type": "trapeze", "k": 1, "sign": -1, "vertical": False},
    {"type": "two_point", "v": [0, 0]},
    {"type": "two_point", "v": [1, 1]},
    {"type": "two_point", "v": [-1, 2]},
)


def oracle_event(spec):
    """The mapping flood of ``oracles`` that a named flood spec replaced."""
    p = dict(spec.params)
    return {
        "plus_circuit": lambda sg: plus_circuit_event(sg, p["k"]),
        "crossing": lambda sg: crossing_event(sg, (p["k"], p["rho"],
                                                   p["eps"])),
        "trapeze": lambda sg: trapeze_crossing_event(sg, p["k"], p["sign"],
                                                     p["vertical"]),
        "two_point": lambda sg: two_point_event(sg, p["v"]),
    }[spec.kind]


def test_compiled_events_match_reference_events():
    """The chain's annulus walk and the floods that named spin events
    build, read off the framed sign array, against the loop-side event on
    ``spins_to_loops`` and the mapping floods of ``oracles``.  On large
    scenes, at one assignment each, the circuit flood is read where the
    context and its frame cover the radius-2k ball.  On small systems in
    either frame every flood is read at every assignment: ``two_point``,
    which floods the free hexagons, against its oracle on the free signs,
    the others against theirs on every hexagon of the framed array; and
    where a spec's support is free, the exact route of the spec against
    that of its oracle on the free signs: one probability, or for
    ``plus_circuit``, whose support of 19 hexagons at k = 1 exceeds the
    enumeration cap, TooLarge from both."""
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
            spec = event_from_json({"type": "plus_circuit", "k": k})
            assert spec.framed(system)(full) == want
            seen.add(("plus_circuit", want))

    check()
    assert seen == {(kind, outcome) for kind in ("annulus_loop", "plus_circuit")
                    for outcome in (False, True)}

    pool = sorted(hexagon_ball(2) | rhombus_hexagons(2))
    boxes = (frozenset(), rhombus_hexagons(1),
             crossing_rectangle(1, 2.0, 0.5))
    params = Params(1.5, x_critical(1.5))
    specs = [event_from_json(spec) for spec in FLOOD_SPECS]
    seen, exact = set(), set()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(box=st.sampled_from(boxes),
           extra=st.lists(st.sampled_from(pool), min_size=1, max_size=3),
           tau=st.sampled_from((-1, 1)))
    def check_small(box, extra, tau):
        system = SpinSystem(sorted(box | set(extra)), tau, sea=tau)
        at = system.context + system._sea_frame
        for spec in specs:
            oracle = oracle_event(spec)
            try:
                if spec.kind == "two_point":
                    want = product_truth(system, oracle, "spins")
                else:
                    want = product_truth(
                        system, lambda full: oracle(dict(zip(at, full))),
                        "framed")
            except DomainTooSmall:
                continue
            assert product_truth(system, spec.framed(system),
                                 "framed") == want
            seen.update((spec.kind, bool(t)) for t in want)
            try:
                spec.validate_support(system)
            except DomainTooSmall:
                continue
            assert (exact_event_probability(system, None, params, spec)
                    == exact_event_probability(system, None, params, oracle,
                                               side="spins"))
            exact.add(spec.kind)

    check_small()
    assert seen == {(kind, outcome)
                    for kind in ("plus_circuit", "crossing", "trapeze",
                                 "two_point")
                    for outcome in (False, True)}
    assert exact == {"crossing", "trapeze", "two_point"}
    system = SpinSystem(sorted(hexagon_ball(2)), 1)
    for event in (specs[0], oracle_event(specs[0])):
        with pytest.raises(TooLarge):
            exact_event_probability(system, None, params, event)


def test_user_wall_event_goes_through_spins_to_loops():
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


def test_run_chain_rejects_fractional_sweeps_and_burn_in():
    region, params = sorted(hexagon_ball(2)), Params(n=1.4, x=0.5)
    events = [{"type": "annulus_loop", "k": 1}]
    with pytest.raises(OutOfRange, match="sweeps must be an integer"):
        run_chain(region, +1, params, sweeps=2.5, events=events)
    with pytest.raises(OutOfRange, match="burn-in must be an integer"):
        run_chain(region, +1, params, sweeps=5, burn_in=2.5, events=events)
    # an integral float counts as its integer, estimate for estimate
    assert run_chain(region, +1, params, sweeps=5.0, burn_in=2.0, seed=3,
                     events=events) == run_chain(
        region, +1, params, sweeps=5, burn_in=2, seed=3, events=events)


def test_run_chain_rejects_a_two_point_event_without_coordinates():
    with pytest.raises(OutOfRange, match="needs a hexagon v"):
        run_chain(BALL1, +1, Params(n=1.4, x=0.5), sweeps=5,
                  events=[{"type": "two_point", "v": 5}])
