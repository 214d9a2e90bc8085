"""Seedable single-site Monte Carlo for the cluster representation.

A heat-bath chain over the free hexagons of a :class:`SpinSystem`, with the
cluster, wall, magnetization and triangle counts maintained incrementally.
The single-flip count changes come from ``configs``: the 128-entry ring
table ``_LOCAL`` and, for rings with two or more arcs of each sign, the
walk along the domain walls around the site, ``_multi_arc_dk``.  In a
context with a hole, whose cluster count the walk does not give, those
flips are recounted in full through this module's ``spin_counts``
binding.  When each sign has at most one arc, the whole update, heat-bath
probability included, is a lookup in a per-chain copy of the table.

Randomness comes from a counter-based generator (Philox) keyed by a 64-bit
seed and a stream index, with one uniform block drawn per sweep and a fixed
scan order, so runs are reproducible bit for bit.

``run_chain`` turns each event into a predicate over the chain's framed
sign array before the first sweep: ``annulus_loop`` walks the walls from
the ray walls of its annulus, ``plus_circuit`` floods its ring, and other
events read the free signs or their walls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .configs import (
    _CYCLE,
    _LOCAL,
    Params,
    SpinCounts,
    SpinSystem,
    _multi_arc_dk,
    cluster_find,
    spin_counts,
    spins_to_loops,
)
from .errors import InconsistentParity, OutOfRange
from .exact import _spin_system
from .lattice import (
    ball_and_annulus,
    edge_hexagons,
    hexagon_ball,
    tri_distance,
    tri_neighbors,
)
from .observables import ORIGIN, EventSpec, event_from_json


class ChainState:
    """Mutable state of one chain: spins, cached counts, and the generator.

    The cached counts always equal ``spin_counts`` of the current spins;
    with ``debug=True`` that is asserted after every accepted flip.  Frame
    spins are immutable; ``init`` sets the starting free spins (a sign or a
    mapping from every free hexagon to a sign; anything else raises
    :class:`OutOfRange`).  The parameters are fixed at
    construction, when the per-chain update table is built from them.
    """

    def __init__(self, system: SpinSystem, params: Params, seed: int = 0,
                 stream: int = 0, debug: bool = False, init=1):
        self.system = system
        self.params = params
        self.debug = debug
        self.sweep_count = 0
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                        stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.rng = np.random.Generator(np.random.Philox(key=key))

        self._free_ctx = system._free_ctx
        self._full = system.framed_spins(
            init if isinstance(init, Mapping) else [init] * len(system.free))
        self._nb6 = system._nb6
        self._walls = system._walls if system._sea_connected else None
        self._ln_n = math.log(params.n)
        self._ln_x = math.log(params.x)

        # the whole update for every ring pattern with at most one arc of
        # each sign, where ``_LOCAL`` holds dk
        self._fast = tuple(
            None if dk is None
            else (dk, de, dr, dtw, s, self._p_plus(dk, de, dr, dtw, s))
            for s, de, dr, dtw, dk, _ in _LOCAL)

        c = spin_counts(system, self.free_signs())
        self._k, self._e, self._r, self._tw = c.k, c.e, c.r, c.twice_rp

    # -- views ----------------------------------------------------------------

    def free_signs(self) -> list[int]:
        """Current free spins, aligned with ``system.free``."""
        full = self._full
        return [full[i] for i in self._free_ctx]

    @property
    def sigma(self) -> dict:
        """Mapping from free hexagon to its current sign."""
        return dict(zip(self.system.free, self.free_signs()))

    @property
    def counts(self) -> SpinCounts:
        """Cached statistics of the current spins."""
        return SpinCounts(k=self._k, e=self._e, r=self._r, twice_rp=self._tw)

    def components(self) -> dict:
        """Cluster labels over the context, sea-linked clusters unified."""
        find = cluster_find(self.system, self._full)
        labels = {}
        names: dict[int, int] = {}
        for i, h in enumerate(self.system.context):
            root = find(i)
            labels[h] = names.setdefault(root, len(names))
        return labels

    # -- single-site updates ----------------------------------------------------

    def _p_plus(self, dk: int, de: int, dr: int, dtw: int, s: int) -> float:
        """Heat-bath probability of +1 at a site of sign s whose flip
        changes the counts by (dk, de, dr, dtw)."""
        p = self.params
        dlog = (dk * self._ln_n + de * self._ln_x
                + p.h * dr + p.hp * dtw * 0.5)
        # dlog is log W(flipped) - log W(current); gap is log W- - log W+
        gap = dlog if s == 1 else -dlog
        if gap > 700.0:
            return 0.0
        if gap < -700.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(gap))

    def _heat_bath(self, iu: int):
        """Exact (dk, de, dr, dtw) for flipping the iu-th free spin, then
        its current sign and the heat-bath probability of setting it to +1.

        The seven signs of the site and its ring form a 7-bit key.  Keys
        with at most one arc of each sign are answered whole by ``_fast``.
        Otherwise both signs have two or more arcs, and the cluster-count
        change comes from ``configs._multi_arc_dk``, one walk along the
        domain walls around the site; in a context with a hole, whose hole
        joins the sea, it comes from a full recount instead.
        """
        full = self._full
        cu = self._free_ctx[iu]
        n0, n1, n2, n3, n4, n5 = nbs = self._nb6[iu]
        key = (64 * full[cu] + 32 * full[n5] + 16 * full[n4] + 8 * full[n3]
               + 4 * full[n2] + 2 * full[n1] + full[n0] + 127) >> 1
        hit = self._fast[key]
        if hit is not None:
            return hit

        s, de, dr, dtw, _, plan = _LOCAL[key]
        if self._walls is None:
            flipped = self.free_signs()
            flipped[iu] = -s
            dk = spin_counts(self.system, flipped).k - self._k
        else:
            dk = _multi_arc_dk(plan, full, cu, nbs, self._walls)
        return dk, de, dr, dtw, s, self._p_plus(dk, de, dr, dtw, s)

    def _update(self, iu: int, u01: float) -> bool:
        """One heat-bath update of the iu-th free spin; True if it flipped."""
        dk, de, dr, dtw, s, p_plus = self._heat_bath(iu)
        new = 1 if u01 < p_plus else -1
        if new == s:
            return False
        self._full[self._free_ctx[iu]] = new
        self._k += dk
        self._e += de
        self._r += dr
        self._tw += dtw
        if self.debug:
            fresh = spin_counts(self.system, self.free_signs())
            assert self.counts == fresh, (self.counts, fresh)
        return True

    def plus_probability(self, u) -> float:
        """The heat-bath probability of setting the spin at ``u`` to +1."""
        iu = self.system.free_index.get(tuple(u))
        if iu is None:
            raise OutOfRange(f"{u} is not a free hexagon of this chain")
        return self._heat_bath(iu)[5]

    def sweep(self) -> int:
        """One pass over all free sites in fixed order; returns flip count."""
        us = self.rng.random(len(self._free_ctx)).tolist()
        flips = 0
        for i in range(len(self._free_ctx)):
            if self._update(i, us[i]):
                flips += 1
        self.sweep_count += 1
        return flips


def delta_counts(state: ChainState, u) -> SpinCounts:
    """Exact count changes for flipping the spin at ``u``.

    The cluster-count part comes from the ring table, from a walk along the
    domain walls around ``u``, or, in a context with a hole, from a full
    recount.
    """
    iu = state.system.free_index.get(tuple(u))
    if iu is None:
        raise OutOfRange(f"{u} is not a free hexagon of this chain")
    dk, de, dr, dtw, _, _ = state._heat_bath(iu)
    return SpinCounts(k=dk, e=de, r=dr, twice_rp=dtw)


def heat_bath_step(state: ChainState, u, rng=None) -> ChainState:
    """One heat-bath update at ``u``: sets the spin to +1 with probability
    W+/(W+ + W-) of the two local weights, updating the cached counts."""
    iu = state.system.free_index.get(tuple(u))
    if iu is None:
        raise OutOfRange(f"{u} is not a free hexagon of this chain")
    gen = state.rng if rng is None else rng
    state._update(iu, float(gen.random()))
    return state


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A sample mean with an autocorrelation-aware error bar."""

    mean: float
    stderr: float
    n_samples: int
    tau_int: float


def integrated_autocorrelation(xs: np.ndarray) -> float:
    """Integrated autocorrelation time with a self-consistent cutoff.

    Sums the empirical autocorrelations up to the first window W with
    W >= 6*tau(W); at least 0.5 (the value for independent samples).
    """
    x = np.asarray(xs, dtype=float)
    n = len(x)
    if n < 2:
        return 0.5
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var <= 0.0:
        return 0.5
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    rho = acov / acov[0]
    tau = 0.5
    for w in range(1, n // 2):
        tau += float(rho[w])
        if w >= 6.0 * tau:
            break
    return max(tau, 0.5)


def estimate_from_series(xs: np.ndarray) -> Estimate:
    """Mean, autocorrelation time, and stderr of a stationary series."""
    x = np.asarray(xs, dtype=float)
    n = len(x)
    mean = float(x.mean()) if n else 0.0
    if n < 2:
        return Estimate(mean=mean, stderr=0.0, n_samples=n, tau_int=0.5)
    var = float(x.var())
    tau = integrated_autocorrelation(x)
    stderr = math.sqrt(2.0 * tau * var / n)
    return Estimate(mean=mean, stderr=stderr, n_samples=n, tau_int=tau)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def check_defect_free_walls(system: SpinSystem) -> None:
    """Raise unless every assignment of the system yields defect-free walls.

    Walls appear on the edges bordering free hexagons, so a corner of a
    free hexagon whose two other hexagons are frozen with opposite signs
    carries wall degree one whenever the free spin disagrees with either.
    """
    free = set(system._free_ctx)
    for tri in system._triangles:
        others = [system.context[i] for i in tri if i not in free]
        if len(others) == 2 and (system.fixed[others[0]]
                                 != system.fixed[others[1]]):
            raise InconsistentParity(
                f"frozen spins {others} of opposite signs meet at a corner "
                f"of the free region; walls would end there, so loop "
                f"events are not defined for this boundary")


def annulus_signs_event(system: SpinSystem, k: int) -> Callable:
    """Evaluator of the surrounding-annulus-loop event on the framed sign
    array (:meth:`SpinSystem.framed_spins`), by walks along the walls.

    A loop that surrounds the origin crosses its rightward ray an odd
    number of times, so a strand starts at each annulus wall on the ray,
    between (r, 0) and (r + 1, 0), and steps with the tables of
    :func:`configs._multi_arc_dk` until it leaves the annulus edges that
    border a free hexagon (those of :func:`spins_to_loops`) or comes back,
    which with an odd count of ray walls is the event.
    """
    check_defect_free_walls(system)
    _, annulus = ball_and_annulus(k)
    idx = system._framed_index
    fset = set(system.free)
    ahead, keep, move = system._walls
    inside = bytearray(len(ahead))
    ray = bytearray(len(ahead))
    starts = []
    for e in annulus:
        g1, g2 = edge_hexagons(e)
        if g1 not in fset and g2 not in fset:
            continue
        on_ray = g1[1] == g2[1] == 0 and min(g1[0], g2[0]) >= 0
        for a, b in ((g1, g2), (g2, g1)):
            f = 6 * idx[a] + _CYCLE.index((b[0] - a[0], b[1] - a[1]))
            inside[f] = 1
            ray[f] = on_ray
            if on_ray and a < b:
                starts.append((f, idx[a], idx[b]))

    def event(full) -> bool:
        for f0, a, b in starts:
            sa = full[a]
            if full[b] == sa:
                continue
            f, odd = f0, 1
            while True:
                c = ahead[f]
                f = move[f] if full[c] == sa else keep[f]
                if f == f0:
                    if odd:
                        return True
                    break
                if not inside[f]:
                    break
                odd ^= ray[f]
        return False

    return event


def _circuit_flood(system: SpinSystem, k: int) -> Callable:
    """Evaluator of ``plus_circuit_event`` at scale k on the framed sign
    array of a context that covers the radius-2k ball.  Its flood covers
    the radius-k ball, so this one starts at every non-plus hexagon at
    distance k + 1 and fails once it reaches distance 2k.
    """
    ring = sorted(hexagon_ball(2 * k) - hexagon_ball(k))
    pos = {h: i for i, h in enumerate(ring)}
    cell = [system._framed_index[h] for h in ring]
    nbrs = [[pos[g] for g in tri_neighbors(h) if g in pos] for h in ring]
    entry = [i for i, h in enumerate(ring) if tri_distance(h, ORIGIN) == k + 1]
    rim = [tri_distance(h, ORIGIN) == 2 * k for h in ring]

    def event(full) -> bool:
        seen = bytearray(len(ring))
        todo = entry[:]
        while todo:
            i = todo.pop()
            if seen[i] or full[cell[i]] > 0:
                continue
            if rim[i]:
                return False
            seen[i] = 1
            todo += nbrs[i]
        return True

    return event


def _compile_events(events, system: SpinSystem) -> list[Callable]:
    """Named/JSON/callable events as predicates over the framed sign array.

    ``annulus_loop`` and ``plus_circuit`` read the array directly; other
    spin events and callables get the mapping from free hexagon to sign,
    and other wall events the wall edges of :func:`spins_to_loops`.
    """
    free, free_ctx = system.free, system._free_ctx

    def on_sigma(fn):
        return lambda full: fn(dict(zip(free, [full[i] for i in free_ctx])))

    out = []
    for ev in events:
        spec = event_from_json(ev) if isinstance(ev, Mapping) else ev
        if not isinstance(spec, EventSpec):
            out.append(on_sigma(spec))
            continue
        spec.validate_support(system)
        k = dict(spec.params).get("k")
        if spec.kind == "annulus_loop":
            out.append(annulus_signs_event(system, k))
        elif spec.kind == "plus_circuit":
            out.append(_circuit_flood(system, k))
        elif spec.side == "spins":
            out.append(on_sigma(spec))
        else:
            out.append(on_sigma(
                lambda sigma, spec=spec: spec(spins_to_loops(system, sigma))))
    return out


def run_chain(region, tau, params: Params, sweeps: int, burn_in=None,
              seed: int = 0, events: Iterable = (), *, stream: int = 0,
              debug: bool = False, init=1) -> list[Estimate]:
    """Run one chain and estimate the given events.

    ``region``/``tau`` are as in ``exact.exact_event_probability``: free
    hexagons (or a domain, or a ready system) plus the frozen surrounding
    spins.  Samples are taken once per sweep after ``burn_in`` sweeps
    (default a tenth of ``sweeps``); estimates come back in event order,
    deterministically for a fixed seed and stream.  Each event is read off
    the chain's framed sign array, named ones once their support is
    validated (see ``_compile_events``).
    """
    if sweeps < 1:
        raise OutOfRange("need at least one sweep")
    system = _spin_system(region, tau)
    if burn_in is None:
        burn_in = sweeps // 10
    elif burn_in < 0:
        raise OutOfRange(f"burn-in must be at least 0 sweeps, got {burn_in}")
    if not params.in_monotone_region:
        warnings.warn(
            "parameters are outside the monotone region (n >= 1 and "
            "n*x^2 <= exp(-|h'|)); the chain is still valid but nothing "
            "is known about its mixing", stacklevel=2)
    preds = _compile_events(events, system)
    state = ChainState(system, params, seed=seed, stream=stream,
                       debug=debug, init=init)
    series = np.zeros((len(preds), sweeps), dtype=np.uint8)
    for _ in range(burn_in):
        state.sweep()
    full = state._full  # updated in place by every sweep
    for t in range(sweeps):
        state.sweep()
        for j, fn in enumerate(preds):
            series[j, t] = 1 if fn(full) else 0
    return [estimate_from_series(series[j]) for j in range(len(preds))]
