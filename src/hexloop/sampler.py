"""Seedable single-site Monte Carlo for the cluster representation.

A heat-bath chain over the free hexagons of a :class:`SpinSystem`, with the
cluster, wall, magnetization and triangle counts maintained incrementally.
The single-flip count changes come from ``configs``: the 128-entry ring
table ``_LOCAL`` and, for rings with two or more arcs of each sign, the
walk along the domain walls around the site, ``_multi_arc_dk``.  In a
context with a hole, which the walk does not cover, those flips are
recounted in full through this module's ``spin_counts`` binding.  When
each sign has at most one arc, the whole update, heat-bath probability
included, is a lookup in a per-chain copy of the table.

Randomness comes from a counter-based generator (Philox) keyed by a 64-bit
seed and a stream index, with one uniform block drawn per sweep and a fixed
scan order, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .configs import (
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
    hexagon_corners,
    vertex_hexagons,
)
from .observables import EventSpec, event_from_json, loop_surrounds


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
        self._walls = system._walls
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
    fset = set(system.free)
    fixed = system.fixed
    sea = system.sea
    seen = set()
    for h in system.free:
        for corner in hexagon_corners(h):
            if corner in seen:
                continue
            seen.add(corner)
            others = [g for g in vertex_hexagons(corner) if g not in fset]
            if len(others) == 2:
                if fixed.get(others[0], sea) != fixed.get(others[1], sea):
                    raise InconsistentParity(
                        f"frozen spins change sign at {corner}, a corner of "
                        f"the free region; walls would end there, so loop "
                        f"events are not defined for this boundary")


def annulus_signs_event(system: SpinSystem, k: int) -> Callable:
    """Evaluator of the surrounding-annulus-loop event straight from the
    free signs, touching only the annulus edges.

    Defect-free wall configurations have vertex degrees zero and two, so a
    cycle component of the walls restricted to the annulus is a full wall
    loop lying inside the annulus, and only such loops can witness the
    event.  Walls appear only on edges bordering a free hexagon, matching
    how assignments are turned into loops.
    """
    check_defect_free_walls(system)
    _, annulus = ball_and_annulus(k)
    fidx = system.free_index
    fixed = system.fixed
    sea = system.sea
    probes = []
    for e in sorted(annulus):
        g1, g2 = edge_hexagons(e)
        i1, i2 = fidx.get(g1), fidx.get(g2)
        if i1 is None and i2 is None:
            continue
        c1 = None if i1 is not None else fixed.get(g1, sea)
        c2 = None if i2 is not None else fixed.get(g2, sea)
        probes.append((e, i1, c1, i2, c2))

    def event(signs) -> bool:
        walls = []
        deg: dict = {}
        for e, i1, c1, i2, c2 in probes:
            s1 = signs[i1] if i1 is not None else c1
            s2 = signs[i2] if i2 is not None else c2
            if s1 != s2:
                walls.append(e)
                u, v = e
                deg.setdefault(u, []).append(v)
                deg.setdefault(v, []).append(u)
        seen = set()
        for start in deg:
            if start in seen or len(deg[start]) != 2:
                continue
            comp, todo, cycle = {start}, [start], True
            while todo:
                u = todo.pop()
                if len(deg[u]) != 2:
                    cycle = False
                for v in deg[u]:
                    if v not in comp:
                        comp.add(v)
                        todo.append(v)
            seen |= comp
            if cycle:
                loop = [e for e in walls if e[0] in comp]
                if loop_surrounds(loop):
                    return True
        return False

    return event


def _normalize_events(events, system: SpinSystem):
    """Named/JSON/callable events -> (name, mode, predicate) triples.

    The mode names what the predicate consumes each sweep: the spin
    mapping, the wall edges, or the raw sign sequence.
    """
    out = []
    for ev in events:
        if isinstance(ev, EventSpec):
            spec = ev
        elif isinstance(ev, Mapping):
            spec = event_from_json(ev)
        else:
            out.append((getattr(ev, "__name__", "event"), "spins", ev))
            continue
        spec.validate_support(system)
        if spec.kind == "annulus_loop":
            k = dict(spec.params)["k"]
            out.append((str(spec.to_json()), "signs",
                        annulus_signs_event(system, k)))
        else:
            out.append((str(spec.to_json()), spec.side, spec))
    return out


def run_chain(region, tau, params: Params, sweeps: int, burn_in=None,
              seed: int = 0, events: Iterable = (), *, stream: int = 0,
              debug: bool = False, init=1) -> list[Estimate]:
    """Run one chain and estimate the given events.

    ``region``/``tau`` are as in ``exact.exact_event_probability``: free
    hexagons (or a domain, or a ready system) plus the frozen surrounding
    spins.  Samples are taken once per sweep after ``burn_in`` sweeps
    (default a tenth of ``sweeps``); estimates come back in event order,
    deterministically for a fixed seed and stream.
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
    specs = _normalize_events(events, system)
    state = ChainState(system, params, seed=seed, stream=stream,
                       debug=debug, init=init)
    need_spins = any(mode == "spins" for _, mode, _ in specs)
    need_walls = any(mode == "loops" for _, mode, _ in specs)
    series = np.zeros((len(specs), sweeps), dtype=np.uint8)
    for _ in range(burn_in):
        state.sweep()
    free = system.free
    for t in range(sweeps):
        state.sweep()
        signs = state.free_signs()
        sigma = dict(zip(free, signs)) if need_spins else None
        walls = spins_to_loops(system, signs) if need_walls else None
        for j, (_, mode, fn) in enumerate(specs):
            if mode == "spins":
                val = fn(sigma)
            elif mode == "loops":
                val = fn(walls)
            else:
                val = fn(signs)
            series[j, t] = 1 if val else 0
    return [estimate_from_series(series[j]) for j in range(len(specs))]
