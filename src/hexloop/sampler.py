"""Seedable single-site Monte Carlo for the cluster representation.

A heat-bath chain over the free hexagons of a :class:`SpinSystem`, with the
cluster, wall, magnetization and triangle counts maintained incrementally.
Each free site's 7-bit ring key (its sign and its six neighbours') is kept
and toggled by every flip.  A per-chain table gives each key the interval
of uniforms that flip the site, its count changes (``configs._LOCAL``) and
its heat-bath probabilities.  A uniform outside the interval keeps the
sign.  Inside it, a ring with two or more arcs of each sign takes its
cluster count change from ``_multi_arc_dk``, a walk along the domain walls
around the site (holed or not: each hole is a cluster node of its own),
and compares the uniform with that change's probability.  A full count
(this module's ``spin_counts`` binding) runs only when a chain starts and,
with ``debug``, after every flip.

Randomness comes from a counter-based generator (Philox) keyed by a 64-bit
seed and a stream index, with one uniform block drawn per sweep and a fixed
scan order, so runs are reproducible bit for bit.

``run_chain`` turns each event into a predicate over the chain's framed
sign array before the first sweep: ``annulus_loop`` walks the walls from
the ray walls of its annulus, the spin connectivity kinds run the flood
that their spec builds (``observables.event_from_json``), and other events
read the free signs or their walls.
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
    spin_counts,
    spins_to_loops,
)
from .errors import InconsistentParity, OutOfRange
from .exact import _spin_system
from .lattice import ball_and_annulus, edge_hexagons
from .observables import EventSpec, _integer, event_from_json


class ChainState:
    """Mutable state of one chain: spins, cached counts, and the generator.

    The cached counts always equal ``spin_counts`` of the current spins;
    with ``debug=True`` that is asserted after every accepted flip.  The
    ring key of every free site is kept too, toggled by each flip.  Frame
    spins are immutable; ``init`` sets the starting free spins (a sign or a
    mapping from every free hexagon to a sign; anything else raises
    :class:`OutOfRange`).  The parameters are fixed at
    construction, when the per-chain update table is built from them.
    ``seed`` and ``stream`` key the Philox generator and must be integers
    in [0, 2^64); anything else raises :class:`OutOfRange`.
    """

    def __init__(self, system: SpinSystem, params: Params, seed: int = 0,
                 stream: int = 0, debug: bool = False, init=1):
        self.system = system
        self.params = params
        self.debug = debug
        self.sweep_count = 0
        key = [_integer(seed, "seed"), _integer(stream, "stream")]
        for name, value in zip(("seed", "stream"), key):
            if not 0 <= value < 1 << 64:
                raise OutOfRange(f"{name} must lie in [0, 2^64), got {value}")
        self.rng = np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))

        self._free_ctx = system._free_ctx
        self._full = system.framed_spins(
            init if isinstance(init, Mapping) else [init] * len(system.free))
        self._nb6 = system._nb6
        self._walls = system._walls
        # each free site's 7-bit ring key (bit i: ring neighbour i is +1,
        # bit 6: the site is), and the (site, bit) pairs that its flip
        # toggles; the site is neighbour i + 3 of its neighbour i
        ctx, full = self._free_ctx, self._full
        pos = {cu: iu for iu, cu in enumerate(ctx)}
        self._keys = [(64 * full[cu] + 32 * full[n5] + 16 * full[n4]
                       + 8 * full[n3] + 4 * full[n2] + 2 * full[n1]
                       + full[n0] + 127) >> 1
                      for cu, (n0, n1, n2, n3, n4, n5) in zip(ctx, self._nb6)]
        self._watch = [((iu, 64), *((pos[c], 1 << (i + 3) % 6)
                                    for i, c in enumerate(nbs) if c in pos))
                       for iu, nbs in enumerate(self._nb6)]
        # per ring key: the interval [lo, hi) of uniforms that flip the site
        # under some change its wall plan can return, its count changes,
        # sign and plan, and the heat-bath probability of +1 per change dk
        ln_n, ln_x = params.log_n, params.log_x
        h, hp = params.h, params.hp

        def p_plus(dk, de, dr, dtw, s):
            dlog = dk * ln_n + de * ln_x + h * dr + hp * dtw * 0.5
            # dlog is log W(flipped) - log W(current); gap is log W- - log W+
            gap = dlog if s == 1 else -dlog
            if gap > 700.0:
                return 0.0
            return 1.0 / (1.0 + math.exp(gap))

        self._table = []
        for s, de, dr, dtw, dk, plan in _LOCAL:
            ps = {c: p_plus(c, de, dr, dtw, s)
                  for c in ([dk] if plan is None else plan[2].values())}
            lo, hi = ((min(ps.values()), 2.0) if s == 1
                      else (-1.0, max(ps.values())))
            self._table.append((lo, hi, dk, de, dr, dtw, s, plan, ps))

        self._k, self._e, self._r, self._tw = spin_counts(system,
                                                          self.free_signs())

    # -- views ----------------------------------------------------------------

    def free_signs(self) -> list[int]:
        """Current free spins, aligned with ``system.free``."""
        full = self._full
        return [full[i] for i in self._free_ctx]

    @property
    def counts(self) -> SpinCounts:
        """Cached statistics of the current spins."""
        return SpinCounts(self._k, self._e, self._r, self._tw)

    # -- single-site updates ----------------------------------------------------

    def sweep(self) -> int:
        """One pass over all free sites in fixed order; returns flip count.

        A uniform outside its key's flip interval keeps the sign whatever
        the wall walk would return, so a multi-arc key walks only inside it,
        then compares the uniform with the probability of the change found.
        A flip toggles the kept keys of the site and its free ring.
        """
        full, ctx, nb6 = self._full, self._free_ctx, self._nb6
        table, keys, watch = self._table, self._keys, self._watch
        walls = self._walls
        k, e, r, tw = self._k, self._e, self._r, self._tw
        flips = 0
        for iu, u in enumerate(self.rng.random(len(ctx)).tolist()):
            entry = table[keys[iu]]
            if not entry[0] <= u < entry[1]:
                continue
            _, _, dk, de, dr, dtw, s, plan, ps = entry
            if plan is not None:
                dk = _multi_arc_dk(plan, full, ctx[iu], nb6[iu], walls)
                if (u < ps[dk]) == (s == 1):
                    continue
            full[ctx[iu]] = -s
            for j, bit in watch[iu]:
                keys[j] ^= bit
            k += dk
            e += de
            r += dr
            tw += dtw
            flips += 1
            if self.debug:
                kept = SpinCounts(k, e, r, tw)
                fresh = spin_counts(self.system, self.free_signs())
                assert kept == fresh, (kept, fresh)
        self._k, self._e, self._r, self._tw = k, e, r, tw
        self.sweep_count += 1
        return flips


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
    idx, ring = system._framed_index, system._ring
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
            f = ring.index(idx[b], 6 * idx[a])  # b's slot in a's row
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


def _compile_events(events, system: SpinSystem) -> list[Callable]:
    """Named/JSON/callable events as predicates over the framed sign array.

    ``annulus_loop`` and the specs that build a flood read the array
    directly; other spin events and callables get the mapping from free
    hexagon to sign, and other wall events the wall edges of
    :func:`spins_to_loops`.
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
        if spec.kind == "annulus_loop":
            out.append(annulus_signs_event(system, dict(spec.params)["k"]))
        elif spec.framed is not None:
            out.append(spec.framed(system))
        elif spec.side == "spins":
            out.append(on_sigma(spec))
        else:
            out.append(on_sigma(
                lambda sigma, spec=spec: spec(spins_to_loops(system, sigma))))
    return out


def run_chain(region, tau, params: Params, sweeps: int, burn_in=None,
              seed: int = 0, events: Iterable = (), *,
              stream: int = 0) -> list[Estimate]:
    """Run one chain and estimate the given events.

    ``region``/``tau`` are as in ``exact.exact_event_probability``: free
    hexagons (or a domain, or a ready system) plus the frozen surrounding
    spins.  Samples are taken once per sweep after ``burn_in`` sweeps
    (default a tenth of ``sweeps``); estimates come back in event order,
    deterministically for a fixed seed and stream.  Each event is read off
    the chain's framed sign array, named ones once their support is
    validated (see ``_compile_events``).
    """
    sweeps = _integer(sweeps, "the number of sweeps")
    if sweeps < 1:
        raise OutOfRange("need at least one sweep")
    system = _spin_system(region, tau)
    burn_in = (sweeps // 10 if burn_in is None
               else _integer(burn_in, "the burn-in"))
    if burn_in < 0:
        raise OutOfRange(f"burn-in must be at least 0 sweeps, got {burn_in}")
    if not params.in_monotone_region:
        warnings.warn(
            "parameters are outside the monotone region (n >= 1 and "
            "n*x^2 <= exp(-|h'|)); the chain is still valid but nothing "
            "is known about its mixing", stacklevel=2)
    preds = _compile_events(events, system)
    state = ChainState(system, params, seed=seed, stream=stream)
    series = np.zeros((len(preds), sweeps), dtype=np.uint8)
    for _ in range(burn_in):
        state.sweep()
    full = state._full  # updated in place by every sweep
    for t in range(sweeps):
        state.sweep()
        for j, fn in enumerate(preds):
            series[j, t] = 1 if fn(full) else 0
    return [estimate_from_series(series[j]) for j in range(len(preds))]
