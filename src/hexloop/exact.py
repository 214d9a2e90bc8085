"""Exact weighted sums over loop configurations, and derived observables.

Two independent engines compute the weighted sum over all configurations on
an edge set with a prescribed defect set.  Both reduce an instance to a
:class:`Table` ``{(edge count, loop count): multiplicity}`` that is
independent of the weights, so one combinatorial pass serves a whole
parameter grid; a table evaluates into a :class:`WeightSum` at a parameter
point with one array multiply-add and one exp per term.  The sweep
(:func:`sweep_table`) is the product engine: every walk weight, path sum
and observable below goes through it.  Its frontier states are ints of
two-bit slot codes whose strand ends nest like brackets, each carrying its
partial configurations' polynomial packed into one exact int (see
:func:`_sweep_table`).  Its plan (:func:`_plan`) drops the edges that no
configuration can take, at a vertex of degree one that is no defect, and
goes left to right or, past width 6, along the narrowest of the lattice's
six directions, whose width is the sweep's.  A step takes one vertex, or
both ends of a vertical edge.  The vertex and edge orders of each direction
and the cycle rank, which depend on the edges alone, are kept for the defect
sets planned next on the same edges (:data:`_layout`).  The depth-first
enumeration with degree pruning (:func:`even_subgraphs`) backs the tests'
oracle, :func:`_brute_table`.

On top of the engines sit the relative weight of a self-avoiding walk (the
walk's edge weight times the ratio of the sums with and without the walk
carved out), the defect-pair sum ``Z^{a,b} / Z`` read off defect tables by
:func:`path_sum`, the complex edge-midpoint observable of
:func:`parafermion_field`, and exact event probabilities for the spin form
of the model.  The spin sums read what a :class:`SpinSystem` keeps, none of
which depends on the weights: the counts of its 2^m assignments from
``configs.assignment_counts`` (one Gray-code walk), weighed once per
distinct count (``configs.assignment_log_weights``), and each event's truth
at each assignment, by event and side, off one walk in the same order over
the framed sign array (:func:`_truth`).  A named spin connectivity event is
read on that array by the sign flood that its spec builds, once per system
(``observables.event_from_json``).  So one enumeration per system serves
an event sum, its total and every parameter point.  Float sums that
reports print are added in order (:func:`sum_in_order`).
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations, compress, product
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .configs import (
    Params,
    SpinSystem,
    assignment_log_weights,
    free_sites,
    loop_count,
)
from .errors import (
    OutOfRange,
    Overflow,
    PathNotInDomain,
    TooLarge,
    WidthExceeded,
)
from .lattice import (
    Domain,
    HexEdge,
    HexVertex,
    direction_class,
    edge,
    edge_components,
    hex_xy,
    hexagon_components,
    remove_paths,
    turn_sign,
)

MAX_SWEEP_WIDTH = 16
MAX_FIELD_EDGES = 40
#: entries kept by each table cache; one ``hexloop verify --suite all`` pass
#: plus the triangle suite at side 6 creates 230 keys, which must all stay
TABLE_CACHE_SIZE = 1024

class Table(dict):
    """Read-only (edges, loops) -> count table in key order, with its edge
    counts, loop counts and count logs as float64 columns, and its sum at
    each point evaluated (:func:`evaluate_table`)."""

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        items = sorted((key, c) for key, c in terms.items() if c)
        if any(c < 0 for _, c in items):
            raise OutOfRange("a configuration count cannot be negative")
        self._fill(items, *np.array([key for key, _ in items],
                                    np.int64).reshape(-1, 2).T)

    def _fill(self, items: Iterable, ms: np.ndarray, ls: np.ndarray) -> Table:
        """Take ``(key, count)`` items in key order with no count zero, and
        their edge and loop counts as int arrays, as they stand."""
        dict.__init__(self, items)
        # m, l and log c: the floats of the list route, as m, l < 2^53
        self.columns = (ms.astype(np.float64), ls.astype(np.float64),
                        np.fromiter(map(math.log, self.values()), np.float64,
                                    len(self)))
        self.sums: dict[tuple[float, float], WeightSum] = {}
        return self

    def __reduce__(self):  # copy and pickle would set the items one by one,
        return Table, (dict(self),)  # and carry no sums

    def _read_only(self, *args, **kwargs):
        raise TypeError("a configuration table is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


# ---------------------------------------------------------------------------
# log-magnitude arithmetic
# ---------------------------------------------------------------------------

def sum_in_order(values: Iterable):
    """The values added left to right, one rounding per term, as the builtin
    ``sum`` added floats before Python 3.12: every printed figure's sum."""
    return reduce(add, values, 0)


@dataclass(frozen=True)
class WeightSum:
    """A possibly huge positive, negative, or complex number in log form.

    ``log_magnitude`` is the natural log of the absolute value and ``phase``
    a unit-modulus complex factor (``0j`` for an exactly zero sum, in which
    case the magnitude is ``-inf``).
    """

    log_magnitude: float
    phase: complex = 1.0 + 0j

    @classmethod
    def zero(cls) -> "WeightSum":
        return cls(float("-inf"), 0j)

    @classmethod
    def sum_logs(cls, logs: Sequence[float]) -> "WeightSum":
        """Log-sum-exp of positive terms given by their logs as float64, the
        exps added in order into one float scaled by the largest."""
        logs = np.asarray(logs, np.float64)
        if not logs.size:
            return cls.zero()
        top, exp, acc = float(logs.max()), math.exp, 0.0
        for d in (logs - top).tolist():  # as sum_in_order adds, but faster
            acc += exp(d)
        return cls(top + math.log(acc))

    @property
    def value(self) -> complex:
        """The plain complex value (raises if too large for a double)."""
        if self.log_magnitude > math.log(sys.float_info.max):
            raise Overflow(f"magnitude exp({self.log_magnitude:.6g}) "
                           "does not fit in a double")
        return self.phase * math.exp(self.log_magnitude)


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------

def x_critical(n: float) -> float:
    """Critical edge weight ``1 / sqrt(2 + sqrt(2 - n))`` for ``0 < n <= 2``."""
    if not 0 < n <= 2:
        raise OutOfRange(f"critical point defined for 0 < n <= 2, got {n}")
    return 1.0 / math.sqrt(2.0 + math.sqrt(2.0 - n))


def sigma_exponent(n: float) -> float:
    """Winding exponent ``1 - (3 / 4 pi) arccos(-n / 2)`` for ``0 <= n <= 2``."""
    if not 0 <= n <= 2:
        raise OutOfRange(f"winding exponent defined for 0 <= n <= 2, got {n}")
    return 1.0 - 3.0 / (4.0 * math.pi) * math.acos(-n / 2.0)


def catalan(k: int) -> int:
    """The k-th Catalan number ``C(2k, k) / (k + 1)`` as an exact integer."""
    if k != int(k) or k < 0:
        raise OutOfRange(f"catalan numbers are indexed by k >= 0, got {k}")
    k = int(k)
    c = math.comb(2 * k, k) // (k + 1)
    if c > sys.float_info.max:
        raise Overflow(f"catalan({k}) exceeds double range")
    return c


# ---------------------------------------------------------------------------
# region plumbing
# ---------------------------------------------------------------------------

def _region(region):
    """The Domain held by a wrapper such as a TriangleDomain; any other
    region (a Domain, an edge set, a hexagon set) as it is."""
    return getattr(region, "domain", region)


def _edges_of(region) -> tuple[HexEdge, ...]:
    """Edge tuple of a Domain, a wrapper holding one, or a raw edge set."""
    region = _region(region)
    if isinstance(region, Domain):
        return region.edges
    return tuple(sorted({edge(u, v) for u, v in region}))


def _free_hexagons(region) -> list:
    """Free set of a region: a Domain's strictly interior hexagons, a
    SpinSystem's free hexagons, or the hexagons given."""
    inner = _region(region)
    if isinstance(inner, Domain):
        return sorted(inner.interior_hexagons)
    return sorted({tuple(h) for h in getattr(inner, "free", inner)})


def _as_walks(gamma) -> list[tuple[HexVertex, ...]]:
    """Normalize a single vertex walk or a collection of walks."""
    walks = list(gamma)
    if not walks:
        return []
    head = walks[0]
    if isinstance(head, tuple) and len(head) == 3 and isinstance(head[0], int):
        return [tuple(tuple(v) for v in walks)]
    return [tuple(tuple(v) for v in w) for w in walks]


# ---------------------------------------------------------------------------
# brute-force engine
# ---------------------------------------------------------------------------

def even_subgraphs(edges: tuple[HexEdge, ...],
                   defects: frozenset[HexVertex] = frozenset(),
                   ) -> Iterator[list[HexEdge]]:
    """Every edge subset in which the defects have degree one and all other
    vertices degree zero or two, by depth-first search with degree pruning.

    Yields one list that the search keeps mutating: copy it to keep it.
    Nothing is yielded when a defect is not a vertex of the edge set.
    """
    verts = sorted({u for e in edges for u in e})
    vid = {v: i for i, v in enumerate(verts)}
    if any(d not in vid for d in defects):
        return
    nv = len(verts)
    total = [0] * nv
    for u, v in edges:
        total[vid[u]] += 1
        total[vid[v]] += 1
    cap = [1 if v in defects else 2 for v in verts]
    want_one = [v in defects for v in verts]

    deg = [0] * nv
    seen = [0] * nv
    chosen: list[HexEdge] = []

    def rec(k: int):
        if k == len(edges):
            yield chosen
            return
        u, v = edges[k]
        iu, iv = vid[u], vid[v]
        for take in (False, True):
            if take and (deg[iu] >= cap[iu] or deg[iv] >= cap[iv]):
                break
            if take:
                deg[iu] += 1
                deg[iv] += 1
                chosen.append(edges[k])
            seen[iu] += 1
            seen[iv] += 1
            ok = True
            for i in (iu, iv):
                if seen[i] == total[i]:
                    d = deg[i]
                    ok = ok and (d == 1 if want_one[i] else d % 2 == 0)
            if ok:
                yield from rec(k + 1)
            seen[iu] -= 1
            seen[iv] -= 1
            if take:
                deg[iu] -= 1
                deg[iv] -= 1
                chosen.pop()

    yield from rec(0)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _brute_table(edges: tuple[HexEdge, ...],
                 defects: frozenset[HexVertex]) -> Table:
    return Table(Counter((len(chosen), loop_count(chosen, defects))
                         for chosen in even_subgraphs(edges, defects)))


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

def sweep_width(edges: Iterable[HexEdge]) -> int:
    """Largest number of edges crossing the sweep frontier over the edges
    that a configuration with no defects can take, in the direction that
    :func:`sweep_table` sweeps then (:func:`_plan`), as its width cap counts
    it; a defect at a leaf keeps an edge that this count drops."""
    return _plan(_edges_of(edges), frozenset())[2]


#: codes of a frontier slot: no edge, the lower and the upper end of a
#: strand with both ends on the frontier, and a strand to a defect
_EMPTY, _OPEN, _CLOSE, _STRAND = range(4)
#: direction in which a bracket's partner lies
_STEP = {_OPEN: 1, _CLOSE: -1}


def _moves(block: tuple[int, ...], fresh: int, defect: bool) -> list:
    """Every way a vertex continues the strands of its arriving slots.

    ``block`` holds the codes of the arriving slots, whose place ``fresh``
    forward edges take.  A move is ``(fresh codes, edges taken, recode,
    loops closed)``; a recode ``(slot, step, code)`` gives the bracket
    partner of arriving slot ``slot``, which lies in direction ``step``,
    the code ``code``.
    """
    present = [(p, c) for p, c in enumerate(block) if c]
    empty = (_EMPTY,) * fresh
    if len(present) > 2 - defect:
        return []
    if len(present) == 1 - defect:  # a fresh edge carries a strand on, or
        code = present[0][1] if present else _STRAND  # starts one here
        return [(empty[:i] + (code,) + empty[i + 1:], 1, None, 0)
                for i in range(fresh)]
    if not present:  # no edge, or a new innermost pair of brackets
        return [(empty, 0, None, 0)] + [
            (empty[:i] + (_OPEN,) + empty[i + 1:j] + (_CLOSE,)
             + empty[j + 1:], 2, None, 0)
            for i, j in combinations(range(fresh), 2)]
    (p, c), (q, d) = present[0], present[-1]
    if defect:  # the strand ends at the defect
        return [(empty, 0, None if c == _STRAND else (p, _STEP[c], _STRAND),
                 0)]
    # two strands join: their far ends become one strand's, and only an
    # end that now pairs the other way, or reaches a defect, is recoded
    join = {(_OPEN, _OPEN): (q, 1, _OPEN), (_CLOSE, _CLOSE): (p, -1, _CLOSE),
            (_STRAND, _OPEN): (q, 1, _STRAND),
            (_STRAND, _CLOSE): (q, -1, _STRAND),
            (_OPEN, _STRAND): (p, 1, _STRAND),
            (_CLOSE, _STRAND): (p, -1, _STRAND)}
    return [(empty, 0, join.get((c, d)), int((c, d) == (_OPEN, _CLOSE)))]


def _step_moves(block: tuple[int, ...], kind: tuple) -> list:
    """The moves of a plan step (:func:`_plan`) by the codes of its
    arriving slots, as :func:`_moves` gives them, which runs at both ends of
    a vertical edge in turn: the step's arriving slots are the lower end's,
    then the upper end's others, and its fresh slots the lower end's
    others, then the upper end's."""
    (k, fresh, defect), *upper = kind
    moves = _moves(block[:k], fresh, defect)
    if not upper:
        return moves
    steps = []
    for new, taken, _, closed in moves:  # a lower end recodes nothing
        for top, more, recode, shut in _moves(new[-1:] + block[k:],
                                              upper[0][1], False):
            top = new[:-1] + top
            if recode and recode[0] == 0 and not any(block[:k]):
                # the pair was opened at the lower end, whose other fresh
                # slot is the partner of the vertical edge
                top, recode = (recode[2], *top[1:]), None
            # any other recode has k = 1: the vertical edge carried step
            # slot 0's strand on, and the upper end's slots are the step's
            steps.append((top, taken + more, recode, closed + shut))
    return steps


@lru_cache(maxsize=None)
def _placed_moves(kind: tuple, rows: int, lo: int) -> dict:
    """The moves of a plan step (:func:`_step_moves`) by old edge parity and
    the codes of its k arriving slots (less a vertical edge) as they sit in
    a key from slot ``lo`` on, two bits per slot; each move's fresh codes
    and recode slot placed alike, its edges and loops as flip and offset."""
    k, at = sum(v[0] for v in kind) - len(kind) + 1, 2 * lo + 1
    return {sum(c << 2 * i for i, c in enumerate(block)) << at | parity: [
        (sum(c << 2 * i for i, c in enumerate(new)) << at | taken % 2,
         recode and (lo + recode[0], *recode[1:]),
         (parity + taken) // 2 + closed * rows)
        for new, taken, recode, closed in _step_moves(block, kind)]
        for parity in (0, 1) for block in product(range(4), repeat=k)}


def _partner(codes: int, i: int, step: int) -> int:
    """Slot of the other end of the strand whose bracket is at slot ``i`` of
    the codes packed two bits per slot; a bracket with no partner is a
    fault of the engine, which raises instead of scanning without end."""
    depth = 0
    end = codes.bit_length() + 1 >> 1 if step > 0 else -1
    for j in range(i, end, step):
        c = codes >> 2 * j & 3
        if c == _OPEN:
            depth += step
        elif c == _CLOSE:
            depth -= step
        if depth == 0:
            return j
    raise RuntimeError(f"the bracket at slot {i} of {codes:#x} has no partner")


#: rows (a, b, c, d) of (aX + bY, cX + dY): twice the doubled coordinates
#: turned k times by 60 degrees about the origin hexagon, a lattice symmetry
_TURNS = ((2, 0, 0, 2), (1, -1, 3, 1), (-1, -1, 3, -1), (-2, 0, 0, -2),
          (-1, 1, -3, -1), (1, 1, -3, 1))


#: what the plans of one edge set share, whatever the defects, as
#: :func:`_plan` fills it in: per direction the vertices by abscissa, their
#: neighbours' places, and by midpoint each edge's key, ends' places, lower
#: first, and plumb flag; under None the cycle rank, which the peel keeps
_layout = lru_cache(maxsize=1)(lambda edges: {})


def _plan(edges: tuple[HexEdge, ...], defects: frozenset[HexVertex],
          turns: int | None = None) -> tuple[list, list[tuple], int, int]:
    """The sweep over vertex and edge numbers, less each edge at a vertex of
    degree one that is no defect, again and again, with the coordinates
    turned ``turns`` times (:data:`_TURNS`): the vertices left, by abscissa;
    per plan step (one vertex, or both ends of a vertical edge with no
    defect) ``(lo, hi, fresh, kind)``: its arriving edges' slots ``lo:hi``,
    which its ``fresh`` forward edges take, and its moves' key; the width,
    the most edges on the frontier at once; and the cycle rank E - V + C.
    Slots and edge numbers go by midpoint height, then abscissa; strands on
    the processed side of the cut cannot cross, so a vertex's arriving edges
    are adjacent (checked).  With no ``turns``, a plan wider than 6 is made
    in the narrowest direction, fewest estimated states, fewest turns."""
    lay, t = _layout(edges), turns or 0
    if t not in lay:
        a, b, c, d = _TURNS[t]
        xy = {v: (a * x + b * y, c * x + d * y) for v in {
            u for e in edges for u in e} for x, y in [hex_xy(v)]}
        verts = sorted(xy, key=xy.__getitem__)
        index = dict(zip(verts, range(len(verts))))
        near, mid = [[] for _ in verts], []
        for u, v in edges:
            i, j = index[u], index[v]
            if i > j:
                i, j, u, v = j, i, v, u
            (x, y), (xx, yy) = xy[u], xy[v]
            near[i].append(j)
            near[j].append(i)
            mid.append((y + yy, x + xx, i, j, x == xx))
        lay[t] = verts, near, sorted(mid)
        lay[None] = len(edges) - len(verts) + len(hexagon_components(
            index.values(), near.__getitem__))
    verts, near, mid = lay[t]
    degree = [len(ws) for ws in near]
    stack = [i for i, d in enumerate(degree) if d == 1]
    while stack:  # a leaf that is no defect is in no configuration
        i = stack.pop()
        if degree[i] == 1 and verts[i] not in defects:
            w = next(w for w in near[i] if degree[w])  # its edge left
            degree[i], degree[w] = 0, degree[w] - 1
            stack.append(w)
    arriving, fresh = ([[] for _ in verts] for _ in range(2))
    for k, (_, _, i, j, _) in enumerate(mid):
        if degree[i] and degree[j]:
            fresh[i].append(k)
            arriving[j].append(k)
    width = max(accumulate(map(sub, map(len, fresh), map(len, arriving)),
                           initial=0))
    if turns is None and width > 6:  # the six directions at once
        n, degree, ends = len(verts), np.array(degree), np.array(mid)[:, 2:4]
        i, j = ends[degree[ends].all(1)].T  # the edges left
        x, y = (np.array(_TURNS).reshape(6, 2, 2) @ np.array(
            list(map(hex_xy, verts))).T).transpose(1, 0, 2)
        key, met = (x << 32) + y, np.array([v in defects for v in verts])
        seq = key.argsort(1)  # after a vertex the frontier has its edges more,
        earlier = np.bincount((np.where(  # less twice those to earlier ones
            key[:, i] > key[:, j], i, j) + n * np.arange(6)[:, None]).ravel(),
            minlength=6 * n).reshape(6, n)
        w = np.take_along_axis(degree - 2 * earlier, seq, 1).cumsum(1)
        # states of m slots, d defects met: k <= d strand ends of d's parity
        states = np.array([[sum(math.comb(m, k) << m - k for k in range(
            d % 2, min(d, m) + 1, 2)) for d in range(len(defects) + 1)]
            for m in range(w.max() + 1)], object)  # exact: 2^1024 is no float
        cost = (states[w, met[seq].cumsum(1)] * (degree > 0)[seq]).sum(1)
        best = min(zip(w.max(1).tolist(), cost.tolist(), range(6)))[2]
        if best:
            return _plan(edges, defects, best)

    # vertical: the last vertex's vertical fresh edge, if it is no defect
    order, frontier, plan, vertical = [], [], [], None
    for v, came, new in zip(verts, arriving, fresh):
        if not (came or new):
            continue
        order.append(v)
        lo = frontier.index(came[0]) if came else bisect_left(frontier, new[0])
        hi = lo + len(came)
        assert frontier[lo:hi] == came, f"{v}: arriving slots apart"
        frontier[lo:hi] = new
        kind = (hi - lo, len(new), v in defects)
        if came and came[0] == vertical and not kind[2]:  # its upper end
            lo, hi, out, lower = plan.pop()
            plan.append((lo, hi + len(came) - 1, out - 1 + len(new),
                         lower + (kind,)))
        else:
            plan.append((lo, hi, len(new), (kind,)))
        vertical = new[-1] if new and mid[new[-1]][4] and not kind[2] else None
    return order, plan, width, lay[None]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _sweep_table(edges: tuple[HexEdge, ...],
                 defects: frozenset[HexVertex]) -> Table:
    verts, plan, width, rank = _plan(edges, defects)
    # the width is checked here, so only on a cache miss
    if width > MAX_SWEEP_WIDTH:
        raise WidthExceeded(f"sweep frontier width {width} exceeds the cap "
                            f"of {MAX_SWEEP_WIDTH}")
    if not defects <= set(verts):
        return Table({})

    # Kronecker packing: a state holds (offset, int), and its count of partial
    # configurations with m edges and l closed loops sits in the nbytes-wide
    # field at slot l * rows + m // 2 - offset of the int, loop-major since a
    # state's configurations span few loop counts.  The lattice is bipartite,
    # so one state's configurations, which differ by an even subgraph, share
    # the parity of m, and the key carries it.  Transitions move the offset; a
    # merge shifts the operand with the higher offset, so field 0 is never
    # zero.  Every usable vertex has degree <= 2, so m <= len(verts) and
    # m // 2 < rows, and a field never carries: it is at most 2^(cycle rank).
    rows, nbytes = len(verts) // 2 + 1, rank // 8 + 1
    bits = 8 * nbytes

    # a key: the edge parity in bit 0, slot i's code in bits 2i + 1 and 2i + 2
    states: dict[int, tuple[int, int]] = {0: (0, 1)}
    for lo, hi, fresh, kind in plan:
        moves, shift = _placed_moves(kind, rows, lo), fresh - (hi - lo)
        at_lo, at_hi, at_tail = 2 * lo + 1, 2 * hi + 1, 2 * (lo + fresh) + 1
        head_mask, arrived = (1 << at_lo) - 1, (1 << at_hi) - (1 << at_lo) | 1
        nxt: dict[int, tuple[int, int]] = {}
        get = nxt.get
        for key, (offset, poly) in states.items():
            rest = key & head_mask | key >> at_hi << at_tail
            for placed, recode, delta in moves[key & arrived]:
                new = rest ^ placed
                if recode is not None:
                    j = _partner(key >> 1, recode[0], recode[1])
                    at = 2 * (j + shift if j >= hi else j) + 1
                    new = new & ~(3 << at) | recode[2] << at
                low, old = offset + delta, get(new)
                if old is None:
                    nxt[new] = low, poly
                elif old[0] <= low:
                    nxt[new] = old[0], old[1] + (poly << (low - old[0]) * bits)
                else:
                    nxt[new] = low, poly + (old[1] << (old[0] - low) * bits)
        states = nxt
    return _unpack(states, rows, nbytes)


def _unpack(states: dict, rows: int, nbytes: int) -> Table:
    """The read-only :class:`Table` of the final state, if any (the lattice
    is bipartite, so one edge parity is left): field i of its int counts slot
    offset + i, slot l * rows + row holds 2 * row + parity edges and l loops,
    and the int shifted up by offset % rows fields is a grid of loop levels by
    rows, whose transposed cells with a nonzero byte come in key order."""
    if not states:
        return Table({})
    [(parity, (offset, packed))] = states.items()
    level, skip = divmod(offset, rows)
    packed, bits = packed << 8 * nbytes * skip, 8 * rows * nbytes
    raw = packed.to_bytes(-(-packed.bit_length() // bits) * bits // 8, "little")
    row, loops = np.nonzero(np.frombuffer(raw, np.uint8).reshape(
        -1, rows, nbytes).any(2).T)
    ms, ls = 2 * row + parity, loops + level
    return Table.__new__(Table)._fill(zip(zip(ms.tolist(), ls.tolist()), (
        int.from_bytes(raw[at:at + nbytes], "little")
        for at in ((loops * rows + row) * nbytes).tolist())), ms, ls)


def sweep_table(edges: Iterable[HexEdge],
                defects: Iterable[HexVertex] = ()) -> Table:
    """Configuration table by dynamic programming over frontier states;
    :class:`WidthExceeded` past a frontier of ``MAX_SWEEP_WIDTH`` slots."""
    return _sweep_table(_edges_of(edges), frozenset(tuple(d) for d in defects))


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------

def evaluate_table(table: Mapping, params: Params) -> WeightSum:
    """One float pass over a table's terms ``c x^m n^l`` in key order, their
    logs ``m log x + l log n + log c`` formed as arrays from the columns a
    read-only :class:`Table` keeps, which also keeps the sum per point; a
    mapping becomes a table."""
    if not isinstance(table, Table):
        table = Table(table)
    log_x, log_n = params.log_x, params.log_n
    got = table.sums.get((log_x, log_n))
    if got is None:
        ms, ls, lcs = table.columns
        got = table.sums[log_x, log_n] = WeightSum.sum_logs(
            ms * log_x + ls * log_n + lcs)
    return got


def _log_Z(edges: tuple[HexEdge, ...], defects: frozenset[HexVertex],
           params: Params) -> float:
    table = _sweep_table(edges, defects)
    return evaluate_table(table, params).log_magnitude


# ---------------------------------------------------------------------------
# relative weights of walks
# ---------------------------------------------------------------------------

def relative_weight(region, gamma, params: Params) -> float:
    """Relative weight of a self-avoiding walk (or disjoint union of walks).

    This is ``x`` to the walk length times the ratio of configuration sums
    after and before carving the walk out of the region.  Carving removes the
    walk's edges and the remaining edges at its two endpoints.  For a
    :class:`Domain` the walk must lie inside it, and the domain keeps each
    carving; for a raw edge set the removal is set-theoretic, so a walk may
    overhang edges that are already missing (which makes the two-step and
    one-step ways of carving a concatenated walk agree).
    """
    walks = _as_walks(gamma)
    region = _region(region)
    comps = (region.kept(("carved", *walks),
                         lambda: remove_paths(region, walks))
             if isinstance(region, Domain) else remove_paths(region, walks))
    length = sum(len(w) - 1 for w in walks if len(w) >= 2)
    log_rest = sum_in_order(_log_Z(c, frozenset(), params) for c in comps)
    log_full = _log_Z(_edges_of(region), frozenset(), params)
    return math.exp(length * params.log_x + log_rest - log_full)


@dataclass(frozen=True)
class PathSum:
    """A defect-pair sum ``Z^{a,b} / Z`` and the number of walks summed:
    0 from defect tables (:func:`path_sum`), every walk from the walk
    oracle of the tests."""

    value: float
    n_walks: int


def _targets(domain: Domain, a, b) -> tuple[HexVertex, frozenset]:
    """The source and the target set of a path sum, both checked to be
    vertices of the domain; ``b`` is one vertex or a collection."""
    a = tuple(a)
    if isinstance(b, tuple) and len(b) == 3 and isinstance(b[0], int):
        targets = frozenset([b])
    else:
        targets = frozenset(tuple(v) for v in b)
    if not targets:
        raise OutOfRange("no target vertices")
    for v in (a, *targets):
        if domain.degree(v) == 0:
            raise OutOfRange(f"{v} is not a vertex of the domain")
    return a, targets


def path_sum(domain: Domain, a: HexVertex, b, params: Params) -> PathSum:
    """Sum of ``Z^{a,t} / Z`` over the targets t other than ``a``, from the
    sweep engine's defect-pair tables.

    ``b`` may be a single vertex or a collection of target vertices (e.g. one
    side of a triangular domain).  By the loop expansion each term is the
    sum of relative weights of the self-avoiding walks from ``a`` to t,
    which the tests' walk oracle adds up walk by walk.
    """
    a, targets = _targets(domain, a, b)
    edges = domain.edges
    log_full = _log_Z(edges, frozenset(), params)
    return PathSum(sum_in_order(
        math.exp(_log_Z(edges, frozenset((a, t)), params) - log_full)
        for t in sorted(targets - {a})), 0)


# ---------------------------------------------------------------------------
# the edge-midpoint observable
# ---------------------------------------------------------------------------

def parafermion_field(domain: Domain, z0: HexEdge, params: Params,
                      sigma: float | None = None) -> dict[HexEdge, complex]:
    """The complex observable at every edge midpoint of the domain.

    The value at a midpoint ``z`` sums, over all self-avoiding midpoint
    walks from ``z0`` to ``z``, the walk's relative weight times
    ``exp(-i * sigma * winding)``.  A walk's two half-edges count one half
    each toward its length; carving it out removes the two parent edges
    fully, together with the interior edges.  The start ``z0`` must be the
    midpoint of an edge with one endpoint on the domain boundary, and its
    own value is exactly 1 (only the empty walk reaches it).
    """
    z0 = edge(*z0)
    if z0 not in domain.edge_index:
        raise PathNotInDomain(f"{z0} is not an edge of the domain")
    if len(domain.edges) > MAX_FIELD_EDGES:
        raise TooLarge(f"{len(domain.edges)} edges exceed the observable cap "
                       f"of {MAX_FIELD_EDGES}")
    if sigma is None:
        sigma = sigma_exponent(params.n)
    bset = set(domain.boundary)
    anchors = [w for w in z0 if w in bset]
    if len(anchors) != 1:
        raise OutOfRange("the start midpoint must lie on an edge with "
                         "exactly one boundary endpoint")
    a = anchors[0]
    u0 = z0[1] if z0[0] == a else z0[0]

    log_x = params.log_x
    log_full = _log_Z(domain.edges, frozenset(), params)
    all_edges = domain.edges
    terms: dict[HexEdge, complex] = {z0: 1.0 + 0j}  # added in walk order
    on_walk = {u0}
    used = {z0}
    depth = 1  # number of interior vertices visited so far

    def rec(v: HexVertex, dir_in: int, turns: int) -> None:
        nonlocal depth
        for e in domain.vertex_edges[v]:
            if e in used:
                continue
            w = e[1] if e[0] == v else e[0]
            dir_out = direction_class(v, w)
            wound = turns + turn_sign(dir_in, dir_out)
            # end the walk at the midpoint of e
            used.add(e)
            remainder = [ed for ed in all_edges if ed not in used]
            log_rest = sum_in_order(
                _log_Z(tuple(sorted(c)), frozenset(), params)
                for c in edge_components(remainder))
            log_w = depth * log_x + log_rest - log_full
            phase = cmath.exp(-1j * sigma * wound * math.pi / 3.0)
            terms[e] = terms.get(e, 0) + WeightSum(log_w, phase).value
            # or step through to w and continue
            if w not in on_walk and len(domain.vertex_edges.get(w, ())) > 1:
                on_walk.add(w)
                depth += 1
                rec(w, dir_out, wound)
                depth -= 1
                on_walk.discard(w)
            used.discard(e)

    rec(u0, direction_class(a, u0), 0)
    return dict(sorted(terms.items()))


# ---------------------------------------------------------------------------
# exact probabilities through the spin form
# ---------------------------------------------------------------------------

def _spin_system(region, tau) -> SpinSystem:
    """The system of a region in a frame, or a prebuilt one given as either."""
    for given in (region, tau):
        if isinstance(given, SpinSystem):
            return given
    free = _free_hexagons(region)
    if isinstance(tau, Mapping):
        return SpinSystem(free, {tuple(h): s for h, s in tau.items()})
    return SpinSystem(free, int(tau), sea=int(tau))


def spin_partition(system: SpinSystem, params: Params,
                   event: Callable | None = None, *,
                   side: str = "spins") -> WeightSum:
    """Weighted sum over free-spin assignments, optionally within an event.

    With ``side="spins"`` the event predicate sees a mapping from free
    hexagon to sign; with ``side="loops"`` it sees the frozen set of domain
    wall edges of the assignment; with ``side="framed"`` it reads the framed
    sign array, which it must neither change nor keep.  The system keeps
    its truth (:func:`_truth`), and its event-free sum per ``params``.
    """
    if side not in ("spins", "loops", "framed"):
        raise OutOfRange(f"unknown side {side!r}")
    free_sites(system)
    if event is None:
        return system.kept(("total", params), lambda: WeightSum.sum_logs(
            assignment_log_weights(system, params)))
    return WeightSum.sum_logs(list(compress(
        assignment_log_weights(system, params), _truth(system, event, side))))


def _truth(system: SpinSystem, event: Callable, side: str) -> bytes:
    """Whether the event holds (1) or not (0) at each assignment, in
    ``assignment_counts`` order, kept by event and side: one Gray-code walk
    in ``configs._gray_counts`` order on a framed sign array, read by side."""
    def walk() -> bytes:
        m, at, free = len(system.free), system._free_ctx, system.free
        full, out = system.framed_spins([-1] * m), bytearray(1 << m)
        sigma = dict.fromkeys(free, -1)  # in step with the array
        view = {"framed": lambda: full, "spins": sigma.copy,
                "loops": lambda: frozenset(e for e, i, j in system._wall_probes
                                           if full[i] != full[j])}[side]
        for t in range(1 << m):
            if t:
                iu = m - (t & -t).bit_length()
                full[at[iu]] = sigma[free[iu]] = -sigma[free[iu]]
            out[t ^ t >> 1] = bool(event(view()))
        return bytes(out)

    return system.kept((event, side), walk)


def exact_event_probability(region, tau, params: Params, event: Callable, *,
                            side: str = "spins",
                            total: WeightSum | None = None) -> float:
    """Exact probability of an event under the finite-volume spin measure.

    ``region`` is a set of free hexagons, a :class:`Domain` (whose strictly
    interior hexagons become the free set, making the wall configurations
    range over exactly the cycle space of the domain), or a ready-made
    :class:`SpinSystem`.  ``tau`` gives the frozen surrounding spins: a
    single sign or a mapping.  ``event`` is a predicate as in
    :func:`spin_partition`; probabilities of wall events equal the loop
    measure's by the spin-loop correspondence, on a context with holes too,
    where each hole is a cluster of its own (see ``configs``).

    A named event that carries its own ``side`` and support requirements
    (see ``observables.event_from_json``) is validated against the system
    and routed to the representation it consumes.  One that builds a
    predicate on the framed sign array (its ``framed``) is read there, with
    the built predicate kept on the system, so that its truth is too.

    ``total`` is the event-free sum of the system at ``params``, for a
    caller that asks for several events of one system.
    """
    system = _spin_system(region, tau)
    if hasattr(event, "side") and hasattr(event, "validate_support"):
        event.validate_support(system)
        side, spec = event.side, event
        if spec.framed is not None:
            side, event = "framed", system.kept(
                ("framed", spec), lambda: spec.framed(system))
    if total is None:
        total = spin_partition(system, params)
    wanted = spin_partition(system, params, event, side=side)
    return math.exp(wanted.log_magnitude - total.log_magnitude)
