"""Tracing shim for the traced benchmark runs.

``Tracer.install`` wraps hexloop's public functions in place, in every
hexloop module that binds them by name (``checks``, ``sampler`` and ``cli``
import most of them with ``from .x import y``), and keeps one span per call
in memory: name, start, end and the index of the enclosing span (-1 at the
top).  ``restore`` puts every attribute back.  Untraced runs never import
this module, so their timings carry no wrapper cost.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from contextlib import contextmanager

#: the ten checks the ``verify`` suites run
CHECKS = (
    "check_fkg_lattice",
    "check_cbc",
    "check_several_faces",
    "check_domain_markov_and_duality",
    "check_bijection",
    "check_catalan_bound",
    "check_domain_monotonicity",
    "check_triangle_lower_bound",
    "check_contour_identity",
    "check_symmetric_domain",
)

SWEEP_SPAN = "sampler.sweep"
RECOUNT_SPAN = "sampler.recount"
EVENT_SPAN = "sampler.events"


class Tracer:
    """In-memory spans and counters around hexloop's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as a span; ``after(args, result)`` may count."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(rec)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_everywhere(self, modules, original, name, after=None) -> None:
        wrapper = self.wrap(original, name, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self, hx) -> None:
        """Wrap the layer boundaries of the hexloop modules in ``hx``."""
        mods = list(vars(hx).values())
        lat, ex, sam = hx.lattice, hx.exact, hx.sampler

        def width(args, result):
            key = "exact.sweep_width.max"
            self.counts[key] = max(self.counts.get(key, 0), result)

        spanned = [
            (lat.domain_from_hexagons, "lattice.domain_from_hexagons", None),
            (lat.triangle_domain, "lattice.triangle_domain", None),
            # the lru-cached engine behind sweep_table, which the checks
            # reach through private helpers, so cache hits count as calls
            (ex._sweep_table, "exact.sweep_table",
             lambda a, r: self.count("exact.sweep_table.terms", len(r))),
            (ex.sweep_width, "exact.sweep_width", width),
            (ex.evaluate_table, "exact.evaluate_table", None),
            (ex.path_sum, "exact.path_sum",
             lambda a, r: self.count("exact.path_sum.walks", r.n_walks)),
            (ex.relative_weight, "exact.relative_weight", None),
            (ex.parafermion_field, "exact.parafermion_field", None),
            (ex.spin_partition, "exact.spin_partition",
             lambda a, r: self.count("exact.spin_partition.assignments",
                                     2 ** len(a[0].free))),
            (sam.run_chain, "sampler.run_chain", None),
        ]
        spanned += [(getattr(hx.checks, c), f"checks.{c}", None)
                    for c in CHECKS]
        for original, name, after in spanned:
            self._wrap_everywhere(mods, original, name, after)

        state = sam.ChainState
        self._patch(state, "sweep", self.wrap(
            state.sweep, SWEEP_SPAN,
            lambda a, r: self.count("sampler.flips", r)))
        # only the sampler's own bindings: a full recount there is the
        # fallback when the local cluster search runs out of budget
        self._patch(sam, "spin_counts",
                    self.wrap(sam.spin_counts, RECOUNT_SPAN))
        self._patch(sam, "spins_to_loops",
                    self.wrap(sam.spins_to_loops, EVENT_SPAN))

        annulus = sam.annulus_signs_event
        self._patch(sam, "annulus_signs_event", functools.wraps(annulus)(
            lambda *a, **k: self.wrap(annulus(*a, **k), EVENT_SPAN)))
        from_json = sam.event_from_json
        self._patch(sam, "event_from_json", functools.wraps(from_json)(
            lambda obj: self._timed_spec(from_json(obj))))

    def _timed_spec(self, spec):
        return dataclasses.replace(
            spec, predicate=self.wrap(spec.predicate, EVENT_SPAN))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def under(self, name: str, ancestor: str) -> list[float]:
        """Durations of ``name`` spans that have an ``ancestor`` span."""
        out = []
        for n, start, end, parent in self.spans:
            if n != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                out.append(end - start)
        return out

    def child_count(self, name: str, parent_name: str) -> int:
        return sum(1 for n, _, _, p in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
