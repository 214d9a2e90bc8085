"""The benchmark's workloads: inputs from a seed, one timed pass, gates.

Each job is built once by set-up and then run pass after pass.  A pass
returns a :class:`Pass` with the seconds its operations took, how many it
attempted and how many failed, and the figures its metrics need.  An
operation is a verify report, a table or a chain run; it fails when it
raises or when its correctness gate does not hold.  ``work`` is what one
pass does, in the unit of ``ops_per_s``.  ``span(name)`` marks a part of
the pass for the traced run and costs nothing otherwise; ``pause()`` runs
between operations, outside the timed intervals.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from statistics import median


def no_span(name):
    return nullcontext()


def no_pause():
    pass


@dataclass
class Pass:
    seconds: float
    attempted: int
    failed: int
    values: dict = field(default_factory=dict)


def scaled_wall(passes: list[Pass]) -> float:
    """Median pass seconds at the reference machine speed."""
    return median(p.seconds * p.values["scale"] for p in passes)


def _report_failure(what: str) -> None:
    print(f"bench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verify: many small exact instances through the CLI
# ---------------------------------------------------------------------------

#: reports of ``verify --suite all`` on the shipped default grid
EXPECTED_ALL_REPORTS = 322
#: triangle side 6 at three loop weights: 186 walks per check
TRIANGLE_GRID = {"triangle": {"sides": [6], "ns": [1.0, 1.5, 2.0]}}


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``hexloop <argv>`` in process; its stdout text and exit code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_gate(code: int, text: str, expected: int) -> int:
    """Failed reports of one verify invocation: those failing in their
    region, or all of them when the output as a whole is wrong."""
    body = json.loads(text)
    failed = sum(1 for r in body["reports"]
                 if r["in_region"] and not r["holds"])
    if (code != (1 if failed else 0) or body["n_reports"] != expected
            or body["n_failed_in_region"] != failed):
        return expected
    return failed


def suites(cli) -> list[str]:
    return [s for s in cli.SUITES if s != "all"]


class VerifyJob:
    """``verify --suite all`` on the default grid, then the triangle suite
    at side 6."""

    def __init__(self, hx, seed: int):
        self.hx = hx
        # the fixture files every suite reads, loaded as part of set-up
        fx = hx.fixtures
        self.fixtures = (fx.load_default_grid(), fx.load_domains(),
                         fx.load_monotone_pairs(),
                         fx.load_symmetric_fixtures())
        self.invocations = (
            ("all", ["verify", "--suite", "all"], EXPECTED_ALL_REPORTS),
            ("triangle", ["verify", "--suite", "triangle", "--params",
                          json.dumps(TRIANGLE_GRID)], 3),
        )
        self.work = sum(expected for _, _, expected in self.invocations)

    def run(self, span=no_span, pause=no_pause) -> Pass:
        outputs = []
        seconds = 0.0
        for label, argv, expected in self.invocations:
            pause()
            t0 = time.perf_counter()
            with span(f"cli.verify.{label}"):
                try:
                    outputs.append(run_cli(self.hx.cli, argv))
                except Exception:
                    _report_failure(f"verify {label}")
                    outputs.append(None)
            seconds += time.perf_counter() - t0
        attempted = failed = 0
        for (label, _, expected), out in zip(self.invocations, outputs):
            attempted += expected
            try:
                failed += (expected if out is None
                           else verify_gate(*out, expected))
            except (ValueError, KeyError, TypeError):
                _report_failure(f"reading verify {label}")
                failed += expected
        return Pass(seconds, attempted, failed)

    def named(self, passes: list[Pass]) -> dict:
        return {"checks_per_s": (self.work / scaled_wall(passes), "1/s")}

    def suite_seconds(self, clear_caches) -> tuple[dict, int, int]:
        """Seconds of ``verify --suite <s>`` per suite, each from cold."""
        out, attempted, failed = {}, 0, 0
        for suite in suites(self.hx.cli):
            clear_caches()
            t0 = time.perf_counter()
            try:
                code, text = run_cli(self.hx.cli, ["verify", "--suite", suite])
            except Exception:
                _report_failure(f"verify --suite {suite}")
                code, text = 1, ""
            out[suite] = time.perf_counter() - t0
            attempted += 1
            if code != 0 or json.loads(text or "{}").get("n_failed_in_region"):
                failed += 1
        return out, attempted, failed


# ---------------------------------------------------------------------------
# tables: the transfer-matrix engine on a wide and a long domain
# ---------------------------------------------------------------------------

#: (kind, lattice constructor, its arguments)
DOMAINS = {
    "wide": ("hexagon_ball", (3,)),             # 156 edges, width 9
    "middle": ("rectangle_hexagons", (6, 6)),   # 157 edges, width 8
    "long": ("rectangle_hexagons", (10, 4)),    # 177 edges, width 6
}
DEFECT_SIZES = (0, 2, 4)
GRID_N = (0.5, 1.0, 1.25, 1.5, 2.0)
GRID_X = (0.3, 0.5, 0.6, 1.0)


@dataclass(frozen=True)
class TableCase:
    kind: str
    edges: tuple
    defects: tuple
    cycle_rank: int   # E - V + 1 of the connected domain


class TablesJob:
    """``sweep_table`` per domain with no defects, a defect pair and a
    4-set, each evaluated on a 5 x 4 grid of (n, x).

    The defect sets are fixed, spread evenly over the degree <= 2 vertices
    in sweep order: one table's cost moves by 20-30% with where its
    defects sit, more than the metrics' bounds, so a seed that drew them
    would measure the draw.  The seed shuffles the build order.
    """

    def __init__(self, hx, seed: int, kinds=tuple(DOMAINS)):
        self.hx = hx
        lat = hx.lattice
        self.cases = []
        for kind in kinds:
            make, args = DOMAINS[kind]
            domain = lat.domain_from_hexagons(getattr(lat, make)(*args))
            edges = tuple(domain.edges)
            verts = sorted({v for e in edges for v in e})
            # at a vertex of degree <= 2, odd degree means exactly one, so
            # every even defect set there admits 2^(cycle rank) configurations
            low = sorted((v for v in verts if domain.degree(v) <= 2),
                         key=lat.hex_xy)
            for size in DEFECT_SIZES:
                picks = tuple(low[(2 * i + 1) * len(low) // (2 * size)]
                              for i in range(size))
                self.cases.append(TableCase(
                    kind, edges, picks, len(edges) - len(verts) + 1))
        random.Random(seed).shuffle(self.cases)
        Params = hx.configs.Params
        self.points = [Params(n, x) for n in GRID_N for x in GRID_X]
        self.unit = self.points.index(Params(1.0, 1.0))
        self.tol = hx.checks.ALGEBRAIC_TOL
        self.work = len(self.cases)

    def _gate(self, case: TableCase, table: dict, sums: list) -> bool:
        if sum(table.values()) != 2 ** case.cycle_rank:
            return False
        if any(s.phase != 1 or not math.isfinite(s.log_magnitude)
               for s in sums):
            return False
        return math.isclose(sums[self.unit].log_magnitude,
                            case.cycle_rank * math.log(2),
                            rel_tol=self.tol, abs_tol=self.tol)

    def run(self, span=no_span, pause=no_pause) -> Pass:
        ex = self.hx.exact
        results, per_table = [], []
        seconds = 0.0
        for case in self.cases:
            pause()
            with span(f"tables.{case.kind}"):
                ta = time.perf_counter()
                try:
                    table = ex.sweep_table(case.edges, case.defects)
                    tb = time.perf_counter()
                    sums = [ex.evaluate_table(table, p) for p in self.points]
                except Exception:
                    _report_failure(f"table {case.kind} {case.defects}")
                    results.append(None)
                    continue
                finally:
                    seconds += time.perf_counter() - ta
            per_table.append((case.kind, len(case.defects), tb - ta))
            results.append((table, sums))
        failed = sum(1 for case, res in zip(self.cases, results)
                     if res is None or not self._gate(case, *res))
        return Pass(seconds, len(self.cases), failed, {"tables": per_table})

    def table_seconds(self, passes: list[Pass], kind: str, size=None,
                      scaled=True):
        """Median seconds of one table build, scaled like its pass."""
        times = [t * (p.values["scale"] if scaled else 1.0) for p in passes
                 for k, s, t in p.values["tables"]
                 if k == kind and (size is None or s == size)]
        return median(times) if times else 0.0

    def named(self, passes: list[Pass]) -> dict:
        kinds = {c.kind for c in self.cases}
        return {f"{k}_table_s": (self.table_seconds(passes, k), "s")
                for k in ("wide", "long") if k in kinds}


# ---------------------------------------------------------------------------
# chain: the ROADMAP's sample scene
# ---------------------------------------------------------------------------

RADIUS = 10
SWEEPS = 1000
BURN_IN = 100
EVENTS = ({"type": "annulus_loop", "k": 4}, {"type": "plus_circuit", "k": 4})


def output_digest(estimates) -> int:
    """48-bit digest of the means and tau_int of a chain's estimates."""
    text = json.dumps([[e.mean, e.tau_int] for e in estimates])
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


class ChainJob:
    """``run_chain`` on ball r = 10 with tau = plus at n = 1.5, x_c."""

    def __init__(self, hx, seed: int):
        self.hx = hx
        self.seed = seed
        self.params = hx.configs.Params(1.5, hx.exact.x_critical(1.5))
        self.system = hx.configs.SpinSystem(
            sorted(hx.lattice.hexagon_ball(RADIUS)), 1, sea=1)
        # what a chain builds before its first sweep belongs to set-up
        hx.sampler.ChainState(self.system, self.params, seed=seed)
        self.work = (SWEEPS + BURN_IN) * len(self.system.free)  # site updates

    def _run_keeping_state(self):
        """``run_chain`` and the ChainState it built."""
        sampler = self.hx.sampler
        base = sampler.ChainState
        kept = []

        class Kept(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kept.append(self)

        sampler.ChainState = Kept
        try:
            estimates = sampler.run_chain(
                self.system, 1, self.params, SWEEPS, BURN_IN, seed=self.seed,
                events=[dict(e) for e in EVENTS])
        finally:
            sampler.ChainState = base
        return estimates, kept[-1]

    def _gate(self, estimates, state) -> bool:
        recount = self.hx.configs.spin_counts(self.system, state.free_signs())
        return (state.counts == recount and len(estimates) == len(EVENTS)
                and all(0.0 <= e.mean <= 1.0 and math.isfinite(e.stderr)
                        and math.isfinite(e.tau_int) for e in estimates))

    def run(self, span=no_span, pause=no_pause) -> Pass:
        t0 = time.perf_counter()
        try:
            estimates, state = self._run_keeping_state()
        except Exception:
            _report_failure("run_chain")
            return Pass(time.perf_counter() - t0, 1, 1)
        seconds = time.perf_counter() - t0
        ok = self._gate(estimates, state)
        return Pass(seconds, 1, 0 if ok else 1,
                    {"estimates": estimates,
                     "digest": output_digest(estimates)})

    def named(self, passes: list[Pass]) -> dict:
        return {"site_updates_per_s": (self.work / scaled_wall(passes), "1/s")}


def digest_mismatches(passes: list[Pass]) -> int:
    """Passes of one seeded chain whose output differs from the first."""
    digests = [p.values["digest"] for p in passes if "digest" in p.values]
    return sum(1 for d in digests if d != digests[0])


WORKLOADS = {
    "verify": VerifyJob,
    "tables": TablesJob,
    "tables-long": lambda hx, seed: TablesJob(hx, seed, kinds=("long",)),
    "chain": ChainJob,
}
